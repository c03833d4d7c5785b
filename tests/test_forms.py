from fractions import Fraction as Fr
from itertools import combinations

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import half_sl2, half_solv2, random_melt
from pseudoalg import liealg
from pseudoalg.constructions import make_wd, wd_element
from pseudoalg.forms import (act_on_form, act_on_full_module,
                             contract_form, differential_on_quotient,
                             form_differential, form_module, full_form_module,
                             volume_action_expected, wd_action_on_forms,
                             wedge_structure)
from pseudoalg.liealg import sort_with_sign
from pseudoalg.linalg import bump
from pseudoalg.pbw import HElt, mi_unit, mi_zero, mul_basis, multiindices_up_to
from pseudoalg.pseudo import compose_left, compose_right, verify_module
from pseudoalg.tensor import MElt, QElt

SMALL = ("abelian1", "abelian2", "solv2")


@pytest.fixture(params=SMALL)
def small_wd(request):
    alg = liealg.algebra_by_name(request.param)
    P, M = make_wd(alg)
    return alg, P, M


def basis_fields(alg, P):
    z = mi_zero(alg.dim)
    return [wd_element(P, [(z, a, 1)]) for a in range(alg.dim)]


def test_action_degree_zero_recovers_module(small_wd):
    alg, P, M = small_wd
    z = mi_zero(alg.dim)
    mod0 = form_module(alg, 0)
    for a in range(alg.dim):
        got = act_on_form(alg, wd_element(P, [(z, a, 1)]), mod0.element(()))
        ea = tuple(1 if p == a else 0 for p in range(alg.dim))
        assert got == QElt(mod0, 2, {((z, ea), (), z): -1}).canonicalize()


def test_action_on_volume(small_wd):
    alg, P, _ = small_wd
    z = mi_zero(alg.dim)
    for a in range(alg.dim):
        got = act_on_form(alg, wd_element(P, [(z, a, 1)]),
                          form_module(alg, alg.dim).element(tuple(range(alg.dim))))
        assert got == volume_action_expected(alg, a)


def test_action_abelian2_hand_expansion():
    # field 1 (x) d1 on the basis one-form dual to d2: only the module term
    # with w(d1 ^ .) survives, evaluated by the three-sum rule
    alg = liealg.abelian(2)
    P, _ = make_wd(alg)
    z = (0, 0)
    mod = form_module(alg, 1)
    got = act_on_form(alg, wd_element(P, [(z, 0, 1)]), mod.element((1,)))
    # -(1 (x) w(d2) d1) on the (2) slot only: w(d2) = 1, so -(1 (x) d1) (x) dual2
    expect = QElt(mod, 2, {((z, (1, 0)), (1,), z): -1})
    assert got == expect.canonicalize()


def test_contraction_dual_pairing():
    alg = liealg.abelian(2)
    P, _ = make_wd(alg)
    z = (0, 0)
    w = form_module(alg, 1).element((0,))
    got = contract_form(alg, wd_element(P, [(z, 0, 1)]), w)
    mod = form_module(alg, 0)
    assert got == QElt(mod, 2, {((z, z), (), z): 1}).canonicalize()
    assert not contract_form(alg, wd_element(P, [(z, 1, 1)]), w)


def test_contraction_of_zero_form_rejected():
    alg = liealg.abelian(1)
    P, _ = make_wd(alg)
    with pytest.raises(ValueError):
        contract_form(alg, wd_element(P, [((0,), 0, 1)]), form_module(alg, 0).element(()))


def test_differential_degree_zero():
    alg = liealg.solvable2()
    w = MElt(form_module(alg, 0), {(mi_unit(2, 0), ()): 1})
    dw = form_values(form_differential(alg, w))
    for a in range(2):
        assert dw[(a,)] == -(HElt.gen(alg, 0) * HElt.gen(alg, a))


@pytest.mark.parametrize("name", ["abelian1", "abelian2", "abelian3",
                                  "solv2", "heis3", "sl2"])
def test_dd_zero_exhaustive(name):
    alg = liealg.algebra_by_name(name)
    for deg in range(alg.dim - 1):
        mod = form_module(alg, deg)
        for T in mod.gens:
            assert not form_differential(alg, form_differential(alg, mod.element(T)))


def test_differential_h_linear(rng):
    alg = liealg.heisenberg3()
    h = HElt.monomial(alg, (1, 1, 0), Fr(2, 3))
    w = form_module(alg, 2).element((0, 1))
    assert form_differential(alg, w.h_mul(h)) == form_differential(alg, w).h_mul(h)


def test_differential_of_a_top_form_is_zero_past_the_top(small_wd):
    # d lands in the forms of degree dim + 1, which have no basis; the
    # calculus takes that zero as it takes any other form
    alg, P, _ = small_wd
    N = alg.dim
    field = basis_fields(alg, P)[0]
    d = form_differential(alg, form_module(alg, N).element(tuple(range(N))))
    assert d.module.same_as(form_module(alg, N + 1)) and not d
    assert not act_on_form(alg, field, d) and not form_differential(alg, d)
    assert contract_form(alg, field, d).module.same_as(form_module(alg, N))


def test_cartan_identity(small_wd):
    alg, P, _ = small_wd
    N = alg.dim
    for field in basis_fields(alg, P):
        for deg in range(N + 1):
            mod = form_module(alg, deg)
            for T in mod.gens:
                w = mod.element(T)
                lhs = act_on_form(alg, field, w)
                rhs1 = (differential_on_quotient(alg, contract_form(alg, field, w),
                                                 deg - 1)
                        if deg >= 1 else QElt(mod, 2))
                rhs2 = (contract_form(alg, field, form_differential(alg, w))
                        if deg <= N - 1 else QElt(mod, 2))
                assert lhs == (rhs1 + rhs2).canonicalize(), (alg.name, T)


def test_action_commutes_with_differential(small_wd):
    alg, P, _ = small_wd
    N = alg.dim
    for field in basis_fields(alg, P):
        for deg in range(N):
            mod = form_module(alg, deg)
            for T in mod.gens:
                w = mod.element(T)
                lhs = act_on_form(alg, field, form_differential(alg, w))
                rhs = differential_on_quotient(alg, act_on_form(alg, field, w), deg)
                assert lhs == rhs.canonicalize()


def test_contractions_anticommute(small_wd, rng):
    alg, P, _ = small_wd
    N = alg.dim
    if N < 2:
        pytest.skip("needs at least two directions")

    def act_iota(a_elt, d_elt):
        return contract_form(alg, a_elt, d_elt)

    w = form_module(alg, N).element(tuple(range(N)))
    for _ in range(6):
        f1 = random_melt(P.module, 1, rng)
        f2 = random_melt(P.module, 1, rng)
        inner2 = contract_form(alg, f2, w)
        lhs = compose_right(f1, inner2, act_iota, form_module(alg, N - 2))
        inner1 = contract_form(alg, f1, w)
        rhs = compose_right(f2, inner1, act_iota,
                            form_module(alg, N - 2)).permuted([1, 0, 2])
        assert not (lhs + rhs.canonicalize()).canonicalize()


def test_forms_are_modules(small_wd):
    alg, P, _ = small_wd
    for deg in range(alg.dim + 1):
        assert verify_module(P, wd_action_on_forms(P, deg)).ok


def test_wedge_superderivation(rng):
    # the action is a superderivation of the wedge current structure:
    # alpha (v ^ w) = (alpha v) ^ w + sigma-twisted v ^ (alpha w)
    alg = liealg.solvable2()
    P, _ = make_wd(alg)
    W = wedge_structure(alg)
    full = full_form_module(alg)
    z = mi_zero(alg.dim)
    for a in range(alg.dim):
        field = wd_element(P, [(z, a, 1)])
        for T1 in [(), (0,), (1,)]:
            for T2 in [(), (0,), (1,)]:
                v = full.element(T1)
                w = full.element(T2)
                inner = W.bracket(v, w)
                lhs = compose_right(field, inner,
                                    lambda _, m: act_on_full_module(P, field, m), full)
                t1 = compose_left(act_on_full_module(P, field, v),
                                  W.bracket, w, full)
                inner2 = act_on_full_module(P, field, w)
                t2 = compose_right(v, inner2, W.bracket, full).permuted([1, 0, 2])
                assert lhs == (t1 + t2.canonicalize()).canonicalize(), (a, T1, T2)


# -- the general formulas, written out for any field and any H-valued form ---
#
# The library writes the action, the contraction and the differential once,
# for a generator field and a basis form, and extends them H-bilinearly.
# These are the by-hand bodies for f (x) d_a and any form that the
# extension replaced, kept as the oracle the property below holds the
# library to.  They read a form through its {T: HElt} view: the value on
# each strictly increasing index tuple T.

def form_degree(w):
    return len(w.module.gens[0])


def form_values(w):
    """The {T: HElt} view of a form: d^(I) w*(T) adds d^(I) to the value on T."""
    alg = w.module.alg
    out = {}
    for (I, T), v in w.c.items():
        out[T] = out.get(T, HElt.zero(alg)) + HElt.monomial(alg, I, v)
    return out


def form_value(alg, values, args):
    """A view evaluated on basis vectors in any order, with sign; 0 on repeats."""
    sign, key = sort_with_sign(args)
    base = values.get(key)
    if not sign or base is None:
        return HElt.zero(alg)
    return base.scale(sign)


def form_value_with_vector(alg, values, vec, rest):
    """A view evaluated with its first slot a coefficient vector over the basis."""
    out = HElt.zero(alg)
    for i, ci in vec.items():
        out = out + form_value(alg, values, (i,) + tuple(rest)).scale(ci)
    return out


def _add_pairs(acc, K, h, scale):
    """acc += scale * (d^(K) (x) h), keyed by pairs (K, I)."""
    for I, v in h.c.items():
        bump(acc, (K, I), scale * v)


def reference_act_on_form(alg, wfield, w):
    """For a field sum f (x) d_a the value map on arguments args is
        - f (x) w(args) d_a
        + sum over slots: sign * f d_{args i} (x) w(a ^ args-without-i)
        + sum over slots: sign * f (x) w([a, args i] ^ args-without-i).
    """
    n = form_degree(w)
    values = form_values(w)
    mod = form_module(alg, n)
    out = QElt(mod, 2)
    zero = mi_zero(alg.dim)
    for (F, a), fv in wfield.c.items():
        for T in combinations(range(alg.dim), n):
            acc = {}  # coefficients of d^(K) (x) d^(I)
            base = form_value(alg, values, T)
            if base:
                _add_pairs(acc, F, base * HElt.gen(alg, a), -fv)
            for pos in range(n):
                rest = T[:pos] + T[pos + 1:]
                sign = (-1) ** (pos + 1)
                inner = form_value(alg, values, (a,) + rest)
                if inner:
                    ai = mi_unit(alg.dim, T[pos])
                    for K, ck in mul_basis(alg, F, ai).items():
                        _add_pairs(acc, K, inner, sign * fv * ck)
                brk = alg.bracket(a, T[pos])
                if brk:
                    val = form_value_with_vector(alg, values, brk, rest)
                    if val:
                        _add_pairs(acc, F, val, sign * fv)
            for (K, I), v in acc.items():
                out._bump((K, I), T, zero, v)
    return out.canonicalize()


def reference_contract_form(alg, wfield, w):
    """Value map args -> f (x) w(a ^ args)."""
    n = form_degree(w)
    values = form_values(w)
    mod = form_module(alg, n - 1)
    out = QElt(mod, 2)
    zero = mi_zero(alg.dim)
    for (F, a), fv in wfield.c.items():
        for T in combinations(range(alg.dim), n - 1):
            val = form_value(alg, values, (a,) + T)
            if val:
                for I, v in val.c.items():
                    out._bump((F, I), T, zero, fv * v)
    return out.canonicalize()


def reference_act_on_full_module(alg, field, m):
    """The action degree by degree, one monomial term of m at a time."""
    out = QElt(full_form_module(alg), 2)
    for (I, T), v in m.c.items():
        q = reference_act_on_form(alg, field, MElt(form_module(alg, len(T)), {(I, T): v}))
        for (key, Tg, L), qv in q.c.items():
            out._bump(key, Tg, L, qv)
    return out.canonicalize()


def reference_form_differential(alg, w):
    """The {T: HElt} view of the differential of w, value by value:
        (dw)(T) = sum over slot pairs i < j: (-1)^(i+j) w([T_i, T_j] ^ T-without-i,j)
                  + sum over slots i: (-1)^(i+1) w(T-without-i) d_{T_i};
    on degree 0, (dw)(a) = -w d_a, and d vanishes on top forms."""
    n = form_degree(w)
    values = form_values(w)
    out = {}
    if n >= alg.dim:
        return out
    for T in combinations(range(alg.dim), n + 1):
        acc = HElt.zero(alg)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                rest = tuple(T[p] for p in range(n + 1) if p != i and p != j)
                sign = (-1) ** (i + j)  # (-1)^{i+j} for the 1-based pair
                acc = acc + form_value_with_vector(alg, values, alg.bracket(T[i], T[j]),
                                                   rest).scale(sign)
        for i in range(n + 1):
            rest = tuple(T[p] for p in range(n + 1) if p != i)
            sign = (-1) ** (i + 1)
            acc = acc + (form_value(alg, values, rest) * HElt.gen(alg, T[i])).scale(sign)
        if acc:
            out[T] = acc
    return out


def reference_differential_on_quotient(alg, q, src_degree):
    """The module part of q pushed through the reference differential of
    each basis form."""
    target = form_module(alg, src_degree + 1)

    def dgen(T):
        values = reference_form_differential(alg, form_module(alg, src_degree).element(T))
        return MElt(target, {(I, Td): v for Td, h in values.items() for I, v in h.c.items()})

    return q.map_module(dgen, target)


def typed(c):
    """A coefficient map with each value's type, so 2 and Fraction(2) differ."""
    return {k: (type(v), v) for k, v in c.items()}


def typed_items(c):
    """The same in key order."""
    return [(k, type(v), v) for k, v in c.items()]


def typed_values(values):
    """A {T: HElt} view with each coefficient's type."""
    return {T: typed(h.c) for T, h in values.items()}


# half_sl2 and half_solv2 carry Fraction structure constants
CALCULUS_ALGEBRAS = [liealg.algebra_by_name(n) for n in ("abelian2", "abelian3", "solv2",
                                                         "heis3", "sl2")]
CALCULUS_ALGEBRAS += [half_sl2(), half_solv2()]
CALCULUS_WD = [make_wd(alg)[0] for alg in CALCULUS_ALGEBRAS]
COEFFS = st.one_of(st.integers(-3, 3),
                   st.builds(Fr, st.integers(-6, 6), st.sampled_from((1, 2, 3))))


def combinations_of(keys, max_size):
    """A nonempty sparse map over the keys, zero coefficients allowed."""
    return st.dictionaries(st.sampled_from(keys), COEFFS, min_size=1, max_size=max_size)


@st.composite
def calculus_cases(draw):
    P = draw(st.sampled_from(CALCULUS_WD))
    alg = P.alg
    mis = multiindices_up_to(alg.dim, 2)
    n = draw(st.integers(0, alg.dim))
    mod = form_module(alg, n)
    full = full_form_module(alg)
    field = MElt(P.module, draw(combinations_of([(I, a) for I in mis for a in P.module.gens], 3)))
    w = MElt(mod, draw(combinations_of([(I, T) for I in mis for T in mod.gens], 4)))
    m = MElt(full, draw(combinations_of([(I, T) for I in mis for T in full.gens], 3)))
    q = QElt(mod, 2, draw(st.dictionaries(
        st.tuples(st.tuples(st.sampled_from(mis), st.sampled_from(mis)),
                  st.sampled_from(mod.gens), st.sampled_from(mis)),
        COEFFS, min_size=1, max_size=3)))
    gen = (draw(st.sampled_from(P.module.gens)), draw(st.sampled_from(mod.gens)))
    return P, field, w, m, q, gen


# 150 draws add about 1.5 s to tier-1 (Python 3.11 on 2 vCPUs).  Each runs the
# extension over fields and forms of PBW degree up to 2, so shrinking a
# failure takes long; the property reports the first failing example.
@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          phases=set(Phase) - {Phase.shrink, Phase.explain})
@given(calculus_cases())
def test_calculus_matches_general_formulas(case):
    P, field, w, m, q, (a, T) = case
    alg = P.alg
    n = form_degree(w)
    assert typed(act_on_form(alg, field, w).c) == typed(reference_act_on_form(alg, field, w).c)
    if n:
        assert typed(contract_form(alg, field, w).c) == \
            typed(reference_contract_form(alg, field, w).c)
    else:
        with pytest.raises(ValueError):
            contract_form(alg, field, w)
    assert typed_values(form_values(form_differential(alg, w))) == \
        typed_values(reference_form_differential(alg, w))
    assert typed(differential_on_quotient(alg, q, n).c) == \
        typed(reference_differential_on_quotient(alg, q, n).c)
    assert typed(act_on_full_module(P, field, m).c) == \
        typed(reference_act_on_full_module(alg, field, m).c)
    # the generator entries the module checks read, in key order too
    got = wd_action_on_forms(P, len(T)).gen_action(a, T)
    generator = MElt(P.module, {(mi_zero(alg.dim), a): 1})
    assert typed_items(got.c) == \
        typed_items(reference_act_on_form(alg, generator, form_module(alg, len(T)).element(T)).c)
