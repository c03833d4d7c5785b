from fractions import Fraction as Fr
from itertools import combinations

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import half_sl2, half_solv2, random_melt
from pseudoalg import liealg
from pseudoalg.constructions import make_wd, wd_element
from pseudoalg.forms import (PForm, act_on_form, act_on_full_module,
                             contract_form, differential_on_quotient,
                             form_differential, form_module, full_form_module,
                             volume_action_expected, wd_action_on_forms,
                             wedge_structure)
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
        got = act_on_form(alg, wd_element(P, [(z, a, 1)]),
                          PForm(alg, 0, {(): HElt.one(alg)}))
        ea = tuple(1 if p == a else 0 for p in range(alg.dim))
        assert got == QElt(mod0, 2, {((z, ea), (), z): -1}).canonicalize()


def test_action_on_volume(small_wd):
    alg, P, _ = small_wd
    z = mi_zero(alg.dim)
    for a in range(alg.dim):
        got = act_on_form(alg, wd_element(P, [(z, a, 1)]),
                          PForm.basis(alg, tuple(range(alg.dim))))
        assert got == volume_action_expected(alg, a)


def test_action_abelian2_hand_expansion():
    # field 1 (x) d1 on the basis one-form dual to d2: only the module term
    # with w(d1 ^ .) survives, evaluated by the three-sum rule
    alg = liealg.abelian(2)
    P, _ = make_wd(alg)
    z = (0, 0)
    w = PForm.basis(alg, (1,))
    got = act_on_form(alg, wd_element(P, [(z, 0, 1)]), w)
    mod = form_module(alg, 1)
    # -(1 (x) w(d2) d1) on the (2) slot only: w(d2) = 1, so -(1 (x) d1) (x) dual2
    expect = QElt(mod, 2, {((z, (1, 0)), (1,), z): -1})
    assert got == expect.canonicalize()


def test_contraction_dual_pairing():
    alg = liealg.abelian(2)
    P, _ = make_wd(alg)
    z = (0, 0)
    got = contract_form(alg, wd_element(P, [(z, 0, 1)]), PForm.basis(alg, (0,)))
    mod = form_module(alg, 0)
    assert got == QElt(mod, 2, {((z, z), (), z): 1}).canonicalize()
    assert not contract_form(alg, wd_element(P, [(z, 1, 1)]), PForm.basis(alg, (0,)))


def test_contraction_of_zero_form_rejected():
    alg = liealg.abelian(1)
    P, _ = make_wd(alg)
    with pytest.raises(ValueError):
        contract_form(alg, wd_element(P, [((0,), 0, 1)]),
                      PForm(alg, 0, {(): HElt.one(alg)}))


def test_differential_degree_zero():
    alg = liealg.solvable2()
    w = PForm(alg, 0, {(): HElt.gen(alg, 0)})
    dw = form_differential(alg, w)
    for a in range(2):
        assert dw.value((a,)) == -(HElt.gen(alg, 0) * HElt.gen(alg, a))


@pytest.mark.parametrize("name", ["abelian1", "abelian2", "abelian3",
                                  "solv2", "heis3", "sl2"])
def test_dd_zero_exhaustive(name):
    alg = liealg.algebra_by_name(name)
    for deg in range(alg.dim - 1):
        for T in combinations(range(alg.dim), deg):
            w = PForm.basis(alg, T)
            assert form_differential(alg, form_differential(alg, w)).is_zero()


def test_differential_h_linear(rng):
    alg = liealg.heisenberg3()
    h = HElt.monomial(alg, (1, 1, 0), Fr(2, 3))
    w = PForm.basis(alg, (0, 1))
    assert form_differential(alg, w.h_mul(h)).c == \
        {T: h * v for T, v in form_differential(alg, w).c.items() if h * v}


def test_cartan_identity(small_wd):
    alg, P, _ = small_wd
    N = alg.dim
    for field in basis_fields(alg, P):
        for deg in range(N + 1):
            for T in combinations(range(N), deg):
                w = PForm.basis(alg, T)
                lhs = act_on_form(alg, field, w)
                rhs1 = (differential_on_quotient(alg, contract_form(alg, field, w),
                                                 deg - 1)
                        if deg >= 1 else QElt(form_module(alg, deg), 2))
                rhs2 = (contract_form(alg, field, form_differential(alg, w))
                        if deg <= N - 1 else QElt(form_module(alg, deg), 2))
                assert lhs == (rhs1 + rhs2).canonicalize(), (alg.name, T)


def test_action_commutes_with_differential(small_wd):
    alg, P, _ = small_wd
    N = alg.dim
    for field in basis_fields(alg, P):
        for deg in range(N):
            for T in combinations(range(N), deg):
                w = PForm.basis(alg, T)
                lhs = act_on_form(alg, field, form_differential(alg, w))
                rhs = differential_on_quotient(alg, act_on_form(alg, field, w), deg)
                assert lhs == rhs.canonicalize()


def test_contractions_anticommute(small_wd, rng):
    alg, P, _ = small_wd
    N = alg.dim
    if N < 2:
        pytest.skip("needs at least two directions")

    def act_iota(deg):
        def op(a_elt, d_elt):
            return contract_form(alg, a_elt, PForm.from_module_element(alg, d_elt, deg))
        return op

    for _ in range(6):
        f1 = random_melt(P.module, 1, rng)
        f2 = random_melt(P.module, 1, rng)
        w = PForm.basis(alg, tuple(range(N)))
        inner2 = contract_form(alg, f2, w)
        lhs = compose_right(f1, inner2, act_iota(N - 1), form_module(alg, N - 2))
        inner1 = contract_form(alg, f1, w)
        rhs = compose_right(f2, inner1, act_iota(N - 1),
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
# The library writes the action and the contraction once, for a generator
# field and a basis form, and extends them H-bilinearly.  These are the
# by-hand bodies for f (x) d_a and any form that the extension replaced,
# kept as the oracle the property below holds the library to.

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
    n = w.degree
    mod = form_module(alg, n)
    out = QElt(mod, 2)
    zero = mi_zero(alg.dim)
    for (F, a), fv in wfield.c.items():
        for T in combinations(range(alg.dim), n):
            acc = {}  # coefficients of d^(K) (x) d^(I)
            base = w.value(T)
            if base:
                _add_pairs(acc, F, base * HElt.gen(alg, a), -fv)
            for pos in range(n):
                rest = T[:pos] + T[pos + 1:]
                sign = (-1) ** (pos + 1)
                inner = w.value((a,) + rest)
                if inner:
                    ai = mi_unit(alg.dim, T[pos])
                    for K, ck in mul_basis(alg, F, ai).items():
                        _add_pairs(acc, K, inner, sign * fv * ck)
                brk = alg.bracket(a, T[pos])
                if brk:
                    val = w.value_with_vector(brk, rest)
                    if val:
                        _add_pairs(acc, F, val, sign * fv)
            for (K, I), v in acc.items():
                out._bump((K, I), T, zero, v)
    return out.canonicalize()


def reference_contract_form(alg, wfield, w):
    """Value map args -> f (x) w(a ^ args)."""
    n = w.degree
    mod = form_module(alg, n - 1)
    out = QElt(mod, 2)
    zero = mi_zero(alg.dim)
    for (F, a), fv in wfield.c.items():
        for T in combinations(range(alg.dim), n - 1):
            val = w.value((a,) + T)
            if val:
                for I, v in val.c.items():
                    out._bump((F, I), T, zero, fv * v)
    return out.canonicalize()


def reference_act_on_full_module(alg, field, m):
    """The action degree by degree, one monomial term of m at a time."""
    out = QElt(full_form_module(alg), 2)
    for (I, T), v in m.c.items():
        q = reference_act_on_form(alg, field, PForm(alg, len(T), {T: HElt.monomial(alg, I, v)}))
        for (key, Tg, L), qv in q.c.items():
            out._bump(key, Tg, L, qv)
    return out.canonicalize()


def reference_differential_degree_zero(alg, w):
    """(dw)(a) = -w d_a, the degree-0 case written out."""
    out = PForm(alg, 1)
    for a in range(alg.dim):
        out.set_value((a,), -(w.value(()) * HElt.gen(alg, a)))
    return out


def typed(c):
    """A coefficient map with each value's type, so 2 and Fraction(2) differ."""
    return {k: (type(v), v) for k, v in c.items()}


def typed_items(c):
    """The same in key order."""
    return [(k, type(v), v) for k, v in c.items()]


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
    degree_n = list(combinations(range(alg.dim), n))
    full = full_form_module(alg)
    field = MElt(P.module, draw(combinations_of([(I, a) for I in mis for a in P.module.gens], 3)))
    w = PForm(alg, n, {T: HElt(alg, draw(combinations_of(mis, 2)))
                       for T in draw(st.lists(st.sampled_from(degree_n), min_size=1, max_size=2))})
    m = MElt(full, draw(combinations_of([(I, T) for I in mis for T in full.gens], 3)))
    gen = (draw(st.sampled_from(P.module.gens)), draw(st.sampled_from(degree_n)))
    return P, field, w, m, gen


# 150 draws add about 1.3 s to tier-1 (Python 3.11 on 2 vCPUs).  Each runs the
# extension over fields and forms of PBW degree up to 2, so shrinking a
# failure takes long; the property reports the first failing example.
@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          phases=set(Phase) - {Phase.shrink, Phase.explain})
@given(calculus_cases())
def test_calculus_matches_general_formulas(case):
    P, field, w, m, (a, T) = case
    alg = P.alg
    assert typed(act_on_form(alg, field, w).c) == typed(reference_act_on_form(alg, field, w).c)
    if w.degree:
        assert typed(contract_form(alg, field, w).c) == \
            typed(reference_contract_form(alg, field, w).c)
    else:
        with pytest.raises(ValueError):
            contract_form(alg, field, w)
        assert typed_items(form_differential(alg, w).c) == \
            typed_items(reference_differential_degree_zero(alg, w).c)
    assert typed(act_on_full_module(P, field, m).c) == \
        typed(reference_act_on_full_module(alg, field, m).c)
    # the generator entries the module checks read, in key order too
    got = wd_action_on_forms(P, len(T)).gen_action(a, T)
    generator = MElt(P.module, {(mi_zero(alg.dim), a): 1})
    assert typed_items(got.c) == \
        typed_items(reference_act_on_form(alg, generator, PForm.basis(alg, T)).c)
