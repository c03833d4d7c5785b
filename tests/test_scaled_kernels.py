"""The scaled-integer product kernels against the loops they replaced.

Every bilinear kernel of `pbw`, `tensor` and `pseudo` clears its operands'
denominators with `linalg.cleared`, multiplies integers, and divides once
per output coefficient with `linalg.divided`.  Each reference below is the
loop the kernel ran before, multiplying the stored values directly.  The
new coefficient map must equal the reference in values and in key order:
`list(new.items()) == list(old.items())`.  `compose_left` is the exception:
it runs its operation once per generator by H-bilinearity, which the
properties at the end check, so it matches the old per-part loop as a map.

Coefficients are mixed `int` and `Fraction`, with explicit zeros in the
input maps; the algebras include sl2, solv2 and heis3, whose PBW tables
hold `Fraction` entries, and abelian3.
"""

from fractions import Fraction as Fr
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import adjoint_module
from pseudoalg import liealg
from pseudoalg.cohomology import Cochain
from pseudoalg.constructions import make_current, make_wd
from pseudoalg.forms import wd_action_on_forms
from pseudoalg.linalg import bump as linalg_bump
from pseudoalg.linalg import cleared, divided
from pseudoalg.pbw import (HElt, TensorElt, antipode_basis, fourier, mi_splits, mi_zero,
                           mul_antipode, mul_basis, mul_slots, multiindices_up_to)
from pseudoalg.pseudo import compose_left, compose_right, extend_bilinear
from pseudoalg.tensor import MElt, QElt

NAMES = ("abelian3", "solv2", "heis3", "sl2")
ALGEBRAS = {name: liealg.algebra_by_name(name) for name in NAMES}
STRUCTURES = {name: make_wd(ALGEBRAS[name])[0] for name in NAMES}
STRUCTURES["cur:sl2"] = make_current(ALGEBRAS["abelian3"], liealg.sl2())
FORMS = {name: wd_action_on_forms(STRUCTURES[name], 1) for name in NAMES}
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

DROPS = [0]


def bump(d, key, v):
    """`linalg.bump`, counting the keys whose partial sum returns to zero."""
    had = key in d
    linalg_bump(d, key, v)
    if had and key not in d:
        DROPS[0] += 1


# -- references: the kernels before scaling ------------------------------------

def reference_helt_mul(x, y):
    out = {}
    for I, a in x.c.items():
        for J, b in y.c.items():
            ab = a * b
            for K, c in mul_basis(x.alg, I, J).items():
                bump(out, K, ab * c)
    return out


def reference_antipode(x):
    out = {}
    for I, v in x.c.items():
        for K, c in antipode_basis(x.alg, I).items():
            bump(out, K, v * c)
    return out


def reference_tensor_mul(s, t):
    out = {}
    for ka, va in s.c.items():
        for kb, vb in t.c.items():
            vab = va * vb
            for key, c in mul_slots(s.alg, ka, kb, mul_basis):
                bump(out, key, vab * c)
    return out


def reference_fourier(t, slots, inverse):
    i, j = slots
    out = {}
    mul = mul_basis if inverse else mul_antipode
    for key, v in t.c.items():
        for J, K in mi_splits(key[j], 2):
            for newI, c in mul(t.alg, key[i], J).items():
                nk = list(key)
                nk[i] = newI
                nk[j] = K
                bump(out, tuple(nk), v * c)
    return out


def reference_extend_bilinear(lookup, a, b, out_module):
    out = QElt(out_module, 2)
    for (Ia, ga), ca in a.c.items():
        for (Ib, gb), cb in b.c.items():
            base = lookup(ga, gb)
            if not base:
                continue
            cab = ca * cb
            for (key, g, L), v in base.c.items():
                for K, c in mul_slots(out_module.alg, (Ia, Ib), key, mul_basis):
                    _admit(out, K, g, L, cab * v * c)
    return out


def reference_canonicalize(q):
    alg = q.module.alg
    one = (mi_zero(alg.dim),)
    out = QElt(q.module, q.n)
    for (key, g, L), v in q.c.items():
        last = key[-1]
        if not any(last):
            _admit(out, key, g, L, v)
            continue
        for split in mi_splits(last, q.n):
            modmap = mul_basis(alg, split[-1], L)
            for nk, w in mul_slots(alg, key[:-1], split[:-1], mul_antipode):
                nk += one
                w *= v
                for Lp, cl in modmap.items():
                    _admit(out, nk, g, Lp, w * cl)
    return out.c


def reference_tensor_mul_left(q, t):
    out = QElt(q.module, q.n)
    for (key, g, L), v in q.c.items():
        for tkey, tv in t.c.items():
            for nk, c in mul_slots(q.module.alg, tkey, key, mul_basis):
                _admit(out, nk, g, L, v * tv * c)
    return out.c


def reference_h_mul(m, h):
    out = MElt(m.module)
    for (I, g), v in m.c.items():
        for J, cj in h.c.items():
            if m.module.is_counit(g):
                if not any(J) and not any(I):
                    _admit_m(out, I, g, v * cj)
                continue
            for K, ck in mul_basis(m.module.alg, J, I).items():
                _admit_m(out, K, g, v * cj * ck)
    return out.c


def reference_compose(inner, outer, out_module, pos):
    """The old composition body, up to its closing canonicalize: `outer`
    runs on every module part of `inner` and slot `pos` of its terms splits."""
    out = QElt(out_module, 3)
    for key, m in inner.module_parts():
        for (pk, g, L), v in outer(m).c.items():
            head, tail = pk[:pos], pk[pos + 1:]
            for split in mi_splits(pk[pos], 2):
                for K, c in mul_slots(inner.module.alg, key, split, mul_basis):
                    _admit(out, head + K + tail, g, L, v * c)
    return out


def _admit(q, key, g, L, v):
    """`QElt._bump` through the counting `bump`."""
    if v and not (q.module.is_counit(g) and any(L)):
        bump(q.c, (key, g, L), v)


def _admit_m(m, I, g, v):
    """`MElt._bump` through the counting `bump`."""
    if v and not (m.module.is_counit(g) and any(I)):
        bump(m.c, (I, g), v)


# -- strategies -------------------------------------------------------------------

COEFFS = st.one_of(st.integers(-3, 3),
                   st.builds(Fr, st.integers(-5, 5), st.sampled_from((1, 2, 3, 4, 6))))
NONZERO = COEFFS.filter(bool)


def coefficient_map(keys, max_size=4):
    """Maps from `keys` to mixed int/Fraction values, zeros included."""
    return st.dictionaries(st.sampled_from(keys), COEFFS, max_size=max_size)


@st.composite
def helts(draw, alg, deg=3):
    return HElt(alg, draw(coefficient_map(multiindices_up_to(alg.dim, deg))))


@st.composite
def tensors(draw, alg, n, deg=2):
    mis = multiindices_up_to(alg.dim, deg)
    keys = st.tuples(*[st.sampled_from(mis)] * n)
    return TensorElt(alg, n, draw(st.dictionaries(keys, COEFFS, max_size=4)))


@st.composite
def melts(draw, module, deg=2):
    keys = [(I, g) for I in multiindices_up_to(module.alg.dim, deg) for g in module.gens]
    return MElt(module, draw(coefficient_map(keys, 3)))


@st.composite
def multi_term_melts(draw, module):
    """Two or three terms of degree <= 1, the first with a non-integral coefficient."""
    keys = [(I, g) for I in multiindices_up_to(module.alg.dim, 1) for g in module.gens]
    c = draw(st.dictionaries(st.sampled_from(keys), NONZERO, min_size=2, max_size=3))
    c[next(iter(c))] = Fr(2 * draw(st.integers(-2, 2)) + 1, draw(st.sampled_from((2, 4, 6))))
    return MElt(module, c)


@st.composite
def qelts(draw, module, n, deg=2):
    mis = multiindices_up_to(module.alg.dim, deg)
    keys = st.tuples(st.tuples(*[st.sampled_from(mis)] * n),
                     st.sampled_from(module.gens), st.sampled_from(mis))
    return QElt(module, n, draw(st.dictionaries(keys, COEFFS, max_size=4)))


ALG = st.sampled_from(NAMES).map(ALGEBRAS.get)
STRUCTURE = st.sampled_from(sorted(STRUCTURES)).map(STRUCTURES.get)


def scaled_table(P):
    """P's bracket table with each entry scaled by its own Fraction."""
    return lambda ga, gb: P.gen_bracket(ga, gb).scale(Fr(sum(map(ord, repr((ga, gb)))) % 5 + 1, 3))


def assert_same(new, old):
    assert list(new.items()) == list(old.items())


# -- properties -------------------------------------------------------------------

def sum_and_difference(draw, x, y):
    """(x, y), or often (x + y, x - y): the cross terms of their product
    cancel where the factors commute."""
    return (x + y, x - y) if draw(st.booleans()) else (x, y)


@st.composite
def helt_pairs(draw):
    alg = draw(ALG)
    return sum_and_difference(draw, draw(helts(alg)), draw(helts(alg)))


@st.composite
def tensor_pairs(draw):
    alg = draw(ALG)
    n = draw(st.integers(1, 3))
    return sum_and_difference(draw, draw(tensors(alg, n)), draw(tensors(alg, n)))


@st.composite
def fourier_inputs(draw):
    """t, slots, direction; t is often the opposite transform of a draw, so
    that most terms of the transform cancel on the way back."""
    n = draw(st.integers(2, 3))
    slots = tuple(draw(st.permutations(range(n)))[:2])
    t, inverse = draw(tensors(draw(ALG), n)), draw(st.booleans())
    if draw(st.booleans()):
        t = fourier(t, slots, not inverse)
    return t, slots, inverse


@st.composite
def melt_pairs(draw):
    P = draw(STRUCTURE)
    a, b = sum_and_difference(draw, draw(melts(P.module)), draw(melts(P.module)))
    return P, a, b, draw(st.booleans())


@st.composite
def qelt_inputs(draw):
    """q, t; q often holds a raw form minus its canonical form, so that most
    of its terms cancel under canonicalize."""
    P = draw(STRUCTURE)
    n = draw(st.integers(2, 3))
    q = draw(qelts(P.module, n))
    if draw(st.booleans()):
        q = q - draw(qelts(P.module, n)).canonicalize()
        q = q + (-q.canonicalize())
        q = q + draw(qelts(P.module, n))
    return q, draw(tensors(P.alg, n))


@st.composite
def module_inputs(draw):
    """m, h with m = h' e_g for one generator g, so that h and h' may be a
    sum and a difference."""
    P = draw(STRUCTURE)
    h, h2 = sum_and_difference(draw, draw(helts(P.alg, 2)), draw(helts(P.alg, 2)))
    g = draw(st.sampled_from(P.module.gens))
    m = MElt(P.module, {(I, g): v for I, v in h2.c.items()}) + draw(melts(P.module, 1))
    return m, h


@st.composite
def compose_inputs(draw):
    P = draw(STRUCTURE)
    a, b, c = (draw(multi_term_melts(P.module)) for _ in range(3))
    return P, a, b, c


@st.composite
def operations(draw):
    """(P, op, M): an H-bilinear op from P.module x M to arity 2 over M.

    The three kinds `compose_left` is called with: a bracket, the wd
    action on one-forms, and a drawn degree-2 cochain (whose `value2`
    returns uncanonicalized forms).
    """
    kind = draw(st.sampled_from(("bracket", "forms", "cochain")))
    if kind == "forms":
        M = FORMS[draw(st.sampled_from(NAMES))]
        return M.pseudo, M.act, M.module
    P = draw(STRUCTURE)
    if kind == "bracket":
        return P, P.bracket, P.module
    values = {pair: draw(qelts(P.module, 2, 1)) for pair in product(P.module.gens, repeat=2)}
    return P, Cochain(2, P, adjoint_module(P), values).value2, P.module


def cancelling_pair():
    """x, y over abelian3 whose product has d^(1,1,0) return to zero and
    come back: 1/2 * 6 + 3 * (-1) = 0, then 1 * 2/3 from the unit."""
    alg = ALGEBRAS["abelian3"]
    x = HElt(alg, {(1, 0, 0): Fr(1, 2), (0, 1, 0): 3, (0, 0, 0): 1, (0, 0, 1): 0})
    y = HElt(alg, {(0, 1, 0): 6, (1, 0, 0): -1, (1, 1, 0): Fr(2, 3)})
    return x, y


@SETTINGS
@given(helt_pairs())
@example(cancelling_pair())
def test_helt_product_and_antipode_match_reference(pair):
    x, y = pair
    assert_same((x * y).c, reference_helt_mul(x, y))
    assert_same(x.antipode().c, reference_antipode(x))


@SETTINGS
@given(tensor_pairs())
def test_tensor_product_matches_reference(pair):
    s, t = pair
    assert_same((s * t).c, reference_tensor_mul(s, t))


@SETTINGS
@given(fourier_inputs())
def test_fourier_matches_reference_both_ways(inputs):
    t, slots, inverse = inputs
    assert_same(fourier(t, slots, inverse).c, reference_fourier(t, slots, inverse))


@SETTINGS
@given(melt_pairs())
def test_extend_bilinear_matches_reference(inputs):
    P, a, b, scaled = inputs
    lookup = scaled_table(P) if scaled else P.gen_bracket
    assert_same(extend_bilinear(lookup, a, b, P.module).c,
                reference_extend_bilinear(lookup, a, b, P.module).c)


@SETTINGS
@given(qelt_inputs())
def test_canonicalize_and_tensor_mul_left_match_reference(inputs):
    q, t = inputs
    assert_same(q.canonicalize().c, reference_canonicalize(q))
    assert_same(q.tensor_mul_left(t).c, reference_tensor_mul_left(q, t))


@SETTINGS
@given(module_inputs())
def test_h_mul_matches_reference(inputs):
    m, h = inputs
    assert_same(m.h_mul(h).c, reference_h_mul(m, h))


@settings(SETTINGS, max_examples=15)
@given(compose_inputs())
def test_compose_matches_reference(inputs):
    P, a, b, c = inputs
    inner = P.bracket(a, b)
    # one op call per generator adds the terms up in another order
    assert (compose_left(inner, P.bracket, c, P.module).c
            == reference_canonicalize(reference_compose(
                inner, lambda m: P.bracket(m, c), P.module, 0)))
    assert_same(compose_right(c, inner, P.bracket, P.module).c,
                reference_canonicalize(reference_compose(
                    inner, lambda m: P.bracket(c, m), P.module, 1)))


@SETTINGS
@given(operations(), st.data())
def test_operations_are_left_h_linear(operation, data):
    """op(d^(L) e_g, c) = (d^(L) (x) 1) op(e_g, c), the rule `compose_left` runs on."""
    P, op, M = operation
    alg = P.alg
    g = data.draw(st.sampled_from(P.module.gens))
    L = data.draw(st.sampled_from(multiindices_up_to(alg.dim, 2)))
    c = data.draw(melts(M, 1))
    shifted = op(MElt(P.module, {(L, g): 1}), c)
    moved = op(P.element(g), c).tensor_mul_left(
        TensorElt.pure([HElt.monomial(alg, L), HElt.one(alg)]))
    assert shifted.canonicalize().c == moved.canonicalize().c


@settings(SETTINGS, max_examples=20)
@given(operations(), st.data())
def test_compositions_match_reference_for_every_operation(operation, data):
    P, op, M = operation
    a, b = (data.draw(multi_term_melts(P.module)) for _ in range(2))
    c = data.draw(multi_term_melts(M))
    inner = P.bracket(a, b)
    assert (compose_left(inner, op, c, M).c
            == reference_canonicalize(reference_compose(inner, lambda m: op(m, c), M, 0)))
    # a cochain's uncanonicalized values reach compose_right's split slot
    inner = op(b, c)
    assert_same(compose_right(a, inner, op, M).c,
                reference_canonicalize(reference_compose(inner, lambda m: op(a, m), M, 1)))


def test_cancelled_key_returns_in_the_reference_place():
    x, y = cancelling_pair()
    DROPS[0] = 0
    old = reference_helt_mul(x, y)
    assert DROPS[0] == 1 and list(old)[-1] == (1, 1, 0)
    assert_same((x * y).c, old)
    one = HElt.one(x.alg)
    s, t = TensorElt.pure([x, one]), TensorElt.pure([y, one])
    assert_same((s * t).c, reference_tensor_mul(s, t))


def test_cleared_and_divided():
    c = {"a": Fr(1, 2), "b": 3, "c": Fr(-2, 3), "d": Fr(4, 1)}
    D, items = cleared(c)
    assert D == 6 and list(items) == [("a", 3), ("b", 18), ("c", -4), ("d", 24)]
    assert all(type(v) is int for _, v in items)
    assert divided(dict(items), D) == c
    ints = {"a": 1, "b": -2}
    D, items = cleared(ints)
    assert D == 1 and items == ints.items()
    assert divided(ints, 1) is ints
    # a PBW table entry may still be a Fraction: the quotient stays exact
    assert divided({"k": Fr(5, 3)}, 10) == {"k": Fr(1, 6)}
