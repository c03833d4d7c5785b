"""Truncated functionals and annihilation brackets.

The kernels of `annihilation` build their results directly and leave every
check to the public entry points.  The properties at the end hold them to
references: `act` to the dense pairing `_dense_act`, the series product
and both brackets to the loops they replaced (kept below), in values, key
order and int/Fraction type, and the annihilation bracket to the
vector-field oracle.  Their inputs mix int and Fraction values, explicit
zeros and integral Fractions written straight into a coefficient map.
"""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoalg import liealg
from pseudoalg.annihilation import (AnnihilationElement, PrecisionError,
                                    TruncatedSeries, annihilation_bracket,
                                    counit_functional, vector_field_bracket)
from pseudoalg.constructions import make_current, make_wd
from pseudoalg.linalg import bump
from pseudoalg.pbw import HElt, mi_weight, mi_zero, multiindices_up_to
from pseudoalg.pseudo import x_bracket

from conftest import CATALOG


def test_actions_dim1_derivative():
    # pairing against every divided monomial gives the derivative action,
    # with the weight factor of the dual basis
    alg = liealg.abelian(1)
    x = TruncatedSeries.dual_basis(alg, (3,), 6)
    d = HElt.gen(alg, 0)
    assert x.act(d, "left").c == {(2,): Fr(-3)}
    assert x.act(d, "right").c == {(2,): Fr(-3)}


def test_action_by_one_is_identity(catalog_algebra):
    alg = catalog_algebra
    x = TruncatedSeries(alg, 5, {tuple(1 if i == 0 else 0 for i in range(alg.dim)): 2})
    got = x.act(HElt.one(alg), "left")
    assert got.cutoff == 5 and got.c == x.c


@pytest.mark.parametrize("name", ["abelian1", "abelian2", "solv2"])
def test_filtration_shift_exhaustive(name):
    alg = liealg.algebra_by_name(name)
    for I in multiindices_up_to(alg.dim, 3):
        h = HElt.monomial(alg, I)
        x = TruncatedSeries(alg, 5, {I: 1})
        got = x.act(h, "left")
        assert got.cutoff == 5 - mi_weight(I)


def _dense_act(x, h, side):
    """Reference action: pair x with S(h) d^(I), or d^(I) S(h), for every I."""
    deg = h.degree()
    if deg is None:
        return TruncatedSeries.zero(x.alg, x.cutoff)
    newcut = x.cutoff - deg
    if newcut < 0:
        raise PrecisionError("action by degree %d exceeds depth %d" % (deg, x.cutoff))
    sh = h.antipode()
    out = {}
    for I in multiindices_up_to(x.alg.dim, newcut):
        mono = HElt.monomial(x.alg, I, 1)
        v = x.pair(sh * mono if side == "left" else mono * sh)
        if v:
            out[I] = v
    return TruncatedSeries(x.alg, newcut, out)


def _random_fraction(rng):
    return Fr(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 2, 3, 7)))


@pytest.mark.parametrize("name", CATALOG)
def test_act_matches_dense_reference(name, rng):
    # every series coefficient is nonzero, so a missing or wrong entry of
    # the transposed table shows in the output
    alg = liealg.algebra_by_name(name)
    for cutoff in range(7):
        mis = multiindices_up_to(alg.dim, cutoff)
        x = TruncatedSeries(alg, cutoff, {I: _random_fraction(rng) for I in mis})
        for side in ("left", "right"):
            for _ in range(3):
                # 1-3 terms, one of them of degree 0
                hc = {mi_zero(alg.dim): _random_fraction(rng)}
                for _ in range(rng.randint(0, 2)):
                    deg = rng.randint(0, cutoff)
                    hc[rng.choice(multiindices_up_to(alg.dim, deg))] = _random_fraction(rng)
                h = HElt(alg, hc)
                got = x.act(h, side)
                assert got == _dense_act(x, h, side)
                assert got.cutoff == cutoff - h.degree()


@pytest.mark.parametrize("name", CATALOG)
def test_act_edge_cases_match_dense_reference(name, rng):
    alg = liealg.algebra_by_name(name)
    for cutoff in range(7):
        mis = multiindices_up_to(alg.dim, cutoff)
        x = TruncatedSeries(alg, cutoff, {I: _random_fraction(rng)
                                          for I in rng.sample(mis, min(3, len(mis)))})
        top = [I for I in mis if mi_weight(I) == cutoff]
        for side in ("left", "right"):
            zero = x.act(HElt.zero(alg), side)
            assert zero == _dense_act(x, HElt.zero(alg), side)
            assert zero.cutoff == cutoff and not zero
            # deg h equal to the cutoff leaves only the constant term
            h = HElt(alg, {rng.choice(top): _random_fraction(rng),
                           mi_zero(alg.dim): _random_fraction(rng)})
            got = x.act(h, side)
            assert got == _dense_act(x, h, side)
            assert got.cutoff == 0
            with pytest.raises(PrecisionError):
                x.act(HElt.monomial(alg, mi_zero(alg.dim)[:-1] + (cutoff + 1,)), side)


def test_negative_cutoff_is_precision_error():
    alg = liealg.abelian(2)
    P, _ = make_wd(alg)
    with pytest.raises(PrecisionError, match="nonnegative"):
        TruncatedSeries(alg, -1)
    with pytest.raises(PrecisionError, match="nonnegative"):
        AnnihilationElement(P.module, -1)
    with pytest.raises(PrecisionError, match="nonnegative"):
        AnnihilationElement.generator(P.module, (0, 0), 0, 6).truncate(-1)


def test_index_beyond_cutoff_is_refused():
    alg = liealg.abelian(2)
    P, _ = make_wd(alg)
    with pytest.raises(ValueError, match="index beyond cutoff"):
        TruncatedSeries(alg, 1, {(1, 1): 1})
    with pytest.raises(ValueError, match="index beyond cutoff"):
        AnnihilationElement(P.module, 1, {((2, 0), P.module.gens[0]): 1})


def test_product_rule_dual_basis():
    alg = liealg.abelian(2)
    a = TruncatedSeries.dual_basis(alg, (1, 0), 6)
    b = TruncatedSeries.dual_basis(alg, (0, 2), 6)
    assert (a * b).c == {(1, 2): Fr(1)}


def test_series_pair_precision_guard():
    alg = liealg.abelian(1)
    x = TruncatedSeries(alg, 2, {(1,): 1})
    with pytest.raises(PrecisionError):
        x.pair(HElt.monomial(alg, (3,)))


def test_annihilation_bracket_fields_dim1():
    alg = liealg.abelian(1)
    P, _ = make_wd(alg)
    u = AnnihilationElement.generator(P.module, (0,), 0, 6)
    v = AnnihilationElement.generator(P.module, (2,), 0, 6)
    got = annihilation_bracket(P, u, v)
    assert got.cutoff == 5
    assert got.c == {((1,), 0): Fr(2)}


def test_second_bracket_does_not_recompute_the_depth():
    # one generator pair per bracket: the depth cost reads all dim^2 pairs,
    # and only the first bracket on P may pay for it
    P, _ = make_wd(liealg.sl2())
    read = []
    gen_bracket = P.gen_bracket
    P.gen_bracket = lambda gi, gj: read.append((gi, gj)) or gen_bracket(gi, gj)
    u = AnnihilationElement.generator(P.module, (1, 0, 0), 0, 5)
    v = AnnihilationElement.generator(P.module, (0, 0, 1), 2, 5)
    first = annihilation_bracket(P, u, v)
    assert len(read) == 1 + 3 * 3
    del read[:]
    assert annihilation_bracket(P, u, v) == first
    assert read == [(0, 2)]


def test_annihilation_bracket_zero_and_skew(rng):
    alg = liealg.abelian(2)
    P, _ = make_wd(alg)
    zero = AnnihilationElement(P.module, 6)
    u = AnnihilationElement.generator(P.module, (1, 0), 0, 6)
    assert not annihilation_bracket(P, u, zero)
    for _ in range(5):
        w = AnnihilationElement(P.module, 7)
        for _ in range(2):
            w.c[(tuple(rng.randint(0, 2) for _ in range(2)), rng.randrange(2))] = \
                Fr(rng.randint(-2, 2))
        br = annihilation_bracket(P, w, w)
        assert not br


def test_current_annihilation_constant_coefficients():
    g = liealg.sl2()
    P = make_current(liealg.abelian(1), g)
    for (i, j) in ((0, 1), (2, 0), (2, 1)):
        u = AnnihilationElement.generator(P.module, (2,), i, 6)
        v = AnnihilationElement.generator(P.module, (3,), j, 6)
        br = annihilation_bracket(P, u, v)
        want = AnnihilationElement(P.module, br.cutoff)
        for k, c in g.bracket(i, j).items():
            want.c[((5,), k)] = c
        assert br == want


def test_precision_error_names_requirement():
    alg = liealg.abelian(1)
    P, _ = make_wd(alg)
    u = AnnihilationElement.generator(P.module, (0,), 0, 0)
    with pytest.raises(PrecisionError):
        annihilation_bracket(P, u, u)


@pytest.mark.parametrize("name", ["abelian1", "abelian2", "solv2", "heis3", "sl2"])
def test_cross_oracle_vector_fields(name):
    alg = liealg.algebra_by_name(name)
    P, _ = make_wd(alg)
    for I in multiindices_up_to(alg.dim, 3):
        for J in multiindices_up_to(alg.dim, 3):
            for a in range(alg.dim):
                for b in range(alg.dim):
                    u = AnnihilationElement.generator(P.module, I, a, 6)
                    v = AnnihilationElement.generator(P.module, J, b, 6)
                    br = annihilation_bracket(P, u, v)
                    vf = vector_field_bracket(alg, u, v)
                    cut = min(br.cutoff, vf.cutoff)
                    assert br.truncate(cut).c == vf.truncate(cut).c


def test_mismatched_variables_annihilate():
    alg = liealg.abelian(2)
    P, _ = make_wd(alg)
    u = AnnihilationElement.generator(P.module, (1, 0), 0, 6)
    v = AnnihilationElement.generator(P.module, (0, 1), 1, 6)
    assert not vector_field_bracket(alg, u, v)
    assert not annihilation_bracket(P, u, v)


def _h_act_elt(w, h):
    out = AnnihilationElement(w.module, w.cutoff - (h.degree() or 0))
    for g, s in w.series_parts().items():
        for I, val in s.act(h, "left").c.items():
            out.c[(I, g)] = out.c.get((I, g), Fr(0)) + val
    out.c = {k: v for k, v in out.c.items() if v}
    return out


def test_action_compatibility_randomized(rng):
    # h [u, v] = [h_1 u, h_2 v] to the guaranteed depth, for generators h
    alg = liealg.solvable2()
    P, _ = make_wd(alg)
    for _ in range(6):
        u = AnnihilationElement(P.module, 7)
        v = AnnihilationElement(P.module, 7)
        for w in (u, v):
            for _ in range(2):
                w.c[(tuple(rng.randint(0, 2) for _ in range(2)), rng.randrange(2))] = \
                    Fr(rng.randint(-2, 2))
        h = HElt.gen(alg, rng.randrange(2))
        lhs = _h_act_elt(annihilation_bracket(P, u, v), h)
        rhs = annihilation_bracket(P, _h_act_elt(u, h), v) \
            + annihilation_bracket(P, u, _h_act_elt(v, h))
        cut = min(lhs.cutoff, rhs.cutoff)
        assert lhs.truncate(cut).c == rhs.truncate(cut).c


def test_x_bracket_against_annihilation(rng):
    # the scalar-specialized bracket drives the functional bracket: with
    # dual bases h_i, x_i one has [u_x, v_y] = sum_i [u_{x_i} v]_{(x S(h_i)) y}
    alg = liealg.abelian(1)
    P, _ = make_wd(alg)
    D = 8
    e = P.element(0)
    for _ in range(20):
        m = rng.randint(0, 3)
        n = rng.randint(0, 3)
        u = AnnihilationElement.generator(P.module, (m,), 0, D)
        v = AnnihilationElement.generator(P.module, (n,), 0, D)
        lhs = annihilation_bracket(P, u, v)
        rhs = AnnihilationElement(P.module, lhs.cutoff)
        xm = TruncatedSeries.dual_basis(alg, (m,), D)
        yn = TruncatedSeries.dual_basis(alg, (n,), D)
        for k in range(m + 1):
            xk = TruncatedSeries.dual_basis(alg, (k,), D)
            coeffs = x_bracket(P, e, xk, e)
            if not coeffs:
                continue
            s_h = HElt.monomial(alg, (k,), 1).antipode()
            stretch = xm.act(s_h, "right") * yn
            for (L, g), cv in coeffs.c.items():
                moved = stretch.act(HElt.monomial(alg, L, 1), "right") if any(L) else stretch
                for I, sv in moved.c.items():
                    if mi_weight(I) <= rhs.cutoff:
                        key = (I, g)
                        rhs.c[key] = rhs.c.get(key, Fr(0)) + cv * sv
        rhs.c = {k2: v for k2, v in rhs.c.items() if v}
        cut = min(lhs.cutoff, rhs.cutoff)
        assert lhs.truncate(cut).c == rhs.truncate(cut).c, (m, n)


def test_counit_functional_pairs_with_constants():
    alg = liealg.abelian(2)
    x0 = counit_functional(alg, 4)
    assert x0.pair(HElt.one(alg)) == 1
    assert x0.pair(HElt.gen(alg, 1)) == 0


# -- entry checks and refusals --------------------------------------------------

def test_constructors_check_multi_index_length():
    # unchecked, a key of the wrong length is stored and then acts as zero
    alg = liealg.abelian(2)
    P, _ = make_wd(alg)
    with pytest.raises(ValueError, match=r"\(1,\) has length 1, expected 2"):
        TruncatedSeries(alg, 3, {(1,): 1})
    with pytest.raises(ValueError, match=r"\(0, 0, 0\) has length 3, expected 2"):
        AnnihilationElement(P.module, 3, {((0, 0, 0), 0): 1})
    with pytest.raises(ValueError, match="length 1, expected 2"):
        AnnihilationElement.generator(P.module, (1,), 0, 3)


def test_truncate_and_act_refuse_what_they_cannot_guarantee():
    alg = liealg.abelian(2)
    P, _ = make_wd(alg)
    x = TruncatedSeries(alg, 3, {(1, 0): 1, (0, 3): Fr(1, 2)})
    with pytest.raises(PrecisionError, match="nonnegative"):
        x.truncate(-1)
    with pytest.raises(PrecisionError, match="cannot deepen a series"):
        x.truncate(4)
    with pytest.raises(PrecisionError, match="cannot deepen"):
        AnnihilationElement.generator(P.module, (0, 0), 0, 3).truncate(4)
    for side in ("left", "right"):
        with pytest.raises(PrecisionError, match="action by degree 4 exceeds depth 3"):
            x.act(HElt(alg, {(2, 2): 1, (0, 0): 5}), side)
    assert x.truncate(3) == x and x.truncate(0).c == {}


# -- references ---------------------------------------------------------------

def _terms(x):
    """Cutoff and stored (key, type, value) list: equal values, key order and types."""
    return x.cutoff, [(k, type(v), v) for k, v in x.c.items()]


def _assert_valid(x, weight=mi_weight):
    """No stored zero and no key beyond the cutoff."""
    assert all(x.c.values()), x.c
    assert all(weight(k) <= x.cutoff for k in x.c), (x.cutoff, x.c)


def _element_weight(key):
    return mi_weight(key[0])


def _loop_product(x, y):
    """The series product as it ran before the pruned kernel: every pair of
    terms, a weight test on each sum, and the checked constructor."""
    cut = min(x.cutoff, y.cutoff)
    out = {}
    for I, a in x.c.items():
        for J, b in y.c.items():
            K = tuple(i + j for i, j in zip(I, J))
            if mi_weight(K) <= cut:
                bump(out, K, a * b)
    return TruncatedSeries(x.alg, cut, out)


def _loop_parts(w):
    """`series_parts` as it ran before: one checked series per generator."""
    by_gen = {}
    for (I, g), v in w.c.items():
        by_gen.setdefault(g, {})[I] = v
    return {g: TruncatedSeries(w.module.alg, w.cutoff, d) for g, d in by_gen.items()}


def _loop_bracket(P, u, v):
    """`annihilation_bracket` as it ran before the memo: an action by an
    HElt monomial and a product for every table term."""
    alg = P.alg
    cut = min(u.cutoff, v.cutoff) - P.max_coefficient_degree()
    out = AnnihilationElement(P.module, cut)
    for gu, xs in _loop_parts(u).items():
        for gv, ys in _loop_parts(v).items():
            for (key, g, L), coeff in P.gen_bracket(gu, gv).c.items():
                xf = xs.act(HElt.monomial(alg, key[0], 1), "right") if any(key[0]) else xs
                prod = _loop_product(xf, ys)
                if any(L):
                    prod = prod.act(HElt.monomial(alg, L, 1), "right")
                for I, s in prod.c.items():
                    if mi_weight(I) <= cut:
                        bump(out.c, (I, g), coeff * s)
    return out


def _loop_vector_field(alg, u, v):
    """`vector_field_bracket` as it ran before: products of full series,
    each first truncated to the other factor's cutoff, filtered after."""
    cut = min(u.cutoff, v.cutoff) - 1
    out = AnnihilationElement(u.module, cut)

    def add(I, g, val):
        if mi_weight(I) <= cut:
            bump(out.c, (I, g), val)

    for a, xs in _loop_parts(u).items():
        for b, ys in _loop_parts(v).items():
            for k, ck in alg.bracket(a, b).items():
                for I, s in _loop_product(xs, ys).c.items():
                    add(I, k, ck * s)
            ya = ys.act(HElt.gen(alg, a), "right")
            for I, s in _loop_product(xs.truncate(min(xs.cutoff, ya.cutoff)), ya).c.items():
                add(I, b, -s)
            xb = xs.act(HElt.gen(alg, b), "right")
            for I, s in _loop_product(xb, ys.truncate(min(ys.cutoff, xb.cutoff))).c.items():
                add(I, a, s)
    return out


# -- properties ---------------------------------------------------------------

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None, database=None)
# explicit zeros of both types and integral Fractions such as Fraction(4, 2)
COEFFS = st.one_of(st.integers(-3, 3),
                   st.builds(Fr, st.integers(-5, 5), st.sampled_from((1, 2, 3))))
ALGEBRAS = {name: liealg.algebra_by_name(name) for name in CATALOG}
# the algebras of the annihilate benchmark workload
WD = {name: make_wd(ALGEBRAS[name])[0] for name in ("abelian2", "abelian3", "solv2",
                                                    "heis3", "sl2")}


@st.composite
def helts(draw, alg, deg):
    mis = multiindices_up_to(alg.dim, deg)
    return HElt(alg, draw(st.dictionaries(st.sampled_from(mis), COEFFS, max_size=3)))


@st.composite
def series(draw, alg, cutoff):
    """A series, or the action on one by a degree-0 or degree-1 element,
    whose integral values are ints as the action stores them."""
    mis = multiindices_up_to(alg.dim, cutoff + 1)
    c = draw(st.dictionaries(st.sampled_from(mis), COEFFS, max_size=5))
    if draw(st.booleans()):
        x = TruncatedSeries(alg, cutoff + 1, c)
        return x.act(draw(helts(alg, 1)) + HElt.gen(alg, 0), draw(st.sampled_from(("left", "right"))))
    return TruncatedSeries(alg, cutoff, {I: v for I, v in c.items() if mi_weight(I) <= cutoff})


@st.composite
def elements(draw, P, cutoff):
    """An annihilation element; half of them carry a coefficient map stored
    as is, with zeros and integral Fractions, as a direct write leaves it."""
    mis = multiindices_up_to(P.alg.dim, cutoff)
    keys = st.tuples(st.sampled_from(mis), st.sampled_from(P.module.gens))
    c = draw(st.dictionaries(keys, COEFFS, max_size=3))
    if draw(st.booleans()):
        w = AnnihilationElement(P.module, cutoff)
        w.c = c
        return w
    return AnnihilationElement(P.module, cutoff, c)


@st.composite
def act_cases(draw):
    alg = ALGEBRAS[draw(st.sampled_from(CATALOG))]
    cutoff = draw(st.integers(0, 6))
    return (draw(series(alg, cutoff)), draw(helts(alg, draw(st.integers(0, cutoff + 1)))),
            draw(st.sampled_from(("left", "right"))))


@SETTINGS
@given(act_cases())
def test_act_matches_dense_reference_property(case):
    x, h, side = case
    try:
        want = _dense_act(x, h, side)
    except PrecisionError:
        with pytest.raises(PrecisionError):
            x.act(h, side)
        return
    got = x.act(h, side)
    assert got == want
    assert got.cutoff == x.cutoff - (h.degree() or 0)
    _assert_valid(got)


@st.composite
def product_cases(draw):
    alg = ALGEBRAS[draw(st.sampled_from(CATALOG))]
    return (draw(series(alg, draw(st.integers(0, 6)))),
            draw(series(alg, draw(st.integers(0, 6)))), draw(st.integers(0, 6)))


@SETTINGS
@given(product_cases())
def test_series_product_and_truncate_match_the_loops(case):
    x, y, depth = case
    got = x * y
    assert _terms(got) == _terms(_loop_product(x, y))
    _assert_valid(got)
    if depth <= x.cutoff:
        cut = x.truncate(depth)
        assert _terms(cut) == _terms(TruncatedSeries(
            x.alg, depth, {I: v for I, v in x.c.items() if mi_weight(I) <= depth}))
        _assert_valid(cut)


@st.composite
def bracket_cases(draw):
    P = WD[draw(st.sampled_from(sorted(WD)))]
    return (P, draw(elements(P, draw(st.integers(3, 6)))),
            draw(elements(P, draw(st.integers(3, 6)))))


@SETTINGS
@given(bracket_cases())
def test_brackets_match_the_loops(case):
    P, u, v = case
    br = annihilation_bracket(P, u, v)
    vf = vector_field_bracket(P.alg, u, v)
    assert _terms(br) == _terms(_loop_bracket(P, u, v))
    assert _terms(vf) == _terms(_loop_vector_field(P.alg, u, v))
    for w in (br, vf, br.truncate(0)):
        _assert_valid(w, _element_weight)


# (u, v, key of an integral output) over coprime denominators: u carries 1/2
# and 1/3, v carries 5/6 beside 1/6 or 7/6, and the brackets clear them to
# integers and divide by 6 * 6 at the end.  No input value is integral, so the integral output
# is a cancellation the division must store as an `int`
COPRIME = {
    "sl2": ({((1, 0, 0), 2): Fr(1, 2), ((0, 0, 0), 0): Fr(1, 3)},
            {((0, 1, 0), 0): Fr(5, 6), ((0, 1, 1), 0): Fr(1, 6)}, ((0, 1, 2), 2)),
    "heis3": ({((0, 1, 1), 0): Fr(1, 2), ((0, 2, 0), 2): Fr(1, 3)},
              {((1, 0, 0), 2): Fr(5, 6), ((0, 0, 0), 1): Fr(7, 6)}, ((0, 1, 1), 2)),
}


@pytest.mark.parametrize("name", sorted(COPRIME))
def test_brackets_over_coprime_denominators_match_the_loops(name):
    P = WD[name]
    cu, cv, whole = COPRIME[name]
    u = AnnihilationElement(P.module, 4, cu)
    v = AnnihilationElement(P.module, 4, cv)
    br = annihilation_bracket(P, u, v)
    vf = vector_field_bracket(P.alg, u, v)
    assert _terms(br) == _terms(_loop_bracket(P, u, v))
    assert _terms(vf) == _terms(_loop_vector_field(P.alg, u, v))
    for w in (br, vf):
        assert type(w.c[whole]) is int
        assert any(type(s) is Fr for s in w.c.values())


@SETTINGS
@given(bracket_cases())
def test_annihilation_bracket_matches_vector_field_oracle(case):
    P, u, v = case
    br = annihilation_bracket(P, u, v)
    vf = vector_field_bracket(P.alg, u, v)
    cut = min(br.cutoff, vf.cutoff)
    assert br.truncate(cut) == vf.truncate(cut)
