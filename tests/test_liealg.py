from fractions import Fraction as Fr
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import span_dim
from pseudoalg import liealg
from pseudoalg.constructions import Rank1Datum, check_ybe
from pseudoalg.liealg import (Form, GeometricDatum, LieAlgebra, ce_differential,
                              validate_geometric_datum, validate_lie_algebra)


def test_abelian_valid_zero_trace():
    alg = liealg.abelian(2)
    rep = validate_lie_algebra(alg)
    assert rep.ok
    assert rep.data["trace_ad"] == (Fr(0), Fr(0))


def test_solvable_trace_ad_by_hand():
    # [a, b] = b: ad a has matrix diag(0, 1), ad b is strictly triangular
    alg = liealg.solvable2()
    rep = validate_lie_algebra(alg)
    assert rep.ok
    assert rep.data["trace_ad"] == (Fr(1), Fr(0))


def test_jacobi_failure_reported():
    # brute-force: [b, [c, a]] = [b, -a] = c is the only surviving cyclic term
    bad = LieAlgebra("bad", ["a", "b", "c"], {(0, 1): {2: 1}, (0, 2): {0: 1}})
    rep = validate_lie_algebra(bad)
    assert not rep.ok
    assert rep.failures()[0].name == "jacobi"
    assert rep.failures()[0].witness["residual"] == {2: Fr(1)}


def test_swap_table_satisfies_jacobi_by_brute_force():
    # the cyclic expansion of [d1,d2]=d3, [d1,d3]=d2 vanishes identically,
    # so this table is a valid (solvable) algebra
    alg = LieAlgebra("swap", ["a", "b", "c"], {(0, 1): {2: 1}, (0, 2): {1: 1}})
    assert validate_lie_algebra(alg).ok


def test_killing_form_sl2():
    K = liealg.sl2().killing_form()
    # basis (e, f, h): (e|f) = 4, (h|h) = 8, all other pairings vanish
    assert K[0][1] == 4 and K[1][0] == 4 and K[2][2] == 8
    assert K[0][0] == 0 and K[1][1] == 0 and K[0][2] == 0 and K[1][2] == 0
    assert liealg.sl2().killing_nondegenerate()
    assert not liealg.heisenberg3().killing_nondegenerate()


def test_bracket_antisymmetry_table_scan(catalog_algebra):
    alg = catalog_algebra
    for i in range(alg.dim):
        for j in range(alg.dim):
            bij = alg.bracket(i, j)
            bji = alg.bracket(j, i)
            assert bij == {k: -c for k, c in bji.items()}


# -- exterior differential ---------------------------------------------------

def test_differential_abelian_zero():
    alg = liealg.abelian(3)
    w = Form(alg, 1, {(0,): 1, (2,): Fr(1, 2)})
    assert ce_differential(alg, w).is_zero()


def test_differential_solvable_one_forms():
    alg = liealg.solvable2()
    a_star = Form(alg, 1, {(0,): 1})
    b_star = Form(alg, 1, {(1,): 1})
    assert ce_differential(alg, a_star).is_zero()
    db = ce_differential(alg, b_star)
    assert db(0, 1) == Fr(-1)


def test_differential_heisenberg_contact():
    alg = liealg.heisenberg3()
    theta = Form(alg, 1, {(2,): 1})
    dtheta = ce_differential(alg, theta)
    assert dtheta(0, 1) == Fr(-1)
    assert dtheta(0, 2) == 0 and dtheta(1, 2) == 0


@pytest.mark.parametrize("name", ["abelian1", "abelian2", "abelian3", "abelian4",
                                  "solv2", "heis3", "sl2"])
def test_dd_zero_all_basis_forms(name):
    from itertools import combinations
    alg = liealg.algebra_by_name(name)
    for deg in range(alg.dim - 1):
        for T in combinations(range(alg.dim), deg):
            w = Form(alg, deg, {T: 1})
            assert ce_differential(alg, ce_differential(alg, w)).is_zero()


def test_degree_overflow_rejected():
    alg = liealg.abelian(2)
    top = Form(alg, 2, {(0, 1): 1})
    with pytest.raises(ValueError):
        ce_differential(alg, top)


# -- geometric data ----------------------------------------------------------

def test_h_type_abelian_standard():
    alg = liealg.abelian(2)
    omega = Form(alg, 2, {(0, 1): 1})
    chi = Form(alg, 1, {})
    rep = validate_geometric_datum(alg, GeometricDatum("H", chi=chi, omega=omega))
    assert rep.ok
    r, s = rep.data["r"], rep.data["s"]
    assert s == (Fr(0), Fr(0))
    # r inverts omega
    assert r[0][1] == -r[1][0] and r[0][1] * omega(1, 0) + 0 == -r[0][1]
    W = [[omega(i, j) for j in range(2)] for i in range(2)]
    prod = [[sum(r[i][k] * W[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert prod == [[1, 0], [0, 1]]
    # the same data as a rank-one datum satisfies the rank-one conditions
    datum = Rank1Datum.from_geometric(alg, GeometricDatum("H", chi=chi, omega=omega))
    assert datum.r == r and datum.s == s
    assert check_ybe(datum).ok


def test_h_type_simple_algebra_has_no_solution():
    alg = liealg.sl2()
    with_h = validate_geometric_datum(
        alg, GeometricDatum("H", chi=Form(alg, 1, {}),
                            omega=Form(alg, 2, {(0, 1): 1, (0, 2): 1, (1, 2): 1})))
    assert not with_h.ok


def test_h_type_odd_dimension_rejected():
    alg = liealg.abelian(3)
    datum = GeometricDatum("H", chi=Form(alg, 1, {}), omega=Form(alg, 2, {(0, 1): 1}))
    rep = validate_geometric_datum(alg, datum)
    assert not rep.ok
    with pytest.raises(ValueError):
        Rank1Datum.from_geometric(alg, datum)


def test_k_type_heisenberg_contact_datum():
    alg = liealg.heisenberg3()
    theta = Form(alg, 1, {(2,): 1})  # theta(c) = 1, so s = -c
    rep = validate_geometric_datum(alg, GeometricDatum("K", theta=theta))
    assert rep.ok
    assert rep.data["s"] == (Fr(0), Fr(0), Fr(-1))
    r = rep.data["r"]
    assert r[0][1] == 1 and r[1][0] == -1
    assert all(r[i][2] == 0 and r[2][i] == 0 for i in range(3))


def test_k_type_abelian_not_contact():
    alg = liealg.abelian(3)
    rep = validate_geometric_datum(alg, GeometricDatum("K", theta=Form(alg, 1, {(2,): 1})))
    assert not rep.ok


def test_k_type_sl2_contact_datum():
    # theta dual to h: radical of d(theta) is spanned by h
    alg = liealg.sl2()
    theta = Form(alg, 1, {(2,): 1})
    rep = validate_geometric_datum(alg, GeometricDatum("K", theta=theta))
    assert rep.ok
    s = rep.data["s"]
    assert s[0] == 0 and s[1] == 0 and s[2] != 0


# one datum per refusal of `validate_geometric_datum` that an earlier check
# leaves reachable: the algebra, the datum and the one check it fails
GEOMETRIC_REFUSALS = {
    "even-dimension": ("abelian3", "H", {"chi": (1, {}), "omega": (2, {(0, 1): 1})}),
    "degree-shape H": ("abelian2", "H", {"chi": (1, {}), "omega": (1, {(0,): 1})}),
    "omega-degenerate": ("abelian2", "H", {"chi": (1, {}), "omega": (2, {})}),
    # [a, b] = b, so d(e^b)(a, b) = -1
    "chi-not-closed": ("solv2", "H", {"chi": (1, {(1,): 1}), "omega": (2, {(0, 1): 1})}),
    # e^1 ^ (e^12 + e^34) = e^134, while d vanishes on the abelian algebra
    "omega-twisted-cocycle": ("abelian4", "H", {"chi": (1, {(0,): 1}),
                                                "omega": (2, {(0, 1): 1, (2, 3): 1})}),
    "odd-dimension": ("abelian2", "K", {"theta": (1, {(0,): 1})}),
    "degree-shape K": ("abelian3", "K", {"theta": (2, {(0, 1): 1})}),
    "not-contact N=1": ("abelian1", "K", {"theta": (1, {})}),
    "not-contact N=3": ("abelian3", "K", {"theta": (1, {(2,): 1})}),
}


@pytest.mark.parametrize("case", GEOMETRIC_REFUSALS)
def test_geometric_datum_refusal_names_its_check(case):
    name, kind, forms = GEOMETRIC_REFUSALS[case]
    alg = liealg.algebra_by_name(name)
    datum = GeometricDatum(kind, **{k: Form(alg, deg, c) for k, (deg, c) in forms.items()})
    rep = validate_geometric_datum(alg, datum)
    assert [c.name for c in rep.failures()] == [case.split(" ")[0]]
    assert rep.checks == rep.failures() and "r" not in rep.data
    with pytest.raises(ValueError, match="invalid geometric datum"):
        Rank1Datum.from_geometric(alg, datum)


def test_wedge_signs():
    alg = liealg.abelian(3)
    a = Form(alg, 1, {(0,): 1})
    b = Form(alg, 1, {(1,): 1})
    ab = a.wedge(b)
    ba = b.wedge(a)
    assert ab.c == {(0, 1): Fr(1)}
    assert ba.c == {(0, 1): Fr(-1)}


# -- dense references ----------------------------------------------------------
# The dense Gauss-Jordan loops the package used before every row reduction
# went through `SparseEliminator`; kept as references for `invert_matrix`,
# `nullspace` and `sort_with_sign`.

def _dense_invert_matrix(mat):
    n = len(mat)
    a = [[Fr(x) for x in row] + [Fr(1) if i == j else Fr(0) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = Fr(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _dense_matrix_kernel(M):
    n = len(M)
    rows = [list(r) for r in M]
    pivots = []
    rr = 0
    for col in range(n):
        piv = next((r for r in range(rr, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rr], rows[piv] = rows[piv], rows[rr]
        inv = Fr(1) / rows[rr][col]
        rows[rr] = [x * inv for x in rows[rr]]
        for r in range(n):
            if r != rr and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rr])]
        pivots.append(col)
        rr += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fr(0)] * n
        v[fc] = Fr(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def _dense_functional_kernel(chi):
    n = len(chi)
    piv = next((i for i in range(n) if chi[i]), None)
    if piv is None:
        return [[Fr(1) if i == j else Fr(0) for i in range(n)] for j in range(n)]
    basis = []
    for j in range(n):
        if j == piv:
            continue
        v = [Fr(0)] * n
        v[j] = Fr(1)
        v[piv] = -chi[j] / chi[piv]
        basis.append(v)
    return basis


def _perm_sign(order):
    sign = 1
    seen = [False] * len(order)
    for i in range(len(order)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def _random_square(rng, n, singular):
    entries = [Fr(0)] * 3 + [Fr(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
    M = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
    if singular:
        # one row becomes a combination of the others (zero when n = 1)
        k = rng.randrange(n)
        coeffs = [Fr(rng.randint(-2, 2)) for _ in range(n)]
        M[k] = [sum((coeffs[p] * M[p][j] for p in range(n) if p != k), Fr(0))
                for j in range(n)]
    return M


def _same_span(us, vs):
    return len(us) == len(vs) == span_dim(us) == span_dim(vs) == span_dim(us + vs)


def _sparse(v):
    return {i: x for i, x in enumerate(v) if x}


def test_eliminator_matches_dense_references():
    from pseudoalg.linalg import invert_matrix, nullspace
    rng = random.Random(5)
    for trial in range(240):
        n = 1 + trial % 12
        M = _random_square(rng, n, singular=trial % 2 == 1)
        try:
            want = _dense_invert_matrix(M)
        except ValueError:
            want = None
        if want is None:
            with pytest.raises(ValueError):
                invert_matrix(M)
        else:
            got = invert_matrix(M)
            assert got == want and all(type(x) is Fr for row in got for x in row)
        kernel = nullspace([_sparse(row) for row in M], range(n))
        assert _same_span(kernel, [_sparse(v) for v in _dense_matrix_kernel(M)]), M
        assert (want is None) == bool(kernel)
        functional = nullspace([_sparse(M[0])], range(n))
        assert _same_span(functional, [_sparse(v) for v in _dense_functional_kernel(M[0])])


# raw entries as callers pass them: explicit zeros of both types, ints, and
# Fractions that may be integral
DENSE_VALUES = st.one_of(st.sampled_from((0, Fr(0))), st.integers(-3, 3),
                         st.builds(Fr, st.integers(-4, 4), st.integers(1, 4)))


@st.composite
def unit_heavy_squares(draw):
    """A square matrix, at most 6 x 6, in which at least half the rows have a
    single nonzero entry, as the rows of a central window mostly do; every
    other entry of such a row is an explicit zero."""
    n = draw(st.integers(1, 6))
    units = draw(st.integers((n + 1) // 2, n))
    M = [draw(st.lists(DENSE_VALUES, min_size=n, max_size=n)) for _ in range(n - units)]
    for _ in range(units):
        row = [draw(st.sampled_from((0, Fr(0)))) for _ in range(n)]
        row[draw(st.integers(0, n - 1))] = draw(DENSE_VALUES.filter(bool))
        M.append(row)
    return draw(st.permutations(M))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(unit_heavy_squares())
@example([[0, 2, 0], [1, 1, Fr(1, 2)], [0, Fr(0), Fr(3, 1)]])
@example([[1, 1], [0, 1]])  # the second row rewrites the first to a unit row
def test_eliminator_matches_dense_references_on_unit_heavy_squares(M):
    """`invert_matrix` is the dense Gauss-Jordan inverse, in Fractions, or
    both raise on a singular matrix.  The columns 0..n-1 (n < 10) sort by
    `_colkey` as by value, so both eliminations end in the reduced echelon
    form with leftmost pivots: `nullspace` of the rows, explicit zeros
    included, is the dense kernel basis entry by entry, and so is the
    kernel of the first row alone."""
    from pseudoalg.linalg import invert_matrix, nullspace
    n = len(M)
    try:
        want = _dense_invert_matrix(M)
    except ValueError:
        with pytest.raises(ValueError):
            invert_matrix(M)
    else:
        got = invert_matrix(M)
        assert got == want and all(type(x) is Fr for row in got for x in row)
    kernel = nullspace([dict(enumerate(row)) for row in M], range(n))
    assert kernel == [_sparse(v) for v in _dense_matrix_kernel(M)]
    assert all(type(x) in (int, Fr) for v in kernel for x in v.values())
    first = nullspace([dict(enumerate(M[0]))], range(n))
    assert first == [_sparse(v) for v in _dense_functional_kernel([Fr(x) for x in M[0]])]


def test_sort_with_sign_matches_permutation_sign():
    from itertools import product
    for n in range(5):
        for idx in product(range(5), repeat=n):
            order = sorted(range(n), key=lambda p: idx[p])
            sign = _perm_sign(order) if len(set(idx)) == n else 0
            assert liealg.sort_with_sign(list(idx)) == (sign, tuple(sorted(idx))), idx
