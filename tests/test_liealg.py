from fractions import Fraction as Fr

import pytest

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
    assert rep.failures[0][0] == "jacobi"
    assert rep.failures[0][1]["residual"] == {2: Fr(1)}


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


def test_wedge_signs():
    alg = liealg.abelian(3)
    a = Form(alg, 1, {(0,): 1})
    b = Form(alg, 1, {(1,): 1})
    ab = a.wedge(b)
    ba = b.wedge(a)
    assert ab.c == {(0, 1): Fr(1)}
    assert ba.c == {(0, 1): Fr(-1)}
