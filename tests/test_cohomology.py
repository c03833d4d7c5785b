from fractions import Fraction as Fr

import pytest

from conftest import random_melt
from pseudoalg import liealg
from pseudoalg.cohomology import (Cochain, differential, extension_cocycle_residual,
                                  hat_central_extension, is_zero_cochain,
                                  sd_central_suite, solve_central_extensions,
                                  solve_central_extensions_rank1,
                                  trivial_cocycle_table, verify_cur_cocycle)
from pseudoalg.constructions import (Rank1Datum, make_current, make_module_rank1,
                                     make_rank1, make_wd, named_rank1_datum)
from pseudoalg.pbw import HElt
from pseudoalg.pseudo import ModuleStructure, verify_axioms, verify_homomorphism
from pseudoalg.tensor import MElt, QElt


def w_type_dim1():
    P = make_rank1(Rank1Datum(liealg.abelian(1), [[0]], (1,)), run_axioms=False)
    return P


# -- complexes -----------------------------------------------------------------

def adjoint_module(P):
    return ModuleStructure(P, P.module, action_fn=lambda a, m: P.gen_bracket(a, m),
                           name="adjoint")


def test_d_of_zero_cochain_matches_contraction():
    # over the vector fields acting on the enveloping algebra the counit
    # contraction of -(1 (x) h d_a) vanishes, so d of degree zero is zero
    P, M = make_wd(liealg.abelian(1))
    g1 = differential(Cochain(0, P, M, [Fr(1)]))
    assert not g1.values[0]


def test_d_of_zero_cochain_adjoint_nonzero():
    P = make_current(liealg.abelian(1), liealg.sl2())
    adj = adjoint_module(P)
    g1 = differential(Cochain(0, P, adj, [Fr(1), Fr(0), Fr(0)]))
    # d(e-class)(f) = [f-ish...]: value is the adjoint contraction [a, e]
    got = g1.values[1]  # generator f acting on the e-class
    assert got == MElt(P.module, {((0,), 2): -1})  # [f, e] = -h


@pytest.mark.parametrize("case", ["cur-adjoint", "wd-H"])
def test_dd_zero_random(case, rng):
    if case == "cur-adjoint":
        P = make_current(liealg.abelian(1), liealg.sl2())
        M = adjoint_module(P)
    else:
        P, M = make_wd(liealg.solvable2())
    for _ in range(6):
        g0 = Cochain(0, P, M, [Fr(rng.randint(-2, 2)) for _ in M.module.gens])
        assert is_zero_cochain(differential(differential(g0)))
    for _ in range(4):
        vals = {g: random_melt(M.module, 2, rng) for g in P.module.gens}
        g1 = Cochain(1, P, M, vals)
        assert is_zero_cochain(differential(differential(g1)))


def test_split_extension_cocycle(rng):
    alg = liealg.abelian(2)
    P, MH = make_wd(alg)
    _, V = make_module_rank1(alg, Fr(1))
    phi_img = random_melt(MH.module, 1, rng)

    def phi(melt):
        out = MElt.zero(MH.module)
        for (L, g), v in melt.c.items():
            out = out + phi_img.h_mul(HElt.monomial(alg, L, v))
        return out

    gamma = {}
    for a in P.module.gens:
        for n in V.module.gens:
            t1 = MH.act(P.element(a), phi(V.module.element(n)))
            t2 = QElt(MH.module, 2)
            for (key, g, L), v in V.gen_action(a, n).c.items():
                img = phi(MElt(V.module, {(L, g): 1}))
                for (L2, g2), w in img.c.items():
                    t2._bump(key, g2, L2, v * w)
            gamma[(a, n)] = (t1 - t2).canonicalize()
    for a in P.module.gens:
        for b in P.module.gens:
            for n in V.module.gens:
                assert not extension_cocycle_residual(P, MH, V, gamma, a, b, n)


# -- rank-one central extensions -------------------------------------------------

def test_w_type_dim1_solution():
    sol = solve_central_extensions_rank1(w_type_dim1(), dmax=4)
    assert sol.dim_cocycles == 2 and sol.dim_trivial == 1 and sol.dim == 1
    assert not sol.complete  # r = 0: honest degree-window flag
    rep = sol.representative_tables()[0][("e", "e")]
    # the cubic direction survives; its class is the unique extension
    assert set(rep.c) == {(3,)}


def test_w_type_solution_space_is_odd_span():
    sol = solve_central_extensions_rank1(w_type_dim1(), dmax=4)
    from pseudoalg.linalg import SparseEliminator
    elim = SparseEliminator()
    for v in sol.basis:
        elim.add(v)
    gen = ("e", "e")
    assert elim.contains({(gen, (1,)): Fr(1)})
    assert elim.contains({(gen, (3,)): Fr(1)})
    assert not elim.contains({(gen, (2,)): Fr(1)})
    assert not elim.contains({(gen, (0,)): Fr(1)})


def test_heisenberg_k_type_trivial():
    datum = named_rank1_datum("heisenberg")
    assert datum.x_element() == {2: Fr(1)}  # the contraction equals c
    sol = solve_central_extensions_rank1(make_rank1(datum, run_axioms=False), dmax=4)
    assert sol.dim == 0 and sol.complete
    assert sol.dim_cocycles == 1  # multiples of c, all shifts


def test_abelian_h_type_full_space():
    sol = solve_central_extensions_rank1(
        make_rank1(named_rank1_datum("abelian2"), run_axioms=False), dmax=4)
    assert sol.dim == 2 and sol.complete and sol.dim_trivial == 0


def test_solvable_h_type():
    datum = named_rank1_datum("solv2")
    sol = solve_central_extensions_rank1(make_rank1(datum, run_axioms=False), dmax=4)
    # s != 0: only multiples of s solve the commutation half, and the shift
    # space is spanned by 2s - x, so the quotient collapses
    assert sol.complete
    assert sol.dim == 0


def test_generic_solver_agrees_with_rank1():
    for name in ("heisenberg", "abelian2", "solv2"):
        P = make_rank1(named_rank1_datum(name), run_axioms=False)
        a = solve_central_extensions_rank1(P, dmax=3)
        b = solve_central_extensions(P, dmax=3)
        assert (a.dim_cocycles, a.dim_trivial, a.dim) == \
            (b.dim_cocycles, b.dim_trivial, b.dim), name
    a = solve_central_extensions_rank1(w_type_dim1(), dmax=4)
    b = solve_central_extensions(w_type_dim1(), dmax=4)
    assert (a.dim_cocycles, a.dim) == (b.dim_cocycles, b.dim)


def test_solution_space_closed_under_combinations():
    sol = solve_central_extensions_rank1(w_type_dim1(), dmax=4)
    from pseudoalg.linalg import SparseEliminator, vec_add, vec_scale
    elim = SparseEliminator()
    for v in sol.basis:
        elim.add(v)
    combo = vec_add(vec_scale(sol.basis[0], Fr(2, 3)), sol.basis[-1], Fr(-5))
    assert elim.contains(combo)


def test_hat_extension_from_representative_passes_axioms():
    P = w_type_dim1()
    sol = solve_central_extensions_rank1(P, dmax=4)
    for table in sol.representative_tables():
        hat = hat_central_extension(P, table)
        assert verify_axioms(hat).ok


def test_trivial_cocycle_gives_split_extension():
    P = w_type_dim1()
    tau = {("e", "e"): HElt(P.alg, {(1,): 6})}  # three times the shift 2s
    hat_tau = hat_central_extension(P, tau, name="hat-tau")
    hat_0 = hat_central_extension(P, {}, name="hat-0")
    z = hat_tau.central_generator
    images = {"e": MElt(hat_tau.module, {((0,), "e"): 1, ((0,), z): 3}),
              z: hat_tau.module.element(z)}
    assert verify_homomorphism(hat_0, hat_tau, images).ok
    # without the shift the map is not a homomorphism
    bad = {"e": hat_tau.module.element("e"), z: hat_tau.module.element(z)}
    assert not verify_homomorphism(hat_0, hat_tau, bad).ok


def test_generic_trivial_table_matches_closed_form():
    # for a rank-one structure the shift table collapses to phi (2s - x)
    for name in ("heisenberg", "solv2"):
        datum = named_rank1_datum(name)
        P = make_rank1(datum, run_axioms=False)
        table = trivial_cocycle_table(P, {"e": Fr(1)})
        s_elt = HElt.from_vector(P.alg, {i: 2 * datum.s[i] for i in range(P.alg.dim)})
        x_elt = HElt.from_vector(P.alg, datum.x_element())
        assert table[("e", "e")] == s_elt - x_elt, name


# -- current structures ---------------------------------------------------------

def test_cur_sl2_pairing_cocycle_closed_nontrivial():
    for dname, N in (("abelian1", 1), ("abelian2", 2)):
        P = make_current(liealg.algebra_by_name(dname), liealg.sl2())
        rep = verify_cur_cocycle(P, d_element=[1] + [0] * (N - 1))
        assert rep.ok and not rep.is_trivial


def test_cur_sl2_dimension_matches_base(catalog_algebra):
    P = make_current(catalog_algebra, liealg.sl2())
    sol = solve_central_extensions(P, dmax=2)
    assert sol.dim == catalog_algebra.dim


def test_cur_zero_and_scalar_candidates_trivial():
    P = make_current(liealg.abelian(1), liealg.sl2())
    rep = verify_cur_cocycle(P, d_element=[0])
    assert rep.ok and rep.is_trivial
    # a scalar-valued table built from a shift functional is closed + trivial
    table = trivial_cocycle_table(P, {0: Fr(1), 1: Fr(-2), 2: Fr(0)})
    rep = verify_cur_cocycle(P, beta_table=table)
    assert rep.ok and rep.is_trivial


def test_cur_degenerate_pairing_rejected():
    P = make_current(liealg.abelian(1), liealg.heisenberg3())
    P.coefficient_algebra = liealg.heisenberg3()
    with pytest.raises(ValueError):
        verify_cur_cocycle(P, d_element=[1])


def test_current_w_type_rank2_vanishes():
    # two commuting vector-field directions: every cocycle is a shift
    P, _ = make_wd(liealg.abelian(2))
    sol = solve_central_extensions(P, dmax=6)
    assert sol.dim == 0 and sol.dim_trivial == 2


# -- divergence-type suite --------------------------------------------------------

def test_sd_suite_only_trivial_solutions():
    sol = sd_central_suite(liealg.abelian(3), dmax=4)
    assert sol.dim == 0
    assert sol.dim_trivial == 3 and sol.dim_cocycles == 3


def test_sd_suite_rejects_low_dimension():
    with pytest.raises(ValueError):
        sd_central_suite(liealg.abelian(2), dmax=3)
    with pytest.raises(ValueError):
        sd_central_suite(liealg.heisenberg3(), dmax=3)
