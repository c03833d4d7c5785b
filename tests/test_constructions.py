from fractions import Fraction as Fr
from itertools import combinations

import pytest

from conftest import random_helt, random_melt
from pseudoalg import liealg
from pseudoalg.constructions import (CEND_MAX_GENERATORS, Rank1Datum, apply_anti_involution,
                                     cend_action_on_v, cend_element_from_pairs, check_ybe,
                                     divergence, divergence2,
                                     embed_rank1_element, embed_rank1_in_wd,
                                     gamma_symplectic, make_cend, make_current,
                                     make_gc, make_module_rank1, make_rank1,
                                     make_sd, make_wd, minus_fixed_generators,
                                     named_rank1_datum, rank1_module_check,
                                     sd_generator, wd_element, wd_into_gc1)
from pseudoalg.liealg import Form, GeometricDatum, validate_geometric_datum
from pseudoalg.pbw import HElt, TensorElt, mi_zero, multiindices_up_to
from pseudoalg.pseudo import (verify_axioms, verify_axioms_elements,
                              verify_homomorphism, verify_module)
from pseudoalg.tensor import MElt, QElt


def test_current_abelian_zero_table():
    P = make_current(liealg.abelian(2), liealg.abelian(3))
    for i in range(3):
        for j in range(3):
            assert not P.gen_bracket(i, j)


def test_current_sl2_table_and_axioms():
    P = make_current(liealg.abelian(1), liealg.sl2())
    z = (0,)
    assert P.gen_bracket(0, 1).c == {((z, z), 2, z): Fr(1)}
    assert verify_axioms(P).ok


def test_wd_dim1_table_and_sign_convention():
    alg = liealg.abelian(1)
    P, _ = make_wd(alg)
    # canonical table of [e, e]: 2 d (x) e - 1 (x) (d e)
    assert P.gen_bracket(0, 0).c == {(((1,), (0,)), 0, (0,)): Fr(2),
                                     (((0,), (0,)), 0, (1,)): Fr(-1)}
    # the opposite convention (coefficient 1 (x) d - d (x) 1 on a generator
    # ell) is isomorphic through ell -> -e, not equal on the nose
    from pseudoalg.constructions import make_rank1_from_alpha
    alpha_v = TensorElt.pure([HElt.one(alg), HElt.gen(alg, 0)]) \
        - TensorElt.pure([HElt.gen(alg, 0), HElt.one(alg)])
    P_v = make_rank1_from_alpha(alg, alpha_v, name="opposite-convention")
    assert verify_axioms(P_v).ok
    neg = MElt(P.module, {((0,), 0): -1})
    assert verify_homomorphism(P_v, P, {"e": neg}).ok
    # while the raw identity map between the two conventions fails
    assert not verify_homomorphism(P_v, P, {"e": P.element(0)}).ok


def test_wd_solvable_termwise():
    alg = liealg.solvable2()
    P, _ = make_wd(alg)
    z = (0, 0)
    ea, eb = (1, 0), (0, 1)
    assert P.gen_bracket(0, 1).c == {((z, z), 1, z): Fr(1), ((ea, z), 1, z): Fr(1),
                                     ((eb, z), 0, z): Fr(1), ((z, z), 1, ea): Fr(-1)}
    assert P.gen_bracket(1, 1).c == {((eb, z), 1, z): Fr(2), ((z, z), 1, eb): Fr(-1)}


def test_wd_action_on_one():
    alg = liealg.solvable2()
    P, M = make_wd(alg)
    q = M.act(P.element(0), M.module.element("h"))
    z = (0, 0)
    assert q.canonicalize().c == {(((1, 0), z), "h", z): Fr(1),
                                  ((z, z), "h", (1, 0)): Fr(-1)}


# -- divergence ---------------------------------------------------------------

def test_divergence_basic():
    alg = liealg.abelian(2)
    P, _ = make_wd(alg)
    w = wd_element(P, [((0, 0), 0, 1)])
    assert divergence(alg, w).c == {(1, 0): Fr(1)}


def test_divergence_of_pair_generators_vanishes(catalog_algebra):
    alg = catalog_algebra
    P, _ = make_wd(alg)
    chi0 = tuple(Fr(0) for _ in range(alg.dim))
    for a in range(alg.dim):
        for b in range(a + 1, alg.dim):
            assert not divergence(alg, sd_generator(P, chi0, a, b))


def test_divergence_rejects_non_trace_form():
    alg = liealg.solvable2()
    with pytest.raises(ValueError):
        divergence(alg, wd_element(make_wd(alg)[0], [((0, 0), 0, 1)]), (0, 1))


@pytest.mark.parametrize("name", ["abelian2", "solv2", "heis3"])
def test_divergence_bracket_identity(name, rng):
    # the two-slot divergence of a bracket against the swap of the second
    # argument and the straight first argument, twenty random pairs
    alg = liealg.algebra_by_name(name)
    P, _ = make_wd(alg)
    one = HElt.one(alg)

    def as_tensor(m, swap):
        t = TensorElt(alg, 2)
        for (I, a), v in m.c.items():
            fac = [HElt.monomial(alg, I, v), HElt.gen(alg, a)]
            if swap:
                fac = fac[::-1]
            t = t + TensorElt.pure(fac)
        return t

    for _ in range(7):
        al = random_melt(P.module, 3, rng)
        be = random_melt(P.module, 3, rng)
        lhs = divergence2(alg, P.bracket(al, be))
        rhs = TensorElt.pure([divergence(alg, al), one]) * as_tensor(be, True) \
            - TensorElt.pure([one, divergence(alg, be)]) * as_tensor(al, False)
        assert lhs == rhs


# -- the divergence-free subalgebra --------------------------------------------

def test_sd_pair_bracket_abelian():
    S = make_sd(liealg.abelian(2))
    e = S.gens[(0, 1)]
    q = S.ambient.bracket(e, e)
    expected = QElt.from_tensor_and_module(
        TensorElt.pure([HElt.gen(S.alg, 1), HElt.gen(S.alg, 0)])
        - TensorElt.pure([HElt.gen(S.alg, 0), HElt.gen(S.alg, 1)]), e)
    assert q == expected


def test_sd_express_round_trip(rng):
    S = make_sd(liealg.abelian(3))
    for _ in range(8):
        coeffs = {p: random_helt(S.alg, 2, rng, terms=2) for p in S.pairs}
        w = S.evaluate(coeffs)
        assert S.is_member(w)
        assert S.evaluate(S.express(w)) == w


def test_sd_nonmember_rejected():
    # the one refusal of `express` that a caller can reach: the membership
    # test, failed by a field with divergence
    S = make_sd(liealg.abelian(3))
    P = S.ambient
    w = wd_element(P, [((0, 0, 0), 0, 1)])
    assert not S.is_member(w)
    with pytest.raises(ValueError, match="^not divergence-free, cannot express$"):
        S.express(w)


def test_sd_generator_relation_abelian():
    # d_a e_bc + d_b e_ca + d_c e_ab = 0 for the untwisted abelian case
    S = make_sd(liealg.abelian(3))
    a, b, c = 0, 1, 2
    acc = S.generator(b, c).h_mul(HElt.gen(S.alg, a)) \
        + S.generator(c, a).h_mul(HElt.gen(S.alg, b)) \
        + S.generator(a, b).h_mul(HElt.gen(S.alg, c))
    assert not acc


@pytest.mark.parametrize("name", ["solv2", "heis3", "sl2"])
def test_sd_generator_relation_nonabelian(name):
    # twisted relation: the multiplier side uses h + chi(h), the right side
    # collects the generators attached to brackets
    alg = liealg.algebra_by_name(name)
    S = make_sd(alg)
    if alg.dim < 3:
        pytest.skip("needs three directions")
    for (a, b, c) in [(0, 1, 2)]:
        lhs = S.generator(b, c).h_mul(HElt.gen(alg, a)) \
            + S.generator(c, a).h_mul(HElt.gen(alg, b)) \
            + S.generator(a, b).h_mul(HElt.gen(alg, c))
        rhs = MElt.zero(S.ambient.module)
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            for k, ck in alg.bracket(x, y).items():
                rhs = rhs + S.generator(k, z).scale(ck)
        assert lhs == rhs


def test_chi_of_wrong_length_or_not_a_trace_form_is_refused():
    alg = liealg.heisenberg3()
    w = wd_element(make_wd(alg)[0], [((0, 0, 0), 0, 1)])
    for build in (lambda chi: divergence(alg, w, chi), lambda chi: make_sd(alg, chi),
                  lambda chi: make_module_rank1(alg, 1, chi)):
        for chi in ((1, 0), (1, 0, 0, 0)):
            with pytest.raises(ValueError, match="chi needs 3 entries"):
                build(chi)
        with pytest.raises(ValueError, match="not a trace form"):
            build((0, 0, 1))  # c = [a, b] is a bracket
        build((1, 0, 0))


def test_pseudolinear_rank_below_one_is_refused():
    for n in (0, -1):
        with pytest.raises(ValueError, match="rank"):
            make_cend(liealg.abelian(1), n)
        with pytest.raises(ValueError, match="rank"):
            make_gc(liealg.abelian(1), n)


def test_sd_twisted_relation_with_chi():
    alg = liealg.heisenberg3()
    chi = (Fr(1), Fr(0), Fr(0))  # trace form: c and b are killed
    assert alg.is_trace_form(chi)
    S = make_sd(alg, chi)
    a, b, c = 0, 1, 2

    def mult(i):
        return HElt.gen(alg, i) + HElt.one(alg).scale(chi[i])

    lhs = S.generator(b, c).h_mul(mult(a)) + S.generator(c, a).h_mul(mult(b)) \
        + S.generator(a, b).h_mul(mult(c))
    rhs = MElt.zero(S.ambient.module)
    for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
        for k, ck in alg.bracket(x, y).items():
            rhs = rhs + S.generator(k, z).scale(ck)
    assert lhs == rhs


def test_sd_pair_bracket_formula_exact_abelian():
    # the full pair-pair table over four directions, against the closed
    # eight-term expansion
    alg = liealg.abelian(4)
    S = make_sd(alg)
    P = S.ambient

    def gen(i):
        return HElt.gen(alg, i)

    for (a, b) in S.pairs:
        for (c, d) in S.pairs:
            got = P.bracket(S.gens[(a, b)], S.gens[(c, d)])
            expect = QElt(P.module, 2)
            for (x, y, pair, sgn) in ((a, d, (b, c), 1), ((b), c, (a, d), 1),
                                      (a, c, (b, d), -1), (b, d, (a, c), -1)):
                target = S.generator(*pair)
                t = TensorElt.pure([gen(x), gen(y)]).scale(sgn)
                expect = expect + QElt.from_tensor_and_module(t, target)
            assert got == expect.canonicalize(), ((a, b), (c, d))


def test_sd_closure_all_catalog(catalog_algebra):
    alg = catalog_algebra
    if alg.dim < 2:
        pytest.skip("no pairs in dimension one")
    S = make_sd(alg)
    assert S.closure_report().ok


@pytest.mark.parametrize("name,chi", [("abelian3", None), ("abelian3", (1, -2, 3)),
                                      ("abelian4", None), ("heis3", None),
                                      ("heis3", (1, 0, 0)), ("sl2", None)])
def test_sd_pair_structure(name, chi):
    # the pair-generator table maps onto the ambient brackets, and every
    # carried relation is a vanishing combination of the generators
    S = make_sd(liealg.algebra_by_name(name), chi)
    E = S.pair_structure()
    assert E is S.pair_structure()
    assert verify_homomorphism(E, S.ambient, S.gens).ok
    assert len(E.relations) == len(list(combinations(range(S.alg.dim), 3)))
    for rel in E.relations:
        assert rel and not S.evaluate(rel)
    assert make_wd(S.alg)[0].relations == []


def test_sd_axioms_inside_ambient():
    S = make_sd(liealg.abelian(3))
    elts = {"e%d%d" % p: S.gens[p] for p in S.pairs}
    assert verify_axioms_elements(S.ambient, elts).ok


# -- rank-one data --------------------------------------------------------------

def test_ybe_examples_pass():
    for name in ("solv2", "abelian2", "heisenberg", "sl2"):
        assert check_ybe(named_rank1_datum(name)).ok, name


def test_ybe_wrong_sign_fails():
    alg = liealg.sl2()
    bad = Rank1Datum(alg, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]], (0, 0, 1))
    assert not check_ybe(bad).ok


def test_ybe_single_coordinate_perturbations_fail():
    # one perturbed coordinate per datum; note that scaling r alone stays a
    # solution in the plane case, so that datum is perturbed in s instead
    cases = {
        "solv2": ("s", 0),
        "heisenberg": ("r", None),
        "sl2": ("r", None),
    }
    for name, (what, idx) in cases.items():
        datum = named_rank1_datum(name)
        alg = datum.alg
        if what == "r":
            r = [row[:] for row in datum.r]
            r[0][1] += 1
            r[1][0] -= 1
            assert not check_ybe(Rank1Datum(alg, r, datum.s)).ok, name
        else:
            s = list(datum.s)
            s[idx] += 1
            assert not check_ybe(Rank1Datum(alg, datum.r, tuple(s))).ok, name
    # and the scaled plane datum genuinely remains a solution
    d = named_rank1_datum("solv2")
    r2 = [[2 * x for x in row] for row in d.r]
    assert check_ybe(Rank1Datum(d.alg, r2, d.s)).ok


def test_rank1_structures_pass_axioms():
    for name in ("solv2", "heisenberg", "sl2", "abelian2"):
        P = make_rank1(named_rank1_datum(name))
        assert P.axiom_report.ok, name


def test_ybe_equivalence_with_geometric_validation():
    # nondegenerate data: the checker passes exactly when the form-side
    # validation does, over a small catalog of good and bad inputs
    alg = liealg.abelian(2)
    good = (Form(alg, 2, {(0, 1): 1}), Form(alg, 1, {}))
    bad = (Form(alg, 2, {(0, 1): 1}), Form(alg, 1, {(0,): 1}))  # chi ^ omega != 0? no:
    # for N = 2 the twisted condition is vacuous, so build a genuinely bad one
    salg = liealg.sl2()
    cases = [
        (alg, Form(alg, 2, {(0, 1): 1}), Form(alg, 1, {}), True),
        (salg, Form(salg, 2, {(0, 1): 1, (0, 2): 1, (1, 2): 1}), Form(salg, 1, {}), False),
    ]
    for a, omega, chi, expect in cases:
        rep = validate_geometric_datum(a, GeometricDatum("H", chi=chi, omega=omega))
        assert rep.ok == expect
        if rep.ok:
            datum = Rank1Datum(a, rep.data["r"], rep.data["s"])
            assert check_ybe(datum).ok == expect


def test_solvable_h_type_equals_divergence_free_plane():
    # two-dimensional case: the embedded generator freely generates the
    # divergence-free subalgebra for the matching trace form
    datum = named_rank1_datum("solv2")
    alg = datum.alg
    Pw, _ = make_wd(alg)
    e_img = embed_rank1_element(datum, Pw)
    # phi from the embedding report construction
    from pseudoalg.constructions import _h_type_phi
    phi = _h_type_phi(datum)
    assert phi is not None
    assert not divergence(alg, e_img, phi)


# -- embeddings ------------------------------------------------------------------

def test_embedding_certified_for_all_named_data():
    for name in ("solv2", "abelian2", "heisenberg", "sl2"):
        rep = embed_rank1_in_wd(named_rank1_datum(name))
        assert rep.ok, (name, rep)


def test_embedding_requires_ybe():
    bad = Rank1Datum(liealg.sl2(), [[0, 1, 0], [-1, 0, 0], [0, 0, 0]], (0, 0, 1))
    with pytest.raises(ValueError):
        embed_rank1_in_wd(bad)


def test_rank1_datum_refuses_a_matrix_that_is_not_skew():
    with pytest.raises(ValueError, match="r must be skew"):
        Rank1Datum(liealg.abelian(2), [[0, 1], [1, 0]], (0, 0))


def test_zero_datum_embeds_trivially():
    alg = liealg.abelian(2)
    datum = Rank1Datum(alg, [[0, 0], [0, 0]], (0, 0))
    rep = embed_rank1_in_wd(datum)
    assert rep.ok


# -- pseudolinear endomorphisms ---------------------------------------------------

def test_cend_product_formula():
    alg = liealg.abelian(1)
    C = make_cend(alg, 1)
    q = C.gen_bracket(((1,), 0, 0), ((0,), 0, 0))
    # (1 (x) d (x) E)(1 (x) 1 (x) E) splits d across the slot and the column;
    # in canonical form the slot part moves through the antipode
    z = (0,)
    assert q.canonicalize().c == {((z, z), ((1,), 0, 0), z): Fr(1),
                                  (((1,), z), ((0,), 0, 0), z): Fr(-1),
                                  ((z, z), ((0,), 0, 0), (1,)): Fr(1)}


def test_cend_generator_budget_bounds_the_build():
    # C(1 + 1, 1) n^2 generators over one direction: 4,050 at n = 45, 4,232 at 46
    assert CEND_MAX_GENERATORS == 4096
    assert len(make_cend(liealg.abelian(1), 45).verify_gens) == 4050
    for build in (make_cend, make_gc):
        with pytest.raises(ValueError, match="needs 4232 generators of degree <= 1"):
            build(liealg.abelian(1), 46)
    # C(2 + 1, 2) = 3 multi-indices of degree <= 1 in two directions
    with pytest.raises(ValueError, match="rank 37 over abelian2 needs 4107 generators"):
        make_cend(liealg.abelian(2), 37)


def test_cend_generator_names_read_back():
    C = make_cend(liealg.abelian(2), 2)
    for g in C.verify_gens + [((2, 0), 0, 1), ((1, 1), 1, 0), ((0, 2), 1, 1)]:
        assert C.module.gen_by_name(C.module.gen_name(g)) == g
    # one entry of J per direction, p and q below the rank, no padded digits
    for name in ["c[0;0,0]", "c[0,0,0;0,0]", "c[0,0;2,0]", "c[0,0;0,2]", "c[0,01;0,0]",
                 "c[0,0;0,0", "e_12"]:
        with pytest.raises(KeyError):
            C.module.gen_by_name(name)


def reference_gc_bracket(C, g1, g2):
    """The commutator of `make_gc` before it read the swapped table: the
    reversed product with its slots permuted, the difference canonicalized."""
    return (C.gen_bracket(g1, g2) - C.gen_bracket(g2, g1).permuted([1, 0])).canonicalize()


@pytest.mark.parametrize("name, n", [("abelian1", 3), ("sl2", 2)])
def test_gc_bracket_matches_the_permuted_product(name, n):
    """Over every verify pair of gc:3 and gc:2@sl2, the commutator read off
    the swapped table is canonical as built and has the values and value
    types of the retired formula."""
    C, G = make_gc(liealg.algebra_by_name(name), n)
    for g1 in G.verify_gens:
        for g2 in G.verify_gens:
            got, want = G.gen_bracket(g1, g2), reference_gc_bracket(C, g1, g2)
            assert got.canonical
            assert ({k: (type(v), v) for k, v in got.c.items()}
                    == {k: (type(v), v) for k, v in want.c.items()})


def test_cend_assoc_and_gc_jacobi_rank2():
    alg = liealg.abelian(2)
    C, G = make_gc(alg, 2)
    assert verify_axioms(C).ok
    assert verify_axioms(G).ok


def test_cend_action_on_v():
    alg = liealg.abelian(1)
    C = make_cend(alg, 2)
    M = cend_action_on_v(C)
    assert verify_module(C, M).ok


def test_anti_involution_formula_and_square(rng):
    alg = liealg.solvable2()
    C = make_cend(alg, 1)
    for _ in range(6):
        m = cend_element_from_pairs(
            C, [(rng.choice(multiindices_up_to(2, 2)),
                 rng.choice(multiindices_up_to(2, 2)), 0, 0, Fr(rng.randint(-2, 2)))
                for _ in range(2)])
        assert apply_anti_involution(C, apply_anti_involution(C, m)) == m


def test_anti_involution_reverses_products(rng):
    # omega(a) omega(b) = sigma-twisted omega of (b a)
    alg = liealg.abelian(1)
    C = make_cend(alg, 1)
    for _ in range(4):
        a = cend_element_from_pairs(
            C, [(rng.choice(multiindices_up_to(1, 2)),
                 rng.choice(multiindices_up_to(1, 2)), 0, 0, Fr(rng.randint(-2, 2)))])
        b = cend_element_from_pairs(
            C, [(rng.choice(multiindices_up_to(1, 2)),
                 rng.choice(multiindices_up_to(1, 2)), 0, 0, Fr(rng.randint(-2, 2)))])
        lhs = C.bracket(apply_anti_involution(C, a), apply_anti_involution(C, b))
        rhs = C.bracket(b, a).permuted([1, 0]).canonicalize().map_module(
            lambda g: apply_anti_involution(
                C, cend_element_from_pairs(C, [((0,) * 1, g[0], g[1], g[2], 1)])), C.module)
        assert lhs == rhs.canonicalize()


def test_minus_eigenspace_closed_under_bracket(rng):
    alg = liealg.abelian(1)
    for n, gamma in ((1, None), (2, None), (2, gamma_symplectic(2))):
        C, G = make_gc(alg, n)
        gens = minus_fixed_generators(C, gamma)
        for a in gens[:3]:
            for b in gens[:3]:
                br = G.bracket(a, b)
                moved = br.map_module(
                    lambda g: apply_anti_involution(
                        C, cend_element_from_pairs(C, [((0,), g[0], g[1], g[2], 1)]),
                        gamma), G.module)
                assert (br + moved).canonicalize().c == {}


def test_wd_embeds_into_gc1(catalog_algebra):
    rep, images, (C, G) = wd_into_gc1(catalog_algebra)
    assert rep.ok
    # action compatibility: the image acts on the rank-one module the way
    # the vector fields act on the enveloping algebra
    alg = catalog_algebra
    P, M = make_wd(alg)
    V = cend_action_on_v(C)
    for a in range(alg.dim):
        got = V.act(images[a], V.module.element("v0"))
        want = M.act(P.element(a), M.module.element("h"))
        assert [(key, L, v) for (key, g, L), v in sorted(got.canonicalize().c.items())] \
            == [(key, L, v) for (key, g, L), v in sorted(want.canonicalize().c.items())]


# -- rank-one modules ------------------------------------------------------------

def test_module_lambda_zero_recovers_h_action(catalog_algebra):
    alg = catalog_algebra
    P, M = make_wd(alg)
    P2, V = make_module_rank1(alg, Fr(0))
    for a in range(alg.dim):
        got = V.gen_action(a, "v")
        want = M.gen_action(a, "h")
        assert [(key, L, v) for (key, g, L), v in sorted(got.c.items())] \
            == [(key, L, v) for (key, g, L), v in sorted(want.c.items())]


def test_module_identity_random_parameters(rng):
    for name in ("abelian2", "heis3"):
        alg = liealg.algebra_by_name(name)
        chi = tuple(Fr(rng.randint(-1, 1)) if alg.is_abelian else Fr(0)
                    for _ in range(alg.dim))
        P, V = make_module_rank1(alg, Fr(rng.randint(-2, 2)), chi)
        assert verify_module(P, V).ok


def test_rank1_module_equation_for_embedding_coefficient():
    for name in ("solv2", "heisenberg", "sl2", "abelian2"):
        datum = named_rank1_datum(name)
        alg = datum.alg
        beta = TensorElt(alg, 2)
        z = mi_zero(alg.dim)
        for i in range(alg.dim):
            ei = tuple(1 if p == i else 0 for p in range(alg.dim))
            for j in range(alg.dim):
                ej = tuple(1 if p == j else 0 for p in range(alg.dim))
                if datum.r[i][j]:
                    beta._bump((ei, ej), datum.r[i][j])
            if datum.s[i]:
                beta._bump((z, ei), -datum.s[i])
        assert rank1_module_check(datum, beta).ok, name


def test_rank1_module_equation_zero():
    datum = named_rank1_datum("heisenberg")
    assert rank1_module_check(datum, TensorElt(datum.alg, 2)).ok


def test_rank1_module_equation_detects_failure():
    datum = named_rank1_datum("heisenberg")
    alg = datum.alg
    bad = TensorElt.pure([HElt.gen(alg, 0), HElt.gen(alg, 0)])
    assert not rank1_module_check(datum, bad).ok


def test_geometric_data_round_trip_through_ybe():
    # nondegenerate named data: invert r to a two-form, contract s, validate,
    # and recover the same pair
    from pseudoalg.linalg import invert_matrix
    for name in ("solv2", "abelian2"):
        datum = named_rank1_datum(name)
        alg = datum.alg
        W = invert_matrix(datum.r)
        omega = Form(alg, 2, {(i, j): W[i][j] for i in range(alg.dim)
                              for j in range(i + 1, alg.dim) if W[i][j]})
        chi_vals = {}
        for j in range(alg.dim):
            v = sum((datum.s[i] * W[i][j] for i in range(alg.dim)), Fr(0))
            if v:
                chi_vals[(j,)] = v
        chi = Form(alg, 1, chi_vals)
        rep = validate_geometric_datum(alg, GeometricDatum("H", chi=chi, omega=omega))
        assert rep.ok, name
        assert rep.data["r"] == datum.r
        assert tuple(rep.data["s"]) == datum.s
        assert check_ybe(Rank1Datum(alg, rep.data["r"], rep.data["s"])).ok


def test_contact_data_round_trip():
    from pseudoalg.liealg import Form as F2
    cases = {
        "heisenberg": (liealg.heisenberg3(), {(2,): Fr(1)}),
        "sl2": (liealg.sl2(), {(2,): Fr(1)}),
    }
    for name, (alg, theta_c) in cases.items():
        datum = named_rank1_datum(name)
        rep = validate_geometric_datum(alg, GeometricDatum("K", theta=F2(alg, 1, theta_c)))
        assert rep.ok, name
        assert rep.data["r"] == datum.r, name
        assert tuple(rep.data["s"]) == datum.s, name
