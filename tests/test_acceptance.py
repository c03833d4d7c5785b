"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every expected value is exact rational arithmetic;
stated time budgets are asserted as hard bounds.
"""

import random
import time
from fractions import Fraction as Fr
from itertools import combinations

import pytest

from conftest import is_zero_cochain, random_helt, random_melt
from pseudoalg import liealg
from pseudoalg.annihilation import (AnnihilationElement, TruncatedSeries,
                                    annihilation_bracket, vector_field_bracket)
from pseudoalg.cohomology import (Cochain, differential, hat_central_extension,
                                  sd_central_suite,
                                  solve_central_extensions,
                                  solve_central_extensions_rank1,
                                  trivial_cocycle_table, verify_cur_cocycle)
from pseudoalg.constructions import (Rank1Datum, check_ybe, divergence,
                                     divergence2, embed_rank1_element,
                                     embed_rank1_in_wd, make_current, make_gc,
                                     make_rank1, make_sd, make_wd,
                                     named_rank1_datum, wd_element)
from pseudoalg.forms import (act_on_form, contract_form,
                             differential_on_quotient, form_differential,
                             form_module, volume_action_expected,
                             wd_action_on_forms)
from pseudoalg.pbw import (HElt, TensorElt, antipode_basis, fourier, mi_zero,
                           mi_weight, multiindices_up_to)
from pseudoalg.poisson import (catalog_current, catalog_general,
                               catalog_h_cocycle, catalog_hamiltonian,
                               catalog_semidirect, catalog_special,
                               lambda_bracket_terms, poisson_to_pseudo,
                               pseudo_to_poisson)
from pseudoalg.pseudo import (ModuleStructure, PseudoStructure, compose_right,
                              verify_axioms, verify_axioms_elements,
                              verify_module, x_bracket)
from pseudoalg.tensor import FreeModule, QElt

HOPF_CATALOG = ("abelian1", "abelian2", "abelian3", "solv2", "heis3", "sl2")


def _announce(num, label, t0, budget=None):
    took = time.time() - t0
    print("ACCEPTANCE %2d: PASS  %s  (%.2fs)" % (num, label, took))
    if budget is not None:
        assert took < budget, "budget %.0fs exceeded: %.1fs" % (budget, took)


def test_criterion_01_hopf_kernel():
    t0 = time.time()
    for name in HOPF_CATALOG:
        alg = liealg.algebra_by_name(name)
        for I in multiindices_up_to(alg.dim, 4):
            h = HElt.monomial(alg, I)
            t2 = h.coproduct(2)
            # cocommutativity
            assert t2.permuted([1, 0]) == t2
            # coassociativity against the triple coproduct
            t3 = h.coproduct(3)
            refined = TensorElt(alg, 3)
            for (J, K), v in t2.c.items():
                for (J1, J2), w in HElt.monomial(alg, J).coproduct(2).c.items():
                    refined._bump((J1, J2, K), v * w)
            assert refined == t3
            # antipode axiom, both sides
            eps = h.counit()
            left = HElt.zero(alg)
            right = HElt.zero(alg)
            for (J, K), v in t2.c.items():
                left = left + (HElt(alg, antipode_basis(alg, J))
                               * HElt.monomial(alg, K)).scale(v)
                right = right + (HElt.monomial(alg, J)
                                 * HElt(alg, antipode_basis(alg, K))).scale(v)
            want = HElt(alg, {mi_zero(alg.dim): eps})
            assert left == want and right == want
            # two-sided coproduct collapse: h_(-1) h_(2) (x) h_(3) = 1 (x) h
            collapse = TensorElt(alg, 2)
            for (J, K, L), v in t3.c.items():
                prod = HElt(alg, antipode_basis(alg, J)) * HElt.monomial(alg, K)
                for M2, w in prod.c.items():
                    for Lp, u in HElt.monomial(alg, L).c.items():
                        collapse._bump((M2, Lp), v * w * u)
            assert collapse == TensorElt.pure([HElt.one(alg), h])
            # involutivity of the antipode
            assert h.antipode().antipode() == h
    _announce(1, "coalgebra axioms exhaustive to weight 4 over the catalog", t0, 10)


def test_criterion_02_fourier_suite():
    t0 = time.time()
    rng = random.Random(42)
    count2 = count3 = 0
    while count2 < 25:
        alg = liealg.algebra_by_name(rng.choice(HOPF_CATALOG))
        t = TensorElt.pure([random_helt(alg, 3, rng), random_helt(alg, 3, rng)])
        assert fourier(fourier(t), inverse=True) == t
        assert fourier(fourier(t, inverse=True)) == t
        count2 += 1
    while count3 < 25:
        alg = liealg.algebra_by_name(rng.choice(HOPF_CATALOG))
        t = TensorElt.pure([random_helt(alg, 3, rng) for _ in range(3)])
        lhs = fourier(fourier(fourier(t, (1, 2)), (0, 2)), (0, 1))
        rhs = fourier(fourier(t, (0, 1)), (1, 2))
        assert lhs == rhs
        count3 += 1
    _announce(2, "transform inverse and braid relation on 50 random tensors", t0)


def test_criterion_03_axiom_suite():
    t0 = time.time()
    assert verify_axioms(make_current(liealg.abelian(1), liealg.sl2())).ok
    for name in HOPF_CATALOG:
        P, M = make_wd(liealg.algebra_by_name(name))
        assert verify_axioms(P).ok
        assert verify_module(P, M).ok
    S = make_sd(liealg.abelian(3))
    elts = {"e%d%d" % p: S.gens[p] for p in S.pairs}
    assert verify_axioms_elements(S.ambient, elts).ok
    for name in ("solv2", "heisenberg", "sl2"):
        P = make_rank1(named_rank1_datum(name))
        assert P.axiom_report.ok, name
    for n in (1, 2):
        C, G = make_gc(liealg.abelian(1), n)
        assert verify_axioms(C).ok
        assert verify_axioms(G).ok
    _announce(3, "defining identities for currents, vector fields, rank one, "
                 "pseudolinear", t0, 60)


def test_criterion_04_ybe_checker():
    t0 = time.time()
    for name in ("solv2", "heisenberg", "sl2"):
        assert check_ybe(named_rank1_datum(name)).ok
    # one perturbed coordinate each; the plane datum moves in s since
    # rescaling its r stays inside the solution family
    d = named_rank1_datum("solv2")
    s = list(d.s)
    s[0] += 1
    assert not check_ybe(Rank1Datum(d.alg, d.r, tuple(s))).ok
    for name in ("heisenberg", "sl2"):
        d = named_rank1_datum(name)
        r = [row[:] for row in d.r]
        r[0][1] += 1
        r[1][0] -= 1
        assert not check_ybe(Rank1Datum(d.alg, r, d.s)).ok
    _announce(4, "rank-one conditions pass on the stock data, fail perturbed", t0)


def test_criterion_05_embeddings():
    t0 = time.time()
    for name in ("solv2", "heisenberg", "sl2"):
        rep = embed_rank1_in_wd(named_rank1_datum(name))
        assert rep.ok, name
    # nondegenerate case: the image is divergence-free for the twisted form
    from pseudoalg.constructions import _h_type_phi
    for name in ("solv2", "abelian2"):
        datum = named_rank1_datum(name)
        Pw, _ = make_wd(datum.alg)
        phi = _h_type_phi(datum)
        assert phi is not None
        assert not divergence(datum.alg, embed_rank1_element(datum, Pw), phi)
    _announce(5, "generator maps into the vector fields; twisted divergence "
                 "vanishes on nondegenerate images", t0)


def test_criterion_06_divergence_free_generators():
    t0 = time.time()
    rng = random.Random(6)
    for N in (2, 3, 4):
        alg = liealg.abelian(N)
        S = make_sd(alg)
        P = S.ambient

        def gen(i):
            return HElt.gen(alg, i)

        for (a, b) in S.pairs:
            for (c, d) in S.pairs:
                got = P.bracket(S.gens[(a, b)], S.gens[(c, d)])
                expect = QElt(P.module, 2)
                for (x, y, pair, sgn) in ((a, d, (b, c), 1), (b, c, (a, d), 1),
                                          (a, c, (b, d), -1), (b, d, (a, c), -1)):
                    expect = expect + QElt.from_tensor_and_module(
                        TensorElt.pure([gen(x), gen(y)]).scale(sgn),
                        S.generator(*pair))
                assert got == expect.canonicalize()
        # relation of the generators under contraction
        for (a, b, c) in combinations(range(N), 3):
            acc = S.generator(b, c).h_mul(gen(a)) + S.generator(c, a).h_mul(gen(b)) \
                + S.generator(a, b).h_mul(gen(c))
            assert not acc
    S = make_sd(liealg.abelian(3))
    for _ in range(20):
        coeffs = {p: random_helt(S.alg, 2, rng, terms=2) for p in S.pairs}
        w = S.evaluate(coeffs)
        assert S.is_member(w)
        assert S.evaluate(S.express(w)) == w
    _announce(6, "pair-generator tables exact to dimension 4; expression "
                 "round-trips 20 members", t0)


def test_criterion_07_divergence_identity():
    t0 = time.time()
    rng = random.Random(7)
    one_by = {}
    count = 0
    while count < 20:
        name = ("abelian2", "solv2", "heis3", "abelian3")[count % 4]
        alg = liealg.algebra_by_name(name)
        P, _ = make_wd(alg)
        al = random_melt(P.module, 3, rng, terms=2)
        be = random_melt(P.module, 3, rng, terms=2)
        lhs = divergence2(alg, P.bracket(al, be))
        one = HElt.one(alg)

        def as_tensor(m, swap):
            t = TensorElt(alg, 2)
            for (I, a), v in m.c.items():
                fac = [HElt.monomial(alg, I, v), HElt.gen(alg, a)]
                if swap:
                    fac = fac[::-1]
                t = t + TensorElt.pure(fac)
            return t

        rhs = TensorElt.pure([divergence(alg, al), one]) * as_tensor(be, True) \
            - TensorElt.pure([one, divergence(alg, be)]) * as_tensor(al, False)
        assert lhs == rhs
        count += 1
    _announce(7, "two-slot divergence identity on 20 random pairs", t0)


def test_criterion_08_conformal_generating_form():
    t0 = time.time()
    alg = liealg.abelian(1)
    Pw, _ = make_wd(alg)
    # the opposite-sign generator: negate the module coefficients of the table
    mod = FreeModule(alg, ["l"], label="opposite")
    neg = QElt(mod, 2)
    for (key, g, L), v in Pw.gen_bracket(0, 0).c.items():
        neg._bump(key, "l", L, -v)
    P_ell = PseudoStructure(mod, "lie", table={("l", "l"): neg}, name="opposite")
    assert verify_axioms(P_ell).ok
    spec = pseudo_to_poisson(P_ell, names=["l"])
    lb = lambda_bracket_terms(spec, 0, 0)
    assert lb == {((0,), (1,), 0): Fr(1), ((1,), (0,), 0): Fr(2)}
    _announce(8, "opposite generator reproduces the (d + 2 lambda) kernel", t0)


def test_criterion_09_annihilation_cross_oracle():
    t0 = time.time()
    D = 6
    for name in ("abelian1", "abelian2"):
        alg = liealg.algebra_by_name(name)
        P, _ = make_wd(alg)
        for I in multiindices_up_to(alg.dim, 4):
            for J in multiindices_up_to(alg.dim, 4):
                for a in range(alg.dim):
                    for b in range(alg.dim):
                        u = AnnihilationElement.generator(P.module, I, a, D)
                        v = AnnihilationElement.generator(P.module, J, b, D)
                        br = annihilation_bracket(P, u, v)
                        vf = vector_field_bracket(alg, u, v)
                        cut = min(br.cutoff, vf.cutoff)
                        assert br.truncate(cut).c == vf.truncate(cut).c
    # scalar-specialized bracket drives the functional one on 20 random cases
    rng = random.Random(9)
    alg = liealg.abelian(1)
    P, _ = make_wd(alg)
    e = P.element(0)
    for _ in range(20):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        u = AnnihilationElement.generator(P.module, (m,), 0, 8)
        v = AnnihilationElement.generator(P.module, (n,), 0, 8)
        lhs = annihilation_bracket(P, u, v)
        rhs = AnnihilationElement(P.module, lhs.cutoff)
        xm = TruncatedSeries.dual_basis(alg, (m,), 8)
        yn = TruncatedSeries.dual_basis(alg, (n,), 8)
        for k in range(m + 1):
            coeffs = x_bracket(P, e, TruncatedSeries.dual_basis(alg, (k,), 8), e)
            if not coeffs:
                continue
            stretch = xm.act(HElt.monomial(alg, (k,), 1).antipode(), "right") * yn
            for (L, g), cv in coeffs.c.items():
                moved = stretch.act(HElt.monomial(alg, L, 1), "right") if any(L) else stretch
                for I2, sv in moved.c.items():
                    if mi_weight(I2) <= rhs.cutoff:
                        rhs.c[(I2, g)] = rhs.c.get((I2, g), Fr(0)) + cv * sv
        rhs.c = {k2: v2 for k2, v2 in rhs.c.items() if v2}
        cut = min(lhs.cutoff, rhs.cutoff)
        assert lhs.truncate(cut).c == rhs.truncate(cut).c
    _announce(9, "functional brackets match vector fields at depth 6", t0, 60)


def test_criterion_10_central_extensions():
    t0 = time.time()
    # W type in one variable: one-dimensional space, cubic representative
    P = make_rank1(Rank1Datum(liealg.abelian(1), [[0]], (1,)), run_axioms=False)
    sol = solve_central_extensions_rank1(P, dmax=4)
    assert sol.dim == 1
    rep = sol.beta_table_of(sol.representatives[0])[("e", "e")]
    assert set(rep.c) == {(3,)}
    # contact type over the Heisenberg algebra: the contraction is c and
    # everything is a shift
    datum = named_rank1_datum("heisenberg")
    assert datum.x_element() == {2: Fr(1)}
    sol = solve_central_extensions_rank1(make_rank1(datum, run_axioms=False), dmax=4)
    assert sol.dim == 0 and sol.complete
    # flat symplectic type: the full space of directions
    sol = solve_central_extensions_rank1(
        make_rank1(named_rank1_datum("abelian2"), run_axioms=False), dmax=4)
    assert sol.dim == 2 and sol.complete
    # current structure over a simple coefficient algebra
    for dname, N in (("abelian1", 1), ("abelian2", 2)):
        Pc = make_current(liealg.algebra_by_name(dname), liealg.sl2())
        repc = verify_cur_cocycle(Pc, d_element=[1] + [0] * (N - 1))
        assert repc.ok and not repc.is_trivial
        solc = solve_central_extensions(Pc, dmax=2)
        assert solc.dim == N
    # divergence-type suite in three abelian directions
    sol = sd_central_suite(liealg.abelian(3), dmax=4)
    assert sol.dim == 0 and sol.dim_trivial == 3
    _announce(10, "extension spaces: dims 1, 0, full, base-dim, 0", t0, 120)


def test_criterion_11_cochain_complex():
    t0 = time.time()
    rng = random.Random(11)
    P1 = make_current(liealg.abelian(1), liealg.sl2())
    M1 = ModuleStructure(P1, P1.module, action_fn=lambda a, m: P1.gen_bracket(a, m),
                         name="adjoint")
    P2, M2 = make_wd(liealg.solvable2())
    done = 0
    for (P, M) in ((P1, M1), (P2, M2)):
        for _ in range(5):
            g0 = Cochain(0, P, M, [Fr(rng.randint(-2, 2)) for _ in M.module.gens])
            assert is_zero_cochain(differential(differential(g0)))
            done += 1
        for _ in range(5):
            vals = {g: random_melt(M.module, 2, rng) for g in P.module.gens}
            g1 = Cochain(1, P, M, vals)
            assert is_zero_cochain(differential(differential(g1)))
            done += 1
    assert done == 20
    _announce(11, "differential squares to zero on 20 random cochains", t0)


def test_criterion_12_pseudoforms():
    t0 = time.time()
    for name in ("abelian1", "abelian2", "solv2"):
        alg = liealg.algebra_by_name(name)
        P, _ = make_wd(alg)
        N = alg.dim
        z = mi_zero(N)
        fields = [wd_element(P, [(z, a, 1)]) for a in range(N)]
        mods = [form_module(alg, deg) for deg in range(N + 1)]
        for deg in range(N - 1):
            for T in mods[deg].gens:
                assert not form_differential(alg, form_differential(alg, mods[deg].element(T)))
        for field in fields:
            for deg in range(N + 1):
                for T in mods[deg].gens:
                    w = mods[deg].element(T)
                    lhs = act_on_form(alg, field, w)
                    rhs1 = (differential_on_quotient(
                        alg, contract_form(alg, field, w), deg - 1)
                        if deg >= 1 else QElt(form_module(alg, deg), 2))
                    rhs2 = (contract_form(alg, field, form_differential(alg, w))
                            if deg <= N - 1 else QElt(form_module(alg, deg), 2))
                    assert lhs == (rhs1 + rhs2).canonicalize()
                    if deg < N:
                        lhs2 = act_on_form(alg, field, form_differential(alg, w))
                        rhs3 = differential_on_quotient(
                            alg, act_on_form(alg, field, w), deg)
                        assert lhs2 == rhs3.canonicalize()
        # contractions anticommute on the volume form
        if N == 2:
            w = mods[2].element((0, 1))

            def act_iota(a_elt, d_elt):
                return contract_form(alg, a_elt, d_elt)

            for f1 in fields:
                for f2 in fields:
                    inner = contract_form(alg, f2, w)
                    lhs = compose_right(f1, inner, act_iota, form_module(alg, 0))
                    inner2 = contract_form(alg, f1, w)
                    rhs = compose_right(f2, inner2, act_iota,
                                        form_module(alg, 0)).permuted([1, 0, 2])
                    assert not (lhs + rhs.canonicalize()).canonicalize()
        # volume action, including the nonabelian trace term
        for a in range(N):
            got = act_on_form(alg, fields[a], mods[N].element(tuple(range(N))))
            assert got == volume_action_expected(alg, a)
        for deg in range(N + 1):
            assert verify_module(P, wd_action_on_forms(P, deg)).ok
    _announce(12, "exterior calculus identities exhaustive in two directions", t0, 60)


def test_criterion_13_poisson_dictionary():
    t0 = time.time()
    specs = [catalog_general(1, 1), catalog_general(2, 2), catalog_general(2, 3),
             catalog_hamiltonian(2, 2), catalog_hamiltonian(2, 3),
             catalog_current(liealg.sl2(), 1), catalog_special(2, 3, (Fr(1), Fr(0))),
             catalog_special(3, 3), catalog_semidirect(1, 2, liealg.sl2())]
    for spec in specs:
        P, _ = poisson_to_pseudo(spec)
        assert pseudo_to_poisson(P, names=spec.names) == spec
    # single-field general table maps onto the opposite-sign vector fields
    spec = catalog_general(1, 1)
    P, _ = poisson_to_pseudo(spec)
    Pw, _ = make_wd(liealg.abelian(1))
    q_w = Pw.gen_bracket(0, 0)
    q_p = P.gen_bracket(0, 0)
    assert {(k[0], L): -v for (k, g, L), v in q_w.c.items()} == \
        {(k[0], L): v for (k, g, L), v in q_p.c.items()}
    # the kernel constant block is a nontrivial central cocycle
    spec = catalog_h_cocycle(catalog_hamiltonian(2, 2), (Fr(1), Fr(2)))
    P, beta = poisson_to_pseudo(spec)
    assert verify_axioms(hat_central_extension(P, beta)).ok
    assert not any(bool(h) for h in trivial_cocycle_table(P, {0: Fr(1)}).values())
    assert any(bool(h) for h in beta.values())
    _announce(13, "dictionary round trips, conformal image, central kernel", t0)
