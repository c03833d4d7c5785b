from fractions import Fraction as Fr
from functools import partial
from itertools import chain, combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adjoint_module, random_melt
from pseudoalg import liealg
from pseudoalg.cohomology import (Cochain, _central_jacobi_rows,
                                  _central_relation_rows, _degree_window, _rank1_rows,
                                  differential,
                                  extension_cocycle_residual,
                                  hat_central_extension, is_zero_cochain,
                                  sd_central_suite, solve_central_extensions,
                                  solve_central_extensions_rank1,
                                  trivial_cocycle_table, verify_cur_cocycle)
from pseudoalg.constructions import (Rank1Datum, make_current, make_module_rank1,
                                     make_rank1, make_sd, make_wd, named_rank1_datum)
from pseudoalg.linalg import (SparseEliminator, bump, nullspace, quotient_representatives,
                              span_dim)
from pseudoalg.pbw import (HElt, TensorElt, antipode_basis, mi_splits, mul_antipode,
                           mul_basis, multiindices_up_to)
from pseudoalg.pseudo import (compose_left, compose_right, extend_bilinear, verify_axioms,
                              verify_homomorphism)
from pseudoalg.tensor import MElt, QElt


def w_type_dim1():
    P = make_rank1(Rank1Datum(liealg.abelian(1), [[0]], (1,)), run_axioms=False)
    return P


# -- complexes -----------------------------------------------------------------

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


def reference_extension_cocycle_residual(P, Mact, Nact, gamma, a, b, n):
    """The residual as first written: three of its right compositions act
    through lambdas that ignore their first argument and close over the
    acting element instead."""
    def gamma_ab(x_elt, y_elt):
        return extend_bilinear(lambda gx, gy: gamma.get((gx, gy)),
                               x_elt, y_elt, Mact.module)

    ea, eb = P.element(a), P.element(b)
    en = Nact.module.element(n)
    lhs = compose_left(P.bracket(ea, eb), gamma_ab, en, Mact.module)
    r1 = compose_right(ea, gamma_ab(eb, en), Mact.act, Mact.module)
    r2 = compose_right(eb, Nact.act(ea, en), lambda _, y: gamma_ab(eb, y),
                       Mact.module).permuted([1, 0, 2])
    r3 = compose_right(ea, gamma_ab(ea, en), lambda _, y: Mact.act(eb, y),
                       Mact.module).permuted([1, 0, 2])
    r4 = compose_right(ea, Nact.act(eb, en), lambda _, y: gamma_ab(ea, y), Mact.module)
    return (lhs - r1 + r2 + r3 - r4).canonicalize()


def test_extension_cocycle_residual_matches_reference(rng):
    # random gamma is no cocycle, so the residuals are nonzero and every
    # term of the condition is exercised
    alg = liealg.solvable2()
    P, MH = make_wd(alg)
    _, V = make_module_rank1(alg, Fr(1, 2), (Fr(1), Fr(0)))
    zero = (0, 0)
    nonzero = 0
    for _ in range(3):
        gamma = {}
        for a in P.module.gens:
            for n in V.module.gens:
                q = QElt(MH.module, 2)
                for _ in range(2):
                    q._bump((rng.choice(multiindices_up_to(2, 1)), zero),
                            rng.choice(MH.module.gens),
                            rng.choice(multiindices_up_to(2, 1)),
                            Fr(rng.randint(-3, 3), rng.randint(1, 2)))
                gamma[(a, n)] = q.canonicalize()
        for a in P.module.gens:
            for b in P.module.gens:
                for n in V.module.gens:
                    got = extension_cocycle_residual(P, MH, V, gamma, a, b, n)
                    assert got == reference_extension_cocycle_residual(P, MH, V, gamma,
                                                                       a, b, n)
                    nonzero += bool(got)
    assert nonzero


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
    from pseudoalg.linalg import SparseEliminator
    from test_linalg import vec_add
    elim = SparseEliminator()
    for v in sol.basis:
        elim.add(v)
    scaled = {k: Fr(2, 3) * v for k, v in sol.basis[0].items()}
    combo = vec_add(scaled, sol.basis[-1], Fr(-5))
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


def test_sd_shifts_respect_the_relations():
    # with chi != 0 a relation has a nonzero counit, so only the functionals
    # that vanish on it give shifts, and those are cocycles
    S = make_sd(liealg.abelian(3), (1, 0, 0))
    sol = solve_central_extensions(S.pair_structure(), dmax=2)
    assert (sol.dim_cocycles, sol.dim_trivial, sol.dim) == (2, 2, 0)
    elim = SparseEliminator()
    for v in sol.basis:
        elim.add(v)
    assert all(elim.contains(t) for t in sol.trivial)
    # every cocycle vanishes on each relation sum h_g e_g in the first argument
    E = S.pair_structure()
    for v in sol.basis:
        beta = sol.beta_table_of(v)
        for rel in E.relations:
            for q in E.module.gens:
                assert not sum((h * beta.get((g, q), HElt.zero(S.alg)) for g, h in rel.items()),
                               HElt.zero(S.alg))


def eliminated_systems(monkeypatch):
    """Record every row each `SparseEliminator` is given; the returned list
    collects (rows, columns) for each eliminator whose `kernel` is read, in
    the order of the reads."""
    added, systems = {}, []
    add, kernel = SparseEliminator.add, SparseEliminator.kernel

    def recording_add(self, row):
        added.setdefault(self, []).append(row)
        return add(self, row)

    def recording_kernel(self, columns):
        columns = list(columns)
        systems.append((added.get(self, []), columns))
        return kernel(self, columns)

    monkeypatch.setattr(SparseEliminator, "add", recording_add)
    monkeypatch.setattr(SparseEliminator, "kernel", recording_kernel)
    return systems


def test_no_empty_row_reaches_the_eliminator(monkeypatch):
    # the skew-link and Jacobi sources cancel some rows to zero, and the
    # forced-zero skip empties more; the solver drops them before the
    # eliminator
    systems = eliminated_systems(monkeypatch)
    sol = sd_central_suite(liealg.abelian(4), dmax=3)
    [rows] = [rows for rows, columns in systems if columns == sol.unknowns]
    assert len(sol.unknowns) == 1260 and rows
    assert all(rows)


def test_forced_zero_skip_feeds_under_a_quarter_of_the_rows(monkeypatch):
    # without the skip, 28,286 nonempty rows reach the solver's eliminator
    # on this window (28,314 `add` calls in the whole solve); building none
    # for forced-zero unknowns leaves far fewer
    P = make_sd(liealg.abelian(4)).pair_structure()
    unskipped = unskipped_central_rows(P, _degree_window(P.alg, 3))
    assert len(unskipped) == 28286
    systems = eliminated_systems(monkeypatch)
    sol = sd_central_suite(liealg.abelian(4), dmax=3)
    [rows] = [rows for rows, columns in systems if columns == sol.unknowns]
    assert 4 * len(rows) < len(unskipped)


def test_sd_suite_rejects_low_dimension():
    with pytest.raises(ValueError):
        sd_central_suite(liealg.abelian(2), dmax=3)
    with pytest.raises(ValueError):
        sd_central_suite(liealg.heisenberg3(), dmax=3)


# -- the replaced solvers, kept as references ---------------------------------------
#
# Before the generic solver took triples one at a time, it built the central
# Jacobi rows one unknown at a time over every ordered triple, and S(d) had a
# solver of its own with hand-derived rows.  Both live on here as references.

def _central_rows_for_unit(P, p0, q0, I0):
    """Central Jacobi residual with beta = d^(I0) at the ordered pair (p0, q0),
    as {(triple, tensor-key): coefficient} over every ordered triple."""
    alg = P.alg
    gens = P.module.gens
    beta_unit = HElt.monomial(alg, I0, 1)
    out = {}
    for a in gens:
        for b in gens:
            for c in gens:
                trip = (a, b, c)
                for (key, g, L), v in P.gen_bracket(b, c).c.items():
                    if (a, g) == (p0, q0):
                        w = beta_unit * HElt.monomial(alg, L, 1).antipode()
                        for K, cv in w.c.items():
                            bump(out, (trip, (K, key[0])), v * cv)
                for (key, g, L), v in P.gen_bracket(a, c).c.items():
                    if (b, g) == (p0, q0):
                        w = beta_unit * HElt.monomial(alg, L, 1).antipode()
                        for K, cv in w.c.items():
                            bump(out, (trip, (key[0], K)), -v * cv)
                for (key, g, L), v in P.gen_bracket(a, b).c.items():
                    if (g, c) == (p0, q0):
                        w = HElt.monomial(alg, L, 1) * beta_unit
                        for K, cv in w.c.items():
                            for K1, K2 in mi_splits(K, 2):
                                for F1, cf in mul_basis(alg, key[0], K1).items():
                                    bump(out, (trip, (F1, K2)), -v * cv * cf)
    return out


def _bump_row(rows, eqkey, unknown, v):
    """Add v times an unknown to the equation eqkey of a sparse system."""
    if v:
        bump(rows.setdefault(eqkey, {}), unknown, v)


def _skew_link_rows(rows, pairs, monos, alg):
    for p in pairs:
        for q in pairs:
            for I in monos:
                _bump_row(rows, ("skew", p, q, I), ((q, p), I), Fr(1))
                for K, v in antipode_basis(alg, I).items():
                    _bump_row(rows, ("skew", p, q, K), ((p, q), I), v)


def reference_generic_solve(P, dmax):
    """(unknowns, cocycle basis, shift vectors) of a free structure."""
    alg = P.alg
    gens = P.module.gens
    monos = multiindices_up_to(alg.dim, dmax)
    unknowns = [((p, q), I) for p in gens for q in gens for I in monos]
    rows = {}
    _skew_link_rows(rows, gens, monos, alg)
    for p in gens:
        for q in gens:
            for I in monos:
                for (trip, key), v in _central_rows_for_unit(P, p, q, I).items():
                    _bump_row(rows, ("jac", trip, key), ((p, q), I), v)
    trivial = []
    for g0 in gens:
        vec = {(pair, I): v for pair, h in trivial_cocycle_table(P, {g0: Fr(1)}).items()
               for I, v in h.c.items()}
        if vec:
            trivial.append(vec)
    return unknowns, nullspace(rows.values(), unknowns), trivial


def reference_sd_solve(alg, dmax):
    """(unknowns, cocycle basis, shift vectors) of S(d) over an abelian algebra:
    pair skew link, the generator relation contracted into the first
    argument, and the cocycle identity of the restricted rank-one
    substructures on (e_ab, e_ab, e_ac)."""
    n = alg.dim
    pairs = [(a, b) for a in range(n) for b in range(n) if a < b]
    monos = multiindices_up_to(n, dmax)
    unknowns = [((p, q), I) for p in pairs for q in pairs for I in monos]

    def lookup(a, b):
        """(pair key, sign) for the generator e_ab; None if zero."""
        if a == b:
            return None
        return ((a, b), Fr(1)) if a < b else ((b, a), Fr(-1))

    one = HElt.one(alg)
    gen_vec = partial(HElt.gen, alg)
    rows = {}
    _skew_link_rows(rows, pairs, monos, alg)

    # d_a beta(e_bc, Q) + d_b beta(e_ca, Q) + d_c beta(e_ab, Q) = 0
    for (a, b, c) in combinations(range(n), 3):
        for Q in pairs:
            for I in monos:
                for v0, pair in ((a, lookup(b, c)), (b, lookup(c, a)), (c, lookup(a, b))):
                    pk, sg = pair
                    mono = gen_vec(v0) * HElt.monomial(alg, I, 1)
                    for K, v in mono.c.items():
                        _bump_row(rows, ("rel", (a, b, c), Q, K), ((pk, Q), I), sg * v)

    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            for c in range(n):
                if c == a:
                    continue
                eq = ("coc", a, b, c)
                A, B = gen_vec(a), gen_vec(b)
                skew_ba = TensorElt.pure([B, A]) - TensorElt.pure([A, B])
                sgn_ab = Fr(1) if a < b else Fr(-1)
                ab = (a, b) if a < b else (b, a)
                for I in monos:
                    beta = HElt.monomial(alg, I, 1)
                    look = lookup(a, c)
                    if look is not None:
                        pk, sg = look
                        lhs = skew_ba * (beta.coproduct(2) - TensorElt.pure([beta, one])
                                         - TensorElt.pure([one, beta]))
                        lhs = lhs - (TensorElt.pure([A * B, beta])
                                     - TensorElt.pure([beta, A * B]))
                        for key, v in lhs.c.items():
                            _bump_row(rows, eq + (key,), ((ab, pk), I), sg * sgn_ab * v)
                    look = lookup(b, c)
                    if look is not None:
                        pk, sg = look
                        t = TensorElt.pure([beta, A * A]) - TensorElt.pure([A * A, beta])
                        for key, v in t.c.items():
                            _bump_row(rows, eq + (key,), ((ab, pk), I), -sg * sgn_ab * v)
                    t = TensorElt.pure([beta, A * gen_vec(c)]) \
                        - TensorElt.pure([A * gen_vec(c), beta])
                    for key, v in t.c.items():
                        _bump_row(rows, eq + (key,), ((ab, ab), I), -v)

    # tau(e_ab, e_cd) = -ad phi_bc - bc phi_ad + ac phi_bd + bd phi_ac
    trivial = []
    for (p0, q0) in pairs:
        phi = {(p0, q0): Fr(1), (q0, p0): Fr(-1)}
        vec = {}
        for (a, b) in pairs:
            for (c, d) in pairs:
                acc = HElt.zero(alg)
                for (u, v, pk, sgn) in ((a, d, (b, c), Fr(-1)), (b, c, (a, d), Fr(-1)),
                                        (a, c, (b, d), Fr(1)), (b, d, (a, c), Fr(1))):
                    w = phi.get(pk, Fr(0))
                    if w:
                        acc = acc + (gen_vec(u) * gen_vec(v)).scale(sgn * w)
                for I, val in acc.c.items():
                    vec[(((a, b), (c, d)), I)] = val
        if vec:
            trivial.append(vec)
    return unknowns, nullspace(rows.values(), unknowns), trivial


def _pool_structure(name):
    family, _, rest = name.partition(":")
    if family == "rank1":
        return w_type_dim1() if rest == "w1" else make_rank1(named_rank1_datum(rest),
                                                              run_axioms=False)
    if family == "cur":
        return make_current(liealg.abelian(1), liealg.algebra_by_name(rest))
    return make_wd(liealg.algebra_by_name(rest))[0]


# the benchmark's central pool at every window up to 4 (sd:abelian4 at 3)
POOL_WINDOWS = ([(s, d) for s in ("rank1:w1", "rank1:abelian2", "rank1:heisenberg",
                                  "rank1:solv2", "rank1:sl2", "cur:sl2", "wd:solv2",
                                  "wd:heis3", "wd:abelian3", "sd:abelian3")
                 for d in (3, 4)] + [("sd:abelian4", 3)])


@pytest.mark.parametrize("name,dmax", POOL_WINDOWS,
                         ids=["%s@%d" % w for w in POOL_WINDOWS])
def test_central_solve_matches_reference(name, dmax):
    # the same unknowns and, vector by vector, the same cocycle basis and
    # shift vectors as the per-unknown rows over every ordered triple (free
    # structures) or the hand-derived rows (S(d))
    if name.startswith("sd:"):
        alg = liealg.algebra_by_name(name[3:])
        sol = sd_central_suite(alg, dmax)
        ref = reference_sd_solve(alg, dmax)
    else:
        P = _pool_structure(name)
        sol = solve_central_extensions(P, dmax)
        ref = reference_generic_solve(_pool_structure(name), dmax)
    assert (sol.unknowns, sol.basis, sol.trivial) == ref


@pytest.mark.parametrize("chi, dmax, count", [(None, 2, 57), (None, 3, 102),
                                              ((1, 2, 0), 2, 60)])
def test_relation_rows_lie_in_the_jacobi_span(chi, dmax, count):
    # the docstring of solve_central_extensions rests on this: the Jacobi
    # rows alone span every relation row, so those rows change no dimension
    P = make_sd(liealg.abelian(3), chi).pair_structure()
    monos = _degree_window(P.alg, dmax)
    elim = SparseEliminator()
    for row in _central_jacobi_rows(P, monos, set()):
        elim.add(row)
    relation_rows = [r for r in _central_relation_rows(P, monos).values() if r]
    assert len(relation_rows) == count
    assert all(elim.contains(r) for r in relation_rows)


# -- the unskipped row builders, kept as references -------------------------------
#
# Before the solvers read the unknowns their eliminator had forced to zero,
# the generic solver built every Jacobi expansion and the rank-one solver
# built alpha . Delta(beta) - ... for every window monomial; both handed all
# rows to `nullspace`.

def unskipped_jacobi_rows(P, monos):
    """The central Jacobi rows, one generator triple at a time, with every
    (bracket term, monomial) expansion built."""
    alg = P.alg
    splits = {}

    def split_against(F, L, I):
        out = splits.get((F, L, I))
        if out is None:
            out = splits[(F, L, I)] = {}
            for K, cv in mul_basis(alg, L, I).items():
                for K1, K2 in mi_splits(K, 2):
                    for F1, cf in mul_basis(alg, F, K1).items():
                        bump(out, (F1, K2), cv * cf)
        return out

    for a, b, c in combinations_with_replacement(P.module.gens, 3):
        rows = {}
        for (key, g, L), v in P.gen_bracket(b, c).c.items():
            for I in monos:
                for K, cv in mul_antipode(alg, I, L).items():
                    bump(rows.setdefault((K, key[0]), {}), ((a, g), I), v * cv)
        for (key, g, L), v in P.gen_bracket(a, c).c.items():
            for I in monos:
                for K, cv in mul_antipode(alg, I, L).items():
                    bump(rows.setdefault((key[0], K), {}), ((b, g), I), -v * cv)
        for (key, g, L), v in P.gen_bracket(a, b).c.items():
            for I in monos:
                for tkey, cs in split_against(key[0], L, I).items():
                    bump(rows.setdefault(tkey, {}), ((g, c), I), -v * cs)
        yield from rows.values()


def unskipped_central_rows(P, monos):
    """The generic solver's nonempty rows in the order it fed them: skew link,
    relations, then every Jacobi expansion."""
    alg = P.alg
    gens = P.module.gens
    rows = {}
    for p in gens:
        for q in gens:
            for I in monos:
                bump(rows.setdefault(("skew", p, q, I), {}), ((q, p), I), 1)
                for K, v in antipode_basis(alg, I).items():
                    bump(rows.setdefault(("skew", p, q, K), {}), ((p, q), I), v)
    return list(filter(None, chain(rows.values(), element_relation_rows(P, monos).values(),
                                   unskipped_jacobi_rows(P, monos))))


def element_rank1_rows(datum, gen, monos):
    """The rows of the second rank-one condition as element arithmetic built
    them before they were read off the PBW tables, {tensor key: row}: per
    monomial, alpha . Delta(beta) - (beta (x) 1 + 1 (x) beta) . alpha
    - beta (x) t + t (x) beta with `TensorElt` products, t = 3s - x."""
    alg = datum.alg
    alpha = datum.alpha()
    three_sx = HElt.from_vector(alg, {i: 3 * datum.s[i] for i in range(alg.dim)}) \
        - HElt.from_vector(alg, datum.x_element())
    one = HElt.one(alg)
    rows = {}
    for I in monos:
        beta = HElt.monomial(alg, I, 1)
        lhs = alpha * beta.coproduct(2)
        lhs = lhs - (TensorElt.pure([beta, one]) + TensorElt.pure([one, beta])) * alpha
        lhs = lhs - TensorElt.pure([beta, three_sx]) + TensorElt.pure([three_sx, beta])
        for key, v in lhs.c.items():
            bump(rows.setdefault(key, {}), ((gen, gen), I), v)
    return rows


def element_relation_rows(P, monos):
    """The relation rows as element arithmetic built them, {key: row}: each
    product h_g d^(I) an `HElt` product."""
    alg = P.alg
    rows = {}
    for r, rel in enumerate(P.relations):
        for q in P.module.gens:
            for I in monos:
                for g, h in rel.items():
                    for K, v in (h * HElt.monomial(alg, I, 1)).c.items():
                        bump(rows.setdefault(("rel", r, q, K), {}), ((g, q), I), v)
    return rows


def unskipped_rank1_rows(P, monos):
    """The rank-one solver's rows with both conditions built per monomial."""
    alg = P.alg
    gen = P.module.gens[0]
    rows = {}
    for I in monos:
        beta = HElt.monomial(alg, I, 1)
        for K, v in (beta + beta.antipode()).c.items():
            bump(rows.setdefault(K, {}), ((gen, gen), I), v)
    return list(chain(rows.values(), element_rank1_rows(P.datum, gen, monos).values()))


def _oracle_solve(name, dmax):
    """(solution, unskipped basis) of a window, the solution from the solver
    and the basis from the unskipped rows."""
    if name.startswith("sd:"):
        sol = sd_central_suite(liealg.algebra_by_name(name[3:]), dmax)
        P = make_sd(liealg.algebra_by_name(name[3:])).pair_structure()
    else:
        P = _pool_structure(name)
        solver = (solve_central_extensions_rank1 if name.startswith("rank1:")
                  else solve_central_extensions)
        sol = solver(P, dmax)
    monos = _degree_window(P.alg, dmax)
    rows = (unskipped_rank1_rows if name.startswith("rank1:") else unskipped_central_rows)(
        P, monos)
    return sol, nullspace(rows, sol.unknowns)


ORACLE_WINDOWS = ([("sd:abelian3", 3), ("sd:abelian3", 4), ("sd:abelian4", 3)]
                  + [("wd:%s" % n, d) for n in ("heis3", "abelian3", "solv2", "sl2")
                     for d in (3, 4, 5)]
                  + [("cur:sl2", d) for d in (3, 4, 5, 6)]
                  + [("rank1:%s" % n, d)
                     for n in ("w1", "abelian2", "heisenberg", "solv2", "sl2")
                     for d in (3, 4, 6, 8)])


@pytest.mark.parametrize("name,dmax", ORACLE_WINDOWS,
                         ids=["%s@%d" % w for w in ORACLE_WINDOWS])
def test_forced_zero_skip_matches_unskipped_rows(name, dmax):
    # the same basis and representatives, keys, values, value types and
    # order included, as every row built and handed to `nullspace`
    sol, basis = _oracle_solve(name, dmax)
    assert repr(sol.basis) == repr(basis)
    reps = quotient_representatives(basis, sol.trivial)
    assert repr(sol.representatives) == repr(reps)
    assert (sol.dim_cocycles, sol.dim_trivial, sol.dim) == \
        (span_dim(basis), span_dim(sol.trivial), len(reps))


# -- the rows read off the PBW tables against element arithmetic ----------------------

def _nonempty(rows):
    return {key: row for key, row in rows.items() if row}


def _assert_rank1_rows_match(datum, dmax):
    """`_rank1_rows` with nothing known to be zero equals the element-arithmetic
    rows as a {key: row} map, and stores no integral Fraction; with a set of
    unknowns given as zeros it equals them with those unknowns left out."""
    monos = _degree_window(datum.alg, dmax)
    want = element_rank1_rows(datum, "e", monos)
    got = _rank1_rows(datum.alg, datum, "e", monos, set())
    assert got == want
    assert not [v for row in got.values() for v in row.values()
                if type(v) is not int and v.denominator == 1]
    zeros = {(("e", "e"), I) for I in monos[::3]}
    skipped = _rank1_rows(datum.alg, datum, "e", monos, zeros)
    assert skipped == _nonempty({key: {u: v for u, v in row.items() if u not in zeros}
                                 for key, row in want.items()})


RANK1_DATA = ["w1", "abelian2", "heisenberg", "solv2", "sl2"]


@pytest.mark.parametrize("name", RANK1_DATA)
def test_rank1_rows_match_element_arithmetic(name):
    datum = w_type_dim1().datum if name == "w1" else named_rank1_datum(name)
    for dmax in range(3, 9):
        _assert_rank1_rows_match(datum, dmax)


RANK1_ALGEBRAS = {name: liealg.algebra_by_name(name)
                  for name in ("abelian2", "solv2", "heis3", "sl2")}
# explicit zeros, ints and Fractions; `Rank1Datum` stores integral ones as ints
RANK1_COEFFS = st.one_of(st.integers(-2, 2),
                         st.builds(Fr, st.integers(-4, 4), st.sampled_from((1, 2, 3))))


@st.composite
def rank1_data(draw):
    """A datum with a drawn skew r and s over one of four algebras; the rows
    are defined for any alpha, so (r, s) need not satisfy the datum's axioms."""
    alg = RANK1_ALGEBRAS[draw(st.sampled_from(sorted(RANK1_ALGEBRAS)))]
    n = alg.dim
    r = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        r[i][j] = draw(RANK1_COEFFS)
        r[j][i] = -r[i][j]
    s = [draw(RANK1_COEFFS) for _ in range(n)]
    return Rank1Datum(alg, r, s), draw(st.integers(0, 4))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(rank1_data())
def test_rank1_rows_match_element_arithmetic_on_drawn_data(case):
    _assert_rank1_rows_match(*case)


RELATION_WINDOWS = [("sd:abelian3", 3), ("sd:abelian3", 4), ("sd:abelian4", 3),
                    ("sd:abelian3:1,2,0", 3)]


@pytest.mark.parametrize("spec,dmax", RELATION_WINDOWS,
                         ids=["%s@%d" % w for w in RELATION_WINDOWS])
def test_relation_rows_match_element_arithmetic(spec, dmax):
    _, name, chi = (spec.split(":") + [""])[:3]
    P = make_sd(liealg.algebra_by_name(name),
                tuple(int(x) for x in chi.split(",")) if chi else None).pair_structure()
    monos = _degree_window(P.alg, dmax)
    want = element_relation_rows(P, monos)
    assert want and all(want.values())
    assert _nonempty(_central_relation_rows(P, monos)) == want
