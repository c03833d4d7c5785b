import json
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudoalg import liealg
from pseudoalg.cohomology import hat_central_extension, trivial_cocycle_table
from pseudoalg.constructions import make_rank1, make_sd, named_rank1_datum
from pseudoalg.pbw import mi_unit
from pseudoalg.poisson import (PoissonBracketSpec, catalog_general,
                               catalog_h_cocycle, catalog_hamiltonian,
                               catalog_current, catalog_semidirect,
                               catalog_special, lambda_bracket_terms,
                               poisson_catalog, poisson_to_pseudo,
                               pseudo_to_poisson, verify_poisson_jacobi,
                               _substitute)
from pseudoalg.pseudo import PseudoStructure, verify_axioms
from pseudoalg.tensor import FreeModule, QElt


def test_general_dim1_is_the_conformal_table():
    spec = catalog_general(1, 1)
    lb = lambda_bracket_terms(spec, 0, 0)
    assert lb == {((0,), (1,), 0): Fr(1), ((1,), (0,), 0): Fr(2)}


def test_general_dim1_pseudo_image():
    spec = catalog_general(1, 1)
    P, beta = poisson_to_pseudo(spec)
    assert beta is None
    # canonical table: (1 (x) 1) d u - 2 (d (x) 1) u
    assert P.gen_bracket(0, 0).c == {(((0,), (0,)), 0, (1,)): Fr(1),
                                     (((1,), (0,)), 0, (0,)): Fr(-2)}
    assert verify_axioms(P).ok


def test_dictionary_against_rank1_convention():
    # the rank-one generator with opposite sign has exactly the negated
    # coefficient; the single-field table matches it after the sign flip
    spec = catalog_general(1, 1)
    P, _ = poisson_to_pseudo(spec)
    alg = P.alg
    from pseudoalg.constructions import Rank1Datum
    P_w = make_rank1(Rank1Datum(alg, [[0]], (1,)), run_axioms=False)
    q_w = P_w.gen_bracket("e", "e")
    q_p = P.gen_bracket(0, 0)
    assert {(k[0], L): -v for (k, g, L), v in q_w.c.items()} == \
        {(k[0], L): v for (k, g, L), v in q_p.c.items()}


def test_hamiltonian_22_is_symplectic_rank1():
    spec = catalog_hamiltonian(2, 2)
    P, _ = poisson_to_pseudo(spec)
    P2 = make_rank1(named_rank1_datum("abelian2"), run_axioms=False)
    left = {(k[0], L): v for (k, g, L), v in P.gen_bracket(0, 0).c.items()}
    right = {(k[0], L): v for (k, g, L), v in P2.gen_bracket("e", "e").c.items()}
    assert left == right
    assert verify_axioms(P).ok


def test_current_catalog_constant_tables():
    g = liealg.sl2()
    spec = catalog_current(g, 2)
    z = (0, 0)
    assert spec.Q[(0, 1, 2)] == {(z, z): Fr(1)}
    P, _ = poisson_to_pseudo(spec)
    assert verify_axioms(P).ok


def test_zero_spec_abelian_image():
    spec = PoissonBracketSpec(2, 1)
    P, beta = poisson_to_pseudo(spec)
    assert beta is None
    for i in range(2):
        for j in range(2):
            assert not P.gen_bracket(i, j)
    assert pseudo_to_poisson(P) == spec


def test_integral_table_coefficient_is_int():
    spec = PoissonBracketSpec(1, 1)
    spec.add_term(0, 0, 0, (3,), (0,), Fr(1, 3))
    P, _ = poisson_to_pseudo(spec)
    (v,) = P.gen_bracket(0, 0).c.values()
    assert v == -2 and type(v) is int


def w11_with_central_terms():
    spec = PoissonBracketSpec(1, 1)
    spec.add_term(0, 0, 0, (0,), (1,), 1)
    spec.add_term(0, 0, 0, (1,), (0,), 2)
    spec.add_central(0, 0, (3,), Fr(1, 12))
    spec.add_central(0, 0, (2,), Fr(-2, 3))
    return spec


@pytest.mark.parametrize("build", [
    lambda: catalog_general(1, 1),
    lambda: catalog_general(2, 2),
    lambda: catalog_general(2, 3),
    lambda: catalog_hamiltonian(2, 2),
    lambda: catalog_hamiltonian(2, 3),
    lambda: catalog_current(liealg.sl2(), 1),
    lambda: catalog_special(2, 3, (Fr(1), Fr(0))),
    lambda: catalog_special(3, 3),
    lambda: catalog_semidirect(1, 2, liealg.sl2()),
    # central terms of odd and even exponent, with factorials above 1
    lambda: catalog_h_cocycle(catalog_hamiltonian(2, 2), (Fr(1), Fr(2))),
    lambda: w11_with_central_terms(),
])
def test_round_trips_are_identities(build):
    spec = build()
    P, beta = poisson_to_pseudo(spec)
    assert pseudo_to_poisson(P, names=spec.names, beta=beta) == spec


# explicit zeros of both types and integral Fractions such as Fraction(4, 2)
COEFFS = st.one_of(st.integers(-3, 3),
                   st.builds(Fr, st.integers(-5, 5), st.sampled_from((1, 2, 3))))


@st.composite
def specs(draw):
    """A spec in r fields and N variables, r and N in 1..3, built by
    `add_term` calls whose terms may repeat a key and cancel."""
    r, N = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    field = st.integers(0, r - 1)
    exponent = st.lists(st.integers(0, 2), min_size=N, max_size=N)
    spec = PoissonBracketSpec(r, N)
    for _ in range(draw(st.integers(0, 6))):
        spec.add_term(draw(field), draw(field), draw(field), draw(exponent), draw(exponent),
                      draw(COEFFS))
    return spec


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(specs())
def test_round_trip_of_drawn_specs_is_the_identity(spec):
    P, beta = poisson_to_pseudo(spec)
    assert beta is None
    assert pseudo_to_poisson(P, names=spec.names) == spec


@pytest.mark.parametrize("build", [
    lambda: catalog_general(1, 1),
    lambda: catalog_general(2, 2),
    lambda: catalog_hamiltonian(2, 2),
    lambda: catalog_current(liealg.sl2(), 1),
    lambda: catalog_special(2, 3, (Fr(1), Fr(0))),
    lambda: catalog_semidirect(1, 2, liealg.sl2()),
])
def test_catalog_entries_pass_jacobi(build):
    assert verify_poisson_jacobi(build()).ok


def test_perturbed_general_fails_jacobi():
    spec = catalog_general(1, 1)
    spec.add_term(0, 0, 0, (2,), (0,), 1)
    assert not verify_poisson_jacobi(spec).ok


def test_substitution_involution_and_point_oracle(rng):
    for _ in range(20):
        N = rng.choice([1, 2])
        terms = {}
        for _ in range(3):
            A = tuple(rng.randint(0, 2) for _ in range(N))
            B = tuple(rng.randint(0, 2) for _ in range(N))
            terms[(A, B)] = terms.get((A, B), Fr(0)) + Fr(rng.randint(-3, 3))
        terms = {k: v for k, v in terms.items() if v}
        sub = _substitute(terms)

        def ev(t, a, b):
            tot = Fr(0)
            for (A, B), c in t.items():
                v = c
                for p in range(N):
                    v *= a[p] ** A[p] * b[p] ** B[p]
                tot += v
            return tot

        for _ in range(3):
            z = [Fr(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(N)]
            w = [Fr(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(N)]
            assert ev(sub, z, w) == ev(terms, [-x for x in z],
                                       [x + y for x, y in zip(z, w)])
        assert _substitute(sub) == terms


def reference_catalog_special(r, N, chi=None):
    """The S tables as `catalog_special` once built them: S(d, chi) on all N
    variables, its pair structure cut down to the pairs of the first r
    directions (their brackets name only those pairs, since the Koszul step
    splits only the variables their symbols hold), then the dictionary and
    the sign flip of the pair fields."""
    chi = (0,) * r if chi is None else tuple(chi)
    S = make_sd(liealg.abelian(N), chi + (0,) * (N - r))
    E = S.pair_structure()
    pairs = [(a, b) for a, b in S.pairs if b < r]
    mod = FreeModule(S.alg, pairs)
    P = PseudoStructure(mod, "lie", bracket_fn=lambda p, q: QElt(mod, 2, E.gen_bracket(p, q).c))
    spec = pseudo_to_poisson(P, ["u%d%d" % (a + 1, b + 1) for a, b in pairs])
    for terms in spec.Q.values():
        for key in terms:
            terms[key] = -terms[key]
    return spec


@pytest.mark.parametrize("r, N", [(r, N) for r in (2, 3, 4) for N in range(r, r + 3)])
def test_special_catalog_is_the_build_on_all_variables(r, N, rng):
    """S on r fields over N variables, read off the pair structure on r
    variables with its exponents padded, is the S tables computed inside the
    vector fields on all N variables: equal specs, equal JSON, and the same
    tables and terms in the same order with the same value types."""
    def ordered(spec):
        return repr([(where, list(terms.items())) for where, terms in spec.Q.items()])
    drawn = tuple(Fr(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(r))
    for chi in (None, drawn):
        spec, ref = catalog_special(r, N, chi), reference_catalog_special(r, N, chi)
        assert spec == ref
        assert json.dumps(spec.as_dict()) == json.dumps(ref.as_dict())
        assert ordered(spec) == ordered(ref)


def reference_catalog_general(r, N):
    """The W tables as `catalog_general` once wrote them by hand."""
    spec = PoissonBracketSpec(r, N)
    for i in range(r):
        for j in range(r):
            ei = mi_unit(N, i)
            ej = mi_unit(N, j)
            z = (0,) * N
            spec.add_term(i, j, j, z, ei, 1)
            spec.add_term(i, j, j, ei, z, 1)
            spec.add_term(i, j, i, ej, z, 1)
    return spec


def reference_catalog_current(g, N):
    """The Cur tables as `catalog_current` once wrote them by hand."""
    spec = PoissonBracketSpec(g.dim, N, names=["v_%s" % b for b in g.basis])
    z = (0,) * N
    for i in range(g.dim):
        for j in range(g.dim):
            for k, c in g.bracket(i, j).items():
                spec.add_term(i, j, k, z, z, c)
    return spec


def reference_catalog_semidirect(r, N, g):
    """The semidirect tables as `catalog_semidirect` once copied them, term
    by term, from the W and Cur tables, plus the cross terms."""
    w = reference_catalog_general(r, N)
    c = reference_catalog_current(g, N)
    spec = PoissonBracketSpec(r + g.dim, N, names=w.names + c.names)
    for (i, j, k), terms in w.Q.items():
        for key, v in terms.items():
            spec.add_term(i, j, k, key[0], key[1], v)
    for (i, j, k), terms in c.Q.items():
        for key, v in terms.items():
            spec.add_term(r + i, r + j, r + k, key[0], key[1], v)
    z = (0,) * N
    for i in range(r):
        ei = mi_unit(N, i)
        for m in range(g.dim):
            spec.add_term(i, r + m, r + m, z, ei, 1)
            spec.add_term(i, r + m, r + m, ei, z, 1)
            spec.add_term(r + m, i, r + m, ei, z, 1)
    return spec


GRID_ALGEBRAS = ("sl2", "heis3", "solv2", "abelian2")
CATALOG_GRID = (
    [("W", (r, N)) for r in range(1, 5) for N in range(r, r + 3)]
    + [("semidirect", (r, N, g)) for r in range(1, 5) for N in range(r, r + 3)
       for g in GRID_ALGEBRAS]
    + [("S", (r, N, chi)) for r in range(2, 5) for N in range(r, r + 3)
       for chi in (None, tuple(Fr(a - 1, 2) for a in range(r)))]
    + [("Cur", (g, N)) for g in GRID_ALGEBRAS + ("abelian1",) for N in range(1, 5)])


@pytest.mark.parametrize("family, args", CATALOG_GRID,
                         ids=["-".join([f] + ["chi" if type(x) is tuple else str(x) for x in a])
                              for f, a in CATALOG_GRID])
def test_catalog_is_the_retired_table(family, args):
    """W, Cur and semidirect, read off their pseudo constructions as
    currents, are the hand tables they replace (and S the build on all
    variables): the same JSON, names and key order included, and the same
    value type for every coefficient."""
    build, reference = {
        "W": (catalog_general, reference_catalog_general),
        "semidirect": (catalog_semidirect, reference_catalog_semidirect),
        "S": (catalog_special, reference_catalog_special),
        "Cur": (catalog_current, reference_catalog_current)}[family]
    args = [liealg.algebra_by_name(a) if a in liealg.CATALOG_BUILDERS else a for a in args]

    def typed(spec):
        return {where: {key: (type(c), c) for key, c in terms.items()}
                for where, terms in spec.Q.items()}
    spec, ref = build(*args), reference(*args)
    assert json.dumps(spec.as_dict()) == json.dumps(ref.as_dict())
    assert typed(spec) == typed(ref)


def test_central_terms_become_cocycles():
    spec = catalog_h_cocycle(catalog_hamiltonian(2, 2), (Fr(1), Fr(2)))
    P, beta = poisson_to_pseudo(spec)
    assert beta is not None
    # kernel sum alpha_i lam_i maps to minus the derivative directions
    assert beta[(0, 0)].c == {(1, 0): Fr(-1), (0, 1): Fr(-2)}
    assert verify_axioms(hat_central_extension(P, beta)).ok
    # every shift vanishes for this structure, so the class is nonzero
    assert not any(bool(h) for h in trivial_cocycle_table(P, {0: Fr(1)}).values())


def test_poisson_catalog_dispatch():
    assert poisson_catalog("W", r=1, N=2) == catalog_general(1, 2)
    assert poisson_catalog("H", r=2, N=2) == catalog_hamiltonian(2, 2)
    with pytest.raises(KeyError):
        poisson_catalog("nope", r=1, N=1)


def test_json_round_trip():
    spec = catalog_semidirect(1, 2, liealg.sl2())
    data = json.loads(json.dumps(spec.as_dict()))
    assert PoissonBracketSpec.from_dict(data) == spec
