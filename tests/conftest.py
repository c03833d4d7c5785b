import random
from fractions import Fraction

import pytest

from pseudoalg import liealg

CATALOG = ("abelian1", "abelian2", "abelian3", "solv2", "heis3", "sl2")


@pytest.fixture
def rng():
    return random.Random(20260801)


@pytest.fixture(params=CATALOG)
def catalog_algebra(request):
    return liealg.algebra_by_name(request.param)


def half_solv2():
    """[a, b] = b / 2: solv2 with a halved, so its PBW tables hold fractions."""
    return liealg.LieAlgebra("half-solv2", ["a", "b"], {(0, 1): {1: Fraction(1, 2)}})


def half_sl2():
    """sl2 on (e/2, f, h): [e', f] = h / 2, [h, e'] = 2e', [h, f] = -2f."""
    return liealg.LieAlgebra("half-sl2", ["e'", "f", "h"],
                             {(0, 1): {2: Fraction(1, 2)}, (0, 2): {0: -2}, (1, 2): {1: 2}})


def random_helt(alg, deg, rng, terms=3):
    from fractions import Fraction
    from pseudoalg.pbw import HElt, multiindices_up_to
    mis = multiindices_up_to(alg.dim, deg)
    out = {}
    for _ in range(terms):
        I = rng.choice(mis)
        out[I] = out.get(I, 0) + Fraction(rng.randint(-3, 3))
    return HElt(alg, out)


def random_melt(module, deg, rng, terms=2):
    from fractions import Fraction
    from pseudoalg.pbw import multiindices_up_to
    from pseudoalg.tensor import MElt
    mis = multiindices_up_to(module.alg.dim, deg)
    m = MElt.zero(module)
    for _ in range(terms):
        m._bump(rng.choice(mis), rng.choice(module.gens), Fraction(rng.randint(-2, 2)))
    return m


def adjoint_module(P):
    """P acting on itself by its bracket."""
    from pseudoalg.pseudo import ModuleStructure
    return ModuleStructure(P, P.module, action_fn=lambda a, m: P.gen_bracket(a, m),
                           name="adjoint")


def is_zero_cochain(gamma):
    """True iff every value of a degree-2 or degree-3 cochain vanishes."""
    return not any(v.canonicalize() for v in gamma.values.values())


def module_parts(q):
    """Each term of a QElt as (tensor key, MElt): the per-part loop that the
    composition references run the second operation on."""
    from pseudoalg.tensor import MElt
    for (key, g, L), v in q.c.items():
        m = MElt(q.module)
        m._bump(L, g, v)
        yield key, m


def span_dim(vectors):
    """Dimension of the span of sparse vectors: the rank of one
    `SparseEliminator` fed all of them.  The class is looked up at call
    time, so a test that swaps it for a reference swaps it here too."""
    from pseudoalg import linalg
    elim = linalg.SparseEliminator()
    for v in vectors:
        elim.add(v)
    return elim.rank


def complement(space, subspace):
    """The vectors of `space` that enlarge the span of `subspace` and of the
    vectors of `space` before them, from one `SparseEliminator` as above."""
    from pseudoalg import linalg
    elim = linalg.SparseEliminator()
    for v in subspace:
        elim.add(v)
    return [v for v in space if elim.add(v)]
