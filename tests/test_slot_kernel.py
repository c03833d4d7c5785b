"""The slot kernel `mul_slots` / `mul_antipode` against the loops it replaced.

Each reference below is the hand-written slot loop that `TensorElt.__mul__`,
`QElt.canonicalize`, `compose_left` and `compose_right` ran before they
shared the kernel, and `mul_antipode` is checked against the product of
HElt objects that the central Jacobi rows built.
"""

import random
from fractions import Fraction as Fr
from itertools import product as iproduct

import pytest

from conftest import module_parts
from pseudoalg import liealg
from pseudoalg.constructions import make_wd
from pseudoalg.linalg import bump
from pseudoalg.pbw import (HElt, TensorElt, antipode_basis, mi_splits, mi_zero,
                           mul_antipode, mul_basis, mul_slots, multiindices_up_to)
from pseudoalg.pseudo import compose_left, compose_right
from pseudoalg.tensor import FreeModule, QElt

ALGEBRAS = ("abelian3", "solv2", "heis3", "sl2")
DEGREE = 3


# -- references: the loops before the kernel ----------------------------------

def reference_tensor_mul(a, b):
    """The iproduct body of the old TensorElt.__mul__."""
    out = {}
    for ka, va in a.c.items():
        for kb, vb in b.c.items():
            pieces = [mul_basis(a.alg, ka[i], kb[i]) for i in range(a.n)]
            base = va * vb
            for combo in iproduct(*[list(p.items()) for p in pieces]):
                key = tuple(I for I, _ in combo)
                v = base
                for _, cv in combo:
                    v *= cv
                bump(out, key, v)
    return out


def reference_slots(alg, A, B, mul):
    """Slot product as one dict, built the way the old loops did."""
    out = {}
    pieces = [mul(alg, a, b) for a, b in zip(A, B)]
    for combo in iproduct(*[list(p.items()) for p in pieces]):
        v = 1
        for _, cv in combo:
            v *= cv
        bump(out, tuple(I for I, _ in combo), v)
    return out


def reference_mul_antipode(alg, I, J):
    return (HElt.monomial(alg, I, 1) * HElt.monomial(alg, J, 1).antipode()).c


def reference_canonicalize(q):
    """The per-slot factor maps of the old QElt.canonicalize."""
    alg = q.module.alg
    out = QElt(q.module, q.n)
    for (key, g, L), v in q.c.items():
        last = key[-1]
        if not any(last):
            out._bump(key, g, L, v)
            continue
        for split in mi_splits(last, q.n):
            factor_maps = []
            for p in range(q.n - 1):
                acc = {}
                for Jp, cj in antipode_basis(alg, split[p]).items():
                    for K, ck in mul_basis(alg, key[p], Jp).items():
                        bump(acc, K, cj * ck)
                factor_maps.append(acc)
            modmap = mul_basis(alg, split[-1], L)
            for combo in iproduct(*[list(fm.items()) for fm in factor_maps]):
                nk = tuple(I for I, _ in combo) + (mi_zero(alg.dim),)
                w = v
                for _, cv in combo:
                    w *= cv
                for Lp, cl in modmap.items():
                    out._bump(nk, g, Lp, w * cl)
    out.canonical = True
    return out


def reference_compose_left(inner, op, c, out_module):
    alg = inner.module.alg
    out = QElt(out_module, 3)
    for key, m in module_parts(inner):
        for (pk, g, L), v in op(m, c).c.items():
            for P1, P2 in ((s[0], s[1]) for s in mi_splits(pk[0], 2)):
                for K1, c1 in mul_basis(alg, key[0], P1).items():
                    for K2, c2 in mul_basis(alg, key[1], P2).items():
                        out._bump((K1, K2, pk[1]), g, L, v * c1 * c2)
    return reference_canonicalize(out)


def reference_compose_right(a, inner, op, out_module):
    alg = inner.module.alg
    out = QElt(out_module, 3)
    for key, d in module_parts(inner):
        for (pk, g, L), v in op(a, d).c.items():
            for Q1, Q2 in ((s[0], s[1]) for s in mi_splits(pk[1], 2)):
                for K1, c1 in mul_basis(alg, key[0], Q1).items():
                    for K2, c2 in mul_basis(alg, key[1], Q2).items():
                        out._bump((pk[0], K1, K2), g, L, v * c1 * c2)
    return reference_canonicalize(out)


# -- helpers ----------------------------------------------------------------------

def random_key(mis, arity, rng):
    return tuple(rng.choice(mis) for _ in range(arity))


def random_coefficient(rng):
    return Fr(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))


def random_tensor(alg, arity, rng, terms=3):
    mis = multiindices_up_to(alg.dim, DEGREE)
    return TensorElt(alg, arity, {random_key(mis, arity, rng): random_coefficient(rng)
                                  for _ in range(terms)})


def random_quotient(module, arity, rng, terms=4):
    mis = multiindices_up_to(module.alg.dim, DEGREE)
    q = QElt(module, arity)
    for _ in range(terms):
        q._bump(random_key(mis, arity, rng), rng.choice(module.gens),
                rng.choice(mis), random_coefficient(rng))
    return q


# -- the kernel --------------------------------------------------------------------

@pytest.mark.parametrize("name", ALGEBRAS)
def test_mul_antipode_matches_helt_product(name):
    alg = liealg.algebra_by_name(name)
    mis = multiindices_up_to(alg.dim, DEGREE)
    for I in mis:
        for J in mis:
            assert mul_antipode(alg, I, J) == reference_mul_antipode(alg, I, J), (I, J)
    assert mul_antipode(alg, mis[-1], mis[-2]) is mul_antipode(alg, mis[-1], mis[-2])


@pytest.mark.parametrize("name", ALGEBRAS)
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_mul_slots_matches_slot_loops(name, arity):
    alg = liealg.algebra_by_name(name)
    mis = multiindices_up_to(alg.dim, DEGREE)
    rng = random.Random(800 + arity)
    for _ in range(40):
        A, B = random_key(mis, arity, rng), random_key(mis, arity, rng)
        for mul in (mul_basis, mul_antipode):
            terms = mul_slots(alg, A, B, mul)
            assert len({key for key, _ in terms}) == len(terms)
            assert dict(terms) == reference_slots(alg, A, B, mul), (A, B, mul)
    assert mul_slots(alg, (), (), mul_basis) == [((), 1)]


@pytest.mark.parametrize("name", ALGEBRAS)
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_tensor_mul_matches_iproduct_body(name, arity):
    alg = liealg.algebra_by_name(name)
    rng = random.Random(810 + arity)
    for _ in range(8):
        a, b = random_tensor(alg, arity, rng), random_tensor(alg, arity, rng)
        assert (a * b).c == reference_tensor_mul(a, b)


@pytest.mark.parametrize("name", ALGEBRAS)
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_canonicalize_matches_factor_maps(name, arity):
    alg = liealg.algebra_by_name(name)
    module = FreeModule(alg, ["m", "n", "z"], counit_gens={"z"}, label="test")
    rng = random.Random(820 + arity)
    for _ in range(8):
        q = random_quotient(module, arity, rng)
        got = q.canonicalize()
        assert got.canonical and got.c == reference_canonicalize(q).c


@pytest.mark.parametrize("name", ALGEBRAS)
def test_compositions_match_their_old_bodies(name):
    alg = liealg.algebra_by_name(name)
    P, _ = make_wd(alg)
    elements = [P.element(g) for g in P.module.gens]
    elements.append(elements[0].h_mul(HElt.gen(alg, alg.dim - 1))
                    + elements[-1].h_mul(HElt.gen(alg, 0)))
    rng = random.Random(830)
    for _ in range(6):
        a, b, c = (rng.choice(elements) for _ in range(3))
        inner = P.bracket(a, b)
        assert (compose_left(inner, P.bracket, c, P.module).c
                == reference_compose_left(inner, P.bracket, c, P.module).c)
        inner = P.bracket(b, c)
        assert (compose_right(a, inner, P.bracket, P.module).c
                == reference_compose_right(a, inner, P.bracket, P.module).c)


def test_permutation_fixing_the_last_slot_keeps_the_canonical_flag():
    alg = liealg.algebra_by_name("sl2")
    module = FreeModule(alg, ["m"], label="test")
    q = random_quotient(module, 3, random.Random(840)).canonicalize()
    kept = q.permuted([1, 0, 2])
    assert kept.canonical and kept.c == kept.canonicalize().c
    moved = q.permuted([1, 2, 0])
    assert not moved.canonical
    assert not random_quotient(module, 3, random.Random(841)).permuted([1, 0, 2]).canonical
