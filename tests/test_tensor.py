from fractions import Fraction as Fr
from itertools import permutations

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import random_helt
from test_scaled_kernels import tensor_mul_left
from pseudoalg import liealg
from pseudoalg.linalg import bump
from pseudoalg.pbw import HElt, TensorElt, mi_zero, multiindices_up_to
from pseudoalg.tensor import FreeModule, MElt, QElt


def module_over(alg, names=("m",)):
    return FreeModule(alg, list(names), label="test")


def test_canonicalize_primitive_slot():
    alg = liealg.abelian(1)
    M = module_over(alg)
    q = QElt(M, 2, {(((0,), (1,)), "m", (0,)): 1})
    got = q.canonicalize()
    assert got.c == {(((1,), (0,)), "m", (0,)): Fr(-1),
                     (((0,), (0,)), "m", (1,)): Fr(1)}


def test_already_canonical_unchanged(catalog_algebra, rng):
    alg = catalog_algebra
    M = module_over(alg)
    z = mi_zero(alg.dim)
    q = QElt(M, 2)
    for _ in range(4):
        h = random_helt(alg, 3, rng)
        for I, v in h.c.items():
            q._bump((I, z), "m", z, v)
    assert q.canonicalize().c == q.c


def test_canonicalize_idempotent(catalog_algebra, rng):
    alg = catalog_algebra
    M = module_over(alg, ("m", "n"))
    for arity in (2, 3):
        q = QElt(M, arity)
        for _ in range(5):
            key = tuple(rng.choice(list(random_helt(alg, 2, rng).c or {mi_zero(alg.dim): 1}))
                        for _ in range(arity))
            q._bump(key, rng.choice(M.gens),
                    rng.choice(list(random_helt(alg, 1, rng).c or {mi_zero(alg.dim): 1})),
                    Fr(rng.randint(-2, 2)))
        c1 = q.canonicalize()
        assert c1.canonicalize().c == c1.c


def test_moving_coefficients_through_the_quotient(catalog_algebra, rng):
    # right-multiplying the tensor slots by a split equals acting on the
    # module side: (T split(h)) (x)_H m = T (x)_H (h m)
    alg = catalog_algebra
    M = module_over(alg)
    z = mi_zero(alg.dim)
    for _ in range(5):
        h = random_helt(alg, 2, rng)
        f = random_helt(alg, 2, rng)
        g = random_helt(alg, 2, rng)
        base = QElt(M, 2)
        for (I, J), v in TensorElt.pure([f, g]).c.items():
            base._bump((I, J), "m", z, v)
        lhs = tensor_mul_left(base, TensorElt.pure([HElt.one(alg), HElt.one(alg)]))
        # multiply slots by the split of h from the right: commutative only in
        # the quotient, so compare classes, building through raw insertion
        moved = QElt(M, 2)
        for (I, J), v in (TensorElt.pure([f, g]) * h.coproduct()).c.items():
            moved._bump((I, J), "m", z, v)
        acted = QElt(M, 2)
        for (I, J), v in TensorElt.pure([f, g]).c.items():
            for L, w in h.c.items():
                acted._bump((I, J), "m", L, v * w)
        assert moved == acted
        assert lhs == base


def test_permutation_action():
    alg = liealg.abelian(2)
    M = module_over(alg)
    f = HElt.monomial(alg, (1, 0))
    g = HElt.monomial(alg, (0, 2))
    q = QElt.from_tensor_and_module(TensorElt.pure([f, g]), M.element("m"))
    sw = q.permuted([1, 0])
    assert sw.c == {(((0, 2), (1, 0)), "m", (0, 0)): Fr(1)}


def test_permutation_identity_and_involution(catalog_algebra, rng):
    alg = catalog_algebra
    M = module_over(alg, ("m", "n"))
    q = QElt(M, 2)
    for _ in range(4):
        q._bump((rng.choice(list(random_helt(alg, 2, rng).c or {mi_zero(alg.dim): 1})),) * 2,
                rng.choice(M.gens), mi_zero(alg.dim), Fr(rng.randint(-2, 2)))
    assert q.permuted([0, 1]).c == q.c
    assert q.permuted([1, 0]).permuted([1, 0]).c == q.c


def test_equality_through_canonical_forms(catalog_algebra, rng):
    # uniqueness: classes agree iff canonical maps agree; exercised through
    # random insert/permute/canonicalize round trips
    alg = catalog_algebra
    M = module_over(alg)
    z = mi_zero(alg.dim)
    for _ in range(4):
        f = random_helt(alg, 2, rng)
        g = random_helt(alg, 2, rng)
        h = random_helt(alg, 1, rng)
        q1 = QElt(M, 2)
        for (I, J), v in (TensorElt.pure([f, g]) * h.coproduct()).c.items():
            q1._bump((I, J), "m", z, v)
        q2 = QElt(M, 2)
        for (I, J), v in TensorElt.pure([f, g]).c.items():
            for L, w in h.c.items():
                q2._bump((I, J), "m", L, v * w)
        assert q1 == q2
        if h.c and (f.c and g.c):
            q3 = q2.permuted([1, 0]).permuted([1, 0])
            assert q3 == q1


def test_arity3_canonicalization_against_pairwise_moves(catalog_algebra, rng):
    # the three-slot normal form agrees with moving the last slot through
    # the quotient one pair at a time
    alg = catalog_algebra
    M = module_over(alg)
    z = mi_zero(alg.dim)
    for _ in range(3):
        f, g, h = (random_helt(alg, 2, rng) for _ in range(3))
        q = QElt(M, 3)
        for (I, J, K), v in TensorElt.pure([f, g, h]).c.items():
            q._bump((I, J, K), "m", z, v)
        direct = q.canonicalize()
        # pairwise: write T (x)_H m = sum T' (x)_H h m by splitting the
        # last slot against slots (1, 2) through the arity-2 machinery
        alt = QElt(M, 3)
        for (I, J, K), v in TensorElt.pure([f, g, h]).c.items():
            from pseudoalg.pbw import antipode_basis, mi_splits, mul_basis
            for (K1, K2, K3) in mi_splits(K, 3):
                for A1, c1 in antipode_basis(alg, K1).items():
                    for I2, c2 in mul_basis(alg, I, A1).items():
                        for A2, c3 in antipode_basis(alg, K2).items():
                            for J2, c4 in mul_basis(alg, J, A2).items():
                                alt._bump((I2, J2, z), "m", K3, v * c1 * c2 * c3 * c4)
        assert direct == alt.canonicalize()


def test_counit_generator_action():
    alg = liealg.abelian(1)
    M = FreeModule(alg, ["e", "z"], counit_gens={"z"})
    m = MElt(M, {((0,), "z"): 1})
    pushed = m.h_mul(HElt.gen(alg, 0))
    assert not pushed  # the augmentation ideal kills the central generator
    q = QElt(M, 2, {(((0,), (1,)), "z", (0,)): 1})
    got = q.canonicalize()
    assert got.c == {(((1,), (0,)), "z", (0,)): Fr(-1)}


# -- canonical forms under slot permutations and the H-action ------------------

CANON_ALGEBRAS = {name: liealg.algebra_by_name(name)
                  for name in ("sl2", "solv2", "heis3", "abelian2")}
# explicit zeros of both types and integral Fractions such as Fraction(4, 2)
CANON_COEFFS = st.one_of(st.integers(-3, 3),
                         st.builds(Fr, st.integers(-6, 6), st.sampled_from((1, 2, 3))))


@st.composite
def canonical_cases(draw):
    """(q, F, h, m) at arity n over a drawn algebra and a module with a free
    generator e and a counit one c: a raw quotient element q, a tensor F, an
    enveloping element h and a module element m, all of degree <= 2 per
    slot.  m holds a term on c when the draw says so."""
    alg = CANON_ALGEBRAS[draw(st.sampled_from(sorted(CANON_ALGEBRAS)))]
    n = draw(st.sampled_from((2, 3)))
    M = FreeModule(alg, ["e", "c"], counit_gens=["c"], label="test")
    mis = st.sampled_from(multiindices_up_to(alg.dim, 2))
    slots = st.tuples(*[mis] * n)
    gens = st.sampled_from(M.gens)
    q = QElt(M, n, draw(st.dictionaries(st.tuples(slots, gens, mis), CANON_COEFFS,
                                        max_size=4)))
    F = TensorElt(alg, n, draw(st.dictionaries(slots, CANON_COEFFS, max_size=3)))
    h = HElt(alg, draw(st.dictionaries(mis, CANON_COEFFS, max_size=3)))
    mc = draw(st.dictionaries(st.tuples(mis, gens), CANON_COEFFS, max_size=3))
    if draw(st.booleans()):
        mc[(mi_zero(alg.dim), "c")] = draw(CANON_COEFFS.filter(bool))
    return q, F, h, MElt(M, mc)


# a failure is slow to shrink; the property reports the first failing example
@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          phases=set(Phase) - {Phase.shrink, Phase.explain})
@given(canonical_cases())
def test_canonical_forms_respect_slot_permutations_and_the_h_action(case):
    """Canonicalizing commutes with every slot permutation that fixes the last
    slot, and F Delta^(n)(h) (x)_H m and F (x)_H h m have one canonical form."""
    q, F, h, m = case
    n = q.n
    canonical = q.canonicalize()
    for head in permutations(range(n - 1)):
        p = head + (n - 1,)
        assert q.permuted(p).canonicalize().c == canonical.permuted(p).c, p
    moved = QElt.from_tensor_and_module(F * h.coproduct(n), m).canonicalize()
    acted = QElt.from_tensor_and_module(F, m.h_mul(h)).canonicalize()
    assert moved.c == acted.c


def _permuted_by_bump(x, perm):
    """The per-term reference of `permuted`: one bump per term."""
    key_of = lambda key: tuple(key[perm[i]] for i in range(x.n))
    if isinstance(x, TensorElt):
        out = {}
        for key, v in x.c.items():
            bump(out, key_of(key), v)
        return x._with(out)
    out = QElt(x.module, x.n, canonical=x.canonical and perm[-1] == x.n - 1)
    for (key, g, L), v in x.c.items():
        out._bump(key_of(key), g, L, v)
    return out


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(canonical_cases())
def test_permuted_matches_the_per_term_reference(case):
    """`QElt.permuted` and `TensorElt.permuted` build their maps in one pass
    with the values, key order, value types and canonical flag of a bump
    per term, at arities 2 and 3, and refuse a non-permutation."""
    q, F, _, _ = case
    for x in (q, q.canonicalize(), F):
        for p in permutations(range(x.n)):
            got, ref = x.permuted(p), _permuted_by_bump(x, p)
            assert [(k, v, type(v)) for k, v in got.c.items()] == \
                [(k, v, type(v)) for k, v in ref.c.items()], p
            assert getattr(got, "canonical", None) == getattr(ref, "canonical", None), p
        with pytest.raises(ValueError, match="not a"):
            x.permuted((0,) * x.n)


# -- sums stay in one space; constructors check their multi-indices -----------

def _spaces():
    """Per element type, a builder of two elements of different spaces."""
    from pseudoalg.annihilation import AnnihilationElement, TruncatedSeries
    from pseudoalg.forms import form_module
    from pseudoalg.liealg import Form
    sl2, solv2, heis3 = (liealg.algebra_by_name(n) for n in ("sl2", "solv2", "heis3"))
    m3, m3b = FreeModule(sl2, ["e"]), FreeModule(sl2, ["e", "f"])
    return [
        pytest.param(lambda: (HElt.gen(sl2, 0), HElt.gen(solv2, 0)), id="HElt-algebra"),
        pytest.param(lambda: (HElt.gen(sl2, 0), HElt.gen(heis3, 0)), id="HElt-same-dim"),
        pytest.param(lambda: (TensorElt.one(sl2, 2), TensorElt.one(sl2, 3)), id="TensorElt-arity"),
        pytest.param(lambda: (TensorElt.one(sl2, 2), TensorElt.one(heis3, 2)),
                     id="TensorElt-algebra"),
        pytest.param(lambda: (m3.element("e"), m3b.element("e")), id="MElt-module"),
        pytest.param(lambda: (QElt(m3, 2, {((mi_zero(3),) * 2, "e", mi_zero(3)): 1}),
                              QElt(m3, 3, {((mi_zero(3),) * 3, "e", mi_zero(3)): 1})),
                     id="QElt-arity"),
        pytest.param(lambda: (QElt(m3, 2, {((mi_zero(3),) * 2, "e", mi_zero(3)): 1}),
                              QElt(m3b, 2, {((mi_zero(3),) * 2, "e", mi_zero(3)): 1})),
                     id="QElt-module"),
        pytest.param(lambda: (TruncatedSeries(sl2, 2, {(1, 0, 0): 1}),
                              TruncatedSeries(heis3, 3, {(1, 0, 0): 1})),
                     id="TruncatedSeries-algebra"),
        pytest.param(lambda: (AnnihilationElement(m3, 2, {((1, 0, 0), "e"): 1}),
                              AnnihilationElement(m3b, 2, {((1, 0, 0), "e"): 1})),
                     id="AnnihilationElement-module"),
        pytest.param(lambda: (Form(sl2, 1, {(0,): 1}), Form(sl2, 2, {(0, 1): 1})), id="Form-degree"),
        pytest.param(lambda: (form_module(sl2, 1).element((0,)),
                              form_module(heis3, 1).element((0,))), id="MElt-form-algebra"),
        pytest.param(lambda: (HElt.gen(sl2, 0), TensorElt.one(sl2, 1)), id="HElt-TensorElt"),
    ]


@pytest.mark.parametrize("spaces", _spaces())
def test_sum_across_spaces_raises(spaces):
    x, y = spaces()
    for a, b in ((x, y), (y, x)):
        with pytest.raises(ValueError, match="sum across different spaces"):
            a + b
        with pytest.raises(ValueError, match="sum across different spaces"):
            a - b


def test_truncated_sums_across_cutoffs_stay_legal():
    from pseudoalg.annihilation import AnnihilationElement, TruncatedSeries
    alg = liealg.algebra_by_name("sl2")
    s = TruncatedSeries(alg, 2, {(1, 0, 0): 1}) + TruncatedSeries(alg, 3, {(0, 3, 0): 1})
    assert s.cutoff == 2 and s.c == {(1, 0, 0): 1}
    mod = FreeModule(alg, ["e"])
    a = AnnihilationElement(mod, 1, {((1, 0, 0), "e"): 1})
    a = a + AnnihilationElement(FreeModule(alg, ["e"]), 3, {((0, 1, 0), "e"): 1})
    assert a.cutoff == 1 and len(a.c) == 2


def test_canonical_plus_raw_quotient_sum_is_legal():
    alg = liealg.algebra_by_name("sl2")
    mod = FreeModule(alg, ["e"])
    raw = QElt(mod, 2, {(((0, 0, 0), (1, 0, 0)), "e", (0, 0, 0)): Fr(1, 2)})
    canon = raw.canonicalize()
    total = canon + raw
    assert not total.canonical
    assert total == raw.scale(2)
    assert (raw - canon).canonicalize().c == {}


def test_constructors_refuse_multi_indices_of_the_wrong_length():
    alg = liealg.algebra_by_name("sl2")
    mod = FreeModule(alg, ["e"])
    z = mi_zero(3)
    cases = [
        (lambda: HElt(alg, {(1, 0): 1}), "length 2, expected 3"),
        (lambda: HElt.monomial(alg, (1, 0, 0, 0)), "length 4, expected 3"),
        (lambda: TensorElt(alg, 2, {(z,): 1}), "1 slots, expected 2"),
        (lambda: TensorElt(alg, 2, {(z, (1, 0)): 1}), "length 2, expected 3"),
        (lambda: TensorElt.pure([]), "at least 1 factor"),
        (lambda: TensorElt.pure([HElt.gen(alg, 0), HElt.gen(liealg.algebra_by_name("solv2"), 0)]),
         "different algebras"),
        (lambda: MElt(mod, {((1, 0), "e"): 1}), "length 2, expected 3"),
        (lambda: QElt(mod, 2, {((z, z, z), "e", z): 1}), "3 slots, expected 2"),
        (lambda: QElt(mod, 2, {((z, (0, 1)), "e", z): 1}), "length 2, expected 3"),
        (lambda: QElt(mod, 2, {((z, z), "e", (0,)): 1}), "length 1, expected 3"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=message.replace("(", r"\(")):
            build()
