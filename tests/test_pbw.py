import sys
from fractions import Fraction as Fr
from math import factorial

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import half_sl2, half_solv2, random_helt
from pseudoalg import liealg
from pseudoalg.linalg import bump, div
from pseudoalg.pbw import (HElt, TensorElt, antipode_basis, fourier, mi_factorial,
                           mi_weight, mi_zero, mul_antipode, mul_basis, multiindices_up_to)


def test_abelian_multinomial_product():
    alg = liealg.abelian(2)
    a = HElt.monomial(alg, (2, 1))
    b = HElt.monomial(alg, (1, 1))
    # multinomial: C(3,2) * C(2,1) = 6
    assert (a * b).c == {(3, 2): Fr(6)}


def test_single_straightening_step():
    alg = liealg.solvable2()
    assert (HElt.monomial(alg, (0, 1)) * HElt.monomial(alg, (1, 0))).c == \
        {(1, 1): Fr(1), (0, 1): Fr(-1)}


def test_divided_power_normalization():
    alg = liealg.abelian(2)
    d1 = HElt.monomial(alg, (1, 0))
    assert (d1 * d1).c == {(2, 0): Fr(2)}


def test_unit_and_zero():
    alg = liealg.sl2()
    one = HElt.one(alg)
    x = HElt.monomial(alg, (1, 1, 0), Fr(3, 2))
    assert one * x == x == x * one
    assert not (x - x)


def test_associativity_random(catalog_algebra, rng):
    alg = catalog_algebra
    for _ in range(50):
        a, b, c = (random_helt(alg, 3, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_coproduct_divided_square():
    alg = liealg.abelian(2)
    t = HElt.monomial(alg, (2, 0)).coproduct()
    assert t.c == {((2, 0), (0, 0)): Fr(1), ((1, 0), (1, 0)): Fr(1),
                   ((0, 0), (2, 0)): Fr(1)}


def test_generators_primitive_in_triple_coproduct():
    alg = liealg.sl2()
    t = HElt.gen(alg, 1).coproduct(3)
    z = mi_zero(3)
    e = (0, 1, 0)
    assert t.c == {(e, z, z): Fr(1), (z, e, z): Fr(1), (z, z, e): Fr(1)}


def test_coproduct_is_algebra_map(catalog_algebra, rng):
    alg = catalog_algebra
    for _ in range(6):
        f = random_helt(alg, 3, rng)
        g = random_helt(alg, 3, rng)
        assert (f * g).coproduct() == f.coproduct() * g.coproduct()


def test_counit_multiplicative(catalog_algebra, rng):
    alg = catalog_algebra
    for _ in range(6):
        f = random_helt(alg, 2, rng)
        g = random_helt(alg, 2, rng)
        assert (f * g).counit() == f.counit() * g.counit()
    assert (HElt.one(alg) + HElt.gen(alg, 0).scale(3)).counit() == 1


def test_filtration_degree():
    alg = liealg.abelian(2)
    assert HElt.monomial(alg, (2, 1)).degree() == 3
    assert HElt.zero(alg).degree() is None
    a = random_helt(alg, 3, __import__("random").Random(1))
    b = random_helt(alg, 2, __import__("random").Random(2))
    if a and b and (a * b):
        assert (a * b).degree() <= a.degree() + b.degree()


def test_antipode_on_generators(catalog_algebra):
    alg = catalog_algebra
    for i in range(alg.dim):
        assert HElt.gen(alg, i).antipode() == -HElt.gen(alg, i)


def test_antipode_abelian_sign():
    alg = liealg.abelian(3)
    for I in multiindices_up_to(3, 4):
        got = antipode_basis(alg, I)
        assert got == {I: Fr((-1) ** sum(I))}


def test_antipode_solvable_by_hand():
    # S(d1 d2) = S(d2) S(d1) = d2 d1 = d1 d2 - d2
    alg = liealg.solvable2()
    got = HElt.monomial(alg, (1, 1)).antipode()
    assert got.c == {(1, 1): Fr(1), (0, 1): Fr(-1)}


def test_antipode_antihomomorphism(catalog_algebra, rng):
    alg = catalog_algebra
    for _ in range(5):
        f = random_helt(alg, 2, rng)
        g = random_helt(alg, 2, rng)
        assert (f * g).antipode() == g.antipode() * f.antipode()


def _convolution_check(alg, I):
    """h_(-1) h_(2) = counit(h) and the two-sided variant."""
    h = HElt.monomial(alg, I)
    eps = h.counit()
    left = HElt.zero(alg)
    right = HElt.zero(alg)
    for (J, K), v in h.coproduct().c.items():
        left = left + (HElt(alg, antipode_basis(alg, J)) * HElt.monomial(alg, K)).scale(v)
        right = right + (HElt.monomial(alg, J) * HElt(alg, antipode_basis(alg, K))).scale(v)
    want = HElt(alg, {mi_zero(alg.dim): eps})
    return left == want and right == want


def test_antipode_axiom_exhaustive(catalog_algebra):
    alg = catalog_algebra
    for I in multiindices_up_to(alg.dim, 3 if alg.dim >= 3 else 4):
        assert _convolution_check(alg, I), I


def test_cocommutativity(catalog_algebra):
    alg = catalog_algebra
    for I in multiindices_up_to(alg.dim, 3):
        t = HElt.monomial(alg, I).coproduct()
        assert t.permuted([1, 0]) == t


def test_coassociativity(catalog_algebra):
    alg = catalog_algebra
    for I in multiindices_up_to(alg.dim, 3):
        h = HElt.monomial(alg, I)
        t3 = h.coproduct(3)
        # refine the left slot of the 2-fold coproduct
        refined = TensorElt(alg, 3)
        for (J, K), v in h.coproduct(2).c.items():
            for (J1, J2), w in HElt.monomial(alg, J).coproduct(2).c.items():
                refined._bump((J1, J2, K), v * w)
        assert refined == t3
        refined = TensorElt(alg, 3)
        for (J, K), v in h.coproduct(2).c.items():
            for (K1, K2), w in HElt.monomial(alg, K).coproduct(2).c.items():
                refined._bump((J, K1, K2), v * w)
        assert refined == t3


# -- Fourier transform -------------------------------------------------------

def test_fourier_primitive_second_factor():
    alg = liealg.abelian(1)
    t = TensorElt.pure([HElt.one(alg), HElt.gen(alg, 0)])
    got = fourier(t)
    assert got.c == {((1,), (0,)): Fr(-1), ((0,), (1,)): Fr(1)}


def test_fourier_grouplike_second_factor(catalog_algebra, rng):
    alg = catalog_algebra
    f = random_helt(alg, 3, rng)
    t = TensorElt.pure([f, HElt.one(alg)])
    assert fourier(t) == t


def test_fourier_inverse_roundtrip(catalog_algebra, rng):
    alg = catalog_algebra
    for _ in range(8):
        t = TensorElt.pure([random_helt(alg, 3, rng), random_helt(alg, 3, rng)])
        assert fourier(fourier(t), inverse=True) == t
        assert fourier(fourier(t, inverse=True)) == t


def test_fourier_left_multiplicativity(catalog_algebra, rng):
    # transform of (h f (x) g) is (h (x) 1) times the transform
    alg = catalog_algebra
    for _ in range(5):
        h, f, g = (random_helt(alg, 2, rng) for _ in range(3))
        lhs = fourier(TensorElt.pure([h * f, g]))
        rhs = TensorElt.pure([h, HElt.one(alg)]) * fourier(TensorElt.pure([f, g]))
        assert lhs == rhs


def test_fourier_right_twist(catalog_algebra, rng):
    # transform of (f (x) h g) = (1 (x) h_2) transform (h_-1 (x) 1)
    alg = catalog_algebra
    for _ in range(4):
        h, f, g = (random_helt(alg, 2, rng) for _ in range(3))
        lhs = fourier(TensorElt.pure([f, h * g]))
        rhs = TensorElt(alg, 2)
        F = fourier(TensorElt.pure([f, g]))
        for (J, K), v in h.coproduct().c.items():
            left = TensorElt(alg, 2, {(mi_zero(alg.dim), K): 1})
            right_h = HElt(alg, antipode_basis(alg, J))
            right = TensorElt.pure([right_h, HElt.one(alg)])
            rhs = rhs + (left * F * right).scale(v)
        assert lhs == rhs


def test_fourier_braid(catalog_algebra, rng):
    alg = catalog_algebra
    for _ in range(5):
        t = TensorElt.pure([random_helt(alg, 2, rng) for _ in range(3)])
        lhs = fourier(fourier(fourier(t, (1, 2)), (0, 2)), (0, 1))
        rhs = fourier(fourier(t, (0, 1)), (1, 2))
        assert lhs == rhs


# -- reference: the word rewriter the generator step replaced -----------------

def word_of(I):
    w = []
    for pos, reps in enumerate(I):
        w.extend([pos] * reps)
    return tuple(w)


def mi_of_sorted_word(word, n):
    I = [0] * n
    for g in word:
        I[g] += 1
    return tuple(I)


def _straighten(alg, word, cache):
    """Expand a generator word in the plain PBW monomial basis.

    Recursion swaps the first descent and adds the bracket correction,
    d_j d_i = d_i d_j - [d_i, d_j] for j > i; results are memoized in cache.
    """
    hit = cache.get(word)
    if hit is not None:
        return hit
    desc = None
    for t in range(len(word) - 1):
        if word[t] > word[t + 1]:
            desc = t
            break
    if desc is None:
        res = {mi_of_sorted_word(word, alg.dim): 1}
        cache[word] = res
        return res
    a, b = word[desc], word[desc + 1]
    swapped = word[:desc] + (b, a) + word[desc + 2:]
    acc = dict(_straighten(alg, swapped, cache))
    for k, c in alg.bracket(a, b).items():
        sub = word[:desc] + (k,) + word[desc + 2:]
        for I, ci in _straighten(alg, sub, cache).items():
            bump(acc, I, c * ci)
    cache[word] = acc
    return acc


def reference_mul_basis(alg, I, J, cache):
    norm = mi_factorial(I) * mi_factorial(J)
    return {K: div(c * mi_factorial(K), norm)
            for K, c in _straighten(alg, word_of(I) + word_of(J), cache).items()}


def reference_antipode_basis(alg, I, cache):
    sign, norm = (-1) ** mi_weight(I), mi_factorial(I)
    return {K: div(sign * c * mi_factorial(K), norm)
            for K, c in _straighten(alg, tuple(reversed(word_of(I))), cache).items()}


def _exact(table):
    return all(type(v) is int or v.denominator != 1 for v in table.values())


@pytest.mark.parametrize("name", ["solv2", "heis3", "sl2"])
def test_generator_step_matches_word_rewriter(name):
    alg = liealg.algebra_by_name(name)
    cache = {}
    mis = multiindices_up_to(alg.dim, 4)
    for I in mis:
        got = antipode_basis(alg, I)
        assert got == reference_antipode_basis(alg, I, cache), I
        assert _exact(got), I
        for J in mis:
            got = mul_basis(alg, I, J)
            assert got == reference_mul_basis(alg, I, J, cache), (I, J)
            assert _exact(got), (I, J)


# -- reference: the divided-power loop the monomial straightening replaced ------

def _mi_step(K, i, d):
    return K[:i] + (K[i] + d,) + K[i + 1:]


def _divided_gen_mul(alg, g, K, caches):
    """d_g d^(K) in divided powers: d^(K) = d_h d^(K - e_h) / k_h for h the
    smallest generator in K, one exact division per step."""
    cache = caches.setdefault("straight", {})
    chain = []
    while (res := cache.get((g, K))) is None:
        h = next((i for i, k in enumerate(K) if k), g)
        if g <= h:
            res = cache[g, K] = {_mi_step(K, g, 1): K[g] + 1}
            break
        chain.append((K, h))
        K = _mi_step(K, h, -1)
    for K, h in reversed(chain):
        acc = _divided_gen_times(alg, h, res, {}, caches)
        for m, b in alg.bracket(g, h).items():
            _divided_gen_times(alg, m, {_mi_step(K, h, -1): b}, acc, caches)
        res = cache[g, K] = {L: div(c, K[h]) for L, c in acc.items()}
    return res


def _divided_gen_times(alg, g, comb, acc, caches):
    for L, c in comb.items():
        for M, cm in _divided_gen_mul(alg, g, L, caches).items():
            bump(acc, M, c * cm)
    return acc


def _divided_peel(alg, cache, key, I, base, pick, sign, caches):
    """d^(I) times `base` on the left, by d^(I) = d_h d^(I - e_h) / i_h with
    h = pick(generators in I), dividing each step by sign * i_h."""
    chain = []
    while (hit := cache.get(key(I))) is None and any(I):
        h = pick(i for i, k in enumerate(I) if k)
        chain.append((I, h))
        I = _mi_step(I, h, -1)
    res = cache[key(I)] = base if hit is None else hit
    for K, h in reversed(chain):
        acc = _divided_gen_times(alg, h, res, {}, caches)
        res = cache[key(K)] = {L: div(c, sign * K[h]) for L, c in acc.items()}
    return res


def divided_mul_basis(alg, I, J, caches):
    return _divided_peel(alg, caches.setdefault("mul", {}), lambda K: (K, J), I,
                         {J: 1}, min, 1, caches)


def divided_antipode_basis(alg, I, caches):
    return _divided_peel(alg, caches.setdefault("antipode", {}), lambda K: K, I,
                         {mi_zero(len(I)): 1}, max, -1, caches)


ORACLE_ALGEBRAS = {"sl2": liealg.sl2, "solv2": liealg.solvable2,
                   "heis3": liealg.heisenberg3, "half-solv2": half_solv2,
                   "half-sl2": half_sl2}


def _typed(table):
    return [(K, type(v), v) for K, v in table.items()]


@st.composite
def table_requests(draw):
    """An algebra name and a run of products d^(I) d^(J) on a few right
    factors J, with the antipode of each left factor I, so that later peels
    pass through earlier requests."""
    name = draw(st.sampled_from(sorted(ORACLE_ALGEBRAS)))
    dim = ORACLE_ALGEBRAS[name]().dim
    mi = st.tuples(*[st.integers(0, 3)] * dim)
    rights = draw(st.lists(mi, min_size=1, max_size=2))
    lefts = draw(st.lists(st.tuples(mi, st.sampled_from(rights)), min_size=1, max_size=6))
    return name, lefts


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          phases=set(Phase) - {Phase.shrink, Phase.explain})
@given(table_requests())
def test_monomial_straightening_matches_divided_oracle(requests):
    """mul_basis and antipode_basis equal the divided-power loop in values,
    key order and int/Fraction type, on a fresh algebra per example."""
    name, lefts = requests
    alg, caches = ORACLE_ALGEBRAS[name](), {}
    for I, J in lefts:
        assert _typed(mul_basis(alg, I, J)) == _typed(divided_mul_basis(alg, I, J, caches))
        assert _typed(antipode_basis(alg, I)) == _typed(divided_antipode_basis(alg, I, caches))


def _converted(table, n):
    """A monomial table entry sum c_M x^M as sum c_M M! / n d^(M)."""
    return _typed({M: div(c * mi_factorial(M), n) for M, c in table.items()})


def test_divided_views_are_conversions_of_the_monomial_tables():
    """Each requested divided entry is its monomial entry converted once:
    d^(I) d^(J) from x^I x^J, S(d^(I)) from R(I), d^(I) S(d^(J)) from the sum
    of x^I x^K over R(J); `mul_antipode` keeps no monomial copy, and
    `fourier` reads the monomial tables alone."""
    alg = liealg.sl2()
    J = (1, 2, 0)
    for I in [(0, 0, 1), (0, 0, 3), (0, 1, 3), (2, 1, 3), (0, 0, 2)]:
        mul_basis(alg, I, J)
        antipode_basis(alg, I)
        mul_antipode(alg, I, J)
    assert len(alg._mul_antipode_cache) == 5
    fourier(TensorElt.pure([HElt.monomial(alg, (0, 1, 1)), HElt.monomial(alg, J)]))
    assert len(alg._mul_antipode_cache) == 5
    for (I, K), table in alg._mul_cache.items():
        norm = mi_factorial(I) * mi_factorial(K)
        assert _typed(table) == _converted(alg._monomial_mul_cache[I, K], norm)
    for I, table in alg._antipode_cache.items():
        norm = (-1) ** mi_weight(I) * mi_factorial(I)
        assert _typed(table) == _converted(alg._reversed_cache[I], norm)
    for (I, K), table in alg._mul_antipode_cache.items():
        monomial = {}
        for L, c in alg._reversed_cache[K].items():
            for M, m in alg._monomial_mul_cache[I, L].items():
                bump(monomial, M, (-1) ** mi_weight(K) * c * m)
        assert _typed(table) == _converted(monomial, mi_factorial(I) * mi_factorial(K))


@pytest.mark.parametrize("name", ["sl2", "solv2", "heis3"])
def test_monomial_caches_hold_integers(name):
    """Over integral structure constants, straightening never leaves the
    integers: every monomial table holds nonzero ints only."""
    alg = liealg.algebra_by_name(name)
    rng = __import__("random").Random(7)
    for _ in range(8):
        a, b = random_helt(alg, 4, rng), random_helt(alg, 4, rng)
        (a * b).antipode()
        b.antipode() * a
        fourier(fourier(TensorElt.pure([a, b])), inverse=True)
    antipode_basis(alg, (5,) * alg.dim)
    caches = (alg._straight_cache, alg._monomial_mul_cache, alg._reversed_cache)
    assert all(caches)
    assert all(type(v) is int and v for cache in caches for table in cache.values()
               for v in table.values())


@st.composite
def hopf_triples(draw):
    """An algebra name and three elements of weight <= 3 on it, as term maps
    with mixed int and Fraction coefficients."""
    name = draw(st.sampled_from(sorted(ORACLE_ALGEBRAS)))
    mis = multiindices_up_to(ORACLE_ALGEBRAS[name]().dim, 3)
    coeff = st.one_of(st.integers(-3, 3).filter(bool),
                      st.builds(Fr, st.integers(-5, 5).filter(bool), st.integers(2, 4)))
    terms = st.dictionaries(st.sampled_from(mis), coeff, min_size=1, max_size=3)
    return name, draw(terms), draw(terms), draw(terms)


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          phases=set(Phase) - {Phase.shrink, Phase.explain})
@given(hopf_triples())
def test_hopf_axioms_on_fresh_algebras(triple):
    """(xy)z = x(yz), S(xy) = S(y)S(x), Delta(xy) = Delta(x)Delta(y),
    S^2 = id and the Fourier round trip, on a fresh algebra per example, so
    every table entry is a miss; every table the example filled stores no
    zero coefficient."""
    name, *maps = triple
    alg = ORACLE_ALGEBRAS[name]()
    x, y, z = (HElt(alg, m) for m in maps)
    xy = x * y
    assert xy * z == x * (y * z)
    assert xy.antipode() == y.antipode() * x.antipode()
    assert xy.coproduct() == x.coproduct() * y.coproduct()
    assert x.antipode().antipode() == x
    t = TensorElt.pure([x, z])
    assert fourier(fourier(t), inverse=True) == t
    caches = (alg._mul_cache, alg._antipode_cache, alg._mul_antipode_cache,
              alg._straight_cache, alg._monomial_mul_cache, alg._reversed_cache)
    assert all(v for cache in caches for table in cache.values() for v in table.values())


# -- deep probes against closed forms -------------------------------------------

def probe_closed_form(name, k):
    """d^(0..,k) d^(k,..0) without straightening.

    sl2 (e, f, h): h e = e (h + 2), so h^k e^k = e^k (h + 2k)^k and
        d^(0,0,k) d^(k,0,0) = sum_j (2k)^(k-j) / (k-j)! d^(k,0,j).
    solv2 (a, b), [a, b] = b: b a = (a - 1) b, so b^k a^k = (a - k)^k b^k and
        d^(0,k) d^(k,0) = sum_j (-k)^(k-j) / (k-j)! d^(j,k).
    """
    if name == "sl2":
        return {(k, 0, j): Fr((2 * k) ** (k - j), factorial(k - j))
                for j in range(k + 1)}
    return {(j, k): Fr((-k) ** (k - j), factorial(k - j)) for j in range(k + 1)}


@pytest.mark.parametrize("name,k", [("sl2", 18), ("sl2", 33), ("sl2", 37),
                                    ("sl2", 100), ("solv2", 22), ("solv2", 35),
                                    ("solv2", 60)])
def test_deep_probe_closed_form(name, k):
    alg = liealg.algebra_by_name(name)
    zeros = (0,) * (alg.dim - 1)
    got = mul_basis(alg, zeros + (k,), (k,) + zeros)
    assert got == probe_closed_form(name, k)
    assert _exact(got)


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_peel_runs_in_a_loop():
    """h e = e (h + 2): d^(0,0,k) d^(1,0,0) = sum_j 2^(k-j) / (k-j)! d^(1,0,j).

    The recursion limit is cut to a fixed margin above the current stack,
    and the weight k exceeds that margin, so a peel that recursed once per
    step would raise RecursionError.
    """
    alg = liealg.algebra_by_name("sl2")
    k, margin = 200, 100
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + margin)
    try:
        got = mul_basis(alg, (0, 0, k), (1, 0, 0))
        antipode = antipode_basis(alg, (k, 0, 0))
    finally:
        sys.setrecursionlimit(limit)
    assert got == {(1, 0, j): Fr(2 ** (k - j), factorial(k - j)) for j in range(k + 1)}
    assert antipode == {(k, 0, 0): 1}


def test_public_names_called_once_per_product(monkeypatch):
    """Wrappers on the module names see one call per product or antipode."""
    import pseudoalg.pbw as pbw
    calls = []
    for name in ("mul_basis", "antipode_basis"):
        inner = getattr(pbw, name)
        monkeypatch.setattr(pbw, name, lambda *a, _f=inner, _n=name:
                            calls.append(_n) or _f(*a))
    alg = liealg.algebra_by_name("sl2")
    pbw.mul_basis(alg, (1, 2, 3), (3, 2, 1))
    pbw.antipode_basis(alg, (1, 2, 3))
    assert calls == ["mul_basis", "antipode_basis"]


@pytest.mark.parametrize("k", [1000, 3000])
def test_generator_times_deep_monomial_runs_in_a_loop(k):
    """[h, e] = 2e and [h, f] = -2f on sl2 (e, f, h), so
    d_h d^(k,0,0) = d^(k,0,1) + 2k d^(k,0,0) and
    d_h d^(0,k,0) = d^(0,k,1) - 2k d^(0,k,0), at the default recursion limit."""
    alg = liealg.algebra_by_name("sl2")
    assert mul_basis(alg, (0, 0, 1), (k, 0, 0)) == {(k, 0, 1): 1, (k, 0, 0): 2 * k}
    assert mul_basis(alg, (0, 0, 1), (0, k, 0)) == {(0, k, 1): 1, (0, k, 0): -2 * k}
