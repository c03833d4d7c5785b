"""Exact arithmetic in the universal enveloping algebra of a finite Lie algebra.

Elements are combinations of the divided-power basis d^(I) = d_1^{i_1} ...
d_N^{i_N} divided by i_1! ... i_N!, keyed by the multi-index I and stored
as the sparse combinations of `linalg`.  That normalization makes the
coproduct integer-free:

    coproduct(d^(I)) = sum over J + K = I of d^(J) (x) d^(K)

Multiplication rests on one step, `_gen_mul`: the left product d_g d^(K)
of a generator and a divided monomial, straightened with
d_g d_h = d_h d_g + [d_g, d_h] and memoized per (g, K) on the owning
algebra.  `mul_basis` and `antipode_basis` peel one generator at a time
onto it in a loop (`_peel`) that caches every partial product, and
`_gen_mul` walks its own chain in a loop too.  Filtration degree of
d^(I) is |I|.

Tensor powers H^{(x) n} use two kernels: `mul_slots`, the slot-by-slot
product of two tensor keys, and `mul_antipode`, the factor d^(I) S(d^(J))
a slot picks up when another moves across (x)_H, memoized per (I, J) on
the algebra beside the product cache.

Coefficients follow the `linalg` invariant: `int` or `Fraction`, never
float.  Over an abelian algebra every product and antipode coefficient is
an integer (a product of binomials, a sign); otherwise each step divides
exactly with `div`, so an integral coefficient stays an `int`.

The element kernels (`HElt` product and antipode, `TensorElt` product,
`fourier`) clear their operands' denominators once with `cleared`,
multiply integers against the table entries above, and divide once per
output coefficient with `divided`; the cached tables stay as they are.
Since the scale is one positive constant per output, the coefficient
maps keep the values and the key order of the unscaled loops (see
`linalg`).
"""

from functools import lru_cache
from itertools import product as iproduct
from math import factorial

from .linalg import SparseCombination, bump, cleared, div, divided, exact


# -- multi-index helpers ----------------------------------------------------

def mi_zero(n):
    return (0,) * n


def mi_unit(n, i):
    """The multi-index e_i of length n."""
    return (0,) * i + (1,) + (0,) * (n - i - 1)


def mi_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def checked_mi(I, n, what="multi-index"):
    """I as a tuple; ValueError naming it `what` unless it has length n."""
    I = tuple(I)
    if len(I) != n:
        raise ValueError("%s %r has length %d, expected %d" % (what, I, len(I), n))
    return I


def checked_slots(key, n, dim):
    """A tensor key as a tuple of n multi-indices of length dim, or ValueError."""
    key = tuple(key)
    if len(key) != n:
        raise ValueError("tensor key %r has %d slots, expected %d" % (key, len(key), n))
    return tuple(checked_mi(I, dim) for I in key)


def mi_weight(a):
    return sum(a)


def mi_factorial(a):
    out = 1
    for x in a:
        out *= factorial(x)
    return out


def compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def mi_splits(I, parts):
    """All ways of writing I as an ordered sum of `parts` multi-indices.

    A tuple, memoised on (I, parts): the splits depend on nothing else.
    """
    per_coord = [list(compositions(x, parts)) for x in I]
    return tuple(tuple(tuple(c[p] for c in choice) for p in range(parts))
                 for choice in iproduct(*per_coord))


def multiindices_up_to(n, D):
    """All multi-indices of length n with weight <= D, graded-lex ordered."""
    out = []
    for w in range(D + 1):
        out.extend(sorted(compositions(w, n), reverse=True))
    return out


# -- straightening ----------------------------------------------------------

def _mi_step(K, i, d):
    """K with entry i moved by d."""
    return K[:i] + (K[i] + d,) + K[i + 1:]


def _gen_mul(alg, g, K):
    """Left product d_g d^(K) of a generator and a divided monomial.

    With h the smallest generator in K: for g <= h the product is ordered,
    (k_g + 1) d^(K + e_g).  Otherwise d^(K) = d_h d^(K - e_h) / k_h, and
    d_g d_h = d_h d_g + [d_g, d_h] leaves products of lower weight.
    Walks the chain K -> K - e_h inward to the first cached or ordered
    entry, then outward, memoizing each (g, K) on the algebra.
    """
    cache = alg._straight_cache
    chain = []
    while (res := cache.get((g, K))) is None:
        h = next((i for i, k in enumerate(K) if k), g)
        if g <= h:
            res = cache[g, K] = {_mi_step(K, g, 1): K[g] + 1}
            break
        chain.append((K, h))
        K = _mi_step(K, h, -1)
    for K, h in reversed(chain):
        acc = _gen_times(alg, h, res, {})
        for m, b in alg.bracket(g, h).items():
            _gen_times(alg, m, {_mi_step(K, h, -1): b}, acc)
        res = cache[g, K] = {L: div(c, K[h]) for L, c in acc.items()}
    return res


def _gen_times(alg, g, comb, acc):
    """acc += d_g times the combination {multi-index: coefficient}."""
    for L, c in comb.items():
        for M, cm in _gen_mul(alg, g, L).items():
            bump(acc, M, c * cm)
    return acc


def _peel(alg, cache, key, I, base, pick, sign):
    """d^(I) times `base` on the left, by d^(I) = d_h d^(I - e_h) / i_h.

    h = pick(generators in I).  Walks that chain inward to the first entry
    cached under key(I'), then outward, dividing each step by sign * i'_h
    and caching every entry on the way.
    """
    chain = []
    while (hit := cache.get(key(I))) is None and any(I):
        h = pick(i for i, k in enumerate(I) if k)
        chain.append((I, h))
        I = _mi_step(I, h, -1)
    res = cache[key(I)] = base if hit is None else hit
    for K, h in reversed(chain):
        acc = _gen_times(alg, h, res, {})
        res = cache[key(K)] = {L: div(c, sign * K[h]) for L, c in acc.items()}
    return res


def mul_basis(alg, I, J):
    """Product d^(I) d^(J) expanded in divided-power monomials.

    Peels the first generator h of I: d^(I) = d_h d^(I - e_h) / i_h.
    """
    hit = alg._mul_cache.get((I, J))
    if hit is None and alg.is_abelian:
        K = mi_add(I, J)
        hit = alg._mul_cache[I, J] = {
            K: mi_factorial(K) // (mi_factorial(I) * mi_factorial(J))}
    return hit or _peel(alg, alg._mul_cache, lambda K: (K, J), I,
                        {J: 1}, min, 1)


def antipode_basis(alg, I):
    """Antipode of d^(I), peeling the last generator h of I:

        S(d^(I)) = -d_h S(d^(I - e_h)) / i_h.
    """
    hit = alg._antipode_cache.get(I)
    if hit is None and alg.is_abelian:
        hit = alg._antipode_cache[I] = {I: (-1) ** mi_weight(I)}
    return hit or _peel(alg, alg._antipode_cache, lambda K: K, I,
                        {mi_zero(len(I)): 1}, max, -1)


def mul_antipode(alg, I, J):
    """d^(I) S(d^(J)), memoized per (I, J) on the algebra."""
    hit = alg._mul_antipode_cache.get((I, J))
    if hit is None:
        hit = {}
        for K, c in antipode_basis(alg, J).items():
            for L, cl in mul_basis(alg, I, K).items():
                bump(hit, L, c * cl)
        alg._mul_antipode_cache[I, J] = hit
    return hit


def mul_slots(alg, A, B, mul):
    """Terms (key, c) of mul(A_1, B_1) (x) ... (x) mul(A_n, B_n), keys distinct.

    `mul` is `mul_basis` or `mul_antipode`, passed by the caller.
    """
    terms = None  # the first slot seeds it, so no coefficient is multiplied by 1
    for a, b in zip(A, B):
        items = mul(alg, a, b).items()
        if terms is None:
            terms = [((K,), c) for K, c in items]
        else:
            terms = [(key + (K,), c * ck) for key, c in terms for K, ck in items]
    return [((), 1)] if terms is None else terms


# -- elements ---------------------------------------------------------------

class HElt(SparseCombination):
    """Element of U(d) as a sparse rational combination of d^(I)."""

    __slots__ = ("alg", "c")
    _space = ("alg",)

    def __init__(self, alg, coeffs=None):
        self.alg = alg
        self.c = {}
        for I, v in (coeffs or {}).items():
            I = tuple(I)
            if len(I) != alg.dim:  # inline test: monomials are built in hot loops
                checked_mi(I, alg.dim)
            v = exact(v)
            if v:
                self.c[I] = v

    @classmethod
    def zero(cls, alg):
        return cls(alg)

    @classmethod
    def one(cls, alg):
        return cls(alg, {mi_zero(alg.dim): 1})

    @classmethod
    def gen(cls, alg, i):
        return cls(alg, {mi_unit(alg.dim, i): 1})

    @classmethod
    def monomial(cls, alg, I, coeff=1):
        return cls(alg, {tuple(I): coeff})

    @classmethod
    def from_vector(cls, alg, vec):
        """Image of a coefficient vector {i: c} of the Lie algebra in U(d)."""
        return cls(alg, {mi_unit(alg.dim, i): v for i, v in vec.items()})

    def __mul__(self, other):
        if isinstance(other, HElt):
            if other.alg is not self.alg:
                raise ValueError("elements over different algebras")
            Da, A = cleared(self.c)
            Db, B = cleared(other.c)
            out = {}
            for I, a in A:
                for J, b in B:
                    ab = a * b
                    for K, c in mul_basis(self.alg, I, J).items():
                        bump(out, K, ab * c)
            return self._with(divided(out, Da * Db))
        return self.scale(other)

    def antipode(self):
        D, items = cleared(self.c)
        out = {}
        for I, v in items:
            for K, c in antipode_basis(self.alg, I).items():
                bump(out, K, v * c)
        return self._with(divided(out, D))

    def counit(self):
        return self.c.get(mi_zero(self.alg.dim), 0)

    def degree(self):
        """Filtration degree; None for the zero element."""
        if not self.c:
            return None
        return max(mi_weight(I) for I in self.c)

    def coproduct(self, n=2):
        """Iterated coproduct as a TensorElt of the given arity."""
        if n < 2:
            raise ValueError("arity must be >= 2")
        t = TensorElt(self.alg, n)
        for I, v in self.c.items():
            for split in mi_splits(I, n):
                bump(t.c, split, v)
        return t

    def __repr__(self):
        from .literals import render_helt
        return render_helt(self)


class TensorElt(SparseCombination):
    """Element of the n-fold tensor power of U(d), coefficients on divided monomials."""

    __slots__ = ("alg", "n", "c")
    _space = ("alg", "n")

    def __init__(self, alg, n, coeffs=None):
        self.alg = alg
        self.n = n
        self.c = {}
        for key, v in (coeffs or {}).items():
            key = checked_slots(key, n, alg.dim)
            v = exact(v)
            if v:
                self.c[key] = v

    @classmethod
    def zero(cls, alg, n):
        return cls(alg, n)

    @classmethod
    def one(cls, alg, n):
        return cls(alg, n, {(mi_zero(alg.dim),) * n: 1})

    @classmethod
    def pure(cls, factors):
        """Tensor product of HElt factors, at least one, over one algebra."""
        if not factors:
            raise ValueError("a pure tensor needs at least 1 factor, got 0")
        alg = factors[0].alg
        if any(f.alg is not alg for f in factors):
            raise ValueError("factors over different algebras")
        t = cls(alg, len(factors))
        keys = [list(f.c.items()) for f in factors]
        for combo in iproduct(*keys):
            key = tuple(I for I, _ in combo)
            v = 1
            for _, cv in combo:
                v *= cv
            t._bump(key, v)
        return t

    def __mul__(self, other):
        """Slotwise product in U(d)^{(x) n}."""
        if not isinstance(other, TensorElt):
            return self.scale(other)
        if other.n != self.n or other.alg is not self.alg:
            raise ValueError("arity or algebra mismatch")
        Da, A = cleared(self.c)
        Db, B = cleared(other.c)
        out = {}
        for ka, va in A:
            for kb, vb in B:
                vab = va * vb
                for key, c in mul_slots(self.alg, ka, kb, mul_basis):
                    bump(out, key, vab * c)
        return self._with(divided(out, Da * Db))

    def permuted(self, perm):
        """Pull slots through a permutation: new slot i holds old slot perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the slots")
        out = {}
        for key, v in self.c.items():
            bump(out, tuple(key[perm[i]] for i in range(self.n)), v)
        return self._with(out)

    def max_degree(self):
        if not self.c:
            return None
        return max(sum(mi_weight(I) for I in key) for key in self.c)

    def __repr__(self):
        from .literals import render_tensor
        return render_tensor(self)


def fourier(t, slots=(0, 1), inverse=False):
    """Fourier transform on a chosen pair of tensor slots.

    Forward:  f (x) g  ->  f S(g_split1) (x) g_split2
    Inverse:  f (x) g  ->  f g_split1    (x) g_split2
    computed with the divided-power coproduct, all other slots untouched.
    """
    i, j = slots
    if i == j or not (0 <= i < t.n) or not (0 <= j < t.n):
        raise ValueError("slots must be two distinct positions")
    alg = t.alg
    D, items = cleared(t.c)
    out = {}
    mul = mul_basis if inverse else mul_antipode
    for key, v in items:
        for J, K in mi_splits(key[j], 2):
            for newI, c in mul(alg, key[i], J).items():
                nk = list(key)
                nk[i] = newI
                nk[j] = K
                bump(out, tuple(nk), v * c)
    return t._with(divided(out, D))
