"""Exact arithmetic in the universal enveloping algebra of a finite Lie algebra.

Elements are combinations of the divided-power basis d^(I) = d_1^{i_1} ...
d_N^{i_N} divided by i_1! ... i_N!, keyed by the multi-index I and stored
as the sparse combinations of `linalg`.  That normalization makes the
coproduct integer-free:

    coproduct(d^(I)) = sum over J + K = I of d^(J) (x) d^(K)

Multiplication straightens words of generators with the rewriting rule
d_j d_i = d_i d_j - [d_i, d_j] (for j > i), memoized per word on the
owning algebra, and converts between plain and divided monomials at the
boundary.  Filtration degree of d^(I) is |I|.

Coefficients follow the `linalg` invariant: `int` or `Fraction`, never
float.  Over an abelian algebra every product and antipode coefficient is
an integer (a product of binomials, a sign); otherwise the conversion
divides exactly with `div`, so an integral coefficient stays an `int`.
"""

from functools import lru_cache
from itertools import product as iproduct
from math import factorial

from .linalg import SparseCombination, bump, div, exact


# -- multi-index helpers ----------------------------------------------------

def mi_zero(n):
    return (0,) * n


def mi_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


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


# -- straightening ----------------------------------------------------------

def _straighten(alg, word):
    """Expand an arbitrary generator word in the plain PBW monomial basis.

    Returns {multi-index: coefficient} with d^I meaning the plain ordered
    product (no factorials).  Recursion swaps the first descent and adds
    the bracket correction; results are memoized on the algebra.
    """
    cache = alg._straight_cache
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
    acc = dict(_straighten(alg, swapped))
    # word = swapped + [d_a, d_b]-correction in place of the pair
    for k, c in alg.bracket(a, b).items():
        sub = word[:desc] + (k,) + word[desc + 2:]
        for I, ci in _straighten(alg, sub).items():
            bump(acc, I, c * ci)
    cache[word] = acc
    return acc


def mul_basis(alg, I, J):
    """Product d^(I) d^(J) expanded in divided-power monomials."""
    key = (I, J)
    hit = alg._mul_cache.get(key)
    if hit is not None:
        return hit
    if alg.is_abelian:
        K = mi_add(I, J)
        res = {K: mi_factorial(K) // (mi_factorial(I) * mi_factorial(J))}
    else:
        norm = mi_factorial(I) * mi_factorial(J)
        res = {K: div(c * mi_factorial(K), norm)
               for K, c in _straighten(alg, word_of(I) + word_of(J)).items()}
    alg._mul_cache[key] = res
    return res


def antipode_basis(alg, I):
    """Antipode of d^(I): sign-reversed word product, back in divided powers."""
    hit = alg._antipode_cache.get(I)
    if hit is not None:
        return hit
    if alg.is_abelian:
        res = {I: (-1) ** mi_weight(I)}
    else:
        sign, norm = (-1) ** mi_weight(I), mi_factorial(I)
        res = {K: div(sign * c * mi_factorial(K), norm)
               for K, c in _straighten(alg, tuple(reversed(word_of(I)))).items()}
    alg._antipode_cache[I] = res
    return res


# -- elements ---------------------------------------------------------------

class HElt(SparseCombination):
    """Element of U(d) as a sparse rational combination of d^(I)."""

    __slots__ = ("alg", "c")
    _space = ("alg",)

    def __init__(self, alg, coeffs=None):
        self.alg = alg
        self.c = {}
        for I, v in (coeffs or {}).items():
            v = exact(v)
            if v:
                self.c[tuple(I)] = v

    @classmethod
    def zero(cls, alg):
        return cls(alg)

    @classmethod
    def one(cls, alg):
        return cls(alg, {mi_zero(alg.dim): 1})

    @classmethod
    def gen(cls, alg, i):
        I = [0] * alg.dim
        I[i] = 1
        return cls(alg, {tuple(I): 1})

    @classmethod
    def monomial(cls, alg, I, coeff=1):
        return cls(alg, {tuple(I): coeff})

    @classmethod
    def from_vector(cls, alg, vec):
        """Image of a coefficient vector {i: c} of the Lie algebra in U(d)."""
        out = cls.zero(alg)
        for i, v in vec.items():
            I = [0] * alg.dim
            I[i] = 1
            out = out + cls(alg, {tuple(I): v})
        return out

    def __mul__(self, other):
        if isinstance(other, HElt):
            if other.alg is not self.alg:
                raise ValueError("elements over different algebras")
            out = {}
            for I, a in self.c.items():
                for J, b in other.c.items():
                    ab = a * b
                    for K, c in mul_basis(self.alg, I, J).items():
                        bump(out, K, ab * c)
            return self._with(out)
        return self.scale(other)

    def antipode(self):
        out = {}
        for I, v in self.c.items():
            for K, c in antipode_basis(self.alg, I).items():
                bump(out, K, v * c)
        return self._with(out)

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
            v = exact(v)
            if v:
                self.c[tuple(tuple(I) for I in key)] = v

    @classmethod
    def zero(cls, alg, n):
        return cls(alg, n)

    @classmethod
    def one(cls, alg, n):
        return cls(alg, n, {(mi_zero(alg.dim),) * n: 1})

    @classmethod
    def pure(cls, factors):
        """Tensor product of HElt factors."""
        alg = factors[0].alg
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
        out = {}
        for ka, va in self.c.items():
            for kb, vb in other.c.items():
                pieces = [mul_basis(self.alg, ka[i], kb[i]) for i in range(self.n)]
                base = va * vb
                for combo in iproduct(*[list(p.items()) for p in pieces]):
                    key = tuple(I for I, _ in combo)
                    v = base
                    for _, cv in combo:
                        v *= cv
                    bump(out, key, v)
        return self._with(out)

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
    out = {}
    for key, v in t.c.items():
        g = key[j]
        for J, K in ((s[0], s[1]) for s in mi_splits(g, 2)):
            left = antipode_basis(alg, J) if not inverse else {J: 1}
            for Jp, cj in left.items():
                for newI, ci in mul_basis(alg, key[i], Jp).items():
                    nk = list(key)
                    nk[i] = newI
                    nk[j] = K
                    bump(out, tuple(nk), v * cj * ci)
    return t._with(out)
