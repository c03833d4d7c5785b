"""Exact arithmetic in the universal enveloping algebra of a finite Lie algebra.

Elements are combinations of the divided-power basis d^(I) = d_1^{i_1} ...
d_N^{i_N} divided by i_1! ... i_N!, keyed by the multi-index I and stored
as the sparse combinations of `linalg`.  That normalization makes the
coproduct integer-free:

    coproduct(d^(I)) = sum over J + K = I of d^(J) (x) d^(K)

Straightening works in the monomial basis x^I = x_1^{i_1} ... x_N^{i_N}
= I! d^(I), where every step is integral when the structure constants
are.  It rests on one step, `_gen_mul`: the left product x_g x^K of a
generator and a monomial, straightened with x_g x_h = x_h x_g + [x_g, x_h]
and memoized per (g, K) on the owning algebra.  `mul_basis` and
`antipode_basis` peel one generator at a time onto it in a loop (`_peel`)
that caches every partial product, and `_gen_mul` walks its own chain in
a loop too.  Both find the generator to peel by an index loop over the
multi-index, and `_gen_times` reads the (g, K) memo and accumulates
through `linalg.bump_all`, so a cache miss pays for straightening and
little else.  A requested table entry converts to divided powers once,
one exact division per entry:

    d^(I) d^(J) = sum c_M M! / (I! J!) d^(M)   for x^I x^J = sum c_M x^M
    S(d^(I))    = sum c_M M! / I! d^(M)        for S(x^I) = sum c_M x^M

`_rescale` makes that conversion and the step back from a requested entry
that a later peel reaches, dividing ints by `divmod` and taking each M!
from a memo per multi-index on the algebra.

Filtration degree of d^(I) is |I|.

Tensor powers H^{(x) n} use two kernels: `mul_slots`, the slot-by-slot
product of two tensor keys, and `mul_antipode`, the factor d^(I) S(d^(J))
a slot picks up when another moves across (x)_H, memoized per (I, J) on
the algebra beside the product cache.

Coefficients follow the `linalg` invariant: `int` or `Fraction`, never
float.  Over an abelian algebra every product and antipode coefficient is
an integer (a product of binomials, a sign); otherwise the conversion
divides exactly with `div`, so an integral coefficient stays an `int`.

The element kernels (`HElt` product and antipode, `TensorElt` product,
`fourier`) are term rules on the tables above, run by
`linalg.scaled_product` and `linalg.scaled_map`.  The one exception is the
`TensorElt` product at arity 2, which serves the products Delta(x) Delta(y)
of the Hopf checks: a term-rule call and a `mul_slots` list per operand
key pair cost more than the products there, so it runs `scaled_product`
over `mul_slots` as its own two-slot loop, with `bump` inlined and its
store keeping the int rule of `linalg.bump`: the same values, key order
and value types.  Routed through the general kernel instead, the
hopf benchmark read 1.10x slower.  The central solvers no longer go
through it: they read their rank-one rows straight off `mul_basis`.
Arities 1 and 3 keep the general route.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import factorial

from .linalg import (SparseCombination, bump, bump_all, cleared, div, divided, exact,
                     scaled_map, scaled_product)


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
    """Left product x_g x^K of a generator and a monomial, in monomials.

    With h the smallest generator in K: for g <= h the product is ordered,
    x^(K + e_g).  Otherwise x^K = x_h x^(K - e_h), and
    x_g x_h = x_h x_g + [x_g, x_h] leaves products of lower weight, with
    no division.  Walks the chain K -> K - e_h inward to the first cached
    or ordered entry, then outward, memoizing each (g, K) on the algebra.
    An index loop finds h, reading K no further than index g.
    """
    cache = alg._straight_cache
    chain = []
    while (res := cache.get((g, K))) is None:
        h = 0
        while h < g and not K[h]:
            h += 1
        if h == g:
            res = cache[g, K] = {_mi_step(K, g, 1): 1}
            break
        chain.append((K, h))
        K = _mi_step(K, h, -1)
    for K, h in reversed(chain):
        res = _gen_times(alg, h, res, {})
        for m, b in alg.bracket(g, h).items():
            _gen_times(alg, m, {_mi_step(K, h, -1): b}, res)
        cache[g, K] = res
    return res


def _gen_times(alg, g, comb, acc):
    """acc += x_g times the combination {multi-index: coefficient}.

    Reads the (g, L) memo itself, calls `_gen_mul` only on a miss, and
    accumulates through `bump_all`.
    """
    cache = alg._straight_cache
    for L, c in comb.items():
        hit = cache.get((g, L))
        if hit is None:
            hit = _gen_mul(alg, g, L)
        bump_all(acc, c, hit.items())
    return acc


def _factorial(alg, K):
    """K!, memoized per multi-index on the algebra."""
    f = alg._factorial_cache.get(K)
    if f is None:
        f = alg._factorial_cache[K] = mi_factorial(K)
    return f


def _norm(alg, K, J):
    """K! J! for the product x^K x^J; (-1)^|K| K! for the reversed word of K
    (J None)."""
    f = _factorial(alg, K)
    if J is None:
        return -f if sum(K) & 1 else f
    return f * _factorial(alg, J)


def _rescale(alg, comb, n, to_divided):
    """comb with each c [M] moved between the bases x^M = M! d^(M): to
    c M! / n [d^(M)] when `to_divided`, else to c n / M! [x^M].

    M! comes from the algebra's memo.  An int numerator divides by
    `divmod`, building a Fraction only when there is a remainder; a
    Fraction one goes through `div`.  Either way the value is `div`'s.
    """
    facts = alg._factorial_cache
    out = {}
    for M, c in comb.items():
        f = facts.get(M) or _factorial(alg, M)  # M! is never 0
        if to_divided:
            a, b = c * f, n
        else:
            a, b = c * n, f
        if type(a) is int:
            q, r = divmod(a, b)
            out[M] = Fraction(a, b) if r else q
        else:
            out[M] = div(a, b)
    return out


def _peel(alg, table, partial, I, J, last):
    """The divided-power table entry of d^(I) d^(J), or of S(d^(I)) when J
    is None, straightened in monomials.

    Computes x^I times the base x^J (1 for the antipode) on the left,
    sum c_M x^M, and stores it in `table` as sum c_M M! / n(I) d^(M)
    (x^M = M! d^(M)), with n from `_norm`.  Peels h, the first generator
    in I' (the last one when `last` is set), found by an index loop, by
    x^I' = x_h x^(I' - e_h), from I' = I inward to the first product
    cached in either form: in monomials in `partial`, or in `table`,
    multiplied back by n(I') / M!.  Then walks outward, caching each step
    in `partial`.  Both conversions are `_rescale`.  Every product is held
    in one form only, so I itself leaves `partial` for `table`.
    """
    top = key = I if J is None else (I, J)
    K, w, chain = I, sum(I), []
    while w:
        if (res := partial.get(key)) is not None:
            break
        if (hit := table.get(key)) is not None:
            res = _rescale(alg, hit, _norm(alg, K, J), False)
            break
        if last:
            h = len(K) - 1
            while not K[h]:
                h -= 1
        else:
            h = 0
            while not K[h]:
                h += 1
        chain.append((key, h))
        K = _mi_step(K, h, -1)
        key = K if J is None else (K, J)
        w -= 1
    else:
        res = {(0,) * len(I): 1} if J is None else {J: 1}
    for key, h in reversed(chain):
        res = partial[key] = _gen_times(alg, h, res, {})
    partial.pop(top, None)
    hit = table[top] = _rescale(alg, res, _norm(alg, I, J), True)
    return hit


def mul_basis(alg, I, J):
    """Product d^(I) d^(J) expanded in divided-power monomials.

    Straightens x^I x^J = sum c_M x^M in monomials x^I = I! d^(I),
    peeling the first generator h of I (x^I = x_h x^(I - e_h)), then
    converts once: d^(I) d^(J) = sum c_M M! / (I! J!) d^(M).
    """
    hit = alg._mul_cache.get((I, J))
    if hit is None:
        if alg.is_abelian:
            K = mi_add(I, J)
            hit = alg._mul_cache[I, J] = {
                K: _factorial(alg, K) // (_factorial(alg, I) * _factorial(alg, J))}
        else:
            hit = _peel(alg, alg._mul_cache, alg._monomial_mul_cache, I, J, False)
    return hit


def antipode_basis(alg, I):
    """Antipode of d^(I) expanded in divided-power monomials.

    S(x^I) = (-1)^|I| R(I), with R(I) the product of I's generators in
    reversed order; R(I) = x_h R(I - e_h) peels the last generator h of I.
    Converts once: S(d^(I)) = (-1)^|I| sum c_M M! / I! d^(M).
    """
    hit = alg._antipode_cache.get(I)
    if hit is None:
        if alg.is_abelian:
            hit = alg._antipode_cache[I] = {I: (-1) ** mi_weight(I)}
        else:
            hit = _peel(alg, alg._antipode_cache, alg._reversed_cache, I, None, True)
    return hit


def mul_antipode(alg, I, J):
    """d^(I) S(d^(J)), memoized per (I, J) on the algebra."""
    hit = alg._mul_antipode_cache.get((I, J))
    if hit is None:
        hit = {}
        for K, c in antipode_basis(alg, J).items():
            bump_all(hit, c, mul_basis(alg, I, K).items())
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
            alg = self.alg
            return self._with(scaled_product(
                self.c, other.c, lambda I, J: mul_basis(alg, I, J).items()))
        return self.scale(other)

    def antipode(self):
        alg = self.alg
        return self._with(scaled_map(self.c, lambda I: antipode_basis(alg, I).items()))

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
        alg = self.alg
        if self.n != 2:
            return self._with(scaled_product(
                self.c, other.c, lambda ka, kb: mul_slots(alg, ka, kb, mul_basis)))
        # `scaled_product` over `mul_slots`, with the term rule and `bump`, its
        # int rule included, inlined
        Da, A = cleared(self.c)
        Db, B = cleared(other.c)
        out = {}
        for (a1, a2), va in A:
            for (b1, b2), vb in B:
                vab = va * vb
                t1 = mul_basis(alg, a1, b1).items()
                t2 = mul_basis(alg, a2, b2).items()
                for K1, c1 in t1:
                    v1 = vab * c1
                    for K2, c2 in t2:
                        k = (K1, K2)
                        v = v1 * c2
                        s = out.get(k)
                        if s is not None:
                            v = s + v
                        if v:
                            out[k] = (v.numerator if type(v) is Fraction
                                      and v.denominator == 1 else v)
                        elif s is not None:
                            del out[k]
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
    mul = mul_basis if inverse else mul_antipode

    def terms(key):
        for J, K in mi_splits(key[j], 2):
            for newI, c in mul(alg, key[i], J).items():
                nk = list(key)
                nk[i] = newI
                nk[j] = K
                yield tuple(nk), c
    return t._with(scaled_map(t.c, terms))
