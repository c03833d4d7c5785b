"""Exact arithmetic in the universal enveloping algebra of a finite Lie algebra.

Elements are combinations of the divided-power basis d^(I) = d_1^{i_1} ...
d_N^{i_N} divided by i_1! ... i_N!, keyed by the multi-index I and stored
as the sparse combinations of `linalg`.  That normalization makes the
coproduct integer-free:

    coproduct(d^(I)) = sum over J + K = I of d^(J) (x) d^(K)

Products are straightened in the monomial basis x^I = x_1^{i_1} ... x_N^{i_N}
= I! d^(I), integral when the structure constants are.  Divided powers are
not (d^(0,0,k) d^(k,0,0) on sl2 holds (2k)^(k-j) / (k-j)!): they form a
Z-form only over a Chevalley basis (Kostant, "Groups over Z", 1966).  The
one step is `_gen_mul`, x_g x^K straightened with x_g x_h = x_h x_g +
[x_g, x_h] and memoized per (g, K) on the algebra; `_gen_times` reads that
memo and accumulates through `linalg.bump_all`.  Two monomial tables on
the algebra hold the rest, R(I) being the generators of I multiplied in
reversed order, so that S(x^I) = (-1)^|I| R(I):

    x^I x^J      per (I, J), `_mono_mul`
    R(I)         per I, `_reversed`

`_peel` fills both a generator at a time, storing every product it passes.

The Hopf kernels (`HElt` product and antipode, the arity-2 `TensorElt`
product, `fourier`) multiply in monomials: `_cleared` takes the operand
values a_I to a_I / I!, cleared to integers over one D, the loops multiply
ints against the tables, and `_divided` converts each output coefficient
once, c_M M! / D by `linalg.div`; a split J = J1 + J2 of the coproduct slot
in `fourier` brings the integer J! / J1!.  D and M! are one positive
constant per output key, so each partial sum vanishes at the step it
vanished in divided powers: values, key order and value types are those
of the divided-power loop, at one division per output coefficient instead
of a `Fraction` product per term.  The other modules read divided-power
views, memoized per request (over an abelian algebra, x^I x^J = x^(I + J),
straight from the multi-indices):

    mul_basis        d^(I) d^(J) = x^I x^J / (I! J!), converted once per entry
    antipode_basis   S(d^(I)) = (-1)^|I| R(I) / I!, converted once per entry
    mul_antipode     d^(I) S(d^(J)), summed over the two views above

`mul_antipode` sums views that other requests share; summed in monomials and
converted per entry, the identities benchmark read about 1.5% slower.

Tensor powers H^{(x) n} multiply slot by slot (`mul_slots`).  Filtration
degree of d^(I) is |I|.  Coefficients follow the `linalg` invariant: `int`
or `Fraction`, never float, an integral value stored as an `int`.
"""

from functools import lru_cache
from itertools import product as iproduct
from math import factorial, gcd, lcm
from operator import add

from .linalg import SparseCombination, bump, bump_all, bump_outer, div, exact, scaled_product


# -- multi-index helpers ----------------------------------------------------

def mi_zero(n):
    return (0,) * n


def mi_unit(n, i):
    """The multi-index e_i of length n."""
    return (0,) * i + (1,) + (0,) * (n - i - 1)


def mi_add(a, b):
    return tuple(map(add, a, b))


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


@lru_cache(maxsize=None)
def mi_factorial(a):
    """a! = a_1! ... a_N!, memoised on the multi-index a."""
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


def _peel(alg, table, I, J, last):
    """x^I x^J in monomials, or the reversed word R(I) when J is None, read
    from or stored into `table`; a product over an abelian algebra is ordered.

    Peels h, the first generator in I' (the last one when `last` is set),
    found by an index loop, by x^I' = x_h x^(I' - e_h), from I' = I inward
    to the first product in `table`, then walks outward, storing each step.
    """
    key, K, w, chain = I if J is None else (I, J), I, sum(I), []
    if alg.is_abelian:  # R(I) = x^I, x^I x^J = x^(I + J)
        res = table[key] = {I: 1} if J is None else {mi_add(I, J): 1}
        return res
    while w:
        if (res := table.get(key)) is not None:
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
        res = {K: 1} if J is None else {J: 1}
    for key, h in reversed(chain):
        res = table[key] = _gen_times(alg, h, res, {})
    return res


def _mono_mul(alg, I, J):
    """x^I x^J in monomials, memoized per (I, J)."""
    return alg._monomial_mul_cache.get((I, J)) or _peel(alg, alg._monomial_mul_cache, I, J, False)


def _reversed(alg, I):
    """R(I) in monomials, memoized per I."""
    return alg._reversed_cache.get(I) or _peel(alg, alg._reversed_cache, I, None, True)


def _cleared(c, fact):
    """(D, items): the pairs (k, D v / fact(k)), all `int`, of c's values v
    over the factorial fact(k) of their key, D their lcm denominator."""
    parts = []
    for k, v in c.items():
        f = fact(k)
        if type(v) is not int:
            v, f = v.numerator, f * v.denominator
        g = gcd(v, f)
        parts.append((k, v // g, f // g))
    D = lcm(*[f for _, _, f in parts])
    return D, [(k, v * (D // f)) for k, v, f in parts]


def _divided(out, n, fact):
    """{k: out[k] fact(k) / n}, each quotient `div`'s: monomial coefficients
    back in divided powers, with fact(k) the factorial of key k."""
    return {k: div(v * fact(k), n) for k, v in out.items()}


def _pair_factorial(key):
    """I! J! for a two-slot key (I, J)."""
    return mi_factorial(key[0]) * mi_factorial(key[1])


def mul_basis(alg, I, J):
    """Product d^(I) d^(J) expanded in divided-power monomials, memoized per
    (I, J): d^(I) d^(J) = sum c_M M! / (I! J!) d^(M) for x^I x^J = sum c_M x^M.
    """
    hit = alg._mul_cache.get((I, J))
    if hit is None:
        mono = {mi_add(I, J): 1} if alg.is_abelian else _mono_mul(alg, I, J)
        hit = alg._mul_cache[I, J] = _divided(
            mono, mi_factorial(I) * mi_factorial(J), mi_factorial)
    return hit


def antipode_basis(alg, I):
    """Antipode of d^(I) expanded in divided-power monomials, memoized per I:
    S(d^(I)) = (-1)^|I| sum c_M M! / I! d^(M) for R(I) = sum c_M x^M.
    """
    hit = alg._antipode_cache.get(I)
    if hit is None:
        f, mono = mi_factorial(I), {I: 1} if alg.is_abelian else _reversed(alg, I)
        hit = alg._antipode_cache[I] = _divided(mono, -f if sum(I) & 1 else f, mi_factorial)
    return hit


def mul_antipode(alg, I, J):
    """d^(I) S(d^(J)), memoized per (I, J) on the algebra, summed over the
    divided-power views it shares with other requests."""
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
            alg, out = self.alg, {}
            Da, A = _cleared(self.c, mi_factorial)
            Db, B = _cleared(other.c, mi_factorial)
            for I, a in A:
                for J, b in B:
                    bump_all(out, a * b, _mono_mul(alg, I, J).items())
            return self._with(_divided(out, Da * Db, mi_factorial))
        return self.scale(other)

    def antipode(self):
        alg, out = self.alg, {}
        D, A = _cleared(self.c, mi_factorial)
        for I, a in A:
            bump_all(out, -a if sum(I) & 1 else a, _reversed(alg, I).items())
        return self._with(_divided(out, D, mi_factorial))

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
        # in monomials, slot by slot: x^a1 x^b1 (x) x^a2 x^b2
        fact, out = _pair_factorial, {}
        Da, A = _cleared(self.c, fact)
        Db, B = _cleared(other.c, fact)
        for (a1, a2), va in A:
            for (b1, b2), vb in B:
                bump_outer(out, va * vb, _mono_mul(alg, a1, b1).items(),
                           _mono_mul(alg, a2, b2).items())
        return self._with(_divided(out, Da * Db, fact))

    def permuted(self, perm):
        """Pull slots through a permutation: new slot i holds old slot perm[i].
        Distinct keys go to distinct keys, so the map stays valid as it is."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the slots")
        return self._with({tuple(key[i] for i in perm): v for key, v in self.c.items()})

    def __repr__(self):
        from .literals import render_tensor
        return render_tensor(self)


def fourier(t, slots=(0, 1), inverse=False):
    """Fourier transform on a chosen pair of tensor slots.

    Forward:  f (x) g  ->  f S(g_split1) (x) g_split2
    Inverse:  f (x) g  ->  f g_split1    (x) g_split2
    computed with the divided-power coproduct, all other slots untouched.
    Slot i is multiplied in monomials: d^(I) S(d^(J)) = x^I S(x^J) / (I! J!),
    summed as (-1)^|J| x^I x^L over the terms x^L of R(J), and a split
    G = J + K of slot j carries the integer G! / J!.
    """
    i, j = slots
    if i == j or not (0 <= i < t.n) or not (0 <= j < t.n):
        raise ValueError("slots must be two distinct positions")
    alg = t.alg
    D, T = _cleared(t.c, lambda key: mi_factorial(key[i]) * mi_factorial(key[j]))
    out = {}
    for key, v in T:
        I, G = key[i], key[j]
        nk = list(key)
        for J, K in mi_splits(G, 2):
            nk[j] = K
            m = v * (mi_factorial(G) // mi_factorial(J))
            # the inverse multiplies by x^J alone
            legs = ((J, 1),) if inverse else _reversed(alg, J).items()
            if not inverse and sum(J) & 1:
                m = -m
            for L, c in legs:
                for M, e in _mono_mul(alg, I, L).items():
                    nk[i] = M
                    bump(out, tuple(nk), m * c * e)
    return t._with(_divided(out, D, lambda key: mi_factorial(key[i])))
