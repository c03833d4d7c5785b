"""Truncated functionals on U(d) and annihilation brackets at a cutoff.

A TruncatedSeries holds the coefficients of a functional on the dual
basis t_I of the divided-power monomials, exactly for all |I| <= cutoff
and unknown beyond.  Operations track the guaranteed cutoff of their
result and refuse to produce silently lossy answers: acting by an element
of filtration degree k costs k units of depth.

H acts on functionals by the transpose of multiplication in U(d).  For
each basis monomial d^(J) the transposed product table is built once from
the straightened products `mul_basis` and cached on the algebra, so the
action is correct for noncommutative algebras as well and costs one table
lookup per pair of terms.
Series and annihilation elements are the sparse combinations of
`linalg`; a sum keeps the smaller cutoff and drops what lies beyond it.
"""

from itertools import chain

from .linalg import SparseCombination, bump, exact
from .pbw import (HElt, antipode_basis, mi_add, mi_weight, mi_zero, mul_basis,
                  multiindices_up_to)


class PrecisionError(ValueError):
    """Requested depth exceeds what the inputs can guarantee."""


def _truncated_sum(x, y, weight, same):
    """x + y known to the smaller cutoff; weight(key) is a term's weight.

    `same` tells whether y lives where x does, cutoffs aside."""
    if not same:
        raise ValueError("%s sum across different spaces" % type(x).__name__)
    cut = min(x.cutoff, y.cutoff)
    c = {}
    for k, v in chain(x.c.items(), y.c.items()):
        if weight(k) <= cut:
            bump(c, k, v)
    out = x._with(c)
    out.cutoff = cut
    return out


def _adjoint(alg, J, side, cut):
    """Transpose of multiplication by d^(J), for factors of weight <= cut.

    Maps K to the list of (I, c) with |I| <= cut, where c is the
    coefficient of d^(K) in d^(J) d^(I) (side "left") or d^(I) d^(J)
    (side "right").  Built once per (J, side, cut) and cached on alg.
    """
    key = (J, side, cut)
    table = alg._adjoint_cache.get(key)
    if table is None:
        table = {}
        for I in multiindices_up_to(alg.dim, cut):
            prod = mul_basis(alg, J, I) if side == "left" else mul_basis(alg, I, J)
            for K, c in prod.items():
                table.setdefault(K, []).append((I, c))
        alg._adjoint_cache[key] = table
    return table


class TruncatedSeries(SparseCombination):
    """Functional known modulo everything of weight > cutoff."""

    __slots__ = ("alg", "cutoff", "c")
    _space = ("alg", "cutoff")

    def __init__(self, alg, cutoff, coeffs=None):
        if cutoff < 0:
            raise PrecisionError("cutoff must be nonnegative")
        self.alg = alg
        self.cutoff = cutoff
        self.c = {}
        for I, v in (coeffs or {}).items():
            I = tuple(I)
            v = exact(v)
            if mi_weight(I) > cutoff:
                raise ValueError("index beyond cutoff")
            if v:
                self.c[I] = v

    @classmethod
    def dual_basis(cls, alg, I, cutoff):
        return cls(alg, cutoff, {tuple(I): 1})

    @classmethod
    def zero(cls, alg, cutoff):
        return cls(alg, cutoff)

    def truncate(self, cutoff):
        if cutoff > self.cutoff:
            raise PrecisionError("cannot deepen a series (have %d, want %d)"
                                 % (self.cutoff, cutoff))
        return TruncatedSeries(self.alg, cutoff,
                               {I: v for I, v in self.c.items() if mi_weight(I) <= cutoff})

    def __add__(self, other):
        return _truncated_sum(self, other, mi_weight,
                              isinstance(other, TruncatedSeries) and other.alg is self.alg)

    def __mul__(self, other):
        """Product of functionals: t_J t_K = t_{J+K}; depth is the minimum."""
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        cut = min(self.cutoff, other.cutoff)
        out = {}
        for I, a in self.c.items():
            for J, b in other.c.items():
                K = mi_add(I, J)
                if mi_weight(K) <= cut:
                    bump(out, K, a * b)
        return TruncatedSeries(self.alg, cut, out)

    def pair(self, h):
        """<x, h> for h in U(d); needs cutoff >= degree of h."""
        deg = h.degree()
        if deg is not None and deg > self.cutoff:
            raise PrecisionError("pairing needs depth %d, have %d" % (deg, self.cutoff))
        c = self.c
        return sum(v * c[I] for I, v in h.c.items() if I in c)

    def act(self, h, side="left"):
        """Left action <h x, f> = <x, S(h) f>; right <x h, f> = <x, f S(h)>.

        The output is exact to depth cutoff - deg(h).  Each term u d^(L)
        of h and each term a d^(J) of the cached S(d^(L)) add u a v c at
        t_I for every term v t_K of the series and every entry (I, c) of
        the transposed table of d^(J) at K.
        """
        deg = h.degree()
        if deg is None:
            return TruncatedSeries.zero(self.alg, self.cutoff)
        newcut = self.cutoff - deg
        if newcut < 0:
            raise PrecisionError("action by degree %d exceeds depth %d" % (deg, self.cutoff))
        out = {}
        for L, u in h.c.items():
            for J, a in antipode_basis(self.alg, L).items():
                table = _adjoint(self.alg, J, side, newcut)
                ua = u * a
                for K, v in self.c.items():
                    av = ua * v
                    for I, c in table.get(K, ()):
                        bump(out, I, av * c)
        res = self._with(out)
        res.cutoff = newcut
        return res

    def __repr__(self):
        if not self.c:
            return "O(%d)" % (self.cutoff + 1)
        from .literals import _signed_sum, render_mi
        keys = sorted(self.c, key=lambda I: (mi_weight(I), I))
        return "%s + O(%d)" % (_signed_sum((self.c[I], render_mi(I, "t")) for I in keys),
                               self.cutoff + 1)


class AnnihilationElement(SparseCombination):
    """Element of (functionals) (x)_H L for a free module L, at a cutoff."""

    __slots__ = ("module", "cutoff", "c")
    _space = ("module", "cutoff")

    def __init__(self, module, cutoff, coeffs=None):
        if cutoff < 0:
            raise PrecisionError("cutoff must be nonnegative")
        self.module = module
        self.cutoff = cutoff
        self.c = {}
        for (I, g), v in (coeffs or {}).items():
            I = tuple(I)
            if mi_weight(I) > cutoff:
                raise ValueError("index beyond cutoff")
            v = exact(v)
            if v:
                self.c[(I, g)] = v

    @classmethod
    def generator(cls, module, I, g, cutoff):
        return cls(module, cutoff, {(tuple(I), g): 1})

    def series_parts(self):
        by_gen = {}
        for (I, g), v in self.c.items():
            by_gen.setdefault(g, {})[I] = v
        return {g: TruncatedSeries(self.module.alg, self.cutoff, d)
                for g, d in by_gen.items()}

    def _same_space(self, other):
        return self.module.same_as(other.module) and self.cutoff == other.cutoff

    def __add__(self, other):
        return _truncated_sum(self, other, lambda key: mi_weight(key[0]),
                              isinstance(other, AnnihilationElement)
                              and self.module.same_as(other.module))

    def truncate(self, cutoff):
        if cutoff > self.cutoff:
            raise PrecisionError("cannot deepen")
        out = AnnihilationElement(self.module, cutoff)
        out.c = {(I, g): v for (I, g), v in self.c.items() if mi_weight(I) <= cutoff}
        return out

    def __repr__(self):
        parts = self.series_parts()
        if not parts:
            return "0 + O(%d)" % (self.cutoff + 1)
        return " + ".join("(%r) @ %s" % (s, self.module.gen_name(g))
                          for g, s in sorted(parts.items(), key=lambda kv: str(kv[0])))


def annihilation_bracket(P, u, v):
    """Bracket on functionals (x)_H L induced by the structure table:

        (x (x)_H a)(y (x)_H b) = sum (x f_i)(y g_i) (x)_H e_i,

    where the canonical table `gen_bracket` has g_i = 1.  The output cutoff
    is min(depth u, depth v) minus the table's depth cost; a negative
    guarantee raises PrecisionError naming the need.
    """
    alg = P.alg
    cost = P.max_coefficient_degree()
    cut = min(u.cutoff, v.cutoff) - cost
    if cut < 0:
        raise PrecisionError(
            "bracket costs depth %d; inputs must have cutoff >= %d" % (cost, cost))
    out = AnnihilationElement(P.module, cut)
    uparts = u.series_parts()
    vparts = v.series_parts()
    for gu, xs in uparts.items():
        for gv, ys in vparts.items():
            q = P.gen_bracket(gu, gv)
            for (key, g, L), coeff in q.c.items():
                xf = xs.act(HElt.monomial(alg, key[0], 1), "right") if any(key[0]) else xs
                prod = xf * ys
                if any(L):
                    prod = prod.act(HElt.monomial(alg, L, 1), "right")
                for I, s in prod.c.items():
                    if mi_weight(I) <= cut:
                        bump(out.c, (I, g), coeff * s)
    return out


def vector_field_bracket(alg, u, v):
    """Independent oracle on functional coefficients of basis directions:

        [x (x) a, y (x) b] = xy (x) [a,b] - x(y.a) (x) b + (x.b)y (x) a

    with the dot the right action.  Used to cross-check the annihilation
    bracket of the vector-field structure.
    """
    cut = min(u.cutoff, v.cutoff) - 1
    if cut < 0:
        raise PrecisionError("vector-field bracket needs cutoff >= 1")
    out = AnnihilationElement(u.module, cut)

    def add(I, g, val):
        if mi_weight(I) <= cut:
            bump(out.c, (I, g), val)

    uparts = u.series_parts()
    vparts = v.series_parts()
    for a, xs in uparts.items():
        for b, ys in vparts.items():
            for k, ck in alg.bracket(a, b).items():
                for I, s in (xs * ys).c.items():
                    add(I, k, ck * s)
            ya = ys.act(HElt.gen(alg, a), "right")
            for I, s in (xs.truncate(min(xs.cutoff, ya.cutoff)) * ya).c.items():
                add(I, b, -s)
            xb = xs.act(HElt.gen(alg, b), "right")
            for I, s in (xb * ys.truncate(min(ys.cutoff, xb.cutoff))).c.items():
                add(I, a, s)
    return out


def counit_functional(alg, cutoff):
    return TruncatedSeries(alg, cutoff, {mi_zero(alg.dim): 1})
