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

Checks run at the entry points only.  The TruncatedSeries and
AnnihilationElement constructors check each multi-index's length and
weight and store exact nonzero values; `truncate`, `act` and `pair`
refuse a depth they cannot guarantee, and each bracket refuses inputs too
shallow for its depth cost, all with PrecisionError.  Behind them the
product `_product` and the action `_acted` work on coefficient maps known
valid, and `_series` wraps their results without a second pass.  They
accumulate through `linalg.bump` and `bump_all`, which store an integral
value as an `int`, so no result here needs a pass to convert its values;
`pair` passes its sum through `exact`.

Both brackets clear their operands to integers once per call: `cleared`
scales u by the lcm Du of its denominators and v by Dv, the loops run on
the integer parts, and `divided` divides each output coefficient by
Du Dv once at the end.  Du Dv is one positive constant per output, so
every partial sum vanishes at the step it vanished unscaled, and the
result keeps the values, key order and value types of the unscaled loops
(the method of `linalg.scaled_product`).  The vector-field oracle still
acts through the public `act`, on series built over its integer parts.
"""

from itertools import product
from operator import add

from .linalg import SparseCombination, bump, bump_all, cleared, divided, exact
from .pbw import (HElt, antipode_basis, checked_mi, mi_weight, mi_zero, mul_basis,
                  multiindices_up_to)
from .pseudo import Report


class PrecisionError(ValueError):
    """Requested depth exceeds what the inputs can guarantee."""


def _truncated_sum(x, y, m, weight, same):
    """x + m y known to the smaller cutoff, m = 1 or -1; weight(key) is a
    term's weight.

    `same` tells whether y lives where x does, cutoffs aside."""
    if not same:
        raise ValueError("%s sum across different spaces" % type(x).__name__)
    cut = min(x.cutoff, y.cutoff)
    c = {}
    for s, z in ((1, x), (m, y)):
        bump_all(c, s, [(k, v) for k, v in z.c.items() if weight(k) <= cut])
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


def _product(x, y, cut):
    """Coefficients of the product of the series with coefficient maps x
    and y, up to weight cut.  A pair of terms is skipped unless its weights
    fit, so no key beyond cut is built."""
    right = [(J, b, sum(J)) for J, b in y.items()]
    out = {}
    for I, a in x.items():
        room = cut - sum(I)
        if room < 0:
            continue
        for J, b, w in right:
            if w <= room:
                bump(out, tuple(map(add, I, J)), a * b)
    return out


def _acted(alg, x, h, side, cut):
    """Coefficients of the action on the series with coefficient map x by
    the element with monomial map h = {L: u}, to depth cut.

    Each term u d^(L) of h and each term a d^(J) of the cached S(d^(L))
    add u a v c at t_I for every term v t_K of x and every entry (I, c) of
    the transposed table of d^(J) at K.
    """
    out = {}
    cache = alg._adjoint_cache
    for L, u in h.items():
        for J, a in antipode_basis(alg, L).items():
            table = cache.get((J, side, cut))
            if table is None:
                table = _adjoint(alg, J, side, cut)
            ua = u * a
            for K, v in x.items():
                row = table.get(K)
                if row is None:
                    continue
                bump_all(out, ua * v, row)
    return out


def _acted_depth(cutoff, deg):
    """Depth left after acting by degree deg on a series known to cutoff."""
    if deg > cutoff:
        raise PrecisionError("action by degree %d exceeds depth %d" % (deg, cutoff))
    return cutoff - deg


def _right(alg, depth, x, F):
    """(depth, coefficients) of x d^(F), for x known to depth."""
    if not any(F):
        return depth, x
    depth = _acted_depth(depth, sum(F))
    return depth, _acted(alg, x, {F: 1}, "right", depth)


def _series(alg, cutoff, c):
    """TruncatedSeries on a coefficient map already known valid: exact
    nonzero values on multi-indices of weight <= cutoff.  Checks nothing."""
    out = object.__new__(TruncatedSeries)
    out.alg = alg
    out.cutoff = cutoff
    out.c = c
    return out


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
            I = checked_mi(I, alg.dim)
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
        if cutoff < 0:
            raise PrecisionError("cutoff must be nonnegative")
        return _series(self.alg, cutoff,
                       {I: v for I, v in self.c.items() if sum(I) <= cutoff})

    def _sum(self, other, m):
        return _truncated_sum(self, other, m, mi_weight,
                              isinstance(other, TruncatedSeries) and other.alg is self.alg)

    def __mul__(self, other):
        """Product of functionals: t_J t_K = t_{J+K}; depth is the minimum."""
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        cut = min(self.cutoff, other.cutoff)
        return _series(self.alg, cut, _product(self.c, other.c, cut))

    def pair(self, h):
        """<x, h> for h in U(d); needs cutoff >= degree of h."""
        deg = h.degree()
        if deg is not None and deg > self.cutoff:
            raise PrecisionError("pairing needs depth %d, have %d" % (deg, self.cutoff))
        c = self.c
        return exact(sum(v * c[I] for I, v in h.c.items() if I in c))

    def act(self, h, side="left"):
        """Left action <h x, f> = <x, S(h) f>; right <x h, f> = <x, f S(h)>.

        The output is exact to depth cutoff - deg(h).
        """
        if not h.c:
            return TruncatedSeries.zero(self.alg, self.cutoff)
        cut = _acted_depth(self.cutoff, max(map(sum, h.c)))
        return _series(self.alg, cut, _acted(self.alg, self.c, h.c, side, cut))

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
            I = checked_mi(I, module.alg.dim)
            if mi_weight(I) > cutoff:
                raise ValueError("index beyond cutoff")
            v = exact(v)
            if v:
                self.c[(I, g)] = v

    @classmethod
    def generator(cls, module, I, g, cutoff):
        return cls(module, cutoff, {(tuple(I), g): 1})

    def series_parts(self):
        """{g: series of the coefficients on g}, one per generator present."""
        alg = self.module.alg
        return {g: _series(alg, self.cutoff, c) for g, c in _parts(self.c.items()).items()}

    def _same_space(self, other):
        return self.module.same_as(other.module) and self.cutoff == other.cutoff

    def _sum(self, other, m):
        return _truncated_sum(self, other, m, lambda key: mi_weight(key[0]),
                              isinstance(other, AnnihilationElement)
                              and self.module.same_as(other.module))

    def truncate(self, cutoff):
        if cutoff > self.cutoff:
            raise PrecisionError("cannot deepen")
        out = AnnihilationElement(self.module, cutoff)
        out.c = {(I, g): v for (I, g), v in self.c.items() if sum(I) <= cutoff}
        return out

    def __repr__(self):
        parts = self.series_parts()
        if not parts:
            return "0 + O(%d)" % (self.cutoff + 1)
        return " + ".join("(%r) @ %s" % (s, self.module.gen_name(g))
                          for g, s in sorted(parts.items(), key=lambda kv: str(kv[0])))


def _parts(items):
    """{g: coefficient map on g} of the pairs ((I, g), v) of an annihilation
    element's coefficients, zeros dropped."""
    by_gen = {}
    for (I, g), v in items:
        part = by_gen.setdefault(g, {})
        if v:
            part[I] = v
    return by_gen


def annihilation_bracket(P, u, v):
    """Bracket on functionals (x)_H L induced by the structure table:

        (x (x)_H a)(y (x)_H b) = sum (x f_i)(y g_i) (x)_H e_i,

    where the canonical table `gen_bracket` has g_i = 1.  The output cutoff
    is min(depth u, depth v) minus the table's depth cost; a negative
    guarantee raises PrecisionError naming the need.

    Within one call each right action x d^(F) of a generator's series is
    built once, and so is each product (x d^(F)) y that several table
    terms share.
    """
    alg = P.alg
    cost = P.max_coefficient_degree()
    cut = min(u.cutoff, v.cutoff) - cost
    if cut < 0:
        raise PrecisionError(
            "bracket costs depth %d; inputs must have cutoff >= %d" % (cost, cost))
    out = AnnihilationElement(P.module, cut)
    Du, U = cleared(u.c)
    Dv, V = cleared(v.c)
    vparts = _parts(V)
    for gu, x in _parts(U).items():
        moved = {}  # F -> x d^(F), with its depth
        for gv, y in vparts.items():
            products = {}  # F -> (x d^(F)) y, with its depth
            for (key, g, L), coeff in P.gen_bracket(gu, gv).c.items():
                F = key[0]
                prod = products.get(F)
                if prod is None:
                    xf = moved.get(F)
                    if xf is None:
                        xf = moved[F] = _right(alg, u.cutoff, x, F)
                    depth = min(xf[0], v.cutoff)
                    prod = products[F] = depth, _product(xf[1], y, depth)
                for I, s in _right(alg, prod[0], prod[1], L)[1].items():
                    if sum(I) <= cut:
                        bump(out.c, (I, g), coeff * s)
    out.c = divided(out.c, Du * Dv)
    return out


def vector_field_bracket(alg, u, v):
    """Independent oracle on functional coefficients of basis directions:

        [x (x) a, y (x) b] = xy (x) [a,b] - x(y.a) (x) b + (x.b)y (x) a

    with the dot the right action.  Used to cross-check the annihilation
    bracket of the vector-field structure.  It clears u and v to integers
    as the bracket does, and acts through the public `act` on series over
    the integer parts, not through the bracket's memo.
    """
    cut = min(u.cutoff, v.cutoff) - 1
    if cut < 0:
        raise PrecisionError("vector-field bracket needs cutoff >= 1")
    out = AnnihilationElement(u.module, cut)
    Du, U = cleared(u.c)
    Dv, V = cleared(v.c)
    uparts = {g: _series(alg, u.cutoff, c) for g, c in _parts(U).items()}
    vparts = {g: _series(alg, v.cutoff, c) for g, c in _parts(V).items()}
    dirs = {a: HElt.gen(alg, a) for a in {*uparts, *vparts}}
    for a, xs in uparts.items():
        for b, ys in vparts.items():
            br = alg.bracket(a, b)
            if br:
                xy = _product(xs.c, ys.c, cut)
                for k, ck in br.items():
                    for I, s in xy.items():
                        bump(out.c, (I, k), ck * s)
            ya = ys.act(dirs[a], "right")
            for I, s in _product(xs.c, ya.c, cut).items():
                bump(out.c, (I, b), -s)
            xb = xs.act(dirs[b], "right")
            for I, s in _product(xb.c, ys.c, cut).items():
                bump(out.c, (I, a), s)
    out.c = divided(out.c, Du * Dv)
    return out


def annihilation_suite(P, cutoff):
    """Report of `annihilation_bracket` against `vector_field_bracket` on the
    structure P of `make_wd` at a cutoff: one check per ordered pair of
    generators t_I w_a with |I| <= min(3, cutoff - 2), up to the smaller
    output cutoff.  A cutoff too shallow for a bracket raises PrecisionError.
    """
    alg = P.alg
    rep = Report("annihilation:%s@D=%d" % (alg.name, cutoff))
    mis = multiindices_up_to(alg.dim, min(3, max(0, cutoff - 2)))
    gens = {(I, a): (AnnihilationElement.generator(P.module, I, a, cutoff), "t%s w%d" % (I, a))
            for I in mis for a in range(alg.dim)}
    for I, J, a, b in product(mis, mis, range(alg.dim), range(alg.dim)):
        (u, uname), (v, vname) = gens[(I, a)], gens[(J, b)]
        br = annihilation_bracket(P, u, v)
        vf = vector_field_bracket(alg, u, v)
        cut = min(br.cutoff, vf.cutoff)
        ok = br.truncate(cut).c == vf.truncate(cut).c
        rep.record("cross-oracle[%s, %s]" % (uname, vname), ok, None if ok else (br, vf))
    return rep


def counit_functional(alg, cutoff):
    return TruncatedSeries(alg, cutoff, {mi_zero(alg.dim): 1})
