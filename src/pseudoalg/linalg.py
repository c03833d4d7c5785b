"""Exact linear algebra over the rationals, and the sparse core of the package.

Everything here works with sparse vectors: dictionaries mapping an
arbitrary hashable column key to a nonzero rational.  The largest systems,
the central windows of sd:abelian4, have 1,260 unknowns at degree 3 and
2,520 at degree 4.  The central solvers build the skew link on unordered
generator pairs and no entry for an unknown their eliminator has already
forced to zero, so at degree 3 they build 4,387 rows where every entry on
every ordered pair gave 36,960, and 3,563 nonempty rows reach the
eliminator instead of 28,286; exact sparse elimination serves.

Every element type of the package (enveloping-algebra elements, tensors,
module and quotient elements, pseudoforms among them, truncated
functionals) is such a sparse combination, built on `bump` and
`SparseCombination`.  Their one invariant: the coefficient map stores no
zeros, so an element is zero iff its map is empty and equality is map
equality.  Coefficients are `int` or `Fraction`, never float; equal
values compare and hash alike.  A value is stored as an `int` when it is
integral (the constructions are integral almost everywhere, and int
arithmetic is several times cheaper): entry points pass their inputs
through `exact`, quotients go through `div`, and `bump` stores an
integral `Fraction` sum as its numerator.

The accumulation rule is `bump`: d[k] += v, a key whose sum vanishes is
deleted, and a later term puts it back at the end.  It fixes the values,
the key order and the value types of every result.  `bump_all` applies it
to a scaled run of terms in one call; the product kernels, `scale`,
`sparse_sum`, the eliminator, PBW straightening and the Lie bracket loops
accumulate through it, and no result needs a pass of its own to make its
values ints.  `bump_outer` applies it to the two-slot products
m c1 c2 [(k1, k2)] of two runs of terms, a coefficient in H (x) H as a
product of two PBW expansions: the arity-2 `TensorElt` product, the left
composition of `pseudo` and the rank-one rows of the central solvers
accumulate through it.  `bump_terms` does the same for the keys
(k1, g, k2) of a term of H^{(x) n} (x)_H M, slots, generator and module
multi-index: `QElt.canonicalize` sums its antipode and module legs through
it.  No module but this one writes the rule out.

Products of elements multiply scaled integers in `scaled_product`;
`QElt.canonicalize` and `pseudo._compose` clear by hand with `cleared` and
`divided`.  The Hopf kernels of `pbw` (the `HElt` product and antipode,
the arity-2 `TensorElt` product, `fourier`) clear too, but in the monomial
basis x^I = I! d^(I): they read the integral monomial tables, and each
output coefficient is divided once, by `div`.  The arity-2 product, which
serves Delta(x) Delta(y), runs `bump_outer` over the two slot products.

`SparseEliminator` keeps its stored rows mutually reduced: each holds its
own pivot column, with coefficient 1, and no other.  Subtracting one from
an input row therefore leaves the row's other pivot entries as they were,
so `reduce` clears every pivot column in one pass, one subtraction each.
A stored row `{col: 1}` (an unknown forced to zero, most of the pivots of
a central window) needs no subtraction: `reduce` drops its column while it
drops the zero entries, which is all the subtraction would do.  `zeros`
shows that set to the central solvers, which then build no entry for
those unknowns.  The stored rows are the reduced row echelon form under
`_colkey`, and `kernel` reads the basis off them: it depends on the span
alone, not on the order the rows came in.  A rewrite stores an integral
value as an `int` through `bump_all`, as `div` does for a new row, so
`kernel` hands out the stored values as they are.
"""

from collections import defaultdict
from fractions import Fraction
from math import lcm


def exact(v):
    """v as an exact coefficient: an int when integral, else a Fraction."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def div(a, b):
    """Exact quotient a / b of two coefficients, an int when integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return exact(Fraction(a) / b)


def cleared(c):
    """(D, items): c's values over their least common denominator D.

    `items` are the pairs (k, D v), all `int`; D is 1, and `items` is
    `c.items()` itself, when every value already is an `int`.
    """
    dens = [v.denominator for v in c.values() if type(v) is not int]
    if not dens:
        return 1, c.items()
    D = lcm(*dens)
    return D, [(k, v * D if type(v) is int else v.numerator * (D // v.denominator))
               for k, v in c.items()]


def divided(d, D):
    """The map {k: d[k] / D}, exact through `div`; d itself when D is 1."""
    if D == 1:
        return d
    return {k: div(v, D) for k, v in d.items()}


def scaled_product(a, b, terms):
    """Sum of a[ka] b[kb] c [k] over the terms (k, c) of terms(ka, kb), the
    keys of `a` in the outer loop and those of `b` in the inner one.

    `cleared` scales each operand to integers by the lcm D of its
    denominators, and `divided` calls `div` once per output coefficient.  D
    is one positive constant per output, so every partial sum vanishes at
    exactly the step it vanished unscaled: the result has the values and
    the key order of the unscaled loop.  Term values (PBW products,
    brackets) are not cleared; a `Fraction` one stays exact.
    """
    Da, A = cleared(a)
    Db, B = cleared(b)
    out = {}
    for ka, va in A:
        for kb, vb in B:
            bump_all(out, va * vb, terms(ka, kb))
    return divided(out, Da * Db)


def bump(d, key, v):
    """d[key] += v, dropping the key when the sum vanishes and storing an
    integral `Fraction` sum as its `int`; other values are stored as given."""
    s = d.get(key)
    if s is not None:
        v = s + v
    if v:
        d[key] = v.numerator if type(v) is Fraction and v.denominator == 1 else v
    elif s is not None:
        del d[key]


def bump_all(d, m, terms):
    """d[k] += m c for each term (k, c), by the `bump` rule.

    The same as `bump(d, k, m * c)` term by term, in values, key order and
    value types, with no call per term.
    """
    for k, c in terms:
        v = m * c
        s = d.get(k)
        if s is not None:
            v = s + v
        if v:
            d[k] = v.numerator if type(v) is Fraction and v.denominator == 1 else v
        elif s is not None:
            del d[k]


def bump_outer(d, m, t1, t2):
    """d[(k1, k2)] += m c1 c2 for each term (k1, c1) of t1 and (k2, c2) of
    t2, t1 in the outer loop, by the `bump` rule.

    The same as `bump(d, (k1, k2), m * c1 * c2)` term by term, in values,
    key order and value types, with no call per term.  t2 is read once per
    term of t1, so it must be re-iterable.
    """
    for k1, c1 in t1:
        v1 = m * c1
        for k2, c2 in t2:
            k = (k1, k2)
            v = v1 * c2
            s = d.get(k)
            if s is not None:
                v = s + v
            if v:
                d[k] = v.numerator if type(v) is Fraction and v.denominator == 1 else v
            elif s is not None:
                del d[k]


def bump_terms(d, m, t1, g, t2):
    """d[(k1, g, k2)] += m c1 c2 for each term (k1, c1) of t1 and (k2, c2)
    of t2, t1 in the outer loop, by the `bump` rule.

    The key shape of a term of H^{(x) n} (x)_H M: slots k1, generator g,
    module multi-index k2.  The same as `bump(d, (k1, g, k2), m * c1 * c2)`
    term by term, in values, key order and value types, with no call per
    term.  t2 is read once per term of t1, so it must be re-iterable.
    """
    for k1, c1 in t1:
        v1 = m * c1
        for k2, c2 in t2:
            k = (k1, g, k2)
            v = v1 * c2
            s = d.get(k)
            if s is not None:
                v = s + v
            if v:
                d[k] = v.numerator if type(v) is Fraction and v.denominator == 1 else v
            elif s is not None:
                del d[k]


class SparseCombination:
    """Finite combination sum c_k [k], stored as the coefficient map `c`.

    A subclass names in `_space` the attributes that fix where its
    elements live (algebra, arity, module, cutoff); sums, negatives and
    multiples share them, and a sum of two elements of different spaces
    raises ValueError.  It may refine `_same_space`, refine `_bump` with
    an admission rule, and refine `_sum`, which serves both + and -.
    """

    __slots__ = ()
    _space = ()

    def _with(self, c):
        """Element of the same space with coefficient map c."""
        out = object.__new__(type(self))
        for name in self._space:
            setattr(out, name, getattr(self, name))
        out.c = c
        return out

    def _same_space(self, other):
        return all(getattr(self, n) == getattr(other, n) for n in self._space)

    def _bump(self, key, v):
        bump(self.c, key, v)

    def __bool__(self):
        return bool(self.c)

    def _sum(self, other, m):
        """self + m other, m = 1 or -1: other's terms bumped into a copy of
        self, so a difference builds no negated copy of other."""
        if not (isinstance(other, type(self)) and self._same_space(other)):
            raise ValueError("%s sum across different spaces" % type(self).__name__)
        c = dict(self.c)
        bump_all(c, m, other.c.items())
        return self._with(c)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self._with({k: -v for k, v in self.c.items()})

    def scale(self, k):
        k = exact(k)
        c = {}
        if k:
            bump_all(c, k, self.c.items())
        return self._with(c)

    def __rmul__(self, k):
        return self.scale(k)

    def __eq__(self, other):
        return (isinstance(other, type(self)) and self._same_space(other)
                and self.c == other.c)

    __hash__ = None


def sparse_sum(terms):
    """Sum of (key, value) terms as a sparse vector, by the `bump` rule."""
    out = {}
    bump_all(out, 1, terms)
    return out


class SparseEliminator:
    """Incremental row reduction of sparse rational vectors.

    Rows are fed one at a time; each is reduced against the pivots seen so
    far and, if anything survives, normalized (divided by its pivot entry)
    and stored under its pivot column.  `reduce` alone gives
    span-membership tests.  `_holders[c]` lists every pivot column whose
    stored row held c at some point, so it covers the rows holding c now.

    Invariant: the stored rows are mutually reduced, so a stored row holds
    its own pivot column, with coefficient 1, and no other pivot column.
    `add` keeps it by subtracting the new row from every row holding its
    pivot; `reduce` relies on it to clear each pivot column in one pass.

    `_zeros` is the set of pivot columns whose stored row is the unit row
    `{col: 1}`.  A unit row stays a unit row: `add` rewrites only the rows
    that hold its new pivot column, and a unit row holds only its own,
    which is a pivot already.  `_store` therefore adds to `_zeros` and
    never removes from it, for new rows and rewritten ones alike.  The
    `zeros` property hands out the set itself, live: a row builder may
    leave out every entry of a column in it, because that entry is the
    first thing `reduce` drops.
    """

    def __init__(self):
        self.pivots = {}  # pivot column -> normalized row
        self._holders = defaultdict(set)  # column -> pivot columns
        self._zeros = set()  # pivot columns whose row is {col: 1}

    def _store(self, pcol, row):
        self.pivots[pcol] = row
        if len(row) == 1:
            self._zeros.add(pcol)
        for c in row:
            self._holders[c].add(pcol)

    def reduce(self, row):
        """Eliminate every pivot column from the row before choosing its own.

        Zero entries of the input are dropped, so none can become a pivot,
        and so are the columns in `_zeros`: subtracting a unit row only
        deletes its column, deleting a key moves no other, and no stored
        row holds another pivot column, so no later subtraction brings it
        back.  By the invariant each other pivot column the input holds is
        cleared by one subtraction of its stored row, scaled by the input's
        own coefficient, and no pass needs a rescan.  The subtractions run
        in place through `bump_all`, so the result has the values and the
        key order of adding scaled copies of stored rows, one copy at a
        time, until no pivot is left.
        """
        pivots, zeros = self.pivots, self._zeros
        row = {c: v for c, v in row.items() if v and c not in zeros}
        for col, a in [(c, v) for c, v in row.items() if c in pivots]:
            bump_all(row, -a, pivots[col].items())
        if not row:
            return row, None
        return row, self._pick(row)

    def _pick(self, row):
        # deterministic pivot choice keeps runs reproducible
        return min(row, key=_colkey)

    def add(self, row):
        """Insert a row; returns True if it enlarged the span."""
        red, col = self.reduce(row)
        if not red:
            return False
        p = red[col]
        new = {c: div(v, p) for c, v in red.items()}
        # keep stored rows mutually reduced: only rows that held col can hold
        # it; each gets a new map, prow - prow[col] new
        for pcol in self._holders.pop(col, ()):
            prow = self.pivots[pcol]
            if col in prow:
                out = dict(prow)
                bump_all(out, -prow[col], new.items())
                self._store(pcol, out)
        self._store(col, new)
        return True

    @property
    def zeros(self):
        """The unknowns forced to zero so far: the pivot columns whose stored
        row is the unit row `{col: 1}`.  The live set, which only grows as
        rows are added; callers read it and never change it."""
        return self._zeros

    def kernel(self, columns):
        """Basis of the solution space of the rows added so far in the given
        unknowns, which include every column a row holds: one vector per free
        column, in the order of `columns`, the free column with coefficient 1
        and then, also in that order, the pivot unknowns whose stored rows
        hold it, each value its stored entry negated.  The stored rows are
        the unique reduced row echelon form, so keys, order and value types
        follow from the span alone.  A free column is never popped from
        `_holders`; an entry there whose row has since lost it is skipped."""
        pivots, holders = self.pivots, self._holders
        place = {c: i for i, c in enumerate(columns)}
        basis = []
        for fc in columns:
            if fc in pivots:
                continue
            sol = {fc: 1}
            for pcol in sorted((p for p in holders.get(fc, ()) if fc in pivots[p]),
                               key=place.__getitem__):
                sol[pcol] = -pivots[pcol][fc]
            basis.append(sol)
        return basis

    @property
    def rank(self):
        return len(self.pivots)

    def contains(self, row):
        red, _ = self.reduce(row)
        return not red


def _colkey(c):
    return (repr(type(c)), repr(c))


def nullspace(rows, columns):
    """Basis of the solution space of `rows` (homogeneous) in the given unknowns.

    `rows` is an iterable of sparse vectors keyed by elements of `columns`.
    Returns a list of sparse vectors spanning the kernel: every row is
    added to one `SparseEliminator`, whose `kernel` reads the basis.
    """
    elim = SparseEliminator()
    for r in rows:
        elim.add(r)
    return elim.kernel(columns)


def invert_matrix(mat):
    """Inverse of a dense square rational matrix (list of lists).

    Raises ValueError on a singular input; callers rely on the loud
    failure rather than a silent pseudo-inverse.  The rows [A | I] are
    reduced with A's columns (0, j) ahead of I's (1, j): A is singular iff
    some pivot lands on an identity column, and otherwise pivot row (0, i)
    reads (e_i | row i of the inverse).  Entries are returned as Fractions.
    """
    n = len(mat)
    elim = SparseEliminator()
    for i, row in enumerate(mat):
        elim.add({**{(0, j): exact(x) for j, x in enumerate(row) if x}, (1, i): 1})
    if any(side for side, _ in elim.pivots):
        raise ValueError("singular matrix")
    return [[Fraction(elim.pivots[(0, i)].get((1, j), 0)) for j in range(n)] for i in range(n)]
