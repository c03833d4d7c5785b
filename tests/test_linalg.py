"""The exact-value helpers, the eliminator on explicit zeros, and the value
types the kernel hands back: int or Fraction, never float, never bool."""

import random
from fractions import Fraction as Fr
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import complement, span_dim
from pseudoalg import liealg
from pseudoalg.annihilation import TruncatedSeries
from pseudoalg.cohomology import (sd_central_suite, solve_central_extensions,
                                  solve_central_extensions_rank1)
from pseudoalg.constructions import (Rank1Datum, make_current, make_rank1, make_sd,
                                     make_wd, named_rank1_datum, wd_element)
from pseudoalg.liealg import Form, GeometricDatum, validate_geometric_datum
from pseudoalg.linalg import (SparseEliminator, bump, bump_all, bump_outer, bump_terms,
                              div, exact, invert_matrix, nullspace, scaled_product,
                              sparse_sum)
from pseudoalg.pbw import HElt, antipode_basis, mi_splits, mul_basis, multiindices_up_to
from pseudoalg.poisson import PoissonBracketSpec, pseudo_to_poisson
from pseudoalg.pseudo import PseudoStructure
from pseudoalg.tensor import FreeModule, QElt


def _assert_exact(values, what):
    for v in values:
        assert type(v) in (int, Fr), "%s: %r is a %s" % (what, v, type(v).__name__)


def test_exact_keeps_integral_values_int():
    for v, want in ((3, 3), (Fr(6, 3), 2), (Fr(1, 2), Fr(1, 2)), (True, 1),
                    ("-4/2", -2), ("1/3", Fr(1, 3)), (0.5, Fr(1, 2))):
        got = exact(v)
        assert got == want and type(got) is type(want), v


def test_div_is_exact():
    for a, b, want in ((6, 3, 2), (1, 2, Fr(1, 2)), (-3, 6, Fr(-1, 2)), (Fr(3, 2), Fr(1, 2), 3),
                       (Fr(1, 3), 2, Fr(1, 6)), (4, Fr(2, 3), 6), (0, 5, 0)):
        got = div(a, b)
        assert got == want and type(got) is type(want), (a, b)
    with pytest.raises(ZeroDivisionError):
        div(1, 0)


# -- the accumulation kernel against the one-term rule ----------------------------

# raw values as terms carry them: explicit zeros, ints, and Fractions that may
# be integral (Fraction(2, 1) stays a Fraction through both rules)
RAW_VALUES = st.one_of(st.integers(-3, 3), st.builds(Fr, st.integers(-4, 4), st.integers(1, 4)))
BUMP_KEYS = st.sampled_from(["x", "y", "z", 0, (0, 1)])


@st.composite
def bump_all_inputs(draw):
    """(d, m, terms): a stored map (no zeros), a scale, which may be 0, and a
    run of terms over few keys, so keys repeat.  Often a term cancels a key's
    running sum (a stored key, or a pair c, -c on a new one) and a later term
    brings the key back."""
    d = draw(st.dictionaries(BUMP_KEYS, RAW_VALUES.filter(bool), max_size=3))
    m = draw(RAW_VALUES)
    terms = draw(st.lists(st.tuples(BUMP_KEYS, RAW_VALUES), max_size=6))
    if m and draw(st.booleans()):
        i = draw(st.integers(0, len(terms)))
        k = draw(BUMP_KEYS)
        s = d.get(k, 0) + sum(m * c for kk, c in terms[:i] if kk == k)
        c = draw(RAW_VALUES.filter(bool))
        cancel = [(k, div(-s, m))] if s else [(k, c), (k, -c)]
        terms[i:i] = cancel
        j = draw(st.integers(i + len(cancel), len(terms)))
        terms.insert(j, (k, draw(RAW_VALUES.filter(bool))))
    return d, m, terms


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(bump_all_inputs())
@example(({"x": 1, "y": Fr(1, 2)}, 2, [("x", Fr(-1, 2)), ("z", 0), ("x", 3), ("y", 1)]))
@example(({"x": 1}, 0, [("x", Fr(3, 2)), ("y", 5)]))
def test_bump_all_is_the_one_term_loop(inputs):
    """`bump_all(d, m, terms)` is `bump(d, k, m * c)` term by term: the same
    values, the same key order (a cancelled key comes back at the end) and
    the same int/Fraction types, from a one-shot iterator of terms."""
    d, m, terms = inputs
    want = dict(d)
    for k, c in terms:
        bump(want, k, m * c)
    got = dict(d)
    bump_all(got, m, iter(terms))
    assert list(got.items()) == list(want.items())
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


SLOT_KEYS = st.sampled_from(["x", "y", 0])


@st.composite
def bump_outer_inputs(draw):
    """(d, m, t1, t2): a non-empty stored map over pairs of slot keys, a
    scale, which may be 0, and two short runs of terms.  Often t1 repeats a
    key with the negated value, which cancels every pair it reached (or
    brings it back to its stored value), and a later term on that key puts
    the cancelled pairs back at the end."""
    d = draw(st.dictionaries(st.tuples(SLOT_KEYS, SLOT_KEYS), RAW_VALUES.filter(bool),
                             min_size=1, max_size=4))
    m = draw(RAW_VALUES)
    t1 = draw(st.lists(st.tuples(SLOT_KEYS, RAW_VALUES), max_size=3))
    t2 = draw(st.lists(st.tuples(SLOT_KEYS, RAW_VALUES), max_size=3))
    if t1 and draw(st.booleans()):
        k, c = t1[draw(st.integers(0, len(t1) - 1))]
        t1 += [(k, -c), (k, draw(RAW_VALUES.filter(bool)))]
    return d, m, t1, t2


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(bump_outer_inputs())
@example(({("x", 0): 2, ("y", 0): 1}, 2, [("x", 1), ("x", Fr(-1, 2))], [(0, -1), (1, 3)]))
def test_bump_outer_is_the_one_term_loop(inputs):
    """`bump_outer(d, m, t1, t2)` is `bump(d, (k1, k2), m * c1 * c2)` over t1
    in the outer loop and t2 in the inner one, and `bump_terms(d, m, t1, g,
    t2)` the same with the key (k1, g, k2): the same values, key order and
    int/Fraction types."""
    d, m, t1, t2 = inputs
    for g, key in ((None, lambda k1, k2: (k1, k2)), ("g", lambda k1, k2: (k1, "g", k2))):
        start = {key(*k): v for k, v in d.items()}
        want = dict(start)
        for k1, c1 in t1:
            for k2, c2 in t2:
                bump(want, key(k1, k2), m * c1 * c2)
        got = dict(start)
        if g is None:
            bump_outer(got, m, iter(t1), t2)
        else:
            bump_terms(got, m, iter(t1), g, t2)
        assert list(got.items()) == list(want.items())
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


def test_sparse_sum_follows_bump():
    """A key whose partial sum passes through zero comes back at the end, and
    an integral Fraction sum is stored as its int."""
    got = sparse_sum([("a", 1), ("b", Fr(1, 2)), ("a", -1), ("b", Fr(3, 2)), ("a", Fr(3, 2))])
    assert list(got.items()) == [("b", 2), ("a", Fr(3, 2))]
    assert type(got["b"]) is int


SL2 = liealg.sl2()
SL2_MODULE = FreeModule(SL2, ["m", "n"])


@st.composite
def differences(draw):
    """x, y of one space: HElts, arity-2 QElts (canonical or not) or
    truncated series of two cutoffs.  y often repeats some of x's keys with
    x's values, which cancel."""
    kind = draw(st.sampled_from(("helt", "qelt", "series")))
    mis = multiindices_up_to(SL2.dim, 2)
    keys = st.sampled_from(mis)
    if kind == "qelt":
        keys = st.tuples(st.tuples(keys, keys), st.sampled_from(SL2_MODULE.gens), keys)
    maps = [draw(st.dictionaries(keys, RAW_VALUES, max_size=5)) for _ in range(2)]
    if maps[0]:
        shared = draw(st.lists(st.sampled_from(sorted(maps[0], key=repr)), unique=True))
        maps[1].update({k: maps[0][k] for k in shared})
    if kind == "helt":
        return [HElt(SL2, c) for c in maps]
    if kind == "qelt":
        return [QElt(SL2_MODULE, 2, c, canonical=draw(st.booleans())) for c in maps]
    cutoffs = [draw(st.integers(1, 2)) for _ in maps]
    return [TruncatedSeries(SL2, cut, {I: v for I, v in c.items() if sum(I) <= cut})
            for cut, c in zip(cutoffs, maps)]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(differences())
def test_difference_is_a_sum_with_a_negated_copy(pair):
    """x - y bumps y's terms into a copy of x; it is x + (-y) as the negated
    copy gave it: the same values, key order and int/Fraction types, the
    QElt canonical flag of both operands and the smaller cutoff of two
    truncated series, whose terms above it drop."""
    x, y = pair
    series = isinstance(x, TruncatedSeries)
    cut = min(x.cutoff, y.cutoff) if series else None
    want = {}
    for z in (x, -y):
        for k, v in z.c.items():
            if not series or sum(k) <= cut:
                bump(want, k, v)
    got = x - y
    assert [(k, type(v), v) for k, v in got.c.items()] == [
        (k, type(v), v) for k, v in want.items()]
    if isinstance(x, QElt):
        assert got.canonical == (x.canonical and y.canonical)
    if series:
        assert got.cutoff == cut


# -- the scaled product kernel against the unscaled loop -------------------------

def unscaled_product(a, b, terms):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            for k, c in terms(ka, kb):
                bump(out, k, va * vb * c)
    return out


# exact values, as the package stores them: integral ones are ints
VALUES = st.one_of(st.integers(-3, 3),
                   st.builds(Fr, st.integers(-4, 4), st.sampled_from((2, 3, 4, 6))).map(exact))


@st.composite
def kernel_inputs(draw):
    """(a, b, table): two coefficient maps and a product table on their keys,
    with few output keys.  `a` often holds a negated copy ("-", k) of one of
    its terms, whose table rows are those of k, so that partial sums return
    to zero and later terms bring the key back."""
    a = draw(st.dictionaries(st.integers(0, 2), VALUES, min_size=1, max_size=3))
    b = draw(st.dictionaries(st.integers(0, 2), VALUES, min_size=1, max_size=3))
    rows = st.lists(st.tuples(st.sampled_from("xyz"), VALUES), max_size=3)
    table = {(ka, kb): draw(rows) for ka in range(3) for kb in range(3)}
    if draw(st.booleans()):
        items = list(a.items())
        k, v = items[draw(st.integers(0, len(items) - 1))]
        items.insert(draw(st.integers(0, len(items))), (("-", k), -v))
        a = dict(items)
    return a, b, table


def _cancelling_inputs():
    """x and y are bumped by 1/2 * 2 * (1, 5), dropped by the negated copy,
    and brought back by 1/3 * 2 * (1, 3/2): y first now, then x = 1."""
    return ({0: Fr(1, 2), ("-", 0): Fr(-1, 2), 1: Fr(1, 3)}, {0: 2},
            {**{(ka, kb): [] for ka in range(3) for kb in range(3)},
             (0, 0): [("x", 1), ("y", 5)], (1, 0): [("y", 1), ("x", Fr(3, 2))]})


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(kernel_inputs())
@example(_cancelling_inputs())
def test_scaled_kernels_match_the_unscaled_loop(inputs):
    """Same values in the same key order, and integral values as ints."""
    a, b, table = inputs

    def terms(ka, kb):
        return table[ka[1] if isinstance(ka, tuple) else ka, kb]
    new, old = scaled_product(a, b, terms), unscaled_product(a, b, terms)
    assert new == old
    assert list(new.items()) == list(old.items())
    assert all(type(v) is int for v in new.values() if v.denominator == 1), new


def test_nullspace_drops_explicit_zero_entries():
    assert nullspace([{0: Fr(0), 1: Fr(1)}], [0, 1]) == [{0: 1}]


def test_nullspace_on_mixed_rows_is_exact():
    rows = [{0: 2, 1: Fr(1, 3), 2: 0}, {1: Fr(3, 2), 2: 4, 3: Fr(6, 2)}, {0: True, 3: 1}]
    kernel = nullspace(rows, range(4))
    assert kernel
    for v in kernel:
        _assert_exact(v.values(), "nullspace")
        assert all(sum(c * v.get(k, 0) for k, c in row.items()) == 0 for row in rows)


def _integral_fractions(elim):
    """The integral values the stored rows of an eliminator hold as Fractions."""
    return [(pcol, c, v) for pcol, row in elim.pivots.items() for c, v in row.items()
            if type(v) is not int and v.denominator == 1]


@pytest.mark.parametrize("rows", [[{0: 2, 1: 1, 2: 1}, {1: 1, 2: 3}],
                                  [{1: 1, 2: 3}, {0: 2, 1: 1, 2: 1}]],
                         ids=["rewrite", "reduce"])
def test_stored_rows_keep_integral_values_int(rows):
    # fed in this order, the rewrite of the first stored row by the second
    # once left {0: 1, 2: Fraction(-1, 1)}; fed the other way, the reduced
    # input stores {0: 1, 2: -1}
    elim = SparseEliminator()
    for row in rows:
        elim.add(row)
    assert repr(elim.pivots) == "{0: {0: 1, 2: -1}, 1: {1: 1, 2: 3}}" or \
        repr(elim.pivots) == "{1: {1: 1, 2: 3}, 0: {0: 1, 2: -1}}"
    assert not _integral_fractions(elim)


def test_pbw_tables_are_exact(catalog_algebra):
    monos = multiindices_up_to(catalog_algebra.dim, 3)
    for I, J in product(monos, repeat=2):
        _assert_exact(mul_basis(catalog_algebra, I, J).values(), "mul_basis")
    for I in monos:
        _assert_exact(antipode_basis(catalog_algebra, I).values(), "antipode_basis")


def test_x_element_is_exact():
    for name in ("solv2", "abelian2", "heisenberg", "sl2"):
        _assert_exact(named_rank1_datum(name).x_element().values(), name)
    # r^{12} = -r^{21} = 1/3 over sl2 (e, f, h): x = (1/2)(1/3 [e, f] - 1/3 [f, e]) = h/3
    datum = Rank1Datum(liealg.sl2(), [[0, Fr(1, 3), 0], [Fr(-1, 3), 0, 0], [0, 0, 0]], (0, 0, 0))
    x = datum.x_element()
    assert x == {2: Fr(1, 3)}
    _assert_exact(x.values(), "x_element")


def test_quotient_sites_divide_exactly():
    """Thirds that an int / int would round to binary floats come out as
    Fractions wherever the package divides."""
    line, heis = liealg.abelian(1), liealg.heisenberg3()
    for alg, s in ((line, (Fr(-1, 3),)), (heis, (0, 0, Fr(-1, 3)))):
        theta = Form(alg, 1, {(alg.dim - 1,): 3})
        rep = validate_geometric_datum(alg, GeometricDatum("K", theta=theta))
        assert rep.data["s"] == s
        _assert_exact(rep.data["s"], "contact s")
    # d^(3,0) (x) d_2 - 1/3 d^(2,1) (x) d_1 is (1/3) d^(2,0) e_12
    S = make_sd(liealg.abelian(2))
    w = wd_element(S.ambient, [((3, 0), 1, 1), ((2, 1), 0, Fr(-1, 3))])
    assert S.express(w) == {(0, 1): HElt(S.alg, {(2, 0): Fr(1, 3)})}
    # the pseudo coefficient -2 of d^(3) (x) 1 is the kernel lambda^3 / 3
    mod = FreeModule(line, [0])
    P = PseudoStructure(mod, table={(0, 0): QElt(mod, 2, {(((3,), (0,)), 0, (0,)): -2})})
    spec = PoissonBracketSpec(1, 1)
    spec.add_term(0, 0, 0, (3,), (0,), Fr(1, 3))
    assert pseudo_to_poisson(P) == spec


# the central-extension windows of the benchmark with dmax <= 4
CENTRAL_WINDOWS = (
    [(s, d) for s in ("rank1:w1", "rank1:abelian2", "rank1:heisenberg", "rank1:solv2",
                      "rank1:sl2") for d in (3, 4)]
    + [(s, d) for s in ("cur:sl2", "wd:solv2", "wd:heis3", "wd:abelian3", "sd:abelian3")
       for d in (3, 4)]
    + [("sd:abelian4", 3)])


def _central_solutions(struct, dmax):
    family, _, name = struct.partition(":")
    if family == "rank1":
        datum = (Rank1Datum(liealg.abelian(1), [[0]], (1,)) if name == "w1"
                 else named_rank1_datum(name))
        P = make_rank1(datum, run_axioms=False)
        return [solve_central_extensions_rank1(P, dmax), solve_central_extensions(P, dmax)]
    alg = liealg.algebra_by_name(name)
    if family == "sd":
        return [sd_central_suite(alg, dmax)]
    if family == "cur":
        return [solve_central_extensions(make_current(liealg.abelian(1), alg), dmax)]
    return [solve_central_extensions(make_wd(alg)[0], dmax)]


@pytest.mark.parametrize("struct,dmax", CENTRAL_WINDOWS,
                         ids=["%s@%d" % w for w in CENTRAL_WINDOWS])
def test_central_solutions_are_exact(struct, dmax):
    for sol in _central_solutions(struct, dmax):
        for vec in sol.basis + sol.trivial + sol.representatives:
            _assert_exact(vec.values(), struct)


def _reference_splits(I, parts):
    from pseudoalg.pbw import compositions
    per_coord = [list(compositions(x, parts)) for x in I]
    return [tuple(tuple(c[p] for c in choice) for p in range(parts))
            for choice in product(*per_coord)]


def test_mi_splits_memoised_tuple_matches_reference():
    for I in multiindices_up_to(3, 4):
        for parts in (1, 2, 3):
            got = mi_splits(I, parts)
            assert isinstance(got, tuple) and list(got) == _reference_splits(I, parts)
            assert mi_splits(I, parts) is got


def vec_add(u, v, cv=1):
    """u + cv*v for sparse vectors, dropping zeros, one `bump` per term: the
    copy and `bump_all` that `SparseEliminator.add` runs on each stored row
    holding a new pivot column."""
    out = dict(u)
    for k, c in v.items():
        bump(out, k, cv * c)
    return out


class _ScanningEliminator:
    """`SparseEliminator` before its column index and its one-pass reduce:
    after each new pivot, `add` scans every stored row for the pivot column,
    and `reduce` subtracts with `vec_add` until no pivot column is left.
    `kernel` scans every stored row for each free column too.  A rewritten
    row is passed through `exact`, so it stores integral values as ints."""

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        row = {c: v for c, v in row.items() if v}
        while True:
            hit = [c for c in row if c in self.pivots]
            if not hit:
                break
            for col in hit:
                if col in row:
                    row = vec_add(row, self.pivots[col], -row[col])
        if not row:
            return row, None
        return row, self._pick(row)

    _pick = SparseEliminator._pick
    rank = SparseEliminator.rank

    def kernel(self, columns):
        columns = list(columns)
        basis = []
        for fc in columns:
            if fc in self.pivots:
                continue
            held = {pcol: -prow[fc] for pcol, prow in self.pivots.items() if fc in prow}
            basis.append({fc: 1, **{c: exact(held[c]) for c in columns if c in held}})
        return basis

    def add(self, row):
        red, col = self.reduce(row)
        if not red:
            return False
        p = red[col]
        self.pivots[col] = {c: div(v, p) for c, v in red.items()}
        for pcol, prow in list(self.pivots.items()):
            if pcol != col and col in prow:
                self.pivots[pcol] = {c: exact(v) for c, v in
                                     vec_add(prow, self.pivots[col], -prow[col]).items()}
        return True


def _ordered(pivots):
    # keys, values and value types, both orders included
    return repr([(k, list(row.items())) for k, row in pivots.items()])


def _assert_same_stream(rows):
    """Feed rows to both eliminators: equal reduced rows before every add,
    equal answers and pivots after it, stored rows mutually reduced, and
    `_zeros` naming exactly the pivots whose stored row is a unit row."""
    elim, ref = SparseEliminator(), _ScanningEliminator()
    for row in rows:
        assert repr(elim.reduce(row)) == repr(ref.reduce(row)), row
        got = elim.add(row)
        assert got == ref.add(row), row
        if got:
            assert _ordered(elim.pivots) == _ordered(ref.pivots), row
            for pcol, prow in elim.pivots.items():
                assert prow[pcol] == 1
                assert not any(c in elim.pivots for c in prow if c != pcol), (pcol, prow)
            assert elim._zeros == {p for p, r in elim.pivots.items() if len(r) == 1}, row


def test_reduced_entry_that_cancels_and_returns_moves_to_the_end():
    """Pivot 0 cancels the input's x and pivot 1 brings it back, behind y."""
    stream = [{0: 1, "x": 1}, {1: 1, "x": 1}, {"x": 1, 0: 1, "y": 1, 1: 1}, {"y": 1, "x": 2}]
    elim = SparseEliminator()
    for row in stream[:2]:
        elim.add(row)
    red, col = elim.reduce(stream[2])
    assert list(red.items()) == [("y", 1), ("x", -1)] and col == "x"
    _assert_same_stream(stream)


def test_unit_row_made_by_a_rewrite_is_dropped_before_the_subtractions():
    """Adding {y: 1} rewrites x's row {x: 1, y: 1} to the unit row {x: 1}.
    A row listing x before the pivot p, whose stored row brings in q, loses
    x without a subtraction and gets q from p's: the scanning eliminator,
    which subtracts both, gives the same values in the same order."""
    stream = [{"x": 1, "y": 1}, {"y": 1}, {"p": 1, "q": Fr(1, 2)}]
    elim, ref = SparseEliminator(), _ScanningEliminator()
    for row in stream:
        elim.add(row)
        ref.add(row)
    assert elim.pivots["x"] == {"x": 1} and elim._zeros == {"x", "y"}
    row = {"x": 2, "r": Fr(1, 3), "p": 3, "y": 0}
    red = elim.reduce(row)
    assert list(red[0].items()) == [("r", Fr(1, 3)), ("q", Fr(-3, 2))] and red[1] == "q"
    assert repr(red) == repr(ref.reduce(row))
    _assert_same_stream(stream + [row])


def _with_reference(monkeypatch, fn, *args):
    """fn(*args) from the indexed eliminator and from the scanning one."""
    import pseudoalg.linalg as linalg

    def run():
        try:
            return fn(*args)
        except ValueError as exc:
            return exc.args
    got = run()
    with monkeypatch.context() as m:
        m.setattr(linalg, "SparseEliminator", _ScanningEliminator)
        want = run()
    return got, want


def _random_value(rng):
    if rng.random() < 0.5:
        return rng.randint(-3, 3)
    return Fr(rng.randint(-4, 4), rng.randint(1, 4))


def test_indexed_eliminator_matches_scanning_reference(rng, monkeypatch):
    keys = [0, 1, 2, 3, 4, 5, "a", "b", "c", (0, 1), (1, 0), (2, 2), Fr(1, 2)]
    accepted = 0
    for _ in range(500):
        cols = rng.sample(keys, rng.randint(1, len(keys)))
        rows = [{c: _random_value(rng)
                 for c in rng.sample(cols, rng.randint(1, min(5, len(cols))))}
                for _ in range(rng.randint(1, 2 * len(cols)))]
        _assert_same_stream(rows)
        accepted += span_dim(rows)
        for fn, args in ((nullspace, (rows, cols)), (span_dim, (rows,)),
                         (complement, (rows, rows[::2]))):
            got, want = _with_reference(monkeypatch, fn, *args)
            assert repr(got) == repr(want), (fn.__name__, rows)
        n = rng.randint(1, 6)
        mat = [[_random_value(rng) for _ in range(n)] for _ in range(n)]
        got, want = _with_reference(monkeypatch, invert_matrix, mat)
        assert repr(got) == repr(want), mat
    assert accepted > 2000


# column keys of mixed types
STREAM_KEYS = [0, 1, 2, 3, "a", "b", (0, 1), (1, 0), Fr(1, 2)]


@st.composite
def row_streams(draw):
    """(cols, rows, mat): a stream of sparse rows over a few drawn columns,
    with explicit zeros and mixed int/Fraction values, and a small square
    matrix for `invert_matrix`."""
    cols = draw(st.lists(st.sampled_from(STREAM_KEYS), min_size=1, max_size=6, unique=True))
    row = st.dictionaries(st.sampled_from(cols), RAW_VALUES,
                          min_size=1, max_size=5)
    rows = draw(st.lists(row, min_size=1, max_size=2 * len(cols)))
    n = draw(st.integers(1, 4))
    mat = draw(st.lists(st.lists(RAW_VALUES, min_size=n, max_size=n), min_size=n, max_size=n))
    return cols, rows, mat


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(row_streams())
def test_indexed_eliminator_matches_scanning_reference_on_drawn_streams(stream):
    """The stream check and the four entry points of the seeded test above,
    over drawn row streams; `pytest.MonkeyPatch` swaps the eliminator per
    example."""
    cols, rows, mat = stream
    _assert_same_stream(rows)
    for fn, args in ((nullspace, (rows, cols)), (span_dim, (rows,)),
                     (complement, (rows, rows[::2])), (invert_matrix, (mat,))):
        got, want = _with_reference(pytest.MonkeyPatch, fn, *args)
        assert repr(got) == repr(want), (fn.__name__, args)


@pytest.mark.parametrize("struct,dmax", [("sd:abelian3", 3), ("rank1:sl2", 6), ("rank1:sl2", 8)])
def test_indexed_eliminator_matches_scanning_reference_on_central_rows(
        struct, dmax, monkeypatch):
    # both streams: the rows each solver's eliminator is fed, forced-zero
    # unknowns skipped, and every row built, as the row sources give them
    # with nothing known to be zero
    from pseudoalg.cohomology import _degree_window
    from test_cohomology import eliminated_systems, unskipped_central_rows, unskipped_rank1_rows
    with monkeypatch.context() as m:
        systems = eliminated_systems(m)
        if struct.startswith("rank1"):
            P = make_rank1(named_rank1_datum("sl2"), run_axioms=False)
            sol = solve_central_extensions_rank1(P, dmax)
            unskipped = unskipped_rank1_rows(P, _degree_window(P.alg, dmax))
        else:
            sol = sd_central_suite(liealg.abelian(3), dmax)
            P = make_sd(liealg.abelian(3)).pair_structure()
            unskipped = unskipped_central_rows(P, _degree_window(P.alg, dmax))
    systems.append((unskipped, sol.unknowns))
    assert max(len(rows) for rows, _ in systems) > 1000
    for rows, columns in systems:
        _assert_same_stream(rows)
        got, want = _with_reference(monkeypatch, nullspace, rows, columns)
        assert repr(got) == repr(want)


# -- the kernel depends on the row space alone ---------------------------------------

# central windows whose full row streams, every expansion built, are permuted
PERMUTED_WINDOWS = [("wd:heis3", 4), ("wd:sl2", 5), ("sd:abelian3", 4), ("wd:solv2", 5),
                    ("sd:abelian3:1,2,0", 3)]


@lru_cache(maxsize=None)
def _recorded_stream(spec, dmax):
    """(rows, unknowns) of a central window: the generic solver's unknowns and
    its rows with nothing known to be zero, in the order it builds them."""
    from pseudoalg.cohomology import _degree_window
    from test_cohomology import unskipped_central_rows
    family, _, rest = spec.partition(":")
    name, _, chi = rest.partition(":")
    alg = liealg.algebra_by_name(name)
    if family == "sd":
        chi = tuple(int(x) for x in chi.split(",")) if chi else None
        P = make_sd(alg, chi).pair_structure()
    else:
        P = make_wd(alg)[0]
    monos = _degree_window(P.alg, dmax)
    gens = P.module.gens
    return (tuple(unskipped_central_rows(P, monos)),
            [((p, q), I) for p in gens for q in gens for I in monos])


def _assert_kernel_ignores_row_order(rows, permuted, columns):
    """Equal kernels by repr (keys, key order, values, value types) from the
    stream and from its permutation, with no integral value a Fraction in
    the kernels or in either eliminator's stored rows."""
    elims = []
    for stream in (rows, permuted):
        elims.append(SparseEliminator())
        for row in stream:
            elims[-1].add(row)
    want, got = (elim.kernel(columns) for elim in elims)
    assert repr(got) == repr(want)
    assert not [v for vec in got for v in vec.values()
                if type(v) is not int and v.denominator == 1], got
    for elim in elims:
        assert not _integral_fractions(elim)


@pytest.mark.parametrize("window", PERMUTED_WINDOWS, ids=["%s@%d" % w for w in PERMUTED_WINDOWS])
@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@example(order="reversed")
@example(order="shortest first")
@given(order=st.integers(0, 2 ** 32 - 1))
def test_kernel_ignores_the_order_of_central_rows(window, order):
    """Reversed, shortest rows first (a stable sort), or shuffled by a drawn
    seed, the full row stream of a central window gives the same kernel."""
    rows, unknowns = _recorded_stream(*window)
    if order == "reversed":
        permuted = rows[::-1]
    elif order == "shortest first":
        permuted = sorted(rows, key=len)
    else:
        permuted = list(rows)
        random.Random(order).shuffle(permuted)
    _assert_kernel_ignores_row_order(rows, permuted, unknowns)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(row_streams(), st.data())
def test_kernel_ignores_the_order_of_drawn_rows(stream, data):
    cols, rows, _ = stream
    permuted = data.draw(st.permutations(rows))
    _assert_kernel_ignores_row_order(rows, permuted, cols)
