"""Cochain complex in low degree and central-extension solvers.

Cochains of degree 0, 1, 2 over a structure P with coefficients in a
module M; the differential follows the simplicial formula with slot
permutations matching the composition rules of the bracket.  Central
extensions by a one-dimensional counit generator are solved exactly:
either through the closed conditions available for rank-one structures,
or through the generic linear system extracted from the central component
of the Jacobi identity on generator triples.
"""

from itertools import chain, combinations_with_replacement, groupby

from .constructions import make_sd
from .linalg import SparseEliminator, bump, bump_outer, nullspace
from .pbw import (HElt, TensorElt, antipode_basis, mi_splits, mi_weight,
                  mi_zero, mul_antipode, mul_basis, multiindices_up_to)
from .pseudo import (PseudoStructure, Report, compose_left, compose_right,
                     extend_bilinear)
from .tensor import FreeModule, MElt, QElt


# -- cochains ----------------------------------------------------------------

class Cochain:
    """Degree 0, 1 or 2 cochain.

    degree 0: scalar per coefficient-module generator (the counit classes)
    degree 1: {L-generator: MElt over M}
    degree 2: {(L-gen, L-gen): QElt arity 2 over M}, skew-symmetrized

    Degree 3 exists only as the image of a degree-2 differential, for the
    complex property; no further differential is defined on it.
    """

    def __init__(self, degree, P, M, values):
        if degree not in (0, 1, 2, 3):
            raise ValueError("cochain degree must be 0 through 3")
        self.degree = degree
        self.P = P
        self.M = M
        self.values = values

    def value2(self, a_elt, b_elt):
        """H-bilinear extension of a degree-2 table to module elements."""
        return extend_bilinear(lambda ga, gb: self.values.get((ga, gb)),
                               a_elt, b_elt, self.M.module)


def differential(gamma):
    """The cochain differential into the next degree.

    Degree 0 -> 1 uses the counit contraction of the action; degrees 1
    and 2 assemble action and bracket terms with the slot permutations
    induced by the composition rules.
    """
    P, M = gamma.P, gamma.M
    if gamma.degree == 0:
        vals = {}
        for a in P.module.gens:
            acc = MElt.zero(M.module)
            for k, mg in enumerate(M.module.gens):
                coeff = gamma.values[k]
                if not coeff:
                    continue
                q = M.gen_action(a, mg)  # canonical: its second slot is d^(0)
                for (key, g, L), v in q.c.items():
                    h = HElt.monomial(M.module.alg, key[0], v * coeff)
                    acc = acc + MElt(M.module, {(L, g): 1}).h_mul(h)
            vals[a] = acc
        return Cochain(1, P, M, vals)

    if gamma.degree == 1:
        def gval(g):
            return gamma.values[g]

        vals = {}
        for a in P.module.gens:
            for b in P.module.gens:
                t1 = M.act(P.element(a), gamma.values[b])
                # sigma_12 (b gamma(a)), off the swapped table
                t2 = extend_bilinear(M.swapped_action, gamma.values[a], P.element(b),
                                     M.module)
                t3 = P.bracket(P.element(a), P.element(b)).map_module(gval, M.module)
                vals[(a, b)] = (t1 - t2 - t3).canonicalize()
        return Cochain(2, P, M, vals)

    # degree 2 -> 3, used by the complex checks
    vals = {}
    gens = P.module.gens
    for a in gens:
        for b in gens:
            for c in gens:
                ea, eb, ec = P.element(a), P.element(b), P.element(c)
                acc = compose_right(ea, gamma.value2(eb, ec), M.act, M.module)
                acc = acc - compose_right(eb, gamma.value2(ea, ec), M.act,
                                          M.module).permuted([1, 0, 2])
                acc = acc + compose_right(ec, gamma.value2(ea, eb), M.act,
                                          M.module).permuted([1, 2, 0]).canonicalize()
                acc = acc - compose_left(P.bracket(ea, eb), gamma.value2, ec, M.module)
                acc = acc + compose_left(P.bracket(ea, ec), gamma.value2, eb,
                                         M.module).permuted([0, 2, 1]).canonicalize()
                acc = acc - compose_left(P.bracket(eb, ec), gamma.value2, ea,
                                         M.module).permuted([2, 0, 1]).canonicalize()
                vals[(a, b, c)] = acc.canonicalize()
    return Cochain(3, P, M, vals)


def extension_cocycle_residual(P, Mact, Nact, gamma, a, b, n):
    """Residual of the splitting-cocycle condition for module extensions.

    gamma: {(L-gen, N-gen): QElt over M}; the condition, per L-generators
    a, b and N-generator n, is

        gamma([a b])(n) = a (gamma(b)(n)) - sigma12 gamma(b)(a n)
                          - sigma12 (b (gamma(a)(n))) + gamma(a)(b n)
    """
    gamma_ab = Cochain(2, P, Mact, gamma).value2
    ea, eb = P.element(a), P.element(b)
    en = Nact.module.element(n)
    lhs = compose_left(P.bracket(ea, eb), gamma_ab, en, Mact.module)
    r1 = compose_right(ea, gamma_ab(eb, en), Mact.act, Mact.module)
    r2 = compose_right(eb, Nact.act(ea, en), gamma_ab, Mact.module).permuted([1, 0, 2])
    r3 = compose_right(eb, gamma_ab(ea, en), Mact.act, Mact.module).permuted([1, 0, 2])
    r4 = compose_right(ea, Nact.act(eb, en), gamma_ab, Mact.module)
    return (lhs - r1 + r2 + r3 - r4).canonicalize()


# -- central extensions: shared helpers ---------------------------------------

def _degree_window(alg, dmax):
    """Monomials of weight <= dmax, the support allowed for cocycle values."""
    if dmax < 0:
        raise ValueError("dmax must be nonnegative, got %d" % dmax)
    return multiindices_up_to(alg.dim, dmax)


def trivial_cocycle_table(P, phi):
    """Cocycle of the split extension twisted by the H-linear functional phi.

    phi: {generator: scalar}.  The value on a generator pair collects the
    counit part of the bracket's module coefficient against phi.
    """
    alg = P.alg
    out = {}
    for gi in P.module.gens:
        for gj in P.module.gens:
            acc = HElt.zero(alg)
            for (key, g, L), v in P.gen_bracket(gi, gj).c.items():
                if any(L):
                    continue
                w = phi.get(g, 0)
                if w:
                    acc = acc + HElt.monomial(alg, key[0], v * w)
            out[(gi, gj)] = acc
    return out


def hat_central_extension(P, beta_table):
    """Structure on module + central counit generator z with the bracket
    shifted by (beta(a, b) (x) 1) (x)_H z."""
    alg = P.alg
    zkey = "z"
    while zkey in P.module.gens:
        zkey += "'"
    mod = FreeModule(alg, list(P.module.gens) + [zkey],
                     names={g: P.module.gen_name(g) for g in P.module.gens},
                     counit_gens=set(P.module.counit_gens) | {zkey},
                     label="hat:" + P.name)
    zero = mi_zero(alg.dim)
    table = {}
    for gi in P.module.gens:
        for gj in P.module.gens:
            q = QElt(mod, 2)
            for (key, g, L), v in P.gen_bracket(gi, gj).c.items():
                q._bump(key, g, L, v)
            beta = beta_table.get((gi, gj))
            if beta:
                for I, v in beta.c.items():
                    q._bump((I, zero), zkey, zero, v)
            table[(gi, gj)] = q
    P2 = PseudoStructure(mod, "lie", table=table, name=mod.label)
    P2.central_generator = zkey
    return P2


class CentralExtensionSolution:
    """Nullspace data of a central-extension solve.

    `basis` spans the cocycle tables, `trivial` the coboundary span,
    `representatives` a complement: the basis vectors that enlarge the
    span of `trivial` and of those before them.  `complete` is True when
    the degree window provably contains every cocycle.
    """

    def __init__(self, P, unknowns, basis, trivial, complete, dmax):
        self.P = P
        self.unknowns = unknowns
        self.basis = basis
        self.trivial = trivial
        elim = SparseEliminator()
        for v in trivial:
            elim.add(v)
        self.dim_trivial = elim.rank
        self.representatives = [v for v in basis if elim.add(v)]
        self.dim_cocycles = len(basis)  # each vector owns its free column
        self.dim = len(self.representatives)
        self.complete = complete
        self.dmax = dmax

    def beta_table_of(self, vec):
        tables = {}
        for (pair, I), v in vec.items():
            tables.setdefault(pair, {})[I] = v
        return {pair: HElt(self.P.alg, d) for pair, d in tables.items()}

    def summary(self):
        return {
            "dim_cocycles": self.dim_cocycles,
            "dim_trivial": self.dim_trivial,
            "dim_h2": self.dim,
            "complete": self.complete,
            "dmax": self.dmax,
        }


def _skew_rows(alg, gens, monos):
    """Rows of the skew link beta(q, p) = -S(beta(p, q)) for p <= q, one per
    pair and window monomial, nonempty, shortest first; S^2 = 1 on the
    window, so the link on (q, p) is the image under S of these rows."""
    rows = {}
    for p, q in combinations_with_replacement(gens, 2):
        for I in monos:
            bump(rows.setdefault((p, q, I), {}), ((q, p), I), 1)
            for K, v in antipode_basis(alg, I).items():
                bump(rows.setdefault((p, q, K), {}), ((p, q), I), v)
    return sorted(filter(None, rows.values()), key=len)


# -- rank-one solver ----------------------------------------------------------

def _rank1_rows(alg, datum, gen, monos, zeros):
    """The rows of the second rank-one condition, as (tensor key, row): for
    each window monomial I whose unknown u = ((gen, gen), I) is not in
    `zeros`, the coefficients at u of

        alpha Delta(beta) - (beta (x) 1 + 1 (x) beta) alpha
            - beta (x) t + t (x) beta,    t = 3s - x,  beta = d^(I),

    read straight off the PBW tables, with no element built.  For a term
    a d^(A1) (x) d^(A2) of alpha, a split (J1, J2) of I gives
    a d^(A1) d^(J1) (x) d^(A2) d^(J2), whose factors are looked up once per
    call, since J1 and J2 are parts of many I; the products with beta give
    d^(I) d^(A1) (x) d^(A2) and d^(A1) (x) d^(I) d^(A2).  The entries of
    one unknown are summed by `bump` and `bump_outer` before they reach
    their rows, so no row holds a zero, and an integral value is an `int`.
    `zeros` is read as in `_central_jacobi_rows`; an empty set builds
    every row.  As d^(A) d^(J) has weight at most |A| + |J|, an unknown of
    weight m reaches no key of weight above m + D, D the largest |A1| + |A2|
    over alpha and at least 1, for t.  So the unknowns are built one weight
    of `monos` (in weight order) at a time, from the top; once weight m is,
    the rows of key weight m + D are complete and handed out shortest first,
    each unless `zeros` has come to hold all its unknowns since.
    """
    alpha = list(datum.alpha().c.items())
    # A -> J -> terms of d^(A) d^(J), for the legs A of alpha
    tables = {A: {} for key, _ in alpha for A in key}
    t = (HElt.from_vector(alg, {i: 3 * datum.s[i] for i in range(alg.dim)})
         - HElt.from_vector(alg, datum.x_element())).c.items()
    D = max([1] + [mi_weight(A1) + mi_weight(A2) for (A1, A2), _ in alpha])
    rows, due = {}, {}  # key -> row; key weight -> [(key, row)]
    for m, level in groupby(reversed(monos), mi_weight):
        for I in level:
            u = ((gen, gen), I)
            if u in zeros:
                continue
            lhs = {}
            splits = mi_splits(I, 2)
            for (A1, A2), a in alpha:
                lt, rt = tables[A1], tables[A2]
                for J1, J2 in splits:
                    t1 = lt.get(J1)
                    if t1 is None:
                        t1 = lt[J1] = mul_basis(alg, A1, J1).items()
                    t2 = rt.get(J2)
                    if t2 is None:
                        t2 = rt[J2] = mul_basis(alg, A2, J2).items()
                    bump_outer(lhs, a, t1, t2)
                for K1, c1 in mul_basis(alg, I, A1).items():
                    bump(lhs, (K1, A2), -a * c1)
                for K2, c2 in mul_basis(alg, I, A2).items():
                    bump(lhs, (A1, K2), -a * c2)
            for T, v in t:
                bump(lhs, (I, T), -v)
                bump(lhs, (T, I), v)
            for key, v in lhs.items():
                if (row := rows.get(key)) is None:
                    row = rows[key] = {}
                    due.setdefault(sum(key[0]) + sum(key[1]), []).append((key, row))
                row[u] = v
        # weight 0 is the last: every row left is complete
        batch = due.pop(m + D, ()) if m else chain(*due.values())
        for kr in sorted(batch, key=lambda kr: len(kr[1])):
            if not zeros.issuperset(kr[1]):
                yield kr


def solve_central_extensions_rank1(P, dmax=4):
    """Closed-form conditions for a free rank-one structure.

    With [e e] = alpha (x)_H e, alpha = r + s(x)1 - 1(x)s, a shift
    beta in H defines an extension iff

        beta + S(beta) = 0
        alpha split(beta) = (beta(x)1 + 1(x)beta) alpha
                            + beta (x) (3s - x) - (3s - x) (x) beta

    with x the half-contraction of r against the bracket.  When r is
    nonzero every solution has degree one, so any window with dmax >= 1
    is complete; otherwise completeness holds up to the stated degree.

    The skew rows go first, shortest first, and force many unknowns to
    zero.  `_rank1_rows` then builds the second condition from the top
    weight down for the free unknowns, each row fed once complete, so what
    it forces is skipped below; `kernel` reads the basis off the reduced
    row echelon form, which the span alone fixes.
    """
    datum = getattr(P, "datum", None)
    if datum is None or P.module.rank != 1:
        raise ValueError("rank-one solver needs a structure built from a datum")
    alg = P.alg
    gen = P.module.gens[0]
    two_sx = HElt.from_vector(alg, {i: 2 * datum.s[i] for i in range(alg.dim)}) \
        - HElt.from_vector(alg, datum.x_element())

    monos = _degree_window(alg, dmax)
    unknowns = [((gen, gen), I) for I in monos]
    elim = SparseEliminator()
    for row in _skew_rows(alg, [gen], monos):
        elim.add(row)
    for _, row in _rank1_rows(alg, datum, gen, monos, elim.zeros):
        elim.add(row)

    basis = elim.kernel(unknowns)
    trivial = []
    if two_sx:
        vec = {((gen, gen), I): v for I, v in two_sx.c.items() if mi_weight(I) <= dmax}
        trivial.append(vec)
    r_nonzero = any(any(row) for row in datum.r)
    return CentralExtensionSolution(P, unknowns, basis, trivial,
                                    complete=(r_nonzero and dmax >= 1), dmax=dmax)


# -- generic solver -----------------------------------------------------------

def _central_jacobi_rows(P, monos, zeros):
    """Rows of the central Jacobi residual, one generator triple at a time.

    For canonical brackets sum (d^F (x) 1) (x)_H d^L e_g, the central part
    of the Jacobi identity on (a, b, c) collects

        right:  beta(a, e_g) S(d^L) (x) d^F (x) 1   over terms of [b c]
        middle: slots 1,2 swapped, over terms of [a c] with beta(b, .)
        left:   split of d^L beta(e_g, c) against d^F, over [a b]

    and the residual right - middle - left must vanish.  Only triples
    a <= b <= c in generator order are visited: once the skew link holds
    the extended bracket is skew-commutative, and then the Jacobi identity
    on one order of a triple gives it on every other.  The rows of a triple
    are built only after those of the previous one were consumed, and are
    handed out shortest first: short rows fix pivots before the long rows
    arrive, so the eliminator's stored rows fill in less (Markowitz's rule).

    No expansion (bracket term, monomial I) is built whose unknown lies in
    `zeros`, the live set of unknowns the consuming eliminator has already
    forced to zero (`SparseEliminator.zeros`); an empty set builds every
    row.
    """
    alg = P.alg
    splits = {}    # (F, L, I) -> d^(L) d^(I) split, first leg times d^(F)

    def split_against(F, L, I):
        out = splits.get((F, L, I))
        if out is None:
            out = splits[(F, L, I)] = {}
            for K, cv in mul_basis(alg, L, I).items():
                for K1, K2 in mi_splits(K, 2):
                    for F1, cf in mul_basis(alg, F, K1).items():
                        bump(out, (F1, K2), cv * cf)
        return out

    for a, b, c in combinations_with_replacement(P.module.gens, 3):
        rows = {}
        for (key, g, L), v in P.gen_bracket(b, c).c.items():
            for I in monos:
                u = ((a, g), I)
                if u in zeros:
                    continue
                for K, cv in mul_antipode(alg, I, L).items():
                    bump(rows.setdefault((K, key[0]), {}), u, v * cv)
        for (key, g, L), v in P.gen_bracket(a, c).c.items():
            for I in monos:
                u = ((b, g), I)
                if u in zeros:
                    continue
                for K, cv in mul_antipode(alg, I, L).items():
                    bump(rows.setdefault((key[0], K), {}), u, -v * cv)
        for (key, g, L), v in P.gen_bracket(a, b).c.items():
            for I in monos:
                u = ((g, c), I)
                if u in zeros:
                    continue
                for tkey, cs in split_against(key[0], L, I).items():
                    bump(rows.setdefault(tkey, {}), u, -v * cs)
        yield from sorted(rows.values(), key=len)


def _central_relation_rows(P, monos):
    """Rows beta(sum h_g e_g, e_q) = sum h_g beta(e_g, e_q) = 0, one per
    relation of P, generator q and window monomial, as {key: row}.  Each
    product h_g d^(I) is read term by term off `mul_basis`; a row whose
    terms cancel is left empty."""
    alg = P.alg
    rows = {}
    for r, rel in enumerate(P.relations):
        for q in P.module.gens:
            for I in monos:
                for g, h in rel.items():
                    u = ((g, q), I)
                    for J, w in h.c.items():
                        for K, v in mul_basis(alg, J, I).items():
                            bump(rows.setdefault(("rel", r, q, K), {}), u, w * v)
    return rows


def solve_central_extensions(P, dmax=4, complete=False):
    """Generic central-extension solve over a degree window.

    Unknowns are the coefficients of beta on every ordered generator pair;
    constraints are the skew link beta(b, a) = -S(beta(a, b)), the module
    relations of P contracted into the first argument (the skew link
    carries them to the second), and the central Jacobi residual on
    generator triples.  `complete` is a caller-supplied assertion that the
    window provably captures all cocycles (true for the families whose
    solutions are known to lie in low degree).

    The relation rows never bind on the structures the package presents
    with relations, the sd pair structures: there the Jacobi rows alone
    already span every relation row.  Measured on abelian3 at dmax 2-4,
    abelian4 at 2-3, abelian3 with chi = (1, 0, 0), (1, 2, 0) and
    (1/2, 1, -1), heis3 and sl2 at 2-3, dropping them changes no
    dimension; `tests/test_cohomology.py` pins the span on abelian3.  A
    cocycle must vanish on the relations for any presentation, and no
    general argument shows that Jacobi forces it, so the rows stay.

    The rows go to one `SparseEliminator`, each set shortest first: the
    skew link on unordered pairs, the relation rows, then the Jacobi rows
    one triple at a time, which leave out every unknown in its `zeros`,
    whose unit rows it already spans, so the span is that of the rows
    built in full; `kernel` reads the basis off its reduced row echelon
    form, which the span alone fixes.  The counit shifts are found before
    any row, so a window below their degree is refused at once.
    """
    alg = P.alg
    gens = P.module.gens
    if not gens:
        raise ValueError("%s lists no generators to solve over" % P.name)
    monos = _degree_window(alg, dmax)
    unknowns = [((p, q), I) for p in gens for q in gens for I in monos]

    # counit shifts by the functionals that vanish on every relation, found
    # before any row so that a window below their degree is refused at once
    zero = mi_zero(alg.dim)
    counits = [{g: h.c[zero] for g, h in rel.items() if zero in h.c} for rel in P.relations]
    trivial = []
    for phi in nullspace(filter(None, counits), gens):
        vec = {(pair, I): v for pair, h in trivial_cocycle_table(P, phi).items()
               for I, v in h.c.items()}
        degree = max((mi_weight(I) for _, I in vec), default=0)
        if degree > dmax:
            raise ValueError("%s has a counit shift of degree %d, which leaves the degree "
                             "window of dmax %d" % (P.name, degree, dmax))
        if vec:
            trivial.append(vec)

    elim = SparseEliminator()
    for row in filter(None, chain(_skew_rows(alg, gens, monos),
                                  sorted(_central_relation_rows(P, monos).values(), key=len),
                                  _central_jacobi_rows(P, monos, elim.zeros))):
        elim.add(row)
    basis = elim.kernel(unknowns)
    return CentralExtensionSolution(P, unknowns, basis, trivial, complete, dmax)


# -- current-structure cocycles ----------------------------------------------

def verify_cur_cocycle(P_cur, d_element=None, beta_table=None):
    """Closedness and triviality analysis for cocycles of a current structure.

    With a simple coefficient algebra, the pairing table
    beta(a, b) = (a|b) d for a fixed d in the base algebra satisfies

        beta(a, [b,c]) (x) 1 - 1 (x) beta(b, [a,c]) = split(beta([a,b], c)),

    and is a counit shift only when zero; scalar-valued tables are matched
    against the shift space instead.
    """
    rep = Report("cur-cocycle")
    g = P_cur.coefficient_algebra
    alg = P_cur.alg
    K = g.killing_form()
    if not g.killing_nondegenerate():
        raise ValueError("coefficient algebra has degenerate pairing; not simple")

    if beta_table is None:
        d_elt = HElt.from_vector(alg, dict(enumerate(d_element)))
        beta_table = {(i, j): d_elt.scale(K[i][j]) for i in range(g.dim)
                      for j in range(g.dim)}

    def beta_pair(vec1, vec2):
        acc = HElt.zero(alg)
        for i, ci in vec1.items():
            for j, cj in vec2.items():
                acc = acc + beta_table[(i, j)].scale(ci * cj)
        return acc

    one = HElt.one(alg)
    for i in range(g.dim):
        for j in range(g.dim):
            for k in range(g.dim):
                lhs = TensorElt.pure([beta_pair({i: 1}, g.bracket(j, k)), one]) \
                    - TensorElt.pure([one, beta_pair({j: 1}, g.bracket(i, k))])
                rhs = beta_pair(g.bracket(i, j), {k: 1}).coproduct(2)
                ok = (lhs - rhs) == TensorElt(alg, 2)
                rep.record("closed[%d,%d,%d]" % (i, j, k), ok,
                           None if ok else (lhs - rhs))

    # triviality: the shift by an H-linear functional phi has values
    # phi([v_i, v_j]) in the scalars, so beta is one iff its table lies in
    # the span of the shifts by the dual basis, matched monomial by monomial
    zero = mi_zero(alg.dim)
    shifts = SparseEliminator()
    for k in range(g.dim):
        shifts.add({((i, j), zero): g.bracket(i, j).get(k, 0)
                    for i in range(g.dim) for j in range(g.dim)})
    matched = shifts.contains({((i, j), I): v for i in range(g.dim) for j in range(g.dim)
                               for I, v in beta_table[(i, j)].c.items()})
    rep.record("trivial" if matched else "nontrivial", True,
               "matched by counit shift" if matched else "no counit shift matches")
    rep.is_trivial = matched
    return rep


# -- divergence-type central suite --------------------------------------------

def sd_central_suite(alg, dmax=4):
    """Central extensions of the divergence-zero structure on an abelian
    algebra of dimension at least 3.

    The generic solve over the pair generators e_ab, whose module
    relations enter as rows.  The window is asserted complete from
    dmax = 2, the degree of the counit shifts; a smaller one raises,
    because the shifts leave it.
    """
    if not alg.is_abelian or alg.dim < 3:
        raise ValueError("suite requires an abelian algebra of dimension >= 3")
    return solve_central_extensions(make_sd(alg).pair_structure(), dmax,
                                    complete=(dmax >= 2))
