"""Concrete pseudoalgebras: currents, vector fields, divergence-free and
rank-one families, pseudolinear endomorphisms, and rank-one modules.

Vector-field structures live on the free module with one generator per
basis vector of the underlying Lie algebra; an element sum h_a (x) d_a is
the module element with coefficient h_a on generator a.
"""

import re
from itertools import combinations

from .liealg import algebra_by_name, validate_geometric_datum
from .linalg import bump, div, exact, invert_matrix, sparse_sum
from .pbw import (HElt, TensorElt, antipode_basis, mi_splits, mi_unit,
                  mi_weight, mi_zero, mul_basis, multiindices_up_to)
from .pseudo import (ModuleStructure, PseudoStructure, Report,
                     verify_axioms, verify_homomorphism)
from .tensor import FreeModule, MElt, QElt


# -- current pseudoalgebras --------------------------------------------------

def make_current(alg, g):
    """Current structure H (x) g with constant-coefficient brackets."""
    mod = FreeModule(alg, list(range(g.dim)),
                     names={i: "g_%s" % g.basis[i] for i in range(g.dim)},
                     label="cur:%s" % g.name)
    table = {}
    zero = mi_zero(alg.dim)
    for i in range(g.dim):
        for j in range(g.dim):
            q = QElt(mod, 2)
            for k, c in g.bracket(i, j).items():
                q._bump((zero, zero), k, zero, c)
            table[(i, j)] = q
    P = PseudoStructure(mod, "lie", table=table, name="cur:%s@%s" % (g.name, alg.name))
    P.coefficient_algebra = g
    return P


# -- W(d) and its canonical module ------------------------------------------

def wd_module(alg):
    return FreeModule(alg, list(range(alg.dim)),
                      names={i: "w_%s" % alg.basis[i] for i in range(alg.dim)},
                      label="wd:%s" % alg.name)


def make_wd(alg):
    """Vector-field structure on H (x) d, plus its action on H.

    Generator brackets, before canonicalization:
        [w_a w_b] = (1 (x) 1) [a,b] - (1 (x) d_a) b + (d_b (x) 1) a
    """
    mod = wd_module(alg)
    zero = mi_zero(alg.dim)
    table = {}
    for a in range(alg.dim):
        for b in range(alg.dim):
            q = QElt(mod, 2)
            for k, c in alg.bracket(a, b).items():
                q._bump((zero, zero), k, zero, c)
            ea = mi_unit(alg.dim, a)
            eb = mi_unit(alg.dim, b)
            q._bump((zero, ea), b, zero, -1)
            q._bump((eb, zero), a, zero, 1)
            table[(a, b)] = q
    P = PseudoStructure(mod, "lie", table=table, name="wd:%s" % alg.name)

    hmod = FreeModule(alg, ["h"], label="H")

    def action(g_l, g_m):
        # (1 (x) a) * h = -(1 (x) h a) (x)_H 1, on the generator h = 1
        ea = mi_unit(alg.dim, g_l)
        return QElt(hmod, 2, {((zero, ea), "h", zero): -1})

    M = ModuleStructure(P, hmod, action_fn=action, name="wd-on-H")
    return P, M


def wd_element(P, pairs):
    """Module element sum coeff * d^(I) (x) d_a from (I, a, coeff) triples."""
    m = MElt.zero(P.module)
    for I, a, c in pairs:
        m._bump(tuple(I), a, exact(c))
    return m


def _trace_form(alg, chi):
    """chi as an exact tuple over the basis, zero for None.

    Refuses a tuple of the wrong length or one that does not vanish on
    brackets.
    """
    chi = (0,) * alg.dim if chi is None else tuple(map(exact, chi))
    if len(chi) != alg.dim:
        raise ValueError("chi needs %d entries, got %d" % (alg.dim, len(chi)))
    if not alg.is_trace_form(chi):
        raise ValueError("chi is not a trace form")
    return chi


def divergence(alg, w, chi=None):
    """Divergence of a vector-field element: sum h_a (d_a + chi(d_a)).

    chi is a rational coefficient tuple over the basis and must vanish on
    brackets; None means zero.
    """
    chi = _trace_form(alg, chi)
    out = HElt.zero(alg)
    for (I, a), v in w.c.items():
        h = HElt.monomial(alg, I, v)
        out = out + h * (HElt.gen(alg, a) + HElt.one(alg).scale(chi[a]))
    return out


def divergence2(alg, q):
    """Divergence applied inside H^{(x) 2} (x)_H W(d), landing in H (x) H."""
    out = TensorElt(alg, 2)
    for (key, a, L), v in q.c.items():
        div = HElt.monomial(alg, L, 1) * HElt.gen(alg, a)
        t = TensorElt(alg, 2, {key: v})
        out = out + t * div.coproduct(2)
    return out


# -- S(d, chi) ----------------------------------------------------------------

def sd_generator(P, chi, a, b):
    """Divergence-free generator attached to a basis pair:
    (a + chi(a)) (x) b - (b + chi(b)) (x) a - 1 (x) [a, b]."""
    alg = P.alg
    ea = mi_unit(alg.dim, a)
    eb = mi_unit(alg.dim, b)
    zero = mi_zero(alg.dim)
    m = MElt.zero(P.module)
    m._bump(ea, b, 1)
    m._bump(zero, b, exact(chi[a]))
    m._bump(eb, a, -1)
    m._bump(zero, a, exact(-chi[b]))
    for k, c in alg.bracket(a, b).items():
        m._bump(zero, k, -c)
    return m


class GeneratedSubalgebra:
    """Divergence-free subalgebra S(d, chi) presented inside the vector-field
    structure, on the pair generators e_ab of the basis directions a < b.
    """

    def __init__(self, alg, chi=None):
        chi = _trace_form(alg, chi)
        self.alg = alg
        self.chi = chi
        self.ambient, self.h_action = make_wd(alg)
        self.pairs = [(a, b) for a in range(alg.dim) for b in range(a + 1, alg.dim)]
        self.gens = {(a, b): sd_generator(self.ambient, chi, a, b) for a, b in self.pairs}
        self._pair_structure = None

    def generator(self, a, b):
        if a == b:
            return MElt.zero(self.ambient.module)
        if a < b:
            return self.gens[(a, b)]
        return -self.gens[(b, a)]

    def is_member(self, w):
        return not divergence(self.alg, w, self.chi)

    def express(self, w):
        """Coefficients {(a, b): HElt} with w = sum c_ab e_ab, or raise.

        Follows the degree-descent argument: split off the top symbol as a
        combination of the Koszul pairs, subtract, recurse.
        """
        if not self.is_member(w):
            raise ValueError("not divergence-free, cannot express")
        alg = self.alg
        coeffs = {p: HElt.zero(alg) for p in self.pairs}
        cur = MElt(self.ambient.module, dict(w.c))
        guard = 0
        while cur:
            guard += 1
            if guard > 1000:
                raise RuntimeError("expression loop failed to terminate")
            d = max(mi_weight(I) for (I, a) in cur.c)
            if d == 0:
                # constant coefficients with zero divergence are zero
                raise ValueError("nonzero constant-part residue; not a member")
            tops = [dict() for _ in range(alg.dim)]
            for (I, a), v in cur.c.items():
                if mi_weight(I) == d:
                    tops[a][I] = v
            for (i, j), f in _koszul_decompose(alg, tops, d).items():
                if not f:
                    continue
                coeffs[(i, j)] = coeffs[(i, j)] + f
                cur = cur - self.gens[(i, j)].h_mul(f)
            newdeg = max((mi_weight(I) for (I, a) in cur.c), default=-1)
            if cur and newdeg >= d:
                raise RuntimeError("degree failed to drop in expression step")
        return coeffs

    def evaluate(self, coeffs):
        out = MElt.zero(self.ambient.module)
        for (a, b), f in coeffs.items():
            out = out + self.gens[(a, b)].h_mul(f)
        return out

    def _bracket_by_first_slot(self, p, q):
        """{F: m_F} with [e_p e_q] = sum (d^(F) (x) 1) (x)_H m_F in the ambient."""
        grouped = {}
        for (key, g, L), v in self.ambient.bracket(self.gens[p], self.gens[q]).c.items():
            grouped.setdefault(key[0], MElt.zero(self.ambient.module))._bump(L, g, v)
        return grouped

    def pair_structure(self):
        """The structure on the pair generators e_ab, keyed (a, b) with a < b,
        built on first call; table entries are filled on first use.

        A bracket is the ambient one grouped by its first slot, each group
        expressed over the generators.  The pair generators satisfy, for
        directions a < b < c, the relation

            (d_a + chi_a) e_bc - (d_b + chi_b) e_ac + (d_c + chi_c) e_ab = 0,

        corrected over a nonabelian algebra by the expression of its value;
        the structure carries these as `relations`.
        """
        if self._pair_structure is None:
            alg = self.alg
            mod = FreeModule(alg, self.pairs, label="sd:%s" % alg.name,
                             names={(a, b): "e_%d%d" % (a + 1, b + 1) for a, b in self.pairs})
            zero = mi_zero(alg.dim)

            def bracket(p, q):
                out = QElt(mod, 2)
                for F, m in self._bracket_by_first_slot(p, q).items():
                    for pr, h in self.express(m).items():
                        for L, v in h.c.items():
                            out._bump((F, zero), pr, L, v)
                return out

            self._pair_structure = PseudoStructure(mod, "lie", bracket_fn=bracket,
                                                   relations=self._relations(),
                                                   name=mod.label)
        return self._pair_structure

    def _relations(self):
        rels = []
        one = HElt.one(self.alg)
        for a, b, c in combinations(range(self.alg.dim), 3):
            rel = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                h = HElt.gen(self.alg, x) + one.scale(self.chi[x])
                rel[(min(y, z), max(y, z))] = h if y < z else -h
            for pr, h in self.express(self.evaluate(rel)).items():
                if h:
                    rel[pr] = rel.get(pr, HElt.zero(self.alg)) - h
            rels.append(rel)
        return rels

    def closure_report(self):
        """Brackets of generators have divergence-free coefficients, and the
        bracket's module parts re-express over the generators.

        Membership applies to the module element attached to each monomial
        H-coefficient of the canonical form, so terms are grouped by their
        first tensor slot before testing.
        """
        rep = Report("sd-closure:%s" % self.alg.name)
        for p in self.pairs:
            for q in self.pairs:
                for F, m in self._bracket_by_first_slot(p, q).items():
                    ok = self.is_member(m)
                    rep.record("bracket-coefficient-membership[%s,%s]" % (p, q), ok,
                               None if ok else (F, m))
                    if ok and m:
                        self.express(m)
        return rep


def _koszul_decompose(alg, tops, d):
    """Write top symbols sum p_a (x) d_a with sum p_a y_a = 0 (in the symbol
    algebra) as sum f_ij (y_i (x) d_j - y_j (x) d_i), f_ij of degree d-1.

    Works direction by direction: split off every monomial containing the
    current variable, fold the counterpart into the remaining slots.
    """
    p = [dict(t) for t in tops]
    out = {}
    for i in range(alg.dim - 1):
        # phi_j: the y_i-divided part of p_j for later directions j
        for j in range(i + 1, alg.dim):
            phi = {}
            for I, v in list(p[j].items()):
                if I[i] > 0:
                    J = tuple(x - (1 if q == i else 0) for q, x in enumerate(I))
                    bump(phi, J, div(v, I[i]))
                    del p[j][I]
            if phi:
                out[(i, j)] = out.get((i, j), HElt.zero(alg)) + HElt(alg, phi)
        # consistency: p_i must now equal -sum_j phi_j y_j; drop it
        p[i] = {}
    return out


def make_sd(alg, chi=None):
    return GeneratedSubalgebra(alg, chi)


# -- rank-one data and the Yang-Baxter conditions ----------------------------

class Rank1Datum:
    """Skew matrix r over the basis plus a vector s; alpha = r + s(x)1 - 1(x)s."""

    def __init__(self, alg, r, s):
        self.alg = alg
        n = alg.dim
        self.r = [[exact(r[i][j]) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                if self.r[i][j] != -self.r[j][i]:
                    raise ValueError("r must be skew")
        self.s = tuple(map(exact, s))

    @classmethod
    def from_geometric(cls, alg, datum):
        rep = validate_geometric_datum(alg, datum)
        if not rep.ok:
            raise ValueError("invalid geometric datum: %s" % rep.failures())
        return cls(alg, rep.data["r"], rep.data["s"])

    def alpha(self):
        """alpha = r + s (x) 1 - 1 (x) s as an arity-2 tensor."""
        alg = self.alg
        t = TensorElt(alg, 2)
        zero = mi_zero(alg.dim)
        for i in range(alg.dim):
            ei = mi_unit(alg.dim, i)
            for j in range(alg.dim):
                ej = mi_unit(alg.dim, j)
                if self.r[i][j]:
                    t._bump((ei, ej), self.r[i][j])
            if self.s[i]:
                t._bump((ei, zero), self.s[i])
                t._bump((zero, ei), -self.s[i])
        return t

    def x_element(self):
        """x = (1/2) sum r^{ij} [d_i, d_j], the bracket contraction of r."""
        n = self.alg.dim
        return sparse_sum((k, div(self.r[i][j] * c, 2))
                          for i in range(n) for j in range(n) if self.r[i][j]
                          for k, c in self.alg.bracket(i, j).items())


def check_ybe(datum):
    """Exact evaluation of the two rank-one conditions on (r, s):
    commutation of r with the split of s, and the dynamical triple identity."""
    rep = Report("ybe:%s" % datum.alg.name)
    alg = datum.alg
    n = alg.dim

    # [r, s (x) 1 + 1 (x) s] = 0 componentwise in d (x) d
    def commutator_terms():
        for i in range(n):
            for j in range(n):
                c = datum.r[i][j]
                if not c:
                    continue
                for k, ck in alg.bracket_elements({i: 1}, dict(enumerate(datum.s))).items():
                    yield (k, j), c * ck
                for k, ck in alg.bracket_elements({j: 1}, dict(enumerate(datum.s))).items():
                    yield (i, k), c * ck

    acc = sparse_sum(commutator_terms())
    rep.record("r-commutes-with-s", not acc, acc or None)

    # ([r_12, r_13] + r_12 s_3) + cyclic = 0 in d (x) d (x) d
    def base_terms():
        for i in range(n):
            for j in range(n):
                ci = datum.r[i][j]
                if not ci:
                    continue
                for k in range(n):
                    for l in range(n):
                        cj = datum.r[k][l]
                        if not cj:
                            continue
                        for m, cm in alg.bracket(i, k).items():
                            yield (m, j, l), ci * cj * cm
                for k in range(n):
                    if datum.s[k]:
                        yield (i, j, k), ci * datum.s[k]

    triple = {}
    for (i, j, k), v in sparse_sum(base_terms()).items():
        bump(triple, (i, j, k), v)
        bump(triple, (k, i, j), v)
        bump(triple, (j, k, i), v)
    rep.record("dynamical-triple-identity", not triple, triple or None)
    return rep


def make_rank1(datum, run_axioms=True):
    """Free rank-one structure with [e e] = alpha (x)_H e."""
    P = make_rank1_from_alpha(datum.alg, datum.alpha(), "rank1:%s" % datum.alg.name)
    P.datum = datum
    if run_axioms:
        P.axiom_report = verify_axioms(P)
    return P


def make_rank1_from_alpha(alg, alpha, name="rank1"):
    """Rank-one structure from an arbitrary arity-2 tensor coefficient."""
    mod = FreeModule(alg, ["e"], label=name)
    q = QElt.from_tensor_and_module(alpha, mod.element("e"))
    return PseudoStructure(mod, "lie", table={("e", "e"): q}, name=name)


def embed_rank1_element(datum, P_wd):
    """The image generator -r + 1 (x) s inside the vector-field structure."""
    alg = datum.alg
    m = MElt.zero(P_wd.module)
    zero = mi_zero(alg.dim)
    for i in range(alg.dim):
        ei = mi_unit(alg.dim, i)
        for j in range(alg.dim):
            if datum.r[i][j]:
                m._bump(ei, j, -datum.r[i][j])
        if datum.s[i]:
            m._bump(zero, i, datum.s[i])
    return m


def embed_rank1_in_wd(datum):
    """Certify e -> -r + 1 (x) s as a homomorphism into the vector fields.

    For data with nondegenerate r the image is additionally checked to be
    divergence-free for phi = iota_{x - s} omega.
    """
    ybe = check_ybe(datum)
    if not ybe.ok:
        raise ValueError("rank-one conditions fail; no embedding: %r" % ybe)
    alg = datum.alg
    P1 = make_rank1(datum, run_axioms=False)
    P_wd, _ = make_wd(alg)
    e_img = embed_rank1_element(datum, P_wd)
    rep = verify_homomorphism(P1, P_wd, {"e": e_img})
    rep.title = "embed-rank1:%s" % alg.name

    phi = _h_type_phi(datum)
    if phi is not None:
        div = divergence(alg, e_img, phi)
        rep.record("image-divergence-free", not div, div or None)
    return rep


def _h_type_phi(datum):
    """phi = iota_{x - s} omega for nondegenerate r; None when r is singular."""
    alg = datum.alg
    try:
        omega = invert_matrix(datum.r)
    except ValueError:
        return None
    x = datum.x_element()
    xs = {k: x.get(k, 0) - datum.s[k] for k in range(alg.dim)}
    return tuple(sum(xs.get(i, 0) * omega[i][j] for i in range(alg.dim))
                 for j in range(alg.dim))


# -- pseudolinear endomorphisms of free modules ------------------------------

def cend_module(alg, n, label):
    """Free module on keys (J, p, q) for 1 (x) d^(J) (x) E_pq; lazily indexed."""
    mod = FreeModule(alg, [], label=label)

    def name(key):
        J, p, q = key
        return "c[%s;%d,%d]" % (",".join(map(str, J)), p, q)

    def by_name(text):
        # the inverse of name: J over the directions of alg, and p, q < n
        m = re.fullmatch(r"c\[(\d+(?:,\d+)*);(\d+),(\d+)\]", text)
        key = m and (tuple(map(int, m[1].split(","))), int(m[2]), int(m[3]))
        if not key or len(key[0]) != alg.dim or max(key[1:]) >= n or name(key) != text:
            raise KeyError("no generator named %r" % text)
        return key

    # generator set is infinite; names computed and read back on demand
    mod.gen_name, mod.gen_by_name = name, by_name
    return mod


# Largest number of generators d^(J) E_pq, |J| <= 1, that `make_cend`
# lists, (dim + 1) n^2, counted before the list is made; gc:4, the largest
# size tests and benchmark build, has 32.
# It bounds the build only: a verify run checks (generators)^3 triples.
CEND_MAX_GENERATORS = 4096


def make_cend(alg, n):
    """Associative structure of pseudolinear maps of a free rank-n module.

    Generators are keyed (J, p, q); the product of two is

        (1 (x) d^(J) (x) E_pq)(1 (x) d^(K) (x) E_rs)
            = delta_qr sum over J = J1 + J2 of
              (1 (x) d^(J1)) (x)_H (1 (x) d^(K) d^(J2) (x) E_ps).

    `verify_gens` is the family |J| <= 1 the axiom suite runs on; products
    land on generators of higher degree, which the lazy module accepts.
    """
    if n < 1:
        raise ValueError("pseudolinear maps need rank n >= 1, got %d" % n)
    count = (alg.dim + 1) * n * n
    if count > CEND_MAX_GENERATORS:
        raise ValueError("rank %d over %s needs %d generators of degree <= 1, over the "
                         "budget of %d" % (n, alg.name, count, CEND_MAX_GENERATORS))
    mod = cend_module(alg, n, "cend%d:%s" % (n, alg.name))
    zero = mi_zero(alg.dim)

    def product(g1, g2):
        J, p, q = g1
        K, r, s = g2
        out = QElt(mod, 2)
        if q != r:
            return out
        for J1, J2 in mi_splits(J, 2):
            for Kp, ck in mul_basis(alg, K, J2).items():
                out._bump((zero, J1), (Kp, p, s), zero, ck)
        return out

    gens = [(J, p, q) for J in multiindices_up_to(alg.dim, 1)
            for p in range(n) for q in range(n)]
    P = PseudoStructure(mod, "assoc", bracket_fn=product, verify_gens=gens,
                        name="cend%d:%s" % (n, alg.name))
    P.size = n
    return P


def make_gc(alg, n):
    """Commutator structure of the associative pseudolinear product."""
    C = make_cend(alg, n)

    def bracket(g1, g2):
        return C.gen_bracket(g1, g2) - C.swapped_bracket(g1, g2)

    P = PseudoStructure(C.module, "lie", bracket_fn=bracket,
                        verify_gens=list(C.verify_gens), name="gc%d:%s" % (n, alg.name))
    P.size = n
    return C, P


def cend_action_on_v(C):
    """Action of the pseudolinear structure on the rank-n free module."""
    alg = C.alg
    n = C.size
    vmod = FreeModule(alg, ["v%d" % p for p in range(n)], label="V%d" % n)
    zero = mi_zero(alg.dim)

    def action(gen, vkey):
        J, p, q = gen
        out = QElt(vmod, 2)
        if vkey == "v%d" % q:
            out._bump((zero, J), "v%d" % p, zero, 1)
        return out

    return ModuleStructure(C, vmod, action_fn=action, name="cend-on-V")


def cend_element_from_pairs(C, triples):
    """Element sum c * d^(I) (x) d^(J) (x) E_pq of the pseudolinear structure."""
    m = MElt.zero(C.module)
    for I, J, p, q, c in triples:
        m._bump(tuple(I), (tuple(J), p, q), exact(c))
    return m


def apply_anti_involution(C, elt, gamma=None):
    """The formal-adjoint involution: f (x) a (x) A -> (f (x) 1) split(S(a)) (x) gamma(A).

    gamma is a matrix anti-involution given as a callable on (p, q) index
    pairs returning {(p', q'): coeff}; default is the transpose.
    """
    alg = C.alg
    if gamma is None:
        gamma = lambda p, q: {(q, p): 1}
    out = MElt.zero(C.module)
    for (I, (J, p, q)), v in elt.c.items():
        for Js, cs in antipode_basis(alg, J).items():
            for J1, J2 in mi_splits(Js, 2):
                for Ip, ci in mul_basis(alg, I, J1).items():
                    for (pp, qq), cg in gamma(p, q).items():
                        out._bump(Ip, (J2, pp, qq), v * cs * ci * cg)
    return out


def gamma_symplectic(n):
    """Adjoint for the standard symplectic form on even rank 2m."""
    if n % 2:
        raise ValueError("symplectic adjoint needs even rank")
    m = n // 2

    def eps(i):
        return 1 if i < m else -1

    def bar(i):
        return i + m if i < m else i - m

    def gamma(p, q):
        return {(bar(q), bar(p)): eps(p) * eps(q)}
    return gamma


def minus_fixed_generators(C, gamma=None):
    """Generating data of the minus-one eigenspace of the anti-involution."""
    out = []
    for J in multiindices_up_to(C.alg.dim, 1):
        for p in range(C.size):
            for q in range(C.size):
                x = cend_element_from_pairs(C, [(mi_zero(C.alg.dim), J, p, q, 1)])
                cand = x - apply_anti_involution(C, x, gamma)
                if cand:
                    out.append(cand)
    return out


def wd_into_gc1(alg):
    """The sign-flip embedding of vector fields into rank-one pseudolinear maps."""
    P_wd, _ = make_wd(alg)
    C, gc1 = make_gc(alg, 1)
    images = {}
    for a in range(alg.dim):
        ea = mi_unit(alg.dim, a)
        images[a] = cend_element_from_pairs(C, [(mi_zero(alg.dim), ea, 0, 0, -1)])
    rep = verify_homomorphism(P_wd, gc1, images)
    rep.title = "wd-into-gc1:%s" % alg.name
    return rep, images, (C, gc1)


# -- rank-one modules over the vector fields ---------------------------------

def make_module_rank1(alg, lam, chi=None):
    """Free rank-one module with action alpha v = (lam Div alpha (x) 1 - alpha) v."""
    chi = _trace_form(alg, chi)
    lam = exact(lam)
    P, _ = make_wd(alg)
    vmod = FreeModule(alg, ["v"], label="V(%s)" % (lam,))
    zero = mi_zero(alg.dim)

    def action(a, vkey):
        ea = mi_unit(alg.dim, a)
        out = QElt(vmod, 2)
        # lam * Div(1 (x) d_a) (x) 1 = lam (d_a + chi_a) (x) 1
        if lam:
            out._bump((ea, zero), "v", zero, lam)
            if chi[a]:
                out._bump((zero, zero), "v", zero, lam * chi[a])
        out._bump((zero, ea), "v", zero, -1)
        return out

    return P, ModuleStructure(P, vmod, action_fn=action, name="V(%s,%s)" % (lam, chi))


def rank1_module_check(datum, beta):
    """Exact module identity for a rank-one action coefficient beta.

    Evaluates, in the third tensor power,
        (1 (x) beta)(split_23 beta) - sigma_12 of the same
            - (alpha (x) 1)(split_12 beta) = 0.
    """
    alg = datum.alg
    alpha = datum.alpha()

    def ext(t, into_first):
        # lift an arity-2 tensor to arity 3 by splitting the named slot
        out = TensorElt(alg, 3)
        for (A, B), v in t.c.items():
            if into_first:
                for B1, B2 in mi_splits(B, 2):
                    out._bump((A, B1, B2), v)
            else:
                for A1, A2 in mi_splits(A, 2):
                    out._bump((A1, A2, B), v)
        return out

    one = TensorElt.one(alg, 1)
    beta3 = TensorElt(alg, 3)
    for (A, B), v in beta.c.items():
        beta3._bump((mi_zero(alg.dim), A, B), v)
    lhs = beta3 * ext(beta, into_first=True)
    lhs = lhs - lhs.permuted([1, 0, 2])
    alpha3 = TensorElt(alg, 3)
    for (A, B), v in alpha.c.items():
        alpha3._bump((A, B, mi_zero(alg.dim)), v)
    rhs = alpha3 * ext(beta, into_first=False)
    rep = Report("rank1-module:%s" % alg.name)
    resid = lhs - rhs
    rep.record("module-identity", not resid, resid or None)
    return rep


# -- named catalog -----------------------------------------------------------

# Stock (r, s) data, name -> (algebra name, r, s): the solvable plane, a
# flat symplectic plane, the Heisenberg contact datum and the
# simple-algebra contact datum, r = e (x) f - f (x) e, s = -h in the
# (e, f, h) basis of sl2.
RANK1_DATA = {
    "solv2": ("solv2", [[0, 1], [-1, 0]], (0, 1)),
    "abelian2": ("abelian2", [[0, 1], [-1, 0]], (0, 0)),
    "heisenberg": ("heis3", [[0, 1, 0], [-1, 0, 0], [0, 0, 0]], (0, 0, -1)),
    "sl2": ("sl2", [[0, 1, 0], [-1, 0, 0], [0, 0, 0]], (0, 0, -1)),
}


def named_rank1_datum(name):
    """The `RANK1_DATA` entry of that name as a `Rank1Datum`."""
    if name not in RANK1_DATA:
        raise KeyError("unknown rank-one datum %r" % name)
    aname, r, s = RANK1_DATA[name]
    return Rank1Datum(algebra_by_name(aname), r, s)
