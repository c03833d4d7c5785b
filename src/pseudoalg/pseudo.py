"""Pseudoalgebra structures on free modules and their defining identities.

A PseudoStructure keeps, for every ordered pair of module generators, the
canonical form of their bracket (last tensor slot trivial, so the stored
data is the H (x) L coefficient table).  Brackets of general elements
extend the table bilinearly; triple compositions realize both association
orders in H^{(x) 3} (x)_H L.  The left one is the paper's rule on
generators, which H-bilinearity of the second operation allows:

    (sum_i (f_i (x) g_i) (x)_H e_i) * c
        = sum_i (f_i (x) g_i (x) 1) (Delta (x) id)(e_i * c),

so it computes e_g * c once per generator g.  The verification routines check
skew-commutativity, the Jacobi identity (or associativity), module
identities and homomorphisms by exact comparison of canonical forms.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from .linalg import bump, cleared, divided
from .pbw import HElt, mi_splits, mi_weight, mul_basis, mul_slots
from .tensor import MElt, QElt


def witness_text(w, nested=False):
    """A witness as text: str(w), except that rationals inside dicts, tuples
    and lists print with str, so an int and an equal Fraction print alike."""
    if isinstance(w, dict):
        return "{%s}" % ", ".join("%s: %s" % (witness_text(k, True), witness_text(v, True))
                                  for k, v in w.items())
    if isinstance(w, (tuple, list)):
        inner = ", ".join(witness_text(x, True) for x in w)
        if isinstance(w, list):
            return "[%s]" % inner
        return "(%s,)" % inner if len(w) == 1 else "(%s)" % inner
    return repr(w) if nested and not isinstance(w, Fraction) else str(w)


class CheckResult:
    def __init__(self, name, passed, witness=None):
        self.name = name
        self.passed = passed
        self.witness = witness

    def __repr__(self):
        return "%s: %s%s" % (self.name, "pass" if self.passed else "FAIL",
                             "" if self.passed or self.witness is None
                             else " (%s)" % witness_text(self.witness))


class Report:
    """Accumulated named checks; ok iff every recorded check passed.

    `data` holds results a check computed on the way (kept out of
    `as_dict`, so reports print the same with or without it).
    """

    def __init__(self, title=""):
        self.title = title
        self.checks = []
        self.data = {}

    def record(self, name, passed, witness=None):
        self.checks.append(CheckResult(name, bool(passed), witness))
        return passed

    def extend(self, other):
        self.checks.extend(other.checks)

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def as_dict(self):
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [{"name": c.name, "passed": c.passed,
                        "witness": None if c.witness is None else witness_text(c.witness)}
                       for c in self.checks],
        }

    def __repr__(self):
        head = "Report(%s): %s" % (self.title, "ok" if self.ok else "FAILED")
        lines = [head] + ["  " + repr(c) for c in self.checks if not c.passed]
        return "\n".join(lines)


def extend_bilinear(lookup, a, b, out_module):
    """H-bilinear extension of a generator table to module elements.

    lookup(ga, gb) gives the value on a generator pair as a QElt of arity
    2 (None or zero where the table vanishes); the value on
    d^(Ia) e_ga, d^(Ib) e_gb is d^(Ia) (x) d^(Ib) times it.  The result is
    returned uncanonicalized.
    """
    out = QElt(out_module, 2)
    alg = out_module.alg
    Da, A = cleared(a.c)
    Db, B = cleared(b.c)
    for (Ia, ga), ca in A:
        for (Ib, gb), cb in B:
            base = lookup(ga, gb)
            if not base:
                continue
            cab = ca * cb
            for (key, g, L), v in base.c.items():
                for K, c in mul_slots(alg, (Ia, Ib), key, mul_basis):
                    out._bump(K, g, L, cab * v * c)
    out.c = divided(out.c, Da * Db)
    return out


def _table_value(table, fn, key, module):
    """Entry of a bracket or action table, filled on demand from fn."""
    q = table.get(key)
    if q is None:
        if fn is None:
            return QElt.zero(module, 2)
        q = table[key] = fn(*key).canonicalize()
    return q


class PseudoStructure:
    """Bracket data on a free module; kind is "lie" or "assoc".

    `table` maps ordered generator pairs to canonical arity-2 QElt values.
    Large or lazily indexed structures may instead supply `bracket_fn`,
    called on demand for generator pairs, plus `verify_gens`, the finite
    generator list the axiom checks run over.  A structure presented on
    generators that are not free lists its module relations in
    `relations`, each a vanishing combination {generator: HElt}.
    """

    def __init__(self, module, kind="lie", table=None, bracket_fn=None,
                 verify_gens=None, relations=(), name=""):
        if kind not in ("lie", "assoc"):
            raise ValueError("kind must be 'lie' or 'assoc'")
        self.module = module
        self.alg = module.alg
        self.kind = kind
        self.name = name or module.label
        self._table = {}
        self._bracket_fn = bracket_fn
        self.verify_gens = list(verify_gens if verify_gens is not None else module.gens)
        self.relations = list(relations)
        self._coefficient_degree = None
        for pair, q in (table or {}).items():
            self._table[pair] = q.canonicalize()

    def gen_bracket(self, gi, gj):
        return _table_value(self._table, self._bracket_fn, (gi, gj), self.module)

    def element(self, g):
        return self.module.element(g)

    def bracket(self, a, b):
        """Pseudoproduct of two module elements, canonicalized."""
        if not a.module.same_as(self.module) or not b.module.same_as(self.module):
            raise ValueError("foreign elements")
        return extend_bilinear(self.gen_bracket, a, b, self.module).canonicalize()

    def max_coefficient_degree(self):
        """Worst filtration degree one bracket of `verify_gens` moves onto
        functionals; read through `gen_bracket`, so a lazy table agrees.
        Computed once per structure."""
        if self._coefficient_degree is None:
            self._coefficient_degree = max(
                (mi_weight(key[0]) + mi_weight(L) for gi in self.verify_gens
                 for gj in self.verify_gens
                 for key, g, L in self.gen_bracket(gi, gj).c), default=0)
        return self._coefficient_degree

    def __repr__(self):
        return "PseudoStructure(%s, kind=%s, rank=%d)" % (
            self.name, self.kind, self.module.rank)


class ModuleStructure:
    """Action of a PseudoStructure on a free module, stored like a bracket table."""

    def __init__(self, pseudo, module, table=None, action_fn=None, name=""):
        self.pseudo = pseudo
        self.module = module
        self.alg = module.alg
        self.name = name
        self._table = {}
        self._action_fn = action_fn
        for pair, q in (table or {}).items():
            self._table[pair] = q.canonicalize()

    def gen_action(self, g_l, g_m):
        return _table_value(self._table, self._action_fn, (g_l, g_m), self.module)

    def act(self, a, m):
        if not a.module.same_as(self.pseudo.module) or not m.module.same_as(self.module):
            raise ValueError("foreign elements")
        return extend_bilinear(self.gen_action, a, m, self.module).canonicalize()


# -- composition in the third tensor power ----------------------------------

def compose_left(inner, op, c, out_module):
    """((a op1 b) op2 c) in H^{(x) 3}: `inner` is the arity-2 result of op1.

    `op` must be H-bilinear, op(h e_g, c) = (h (x) 1) op(e_g, c), as every
    `extend_bilinear` extension is (`PseudoStructure.bracket`,
    `ModuleStructure.act`, `Cochain.value2`).  The composition is then the
    paper's rule on generators:

        (sum_i (f_i (x) g_i) (x)_H h_i e_i) op c
            = sum_g (X_g (x) 1) (Delta (x) id)(e_g op c),

    with X_g = sum of (f_i (x) g_i) Delta(h_i) over the terms on e_g, so op
    runs once per generator of `inner`.
    """
    alg = inner.module.alg
    Din, items = cleared(inner.c)
    X = {}
    for (key, g, L), v in items:
        Xg = X.setdefault(g, {})
        for split in mi_splits(L, 2):
            for K, w in mul_slots(alg, key, split, mul_basis):
                bump(Xg, K, v * w)
    parts = [(Xg, cleared(op(inner.module.element(g), c).c)) for g, Xg in X.items() if Xg]
    D = lcm(*(Dp for _, (Dp, _) in parts))
    out = QElt(out_module, 3)
    for Xg, (Dp, items) in parts:
        s = D // Dp
        for (pk, g, L), v in items:
            v *= s
            tail = pk[1:]
            for split in mi_splits(pk[0], 2):
                for xk, xv in Xg.items():
                    xv *= v
                    for K, w in mul_slots(alg, xk, split, mul_basis):
                        out._bump(K + tail, g, L, xv * w)
    # canonicalize is linear, so it runs on the scaled sum and D Din goes last
    out = out.canonicalize()
    out.c = divided(out.c, D * Din)
    return out


def compose_right(a, inner, op, out_module):
    """(a op2 (b op1 c)) in H^{(x) 3}: `inner` is the arity-2 result of op1.

    op(a, m) runs on each module part m of `inner`; slot 1 of each of its
    terms splits in two, and the inner key multiplies the two legs, which
    fill slots 1 and 2.  Every op(a, m) is cleared to the common
    denominator D of all of them.
    """
    alg = inner.module.alg
    parts = [(key, cleared(op(a, m).c)) for key, m in inner.module_parts()]
    D = lcm(*(Dp for _, (Dp, _) in parts))
    out = QElt(out_module, 3)
    for key, (Dp, items) in parts:
        s = D // Dp
        for (pk, g, L), v in items:
            v *= s
            if not any(pk[1]):
                # d^(K) 1 = d^(K): the one split (0, 0) gives the key itself
                out._bump(pk[:1] + key, g, L, v)
                continue
            for split in mi_splits(pk[1], 2):
                for K, w in mul_slots(alg, key, split, mul_basis):
                    out._bump(pk[:1] + K, g, L, v * w)
    # canonicalize is linear, so it runs on the scaled sum and D goes last
    out = out.canonicalize()
    out.c = divided(out.c, D)
    return out


def skew_residual(P, a, b):
    """[b a] + sigma_12 [a b]; zero iff skew-commutativity holds on the pair."""
    return (P.bracket(b, a) + P.bracket(a, b).permuted([1, 0])).canonicalize()


def _action_residual(P, act, out_module, lie, a, b, m):
    """Defect of the identity that makes `act` an action of P on out_module.

    Lie:    a (b m) - sigma_12 (b (a m)) - [a b] m
    assoc:  a (b m) - (a b) m

    With act = P.bracket on P.module this is the Jacobi identity or
    associativity of P itself: a structure is a module over itself.  The
    middle term is the right composition of (b, a, m), slots 1 and 2 swapped.
    """
    right = compose_right(a, act(b, m), act, out_module)
    left = compose_left(P.bracket(a, b), act, m, out_module)
    if not lie:
        return (right - left).canonicalize()
    middle = compose_right(b, act(a, m), act, out_module).permuted([1, 0, 2])
    return (right - middle - left).canonicalize()


def jacobi_residual(P, a, b, c):
    return _action_residual(P, P.bracket, P.module, True, a, b, c)


def assoc_residual(P, a, b, c):
    return _action_residual(P, P.bracket, P.module, False, a, b, c)


def module_residual(P, M, a, b, m):
    """Defect of the module identity matching the structure kind."""
    return _action_residual(P, M.act, M.module, P.kind == "lie", a, b, m)


def verify_axioms(P, report=None, gens=None):
    """Check the defining identities on generator pairs and triples.

    By H-bilinearity this suffices for the full structure; the randomized
    tests exercise the bilinear extension separately.
    """
    rep = report or Report("axioms:%s" % P.name)
    gens = list(gens if gens is not None else P.verify_gens)
    elements = {g: P.element(g) for g in gens}
    return verify_axioms_elements(P, elements, rep)


def verify_axioms_elements(P, elements, report=None):
    """Same identities on an arbitrary finite family of named elements.

    Used both for generator verification and for subalgebras handed as
    element lists inside an ambient structure.
    """
    rep = report or Report("axioms:%s" % P.name)
    names = list(elements)
    if P.kind == "lie":
        for x, y in product(names, repeat=2):
            res = skew_residual(P, elements[x], elements[y])
            rep.record("skew-commutativity[%s,%s]" % (x, y), not res, res or None)
        check, residual = "jacobi", jacobi_residual
    else:
        check, residual = "associativity", assoc_residual
    for x, y, z in product(names, repeat=3):
        res = residual(P, elements[x], elements[y], elements[z])
        rep.record("%s[%s,%s,%s]" % (check, x, y, z), not res, res or None)
    return rep


def verify_module(P, M, report=None, lgens=None, mgens=None):
    rep = report or Report("module:%s" % (M.name or P.name))
    lgens = list(lgens if lgens is not None else P.verify_gens)
    mgens = list(mgens if mgens is not None else M.module.gens)
    for x, y, m in product(lgens, lgens, mgens):
        res = module_residual(P, M, P.element(x), P.element(y), M.module.element(m))
        rep.record("module-identity[%s,%s;%s]" % (x, y, m), not res, res or None)
    return rep


def verify_homomorphism(P1, P2, images, report=None):
    """Check phi([a b]) = [phi(a) phi(b)] on generator pairs.

    `images`: {generator of P1 -> MElt over P2}.  The map extends
    H-linearly; counit generators map to themselves implicitly when
    present in both structures.
    """
    rep = report or Report("homomorphism:%s->%s" % (P1.name, P2.name))

    def phi(g):
        return images[g]

    for gi in images:
        for gj in images:
            lhs = P1.gen_bracket(gi, gj).map_module(phi, P2.module)
            rhs = P2.bracket(images[gi], images[gj])
            ok = lhs == rhs
            rep.record("bracket-compat[%s,%s]" % (P1.module.gen_name(gi),
                                                  P1.module.gen_name(gj)),
                       ok, None if ok else (lhs - rhs).canonicalize())
    return rep


# -- scalar specializations (x-brackets) ------------------------------------

def x_bracket(P, a, x, b):
    """Pairing of the bracket's canonical H-coefficient against a functional.

    x is a TruncatedSeries; the result is sum of <S(x), h> c over the
    canonical form sum (h (x) 1) (x)_H c.  Raises PrecisionError when the
    series is not known deep enough to pair every coefficient.
    """
    from .annihilation import PrecisionError
    q = P.bracket(a, b)
    out = MElt.zero(P.module)
    alg = P.alg
    for (key, g, L), v in q.c.items():
        h = HElt.monomial(alg, key[0], 1)
        need = mi_weight(key[0])
        if need > x.cutoff:
            raise PrecisionError(
                "pairing needs series depth %d, cutoff is %d" % (need, x.cutoff))
        val = x.pair(h.antipode())
        if val:
            out._bump(L, g, v * val)
    return out
