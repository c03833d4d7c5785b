"""Pseudoalgebra structures on free modules and their defining identities.

A ModuleStructure keeps the canonical form of the action on every pair of
generators (last tensor slot trivial, so the data is an H (x) M table) and
extends it bilinearly; a PseudoStructure is the module over itself, one
generator table with M = L.  Triple compositions realize both association
orders in H^{(x) 3} (x)_H L by one rule, the paper's rule on generators,
which H-bilinearity of the second operation allows:

    (sum_i (f_i (x) g_i) (x)_H e_i) * c
        = sum_i (f_i (x) g_i (x) 1) (Delta (x) id)(e_i * c),
    a * (sum_i (f_i (x) g_i) (x)_H e_i)
        = sum_i (1 (x) f_i (x) g_i) (id (x) Delta)(a * e_i),

so either order runs its second operation once per generator.  Both orders
come out canonical as built, with no closing canonicalize: on the left the
canonical value's trivial slot 1 becomes slot 2, and on the right the
module coefficient d^(L) of an inner term moves into the value at arity 2,
a * (d^(L) e_g) = (1 (x) d^(L)) (a * e_g), canonicalized once per distinct
(g, L), whose terms (p (x) 1) (x)_H m give p (x) f (x) 1 (x)_H m.  The
verification routines check skew-commutativity, the Jacobi identity (or
associativity), module identities and homomorphisms on canonical forms.

The slot swap sigma_12 commutes with the H-bilinear extension:

    sigma_12 [(d^(Ia) e_ga), (d^(Ib) e_gb)] = (d^(Ib) (x) d^(Ia)) sigma_12 T(ga, gb),

so sigma_12 of a product is the extension of the swapped table
`swapped_action` to the swapped operands, and the bracket's own
coefficients never pass through the antipode a second time.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from .linalg import bump, bump_all, bump_outer, cleared, divided, scaled_product
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
    alg = out_module.alg

    def terms(ka, kb):
        (Ia, ga), (Ib, gb) = ka, kb
        base = lookup(ga, gb)
        if not base:
            return ()
        # (g, L) comes from a QElt, whose map already obeys the counit rule
        return [((K, g, L), v * c) for (key, g, L), v in base.c.items()
                for K, c in mul_slots(alg, (Ia, Ib), key, mul_basis)]
    out = QElt(out_module, 2)
    out.c = scaled_product(a.c, b.c, terms)
    return out


class ModuleStructure:
    """Action of the pseudoalgebra `pseudo` on a free module: `table` maps
    generator pairs to canonical arity-2 QElt values, `action_fn` (if given)
    fills missing entries on demand, and `act` extends it H-bilinearly."""

    def __init__(self, pseudo, module, table=None, action_fn=None, name=""):
        self.pseudo = pseudo
        self.module = module
        self.alg = module.alg
        self.name = name
        self._table = {pair: q.canonicalize() for pair, q in (table or {}).items()}
        self._swapped = {}
        self._action_fn = action_fn

    def gen_action(self, g_l, g_m):
        q = self._table.get((g_l, g_m))
        if q is None:
            if self._action_fn is None:
                return QElt.zero(self.module, 2)
            q = self._table[(g_l, g_m)] = self._action_fn(g_l, g_m).canonicalize()
        return q

    def swapped_action(self, g_m, g_l):
        """sigma_12 of `gen_action(g_l, g_m)`, canonicalized once; its
        H-bilinear extension to (m, a) is sigma_12 of `act(a, m)` (see the
        module docstring).  Memoized beside the table and only for pairs
        the table holds, so it never has more entries than the table."""
        q = self._swapped.get((g_m, g_l))
        if q is None:
            q = self.gen_action(g_l, g_m).permuted([1, 0]).canonicalize()
            if (g_l, g_m) in self._table:
                self._swapped[(g_m, g_l)] = q
        return q

    def act(self, a, m):
        """Pseudoproduct of two module elements, canonicalized."""
        if not a.module.same_as(self.pseudo.module) or not m.module.same_as(self.module):
            raise ValueError("foreign elements")
        return extend_bilinear(self.gen_action, a, m, self.module).canonicalize()


class PseudoStructure(ModuleStructure):
    """Bracket data on a free module; kind is "lie" or "assoc".

    The structure is a module over itself (`pseudo` is self): `gen_bracket`
    and `bracket` are `gen_action` and `act`, and `bracket_fn` fills the
    table on demand.  `verify_gens` is the finite generator list the axiom
    checks run over.  A structure presented on generators that are not free
    lists its module relations in `relations`, each a vanishing combination
    {generator: HElt}.
    """

    def __init__(self, module, kind="lie", table=None, bracket_fn=None,
                 verify_gens=None, relations=(), name=""):
        if kind not in ("lie", "assoc"):
            raise ValueError("kind must be 'lie' or 'assoc'")
        super().__init__(self, module, table, bracket_fn, name or module.label)
        self.kind = kind
        self.verify_gens = list(verify_gens if verify_gens is not None else module.gens)
        self.relations = list(relations)
        self._coefficient_degree = None

    gen_bracket = ModuleStructure.gen_action
    swapped_bracket = ModuleStructure.swapped_action
    bracket = ModuleStructure.act

    def element(self, g):
        return self.module.element(g)

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


# -- composition in the third tensor power ----------------------------------

def _compose(inner, value, pos, out_module):
    """Triple composition in H^{(x) 3}: `inner` is the arity-2 result of the
    first operation, value(e) the second one with e in place of `inner`,
    and `pos` the slot of value(e) that `inner` expands (0 left, 1 right).

    value must be H-linear there, as every `extend_bilinear` extension
    (`PseudoStructure.bracket`, `ModuleStructure.act`, `Cochain.value2`) is
    in both arguments, so the paper's rule on generators applies, with one
    value call per generator.  `inner` and each value(e_g) are canonicalized
    on entry (free for `bracket` and `act` results), so every inner term is
    (f (x) 1) (x)_H d^(L) e_g and every value term (p (x) 1) (x)_H m.

    Left (pos 0): X_g = sum of (f (x) 1) Delta(d^(L)) over the terms on g;
    slot 0 of value(e_g) splits by Delta and X_g multiplies its two legs.
    The product X_g Delta(d^(p)) depends on the slot-0 key p alone, so it is
    formed once per distinct p of value(e_g), by `bump_outer` over the two
    `mul_basis` legs, and spread over the value terms that share p.
    Right (pos 1): d^(L) moves into the value at arity 2,
    a * (d^(L) e_g) = canonicalize((1 (x) d^(L)) value(e_g)), once per
    distinct (g, L); each of its terms (p (x) 1) (x)_H m' and each f of
    F_{g,L} = sum of v f give p (x) f (x) 1 (x)_H m'.  Either way slot 2 of
    every output term is d^(0): the result is canonical as built.
    """
    alg = inner.module.alg
    Din, items = cleared(inner.canonicalize().c)
    X = {}
    for (key, g, L), v in items:
        if pos:
            # key is (f, 1): gather F_{g,L} = sum of v f
            bump(X.setdefault(g, {}).setdefault(L, {}), key[0], v)
            continue
        Xg = X.setdefault(g, {})
        for s0, s1 in mi_splits(L, 2):
            bump_outer(Xg, v, mul_basis(alg, key[0], s0).items(),
                       mul_basis(alg, key[1], s1).items())
    parts = []
    for g, Xg in X.items():
        if not Xg:
            continue
        val = value(inner.module.element(g)).canonicalize()
        if not pos:
            parts.append((Xg, cleared(val.c)))
            continue
        for L, F in Xg.items():
            moved = val
            if any(L):
                # a * (d^(L) e_g) = (1 (x) d^(L)) val, whose slot 1 is d^(0)
                moved = QElt(val.module, 2)
                moved.c = {((pk[0], L), gm, Lm): v for (pk, gm, Lm), v in val.c.items()}
                moved = moved.canonicalize()
            parts.append((F, cleared(moved.c)))
    D = lcm(*(Dp for _, (Dp, _) in parts))
    # every (g, L) below comes from a canonical value, which already obeys
    # the counit rule, and no product vanishes: plain `bump` suffices
    acc = {}
    for Xg, (Dp, items) in parts:
        s = D // Dp
        Y = {}  # slot-0 key p of the value -> the terms of X_g Delta(d^(p))
        for (pk, g, L), v in items:
            v *= s
            if pos:
                for f, fv in Xg.items():
                    bump(acc, ((pk[0], f, pk[1]), g, L), v * fv)
                continue
            p = pk[0]
            Yp = Y.get(p)
            if Yp is None:
                prod = {}
                for s0, s1 in mi_splits(p, 2):
                    for (a, b), xv in Xg.items():
                        bump_outer(prod, xv, mul_basis(alg, a, s0).items(),
                                   mul_basis(alg, b, s1).items())
                Yp = Y[p] = [(K + pk[1:], y) for K, y in prod.items()]
            bump_all(acc, v, [((K, g, L), y) for K, y in Yp])
    out = QElt(out_module, 3, canonical=True)
    out.c = divided(acc, D * Din)
    return out


def compose_left(inner, op, c, out_module):
    """((a op1 b) op2 c), where `inner` is a op1 b; see `_compose`."""
    return _compose(inner, lambda e: op(e, c), 0, out_module)


def compose_right(a, inner, op, out_module):
    """(a op2 (b op1 c)), where `inner` is b op1 c; see `_compose`."""
    return _compose(inner, lambda e: op(a, e), 1, out_module)


def skew_residual(P, a, b):
    """[b a] + sigma_12 [a b]; zero iff skew-commutativity holds on the pair.

    sigma_12 commutes with the H-bilinear extension,
    sigma_12 [d^(Ia) e_ga, d^(Ib) e_gb] = (d^(Ib) (x) d^(Ia)) sigma_12 T(ga, gb),
    so sigma_12 [a b] is the extension of the swapped table to (b, a): the
    one closing canonicalize moves only the elements' own coefficients,
    not the bracket's.  Both sides are read off the table independently,
    and `P.bracket(b, a)` refuses foreign elements first.
    """
    return (P.bracket(b, a)
            + extend_bilinear(P.swapped_bracket, b, a, P.module)).canonicalize()


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


def verify_axioms(P):
    """Check the defining identities on pairs and triples of `P.verify_gens`.

    By H-bilinearity this suffices for the full structure; the randomized
    tests exercise the bilinear extension separately.
    """
    return verify_axioms_elements(P, {g: P.element(g) for g in P.verify_gens})


def verify_axioms_elements(P, elements):
    """Same identities on an arbitrary finite family of named elements.

    Used both for generator verification and for subalgebras handed as
    element lists inside an ambient structure.
    """
    rep = Report("axioms:%s" % P.name)
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


def verify_module(P, M):
    rep = Report("module:%s" % (M.name or P.name))
    for x, y, m in product(P.verify_gens, P.verify_gens, M.module.gens):
        res = module_residual(P, M, P.element(x), P.element(y), M.module.element(m))
        rep.record("module-identity[%s,%s;%s]" % (x, y, m), not res, res or None)
    return rep


def verify_homomorphism(P1, P2, images):
    """Check phi([a b]) = [phi(a) phi(b)] on generator pairs.

    `images`: {generator of P1 -> MElt over P2}.  The map extends
    H-linearly; counit generators map to themselves implicitly when
    present in both structures.
    """
    rep = Report("homomorphism:%s->%s" % (P1.name, P2.name))
    for gi in images:
        for gj in images:
            lhs = P1.gen_bracket(gi, gj).map_module(images.__getitem__, P2.module)
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
