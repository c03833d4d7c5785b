"""Canonical forms in H^{(x) n} (x)_H M for free modules M over H = U(d).

A QElt is a sum of terms  c * (d^(I1) (x) ... (x) d^(In)) (x)_H (d^(L) e_g)
keyed by (htuple, g, L), a sparse combination in the sense of `linalg`
(as is MElt, keyed by (I, g)).  Different raw storages can denote
the same class; `canonicalize` rewrites every term so the last tensor
slot is d^(0), after which the coefficient map is a complete invariant
and equality is dictionary equality.

The rewriting moves the last slot through the antipode onto the others
and its remaining coproduct leg onto the module side:

    f1 (x) ... (x) f_{n-1} (x) g (x)_H m
      = sum  f1 S(g_1) (x) ... (x) f_{n-1} S(g_{n-1}) (x) 1 (x)_H g_n m

with g_1, ..., g_n the n-part divided-power splits of g.

`canonicalize` runs this as one loop over the terms.  It clears the
coefficients to integers once (`linalg.cleared`), reads each split's
factors straight off the memoized tables, the antipode legs from
`mul_antipode` (at arity 2 the one table entry d^(I) S(d^(J)) itself, with
no slot list; above it their `mul_slots` product) and the module leg from
`mul_basis`, and sums their products through `linalg.bump_terms`, keyed by
the head slots alone: every output term ends in the slot d^(0), which is
appended as the sums are divided out once (`linalg.divided`).

Module generators normally generate free summands; a generator may
instead be marked `counit`, meaning h e = counit(h) e (the one-dimensional
center used by central extensions); `_bump` then drops every term that
is not constant on it, and `canonicalize` checks it once per input term:
only the splits whose last leg is d^(0) reach such a generator.
"""

from .linalg import (SparseCombination, bump, bump_terms, cleared, divided, exact,
                     scaled_product)
from .pbw import (HElt, checked_mi, checked_slots, mi_splits, mi_zero, mul_antipode,
                  mul_basis, mul_slots)


class FreeModule:
    """Finite list of named generators over a fixed algebra.

    Generator keys are arbitrary hashables; `names` gives the printable
    form.  Keys in `counit_gens` carry the counit action instead of the
    free one.
    """

    def __init__(self, alg, gens, names=None, counit_gens=(), label=""):
        self.alg = alg
        self.gens = list(gens)
        self._names = dict(names or {})
        self.counit_gens = frozenset(counit_gens)
        self.label = label

    @property
    def rank(self):
        return len(self.gens)

    def gen_name(self, g):
        if g in self._names:
            return self._names[g]
        return g if isinstance(g, str) else repr(g)

    def gen_by_name(self, name):
        for g in self.gens:
            if self.gen_name(g) == name:
                return g
        raise KeyError("no generator named %r" % name)

    def is_counit(self, g):
        return g in self.counit_gens

    def same_as(self, other):
        """Structural equality: same algebra object, generators and action kinds."""
        return (isinstance(other, FreeModule) and self.alg is other.alg
                and self.gens == other.gens and self.counit_gens == other.counit_gens)

    def element(self, g):
        return MElt(self, {(mi_zero(self.alg.dim), g): 1})

    def __repr__(self):
        return "FreeModule(%s; %s)" % (self.label or self.alg.name,
                                       ", ".join(self.gen_name(g) for g in self.gens))


class MElt(SparseCombination):
    """Element of a free module: sparse map (multi-index, generator) -> rational."""

    __slots__ = ("module", "c")
    _space = ("module",)

    def __init__(self, module, coeffs=None):
        self.module = module
        self.c = {}
        for (I, g), v in (coeffs or {}).items():
            self._bump(checked_mi(I, module.alg.dim), g, exact(v))

    def _bump(self, I, g, v):
        if not v:
            return
        if self.module.is_counit(g):
            # h e = counit(h) e: only the constant component survives
            if any(I):
                return
        bump(self.c, (I, g), v)

    def _same_space(self, other):
        return self.module.same_as(other.module)

    @classmethod
    def zero(cls, module):
        return cls(module)

    def h_mul(self, h):
        """Left action of h in U(d)."""
        alg = self.module.alg

        def terms(Ig, J):
            I, g = Ig
            if self.module.is_counit(g):
                # h e = counit(h) e: only the constant component survives
                return () if any(J) or any(I) else ((Ig, 1),)
            return [((K, g), c) for K, c in mul_basis(alg, J, I).items()]
        return self._with(scaled_product(self.c, h.c, terms))

    def __repr__(self):
        from .literals import render_module_element
        return render_module_element(self)


class QElt(SparseCombination):
    """Element of H^{(x) n} (x)_H M, stored term by term (see module docstring)."""

    __slots__ = ("module", "n", "c", "canonical")
    # the flag rides along: negatives and multiples of a canonical form are canonical
    _space = ("module", "n", "canonical")

    def __init__(self, module, n, coeffs=None, canonical=False):
        self.module = module
        self.n = n
        self.c = {}
        self.canonical = canonical
        dim = module.alg.dim
        for (key, g, L), v in (coeffs or {}).items():
            self._bump(checked_slots(key, n, dim), g, checked_mi(L, dim), exact(v))

    def _bump(self, key, g, L, v):
        if not v:
            return
        if self.module.is_counit(g) and any(L):
            return
        bump(self.c, (key, g, L), v)

    def _same_space(self, other):
        # the canonical flag rides along but does not fix the space
        return self.n == other.n and self.module.same_as(other.module)

    @classmethod
    def zero(cls, module, n):
        return cls(module, n, canonical=True)

    @classmethod
    def from_tensor_and_module(cls, t, m):
        """(tensor part) (x)_H (module element), expanded term by term."""
        out = cls(m.module, t.n)
        for key, tv in t.c.items():
            for (L, g), mv in m.c.items():
                out._bump(key, g, L, tv * mv)
        return out

    def _sum(self, other, m):
        out = SparseCombination._sum(self, other, m)
        out.canonical = self.canonical and other.canonical
        return out

    def permuted(self, perm):
        """Permute tensor slots: new slot i holds old slot perm[i].

        A permutation that fixes the last slot maps a canonical form to a
        canonical form, so the flag is kept then.  Distinct keys go to
        distinct keys and g and L stay, so the map stays valid as it is.
        """
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a slot permutation")
        out = QElt(self.module, self.n,
                   canonical=self.canonical and perm[-1] == self.n - 1)
        out.c = {(tuple(key[i] for i in perm), g, L): v for (key, g, L), v in self.c.items()}
        return out

    def canonicalize(self):
        """Unique representative with last tensor slot equal to d^(0), in one
        pass over the terms (see the module docstring)."""
        if self.canonical:
            return self
        alg, n = self.module.alg, self.n
        one = mi_zero(alg.dim)
        counit = self.module.counit_gens
        D, items = cleared(self.c)
        # (head slots, g, L) -> D times the coefficient; the head is key[0]
        # at arity 2 and key[:-1] above it, the last slot d^(0) comes at the end
        acc = {}
        for (key, g, L), v in items:
            # h e = counit(h) e: on a counit generator only the constant
            # component survives, so only a last leg d^(0) reaches it
            unit = g in counit
            if unit and any(L):
                continue
            last = key[-1]
            head = key[0] if n == 2 else key[:-1]
            if not any(last):
                bump(acc, (head, g, L), v)
                continue
            for split in mi_splits(last, n):
                if unit and any(split[-1]):
                    continue
                # the first n-1 legs act through the antipode on the head
                # slots, the last leg lands on the module coefficient
                if n == 2:
                    heads = mul_antipode(alg, head, split[0]).items()
                else:
                    heads = mul_slots(alg, head, split[:-1], mul_antipode)
                bump_terms(acc, v, heads, g, mul_basis(alg, split[-1], L).items())
        out = QElt(self.module, n, canonical=True)
        if n == 2:
            out.c = {((h, one), g, L): v for (h, g, L), v in divided(acc, D).items()}
        else:
            out.c = {(h + (one,), g, L): v for (h, g, L), v in divided(acc, D).items()}
        return out

    def __eq__(self, other):
        if not isinstance(other, QElt) or self.n != other.n:
            return NotImplemented
        if not self.module.same_as(other.module):
            return NotImplemented
        return self.canonicalize().c == other.canonicalize().c

    __hash__ = None

    def map_module(self, fn, target):
        """Push the module part through an H-linear map given on generators.

        fn: generator key -> MElt over the target module.
        """
        alg = self.module.alg
        out = QElt(target, self.n)
        for (key, g, L), v in self.c.items():
            img = fn(g)
            if not img.module.same_as(target):
                raise ValueError("map_module images over the wrong module")
            moved = img.h_mul(HElt.monomial(alg, L, 1))
            for (Lp, gp), w in moved.c.items():
                out._bump(key, gp, Lp, v * w)
        return out

    def __repr__(self):
        from .literals import render_quotient
        return render_quotient(self)
