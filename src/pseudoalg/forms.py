"""Pseudoforms: the vector-field module H (x) Wedge^n d* with its calculus.

A PForm of degree n is a linear map from n-th wedge powers of the algebra
to H, stored on strictly increasing index tuples.  The vector-field
action and the contraction land in quotient elements over the free module
whose generators are the basis forms of the relevant degree, via the
identification

    ((u (x) v) (x)_H w)(args) = (u (x) v) * coproduct(w(args)).

Each is written once, for a generator field w_a = 1 (x) d_a and a basis
form w*(T), and reaches every field and form through the one H-bilinear
extension `pseudo.extend_bilinear`, as brackets and module actions do.
The differential is H-linear and acts on PForm values directly.
"""

from itertools import combinations

from .constructions import make_wd, wd_element
from .liealg import sort_with_sign
from .linalg import SparseCombination, bump
from .pbw import HElt, mi_unit, mi_zero
from .pseudo import ModuleStructure, PseudoStructure, Report, extend_bilinear, verify_module
from .tensor import FreeModule, MElt, QElt


def _form_name(T):
    """The printed name w*(i,...) of the basis form on T, indices 1-based."""
    return "w*(%s)" % ",".join(str(i + 1) for i in T)


def _forms_on(alg, gens, label):
    gens = list(gens)
    return FreeModule(alg, gens, names={g: _form_name(g) for g in gens}, label=label)


def form_module(alg, degree):
    return _forms_on(alg, combinations(range(alg.dim), degree),
                     "forms%d:%s" % (degree, alg.name))


def full_form_module(alg):
    """All degrees at once; used by the wedge current structure."""
    return _forms_on(alg, (T for n in range(alg.dim + 1) for T in combinations(range(alg.dim), n)),
                     "forms:%s" % alg.name)


class PForm(SparseCombination):
    """Degree-n pseudoform: {increasing index tuple: HElt coefficients}.

    A sparse combination in the sense of `linalg` whose coefficients are
    nonzero HElt values rather than rationals.
    """

    __slots__ = ("alg", "degree", "c")
    _space = ("alg", "degree")

    def __init__(self, alg, degree, coeffs=None):
        self.alg = alg
        self.degree = degree
        self.c = {}
        for T, h in (coeffs or {}).items():
            self.set_value(tuple(T), h)

    def set_value(self, T, h):
        if len(T) != self.degree or list(T) != sorted(set(T)):
            raise ValueError("indices must be strictly increasing")
        bump(self.c, T, h)

    @classmethod
    def basis(cls, alg, T):
        return cls(alg, len(T), {tuple(T): HElt.one(alg)})

    def value(self, args):
        """Evaluate on basis vectors in any order, with sign; 0 on repeats."""
        if len(args) != self.degree:
            raise ValueError("arity mismatch")
        sign, key = sort_with_sign(args)
        base = self.c.get(key)
        if not sign or base is None:
            return HElt.zero(self.alg)
        return base.scale(sign)

    def value_with_vector(self, vec, rest):
        """First slot filled with a coefficient vector over the basis."""
        out = HElt.zero(self.alg)
        for i, ci in vec.items():
            out = out + self.value((i,) + tuple(rest)).scale(ci)
        return out

    def h_mul(self, h):
        return PForm(self.alg, self.degree, {T: h * v for T, v in self.c.items()})

    def is_zero(self):
        return not self.c

    def as_module_element(self, module):
        m = MElt.zero(module)
        for T, h in self.c.items():
            for I, v in h.c.items():
                m._bump(I, T, v)
        return m

    @classmethod
    def from_module_element(cls, alg, m, degree):
        out = cls(alg, degree)
        for (I, T), v in m.c.items():
            out.set_value(T, HElt.monomial(alg, I, v))
        return out

    def __repr__(self):
        if not self.c:
            return "PForm(0)"
        return " + ".join("(%r) %s" % (h, _form_name(T)) for T, h in sorted(self.c.items()))


def _basis_value(T0, args):
    """The value of the basis form w*(T0) on args: the sign that sorts args
    onto T0, else 0."""
    sign, key = sort_with_sign(args)
    return sign if key == T0 else 0


def _action_on_basis(alg, mod, a, T0):
    """w_a acting on the basis form w*(T0), uncanonicalized over `mod`.

    The value on each target T, bumped in this order, is
        - (1 (x) d_a) where T = T0
        + sum over slots i: sign_i * (d_{T_i} (x) 1) w*(T0)(a ^ T-without-i)
        + sum over slots i: sign_i * (1 (x) 1) w*(T0)([a, T_i] ^ T-without-i),
    with sign_i = (-1)^(i+1) for the 0-based slot i.
    """
    zero = mi_zero(alg.dim)
    out = QElt(mod, 2)
    for T in combinations(range(alg.dim), len(T0)):
        if T == T0:
            out._bump((zero, mi_unit(alg.dim, a)), T, zero, -1)
        for pos in range(len(T)):
            rest = T[:pos] + T[pos + 1:]
            sign = (-1) ** (pos + 1)
            out._bump((mi_unit(alg.dim, T[pos]), zero), T, zero,
                      sign * _basis_value(T0, (a,) + rest))
            brk = sum(c * _basis_value(T0, (k,) + rest)
                      for k, c in alg.bracket(a, T[pos]).items())
            out._bump((zero, zero), T, zero, sign * brk)
    return out


def _contraction_of_basis(alg, mod, a, T0):
    """The contraction of w*(T0) by w_a, uncanonicalized over `mod`: the
    value map T -> (1 (x) 1) w*(T0)(a ^ T), nonzero only on T0 without a."""
    out = QElt(mod, 2)
    if a in T0:
        i = T0.index(a)
        zero = mi_zero(alg.dim)
        out._bump((zero, zero), T0[:i] + T0[i + 1:], zero, (-1) ** i)
    return out


def _extend(formula, field, m, target):
    """A generator formula extended H-bilinearly to the field and the form
    element m, canonicalized over the target module."""
    return extend_bilinear(lambda a, T: formula(target.alg, target, a, T),
                           field, m, target).canonicalize()


def act_on_form(alg, wfield, w):
    """Vector-field action on a pseudoform, canonicalized."""
    mod = form_module(alg, w.degree)
    return _extend(_action_on_basis, wfield, w.as_module_element(mod), mod)


def contract_form(alg, wfield, w):
    """Contraction: value map args -> f (x) w(a ^ args) for a field f (x) d_a."""
    n = w.degree
    if n == 0:
        raise ValueError("cannot contract a degree-0 form")
    return _extend(_contraction_of_basis, wfield, w.as_module_element(form_module(alg, n)),
                   form_module(alg, n - 1))


def form_differential(alg, w):
    """H-linear differential; on degree 0, (dw)(a) = -w a."""
    n = w.degree
    if n >= alg.dim:
        return PForm(alg, alg.dim)
    out = PForm(alg, n + 1)
    for T in combinations(range(alg.dim), n + 1):
        acc = HElt.zero(alg)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                rest = tuple(T[p] for p in range(n + 1) if p != i and p != j)
                sign = (-1) ** (i + j)  # (-1)^{i+j} for the 1-based pair
                acc = acc + w.value_with_vector(alg.bracket(T[i], T[j]), rest).scale(sign)
        for i in range(n + 1):
            rest = tuple(T[p] for p in range(n + 1) if p != i)
            sign = (-1) ** (i + 1)
            acc = acc + (w.value(rest) * HElt.gen(alg, T[i])).scale(sign)
        out.set_value(T, acc)
    return out


def differential_on_quotient(alg, q, src_degree):
    """Apply the form differential to the module part of a quotient element."""
    target = form_module(alg, src_degree + 1)

    def dgen(T):
        dT = form_differential(alg, PForm.basis(alg, T))
        return dT.as_module_element(target)

    return q.map_module(dgen, target)


def wd_action_on_forms(P_wd, degree):
    """ModuleStructure wrapper used by the module-identity checks."""
    mod = form_module(P_wd.alg, degree)
    return ModuleStructure(P_wd, mod, action_fn=lambda a, T: _action_on_basis(mod.alg, mod, a, T),
                           name="forms%d" % degree)


def volume_action_expected(alg, a):
    """Action on the top form: -(d_a + tr_ad(a)) (x) 1 - 1 (x) d_a on the volume."""
    n = alg.dim
    mod = form_module(alg, n)
    T = tuple(range(n))
    zero = mi_zero(alg.dim)
    ea = mi_unit(n, a)
    out = QElt(mod, 2)
    out._bump((ea, zero), T, zero, -1)
    tr = alg.trace_ad()[a]
    if tr:
        out._bump((zero, zero), T, zero, -tr)
    out._bump((zero, ea), T, zero, -1)
    return out.canonicalize()


def forms_suite(alg):
    """Report of the pseudoform calculus over W(d) for the algebra d: d d = 0
    below the top degree, the action on the volume form, the Cartan
    identity L_X = d i_X + i_X d on every basis form, and the module
    identities of W(d) acting on the forms of each degree."""
    P, _ = make_wd(alg)
    N = alg.dim
    rep = Report("forms:%s" % alg.name)
    for n in range(N - 1):
        for T in combinations(range(N), n):
            w = PForm.basis(alg, T)
            dd = form_differential(alg, form_differential(alg, w))
            rep.record("dd-zero[deg %d %s]" % (n, (T,)), dd.is_zero())
    for a in range(N):
        field = wd_element(P, [((0,) * N, a, 1)])
        got = act_on_form(alg, field, PForm.basis(alg, tuple(range(N))))
        rep.record("volume-action[%s]" % alg.basis[a], got == volume_action_expected(alg, a))
        for deg in range(N + 1):
            for T in combinations(range(N), deg):
                w = PForm.basis(alg, T)
                lhs = act_on_form(alg, field, w)
                rhs1 = (differential_on_quotient(alg, contract_form(alg, field, w), deg - 1)
                        if deg >= 1 else QElt(form_module(alg, deg), 2))
                rhs2 = (contract_form(alg, field, form_differential(alg, w))
                        if deg <= N - 1 else QElt(form_module(alg, deg), 2))
                rep.record("cartan[%s; deg %d %s]" % (alg.basis[a], deg, (T,)),
                           lhs == (rhs1 + rhs2).canonicalize())
    for n in range(N + 1):
        rep.extend(verify_module(P, wd_action_on_forms(P, n)))
    return rep


# -- wedge current structure --------------------------------------------------

def wedge_structure(alg):
    """Current structure on H (x) Wedge d*: brackets (f (x) g) (x)_H (v ^ w)."""
    mod = full_form_module(alg)
    zero = mi_zero(alg.dim)

    def product(T1, T2):
        out = QElt(mod, 2)
        sign, key = sort_with_sign(T1 + T2)
        if sign:
            out._bump((zero, zero), key, zero, sign)
        return out

    return PseudoStructure(mod, "assoc", bracket_fn=product, name="wedge:%s" % alg.name)


def act_on_full_module(P_wd, field, m):
    """Action of a vector field on an element of the all-degrees form module."""
    return _extend(_action_on_basis, field, m, full_form_module(P_wd.alg))
