"""Pseudoforms: the vector-field module H (x) Wedge^n d* with its calculus.

A pseudoform of degree n is an element of the free module
`form_module(alg, n)`, whose generators are the basis forms w*(T) on the
strictly increasing index tuples T of length n; its degree is the length
of those tuples.  The vector-field action and the contraction land in
quotient elements over such a module, via the identification

    ((u (x) v) (x)_H w)(args) = (u (x) v) * coproduct(w(args)).

Each is written once, for a generator field w_a = 1 (x) d_a and a basis
form w*(T), and reaches every field and form through the one H-bilinear
extension `pseudo.extend_bilinear`, as brackets and module actions do.
The differential is H-linear: it is written once, on a basis form, and
reaches every form term by term and every quotient element through
`QElt.map_module`.
"""

from itertools import combinations

from .constructions import make_wd, wd_element
from .liealg import sort_with_sign
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


def _degree(m):
    """The length of its module's basis tuples, or dim + 1 past the top degree."""
    return len(m.module.gens[0]) if m.module.gens else m.module.alg.dim + 1


def act_on_form(alg, wfield, w):
    """Vector-field action on a pseudoform, canonicalized."""
    return _extend(_action_on_basis, wfield, w, form_module(alg, _degree(w)))


def contract_form(alg, wfield, w):
    """Contraction: value map args -> f (x) w(a ^ args) for a field f (x) d_a."""
    n = _degree(w)
    if n == 0:
        raise ValueError("cannot contract a degree-0 form")
    return _extend(_contraction_of_basis, wfield, w, form_module(alg, n - 1))


def _differential_of_basis(alg, T0, target):
    """The differential of the basis form w*(T0), over `target`, the forms
    of one degree higher.  The value on each target T, bumped in this
    order, is
        sum over slot pairs i < j: (-1)^(i+j) w*(T0)([T_i, T_j] ^ T-without-i,j)
        + sum over slots i: (-1)^(i+1) w*(T0)(T-without-i) d_{T_i},
    for 0-based slots; on degree 0, (dw)(a) = -w d_a.
    """
    zero = mi_zero(alg.dim)
    out = MElt(target)
    for T in target.gens:
        for i in range(len(T)):
            for j in range(i + 1, len(T)):
                rest = T[:i] + T[i + 1:j] + T[j + 1:]
                brk = sum(c * _basis_value(T0, (k,) + rest)
                          for k, c in alg.bracket(T[i], T[j]).items())
                out._bump(zero, T, (-1) ** (i + j) * brk)
        for i in range(len(T)):
            out._bump(mi_unit(alg.dim, T[i]), T,
                      (-1) ** (i + 1) * _basis_value(T0, T[:i] + T[i + 1:]))
    return out


def form_differential(alg, w):
    """The H-linear differential: d^(I) w*(T0) goes to d^(I) d w*(T0).  A
    top-degree form goes to zero over the forms of degree dim + 1, which
    have no basis, as in `differential_on_quotient`."""
    target = form_module(alg, _degree(w) + 1)
    out = MElt(target)
    for (I, T0), v in w.c.items():
        out = out + _differential_of_basis(alg, T0, target).h_mul(HElt.monomial(alg, I, v))
    return out


def differential_on_quotient(alg, q, src_degree):
    """Apply the form differential to the module part of a quotient element."""
    target = form_module(alg, src_degree + 1)
    return q.map_module(lambda T: _differential_of_basis(alg, T, target), target)


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
    mods = [form_module(alg, n) for n in range(N + 1)]
    rep = Report("forms:%s" % alg.name)
    for n in range(N - 1):
        for T in mods[n].gens:
            dd = form_differential(alg, form_differential(alg, mods[n].element(T)))
            rep.record("dd-zero[deg %d %s]" % (n, (T,)), not dd)
    for a in range(N):
        field = wd_element(P, [((0,) * N, a, 1)])
        got = act_on_form(alg, field, mods[N].element(tuple(range(N))))
        rep.record("volume-action[%s]" % alg.basis[a], got == volume_action_expected(alg, a))
        for deg, mod in enumerate(mods):
            for T in mod.gens:
                w = mod.element(T)
                lhs = act_on_form(alg, field, w)
                rhs1 = (differential_on_quotient(alg, contract_form(alg, field, w), deg - 1)
                        if deg >= 1 else QElt(mod, 2))
                rhs2 = (contract_form(alg, field, form_differential(alg, w))
                        if deg <= N - 1 else QElt(mod, 2))
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
