"""Dictionary between linear local Poisson brackets and pseudobrackets.

A PoissonBracketSpec stores, for fields u_1..u_r over N space variables,
polynomial tables Q_ij^k in a lambda block and a derivative block:

    {u_i(x), u_j(y)} = sum_k Q_ij^k(lambda, d) u_k,

read as the generating-function (lambda-bracket) form of the kernel.
The pseudo side lives over the abelian algebra in N variables; the two
directions of the dictionary substitute

    P(z, w) = Q(-z, z + w)        and        Q(lam, d) = P(-lam, lam + d),

with the first polynomial slot acting on the first tensor factor.
Constant kernel terms ride along as a central-extension candidate.
"""

from .liealg import abelian
from .linalg import bump, div, exact
from .pbw import HElt, checked_mi, mi_add, mi_factorial, mi_splits, mi_unit, mi_weight, mi_zero
from .pseudo import PseudoStructure
from .tensor import FreeModule, QElt


class PoissonBracketSpec:
    """Tables Q[(i, j, k)] = {(lambda-exponent, d-exponent): coeff} plus an
    optional central table central[(i, j)] = {lambda-exponent: coeff}."""

    def __init__(self, r, N, Q=None, central=None, names=None):
        self.r = r
        self.N = N
        self.Q = {}
        self.central = {}
        self.names = list(names) if names else ["u%d" % (i + 1) for i in range(r)]
        if len(self.names) != r:
            raise ValueError("names lists %d fields, expected r = %d" % (len(self.names), r))
        for (i, j, k), terms in (Q or {}).items():
            for (A, B), c in terms.items():
                self.add_term(i, j, k, A, B, c)
        for (i, j), terms in (central or {}).items():
            for A, c in terms.items():
                self.add_central(i, j, A, c)

    def _check_fields(self, *indices):
        """Refuse a 0-based field index outside the r fields, naming it 1-based."""
        for field, i in zip("ijk", indices):
            if i not in range(self.r):
                raise ValueError("%s = %r is not a field in 1..%d" % (field, i + 1, self.r))

    def _exponent(self, field, lam):
        """lam as a multi-index of N nonnegative integers, or ValueError naming the field."""
        if not isinstance(lam, (list, tuple)) or any(type(a) is not int or a < 0 for a in lam):
            raise ValueError("%s = %r is not a list of nonnegative integers" % (field, lam))
        return checked_mi(lam, self.N, what=field)

    def add_term(self, i, j, k, lam, der, coeff):
        self._check_fields(i, j, k)
        key = (self._exponent("lambda", lam), self._exponent("partial", der))
        coeff = exact(coeff)
        if not coeff:
            return
        tbl = self.Q.setdefault((i, j, k), {})
        bump(tbl, key, coeff)
        if not tbl:
            del self.Q[(i, j, k)]

    def add_central(self, i, j, lam, coeff):
        self._check_fields(i, j)
        key = self._exponent("lambda", lam)
        coeff = exact(coeff)
        if not coeff:
            return
        tbl = self.central.setdefault((i, j), {})
        bump(tbl, key, coeff)
        if not tbl:
            del self.central[(i, j)]

    def __eq__(self, other):
        return (isinstance(other, PoissonBracketSpec) and self.r == other.r
                and self.N == other.N and self.Q == other.Q
                and self.central == other.central)

    __hash__ = None

    def as_dict(self):
        return {
            "r": self.r,
            "N": self.N,
            "names": self.names,
            "Q": [{"i": i + 1, "j": j + 1, "k": k + 1,
                   "terms": [{"lambda": list(A), "partial": list(B), "coeff": str(c)}
                             for (A, B), c in sorted(terms.items())]}
                  for (i, j, k), terms in sorted(self.Q.items())],
            "central": [{"i": i + 1, "j": j + 1,
                         "terms": [{"lambda": list(A), "coeff": str(c)}
                                   for A, c in sorted(terms.items())]}
                        for (i, j), terms in sorted(self.central.items())],
        }

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError("a Poisson spec is a JSON object, not %s" % type(data).__name__)
        spec = cls(_positive(data, "r"), _positive(data, "N"),
                   names=_list_of(data.get("names", []), "names", str))
        for row in _list_of(data.get("Q", []), "Q"):
            i, j, k = (_field_index(row, f) for f in "ijk")
            for t in _list_of(row["terms"], "terms"):
                spec.add_term(i, j, k, t["lambda"], t["partial"], _parse_coeff(t["coeff"]))
        for row in _list_of(data.get("central", []), "central"):
            i, j = (_field_index(row, f) for f in "ij")
            for t in _list_of(row["terms"], "terms"):
                spec.add_central(i, j, t["lambda"], _parse_coeff(t["coeff"]))
        return spec

    def __repr__(self):
        return "PoissonBracketSpec(r=%d, N=%d, %d nonzero tables)" % (
            self.r, self.N, len(self.Q))


def _positive(data, field):
    """data[field] of a spec file as a positive integer: r = 0 fields, or
    N = 0 variables, leaves the Jacobi suite nothing to check."""
    n = data[field]
    if type(n) is not int or n < 1:
        raise ValueError("%s = %r is not a positive integer" % (field, n))
    return n


def _list_of(rows, field, kind=dict):
    """A spec file's list field, each entry a JSON object (or string, kind str)."""
    if type(rows) is not list or not all(type(row) is kind for row in rows):
        raise ValueError("%s = %r is not a list of %s"
                         % (field, rows, "objects" if kind is dict else "strings"))
    return rows


def _field_index(row, field):
    """The 1-based field index row[field] of a spec file, 0-based."""
    if type(row[field]) is not int:
        raise ValueError("%s = %r is not an integer" % (field, row[field]))
    return row[field] - 1


def _parse_coeff(text):
    from .literals import parse_fraction
    return parse_fraction(str(text))


def _substitute(terms):
    """Apply (a, b) -> (-a, a + b) or its inverse to a two-block polynomial.

    terms: {(A, B): coeff} with A the first block.  Forward and backward
    are the same substitution: it is an involution.
    """
    out = {}
    for (A, B), c in terms.items():
        sign = (-1) ** mi_weight(A)
        for B1, B2 in ((s[0], s[1]) for s in mi_splits(B, 2)):
            # binomial from expanding (a + b)^B in commuting variables
            mult = mi_factorial(B) // (mi_factorial(B1) * mi_factorial(B2))
            bump(out, (mi_add(A, B1), B2), sign * c * mult)
    return out


def poisson_to_pseudo(spec, alg=None):
    """Pseudoalgebra of the bracket tables over the abelian algebra.

    Returns (structure, central beta table or None).
    """
    alg = alg or abelian(spec.N)
    if not alg.is_abelian or alg.dim != spec.N:
        raise ValueError("needs the abelian algebra in %d variables" % spec.N)
    mod = FreeModule(alg, list(range(spec.r)),
                     names={i: spec.names[i] for i in range(spec.r)},
                     label="poisson(r=%d)" % spec.r)
    zero = mi_zero(alg.dim)
    table = {}
    for i in range(spec.r):
        for j in range(spec.r):
            table[(i, j)] = QElt(mod, 2)
    for (i, j, k), terms in spec.Q.items():
        for (M, K), c in _substitute(terms).items():
            # plain powers z^M w^K against divided monomials
            coeff = exact(c * mi_factorial(M) * mi_factorial(K))
            table[(i, j)]._bump((M, K), k, zero, coeff)
    P = PseudoStructure(mod, "lie", table=table, name="poisson(r=%d,N=%d)" % (spec.r, spec.N))
    beta = None
    if spec.central:
        beta = {}
        for (i, j), terms in spec.central.items():
            acc = HElt.zero(alg)
            for A, c in terms.items():
                acc = acc + HElt.monomial(alg, A, (-1) ** mi_weight(A) * c
                                          * mi_factorial(A))
            beta[(i, j)] = acc
    return P, beta


def pseudo_to_poisson(P, names=None):
    """Inverse dictionary; requires the abelian base and a plain-generator table."""
    alg = P.alg
    if not alg.is_abelian:
        raise ValueError("the dictionary is defined over the abelian algebra")
    spec = PoissonBracketSpec(P.module.rank, alg.dim, names=names)
    gens = list(P.module.gens)
    index = {g: p for p, g in enumerate(gens)}
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            q = P.gen_bracket(gi, gj).canonicalize()
            # materialize the plain-generator form (h (x) 1) split(d^L)
            terms = {}
            for (key, g, L), v in q.c.items():
                for L1, L2 in ((s[0], s[1]) for s in mi_splits(L, 2)):
                    M = mi_add(key[0], L1)
                    bump(terms, (M, L2, index[g]), v * _divided_product_coeff(key[0], L1))
            for (M, K, k), c in terms.items():
                # divided monomials back to plain power coefficients
                poly = {(M, K): div(c, mi_factorial(M) * mi_factorial(K))}
                for (A, B), c2 in _substitute(poly).items():
                    spec.add_term(i, j, k, A, B, c2)
    return spec


def _divided_product_coeff(I, J):
    return mi_factorial(mi_add(I, J)) // (mi_factorial(I) * mi_factorial(J))


def lambda_bracket_terms(spec, i, j):
    """Readable polynomial of the (i, j) lambda-bracket: {(A, B, k): coeff}."""
    out = {}
    for (ii, jj, k), terms in spec.Q.items():
        if (ii, jj) != (i, j):
            continue
        for (A, B), c in terms.items():
            out[(A, B, k)] = c
    return out


# -- catalog -------------------------------------------------------------------

def catalog_general(r, N):
    """Vector-field type tables: (d_i + lam_i) u_j + lam_j u_i."""
    if not 1 <= r <= N:
        raise ValueError("needs 1 <= r <= N")
    spec = PoissonBracketSpec(r, N)
    for i in range(r):
        for j in range(r):
            ei = mi_unit(N, i)
            ej = mi_unit(N, j)
            z = (0,) * N
            spec.add_term(i, j, j, z, ei, 1)
            spec.add_term(i, j, j, ei, z, 1)
            spec.add_term(i, j, i, ej, z, 1)
    return spec


def catalog_hamiltonian(two_s, N):
    """Single-field symplectic tables on an even number of directions."""
    if two_s % 2 or not 2 <= two_s <= N:
        raise ValueError("needs an even field count within the variables")
    s = two_s // 2
    spec = PoissonBracketSpec(1, N, names=["u"])
    z = (0,) * N
    for i in range(s):
        ei = mi_unit(N, i)
        ej = mi_unit(N, i + s)
        spec.add_term(0, 0, 0, ej, ei, 1)
        spec.add_term(0, 0, 0, ei, ej, -1)
    return spec


def catalog_current(g, N):
    """Constant structure-constant tables for a coefficient Lie algebra."""
    spec = PoissonBracketSpec(g.dim, N, names=["v_%s" % b for b in g.basis])
    z = (0,) * N
    for i in range(g.dim):
        for j in range(g.dim):
            for k, c in g.bracket(i, j).items():
                spec.add_term(i, j, k, z, z, c)
    return spec


def catalog_special(r, N, chi=None):
    """Divergence-type subalgebra tables on pair generators.

    Fields are indexed by pairs (a, b), a < b <= r, representing
    (d_a + chi_a) u_b - (d_b + chi_b) u_a; brackets are computed inside
    the vector-field structure and re-expressed over the pair fields.
    """
    if not 2 <= r <= N:
        raise ValueError("needs 2 <= r <= N")
    chi = (0,) * r if chi is None else tuple(map(exact, chi))
    if len(chi) != r:
        raise ValueError("chi needs %d entries, got %d" % (r, len(chi)))
    from .constructions import GeneratedSubalgebra
    alg = abelian(N)
    chi_full = chi + (0,) * (N - r)
    S = GeneratedSubalgebra(alg, chi_full, directions=list(range(r)))
    E = S.pair_structure()
    pairs = S.pairs
    names = ["u%d%d" % (a + 1, b + 1) for (a, b) in pairs]
    index = {p: n for n, p in enumerate(pairs)}
    pair_mod = FreeModule(alg, list(range(len(pairs))),
                          names={n: names[n] for n in range(len(pairs))},
                          label="S(%d,%d)" % (r, N))
    table = {}
    for P1 in pairs:
        for P2 in pairs:
            # pair fields map to the negated generators, so flip the signs
            out = QElt(pair_mod, 2)
            for (key, g, L), v in E.gen_bracket(P1, P2).c.items():
                out._bump(key, index[g], L, -v)
            table[(index[P1], index[P2])] = out
    P = PseudoStructure(pair_mod, "lie", table=table, name="S(%d,%d)" % (r, N))
    return pseudo_to_poisson(P, names=names)


def catalog_semidirect(r, N, g):
    """Vector-field fields acting on current fields."""
    w = catalog_general(r, N)
    c = catalog_current(g, N)
    total = r + g.dim
    spec = PoissonBracketSpec(total, N,
                              names=w.names + c.names)
    for (i, j, k), terms in w.Q.items():
        for key, v in terms.items():
            spec.add_term(i, j, k, key[0], key[1], v)
    for (i, j, k), terms in c.Q.items():
        for key, v in terms.items():
            spec.add_term(r + i, r + j, r + k, key[0], key[1], v)
    z = (0,) * N
    for i in range(r):
        ei = mi_unit(N, i)
        for m in range(g.dim):
            spec.add_term(i, r + m, r + m, z, ei, 1)
            spec.add_term(i, r + m, r + m, ei, z, 1)
            spec.add_term(r + m, i, r + m, ei, z, 1)
    return spec


def catalog_h_cocycle(spec, alpha):
    """Attach the central kernel sum alpha_i lam_i to a single-field table."""
    if spec.r != 1:
        raise ValueError("the central candidate applies to single-field tables")
    for i, a in enumerate(alpha):
        if exact(a):
            ei = mi_unit(spec.N, i)
            spec.add_central(0, 0, ei, a)
    return spec


# each family's catalog function and its parameters in call order; only chi may be absent
_CATALOG_FAMILIES = {
    "W": (catalog_general, ("r", "N")),
    "S": (catalog_special, ("r", "N", "chi")),
    "H": (catalog_hamiltonian, ("r", "N")),
    "Cur": (catalog_current, ("g", "N")),
    "semidirect": (catalog_semidirect, ("r", "N", "g")),
}


def poisson_catalog(name, **params):
    if name not in _CATALOG_FAMILIES:
        raise KeyError("unknown catalog family %r" % name)
    build, names = _CATALOG_FAMILIES[name]
    missing = [p for p in names if p != "chi" and params.get(p) is None]
    if missing:
        raise ValueError("family %s needs the parameter %s" % (name, ", ".join(missing)))
    return build(*(params.get(p) for p in names))


def verify_poisson_jacobi(spec, report=None):
    """Skew and Jacobi of the kernel, via the pseudo image."""
    from .pseudo import verify_axioms
    P, _ = poisson_to_pseudo(spec)
    rep = verify_axioms(P, report=report)
    rep.title = "poisson-jacobi(r=%d,N=%d)" % (spec.r, spec.N)
    return rep
