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

The catalog families W, S and Cur are the dictionary images of the `wd`,
`sd` and `cur` constructions taken as currents over N variables
(`_current`), and semidirect joins the W and Cur images; H is a hand table.
"""

from .cohomology import hat_central_extension
from .constructions import make_current, make_sd, make_wd
from .liealg import abelian
from .linalg import bump, div, exact
from .pbw import HElt, checked_mi, mi_add, mi_factorial, mi_splits, mi_unit, mi_weight, mi_zero
from .pseudo import PseudoStructure, verify_axioms_elements
from .tensor import FreeModule, QElt


class PoissonBracketSpec:
    """Tables Q[(i, j, k)] = {(lambda-exponent, d-exponent): coeff} plus an
    optional central table central[(i, j)] = {lambda-exponent: coeff}."""

    def __init__(self, r, N, names=None):
        self.r = r
        self.N = N
        self.Q = {}
        self.central = {}
        self.names = list(names) if names else ["u%d" % (i + 1) for i in range(r)]
        if len(self.names) != r:
            raise ValueError("names lists %d fields, expected r = %d" % (len(self.names), r))

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

    @staticmethod
    def _add(tables, where, key, coeff):
        """tables[where][key] += coeff, skipping a zero coefficient and
        dropping a table the sum empties."""
        coeff = exact(coeff)
        if not coeff:
            return
        tbl = tables.setdefault(where, {})
        bump(tbl, key, coeff)
        if not tbl:
            del tables[where]

    def add_term(self, i, j, k, lam, der, coeff):
        self._check_fields(i, j, k)
        key = (self._exponent("lambda", lam), self._exponent("partial", der))
        self._add(self.Q, (i, j, k), key, coeff)

    def add_central(self, i, j, lam, coeff):
        self._check_fields(i, j)
        self._add(self.central, (i, j), self._exponent("lambda", lam), coeff)

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
        """The spec of a Poisson spec file, the one file the CLI reads and writes.

        UTF-8 JSON, as `as_dict` writes it; field indices are 1-based and
        rationals are strings "p/q" or plain integers.

            {"r": fields, "N": variables, "names": [names],
             "Q": [{"i": i, "j": j, "k": k,
                    "terms": [{"lambda": [N ints], "partial": [N ints], "coeff": c}]}],
             "central": [{"i": i, "j": j, "terms": [{"lambda": [N ints], "coeff": c}]}]}
        """
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


# json is imported on use: `import pseudoalg` does not load it (about 0.3 MB)
def load_poisson(path):
    import json
    with open(path, "r", encoding="utf-8") as fh:
        return PoissonBracketSpec.from_dict(json.load(fh))


def save_poisson(path, spec):
    import json
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
        for B1, B2 in mi_splits(B, 2):
            # binomial from expanding (a + b)^B in commuting variables
            mult = mi_factorial(B) // (mi_factorial(B1) * mi_factorial(B2))
            bump(out, (mi_add(A, B1), B2), sign * c * mult)
    return out


def poisson_to_pseudo(spec):
    """Pseudoalgebra of the bracket tables over the abelian algebra.

    Returns (structure, central beta table or None).
    """
    alg = abelian(spec.N)
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


def pseudo_to_poisson(P, names=None, beta=None):
    """Inverse dictionary; requires the abelian base and a plain-generator table.
    A central table beta maps back term by term: v d^(A) to (-1)^|A| v / A! lambda^A.
    The terms made here have fields and exponents in range by construction,
    so they go through the table rule `_add` unchecked."""
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
                for L1, L2 in mi_splits(L, 2):
                    M = mi_add(key[0], L1)
                    bump(terms, (M, L2, index[g]), v * _divided_product_coeff(key[0], L1))
            for (M, K, k), c in terms.items():
                # divided monomials back to plain power coefficients
                poly = {(M, K): div(c, mi_factorial(M) * mi_factorial(K))}
                for AB, c2 in _substitute(poly).items():
                    spec._add(spec.Q, (i, j, k), AB, c2)
    for (gi, gj), h in (beta or {}).items():
        for A, v in h.c.items():
            spec._add(spec.central, (index[gi], index[gj]), A,
                      (-1) ** mi_weight(A) * div(v, mi_factorial(A)))
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

def _current(P, N, names=None, sign=1):
    """Tables of the current H (x)_H' P, for P over the abelian algebra on
    r <= N variables, H' = U(abelian r) in H = U(abelian N) on the first r
    directions: by (f (x) a)*(g (x) b) = ((f (x) g) (x)_H 1)(a*b), those of P
    with every exponent padded by N - r zeros.  sign = -1 reads the fields
    as the negated generators."""
    spec = pseudo_to_poisson(P, names)
    pad = (0,) * (N - spec.N)
    out = PoissonBracketSpec(spec.r, N, names=spec.names)
    out.Q = {ijk: {(A + pad, B + pad): sign * c for (A, B), c in terms.items()}
             for ijk, terms in spec.Q.items()}
    return out


def catalog_general(r, N):
    """Vector-field type tables (d_i + lam_i) u_j + lam_j u_i: the current
    of W on r variables, with u_i = -w_i as for S."""
    if not 1 <= r <= N:
        raise ValueError("needs 1 <= r <= N")
    return _current(make_wd(abelian(r))[0], N, sign=-1)


def catalog_hamiltonian(two_s, N):
    """Single-field symplectic tables on an even number of directions.

    A hand table: the image of the rank-one construction, at 2s = N = 1000,
    took 12 s in process against 0.18 s for it (1.3 s with the `mi_unit`
    calls of `Rank1Datum.alpha` hoisted out of its loop), Python 3.11 on
    2 vCPUs."""
    if two_s % 2 or not 2 <= two_s <= N:
        raise ValueError("needs an even field count within the variables")
    s = two_s // 2
    spec = PoissonBracketSpec(1, N, names=["u"])
    for i in range(s):
        ei = mi_unit(N, i)
        ej = mi_unit(N, i + s)
        spec.add_term(0, 0, 0, ej, ei, 1)
        spec.add_term(0, 0, 0, ei, ej, -1)
    return spec


def catalog_current(g, N):
    """Constant structure-constant tables for a coefficient Lie algebra:
    the image of Cur g over N variables."""
    return _current(make_current(abelian(N), g), N, ["v_%s" % b for b in g.basis])


def catalog_special(r, N, chi=None):
    """Divergence-type subalgebra tables on pair generators.

    Fields are indexed by pairs (a, b), a < b <= r, representing
    (d_a + chi_a) u_b - (d_b + chi_b) u_a: the current of S on r variables,
    whose pair fields map to the negated generators.
    """
    if not 2 <= r <= N:
        raise ValueError("needs 2 <= r <= N")
    S = make_sd(abelian(r), chi)
    return _current(S.pair_structure(), N, ["u%d%d" % (a + 1, b + 1) for a, b in S.pairs],
                    sign=-1)


def catalog_semidirect(r, N, g):
    """Vector-field fields acting on current fields: the W and Cur tables,
    the current fields shifted past the r vector fields, and by hand the
    action {u_i, v_m} = (d_i + lam_i) v_m with its partner {v_m, u_i} = lam_i v_m."""
    w = catalog_general(r, N)
    c = catalog_current(g, N)
    spec = PoissonBracketSpec(r + g.dim, N, names=w.names + c.names)
    spec.Q = {**w.Q, **{(r + i, r + j, r + k): terms for (i, j, k), terms in c.Q.items()}}
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
CATALOG_FAMILIES = {
    "W": (catalog_general, ("r", "N")),
    "S": (catalog_special, ("r", "N", "chi")),
    "H": (catalog_hamiltonian, ("r", "N")),
    "Cur": (catalog_current, ("g", "N")),
    "semidirect": (catalog_semidirect, ("r", "N", "g")),
}


def poisson_catalog(name, **params):
    if name not in CATALOG_FAMILIES:
        raise KeyError("unknown catalog family %r" % name)
    build, names = CATALOG_FAMILIES[name]
    missing = [p for p in names if p != "chi" and params.get(p) is None]
    if missing:
        raise ValueError("family %s needs the parameter %s" % (name, ", ".join(missing)))
    return build(*(params.get(p) for p in names))


def verify_poisson_jacobi(spec):
    """Skew and Jacobi of the kernel, via the pseudo image.

    Central terms enter as the extension cocycle: the checks then run on
    the extension over the central generator z, on the r fields alone,
    since every bracket with z vanishes.
    """
    P, beta = poisson_to_pseudo(spec)
    if beta is not None:
        P = hat_central_extension(P, beta)
    rep = verify_axioms_elements(P, {g: P.element(g) for g in range(spec.r)})
    rep.title = "poisson-jacobi(r=%d,N=%d)" % (spec.r, spec.N)
    return rep
