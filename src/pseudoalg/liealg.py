"""Finite-dimensional Lie algebras over Q and constant-coefficient exterior forms.

A LieAlgebra holds structure constants on an ordered basis.  Forms on the
dual space carry the geometric data (a closed 1-form chi, a 2-form omega,
a contact form theta) that parameterize the rank-one pseudoalgebra
families; validation of that data lives here as well.
"""

from itertools import combinations

from .linalg import SparseCombination, bump, bump_all, div, exact, invert_matrix, nullspace
from .pseudo import Report


class LieAlgebra:
    """Lie algebra given by rational structure constants on an ordered basis.

    Brackets are stored for index pairs i < j only and extended by
    antisymmetry, so the stored table can never break antisymmetry.
    """

    def __init__(self, name, basis, brackets):
        """`brackets`: {(i, j): {k: rational}} with i < j, [x_i, x_j] = sum c^k x_k."""
        self.name = name
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        tbl = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < j < self.dim):
                raise ValueError("bracket indices must satisfy 0 <= i < j < dim")
            comps = {k: c for k, c in zip(comps, map(exact, comps.values())) if c}
            for k in comps:
                if not 0 <= k < self.dim:
                    raise ValueError("bracket component out of range")
            if comps:
                tbl[(i, j)] = comps
        self.table = tbl
        self._trace_ad = None
        self._killing = None
        # pbw tables in the monomial basis x^I = I! d^(I), integral when the
        # structure constants are: x_g x^K per (g, K), x^I x^J per (I, J) and
        # R(I) per I; then the divided-power views mul_basis, antipode_basis
        # and mul_antipode, per request
        self._straight_cache = {}
        self._monomial_mul_cache = {}
        self._reversed_cache = {}
        self._mul_cache = {}
        self._antipode_cache = {}
        self._mul_antipode_cache = {}
        self._adjoint_cache = {}

    def bracket(self, i, j):
        """[x_i, x_j] as {k: coeff}, any index order."""
        if i == j:
            return {}
        if i < j:
            return dict(self.table.get((i, j), {}))
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def bracket_elements(self, u, v):
        """Bracket of two coefficient vectors {i: coeff}."""
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                bump_all(out, ci * cj, self.bracket(i, j).items())
        return out

    @property
    def is_abelian(self):
        return not self.table

    def ad_matrix(self, i):
        """Matrix of ad x_i: column j holds [x_i, x_j]."""
        m = [[0] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for k, c in self.bracket(i, j).items():
                m[k][j] = c
        return m

    def jacobi_failures(self):
        fails = []
        for i, j, k in combinations(range(self.dim), 3):
            acc = {}
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                inner = self.bracket(b, c)
                for m, cm in inner.items():
                    bump_all(acc, cm, self.bracket(a, m).items())
            if acc:
                fails.append(((i, j, k), acc))
        return fails

    def trace_ad(self):
        if self._trace_ad is None:
            self._trace_ad = tuple(
                sum(self.ad_matrix(i)[j][j] for j in range(self.dim))
                for i in range(self.dim))
        return self._trace_ad

    def killing_form(self):
        """Matrix (x_i | x_j) = tr(ad x_i ad x_j); computed once and cached."""
        if self._killing is None:
            ads = [self.ad_matrix(i) for i in range(self.dim)]
            n = self.dim
            K = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    t = sum(ads[i][p][q] * ads[j][q][p]
                            for p in range(n) for q in range(n))
                    K[i][j] = K[j][i] = t
            self._killing = K
        return self._killing

    def killing_nondegenerate(self):
        try:
            invert_matrix(self.killing_form())
            return True
        except ValueError:
            return False

    def is_trace_form(self, chi):
        """chi vanishes on [d, d]; chi given as a length-dim coefficient tuple."""
        for (i, j), comps in self.table.items():
            v = sum(exact(chi[k]) * c for k, c in comps.items())
            if v:
                return False
        return True

    def __repr__(self):
        return "LieAlgebra(%s, dim=%d)" % (self.name, self.dim)


def validate_lie_algebra(alg):
    rep = Report("lie-algebra:%s" % alg.name)
    for idx, acc in alg.jacobi_failures():
        rep.record("jacobi", False, {"triple": idx, "residual": acc})
    if rep.ok:
        rep.data["trace_ad"] = alg.trace_ad()
        rep.data["killing"] = alg.killing_form()
    return rep


class Form(SparseCombination):
    """Alternating form on the Lie algebra with rational coefficients.

    Coefficients are indexed by strictly increasing index tuples into the
    dual basis; evaluation on arbitrary tuples sorts and signs.
    """

    _space = ("alg", "degree")

    def __init__(self, alg, degree, coeffs=None):
        if not 0 <= degree <= alg.dim:
            raise ValueError("form degree out of range")
        self.alg = alg
        self.degree = degree
        self.c = {}
        for idx, v in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(idx) or len(set(idx)) != degree:
                raise ValueError("indices must be strictly increasing of the right length")
            v = exact(v)
            if v:
                self.c[idx] = v

    def __call__(self, *indices):
        """Evaluate on basis vectors x_{i1} ^ ... ^ x_{in} (any order)."""
        if len(indices) != self.degree:
            raise ValueError("arity mismatch")
        sign, key = sort_with_sign(indices)
        return sign * self.c.get(key, 0)

    def eval_vector_slot(self, vec, rest):
        """Evaluate with a coefficient vector {i: c} in the first slot."""
        return sum(c * self(i, *rest) for i, c in vec.items())

    def is_zero(self):
        return not self.c

    def wedge(self, other):
        deg = self.degree + other.degree
        if deg > self.alg.dim:
            # above the top degree everything vanishes
            return Form(self.alg, self.alg.dim, {})
        out = {}
        for a, ca in self.c.items():
            for b, cb in other.c.items():
                sign, key = sort_with_sign(a + b)
                if sign:
                    bump(out, key, sign * ca * cb)
        return Form(self.alg, deg, out)

    def __repr__(self):
        if not self.c:
            return "Form(0)"
        return "Form(" + " + ".join("%s*e*%s" % (v, list(k)) for k, v in sorted(self.c.items())) + ")"


def sort_with_sign(indices):
    """(sign, sorted tuple) of x_{i1} ^ ... ^ x_{in} = sign * x_sorted.

    The sign is that of the sorting permutation, and 0 when an index
    repeats (the wedge vanishes).
    """
    key = tuple(sorted(indices))
    if len(set(key)) != len(key):
        return 0, key
    n = len(key)
    inversions = sum(indices[p] > indices[q] for p in range(n) for q in range(p + 1, n))
    return (-1) ** inversions, key


def ce_differential(alg, w):
    """Constant-coefficient Chevalley-Eilenberg differential.

    (dw)(x_{i_1} ^ ... ^ x_{i_{n+1}}) collects -w([x_a, x_b] ^ ...) over
    index pairs; d d = 0 is exactly the Jacobi identity of the algebra.
    """
    n = w.degree
    if n >= alg.dim:
        raise ValueError("degree overflow")
    out = {}
    for idx in combinations(range(alg.dim), n + 1):
        total = 0
        for a in range(n + 1):
            for b in range(a + 1, n + 1):
                rest = tuple(idx[p] for p in range(n + 1) if p != a and p != b)
                sign = (-1) ** (a + b)  # 0-based pair (a,b) of (-1)^{i+j}, i<j 1-based
                inner = alg.bracket(idx[a], idx[b])
                total += sign * w.eval_vector_slot(inner, rest)
        if total:
            out[idx] = total
    return Form(alg, n + 1, out)


class GeometricDatum:
    """Input data for the rank-one families: either (chi, omega) or theta."""

    def __init__(self, kind, chi=None, omega=None, theta=None):
        if kind not in ("H", "K"):
            raise ValueError("kind must be 'H' or 'K'")
        self.kind = kind
        self.chi = chi
        self.omega = omega
        self.theta = theta


def validate_geometric_datum(alg, datum):
    """Check the defining identities and extract the (r, s) pair.

    H kind: omega nondegenerate with d(omega) + chi ^ omega = 0 and
    d(chi) = 0; then r is the matrix inverse of omega and s is determined
    by chi = iota_s omega.  K kind: theta a contact form; s spans the
    radical of d(theta) normalized by theta(s) = -1, and r inverts
    d(theta) on ker theta.
    """
    rep = Report("geometric-datum:%s" % datum.kind)
    N = alg.dim
    if datum.kind == "H":
        if N % 2 == 1:
            rep.record("even-dimension", False)
            return rep
        omega, chi = datum.omega, datum.chi
        if omega.degree != 2 or chi.degree != 1:
            rep.record("degree-shape", False)
            return rep
        top = omega
        for _ in range(N // 2 - 1):
            top = top.wedge(omega)
        if top.is_zero():
            rep.record("omega-degenerate", False)
        if not ce_differential(alg, chi).is_zero():
            rep.record("chi-not-closed", False)
        if omega.degree < N:
            # otherwise d(omega) and chi ^ omega live above the top degree
            resid = ce_differential(alg, omega) + chi.wedge(omega)
            if not resid.is_zero():
                rep.record("omega-twisted-cocycle", False, repr(resid))
        if not rep.ok:
            return rep
        W = [[omega(i, j) for j in range(N)] for i in range(N)]
        try:
            R = invert_matrix(W)
        except ValueError:
            rep.record("omega-degenerate", False)
            return rep
        # chi(x_j) = omega(s ^ x_j) = sum_i s^i W[i][j], so s = chi . W^{-1}
        s = [sum(chi(i) * R[i][k] for i in range(N)) for k in range(N)]
        for j in range(N):
            got = sum(s[i] * W[i][j] for i in range(N))
            if got != chi(j):
                rep.record("s-recovery", False)
                return rep
        rep.data["r"] = R
        rep.data["s"] = tuple(s)
        return rep

    # contact kind
    if N % 2 == 0:
        rep.record("odd-dimension", False)
        return rep
    theta = datum.theta
    if theta.degree != 1:
        rep.record("degree-shape", False)
        return rep
    if N == 1:
        # the contact condition degenerates to theta != 0
        if theta.is_zero():
            rep.record("not-contact", False)
            return rep
        v = theta(0)
        rep.data["r"] = [[0]]
        rep.data["s"] = (div(-1, v),)
        return rep
    dtheta = ce_differential(alg, theta)
    top = theta
    for _ in range((N - 1) // 2):
        top = top.wedge(dtheta)
    if top.is_zero():
        rep.record("not-contact", False)
        return rep
    # radical of dtheta; theta(s) = -1 fixes s whatever basis spans it
    D = [[dtheta(i, j) for j in range(N)] for i in range(N)]
    kernel = nullspace(({j: x for j, x in enumerate(row) if x} for row in D), range(N))
    if len(kernel) != 1:
        rep.record("radical-dimension", False, len(kernel))
        return rep
    v = kernel[0]
    pairing = sum(theta(i) * c for i, c in v.items())
    if not pairing:
        rep.record("radical-on-kernel", False)
        return rep
    s = tuple(div(-v.get(i, 0), pairing) for i in range(N))
    # r = K G^-1 K^T with G = K^T D K is the same for every basis K of ker theta
    kb = nullspace([{i: theta(i) for i in range(N) if theta(i)}], range(N))
    G = [[sum(a * b * D[i][j] for i, a in u.items() for j, b in w.items())
          for w in kb] for u in kb]
    try:
        Ginv = invert_matrix(G)
    except ValueError:
        rep.record("dtheta-degenerate-on-kernel", False)
        return rep
    R = [[0] * N for _ in range(N)]
    for p, u in enumerate(kb):
        for q, w in enumerate(kb):
            if Ginv[p][q]:
                for i, a in u.items():
                    for j, b in w.items():
                        R[i][j] += Ginv[p][q] * a * b
    rep.data["r"] = R
    rep.data["s"] = s
    return rep


# ---------------------------------------------------------------------------
# a small named catalog used throughout the tests and the CLI

def abelian(n):
    return LieAlgebra("abelian%d" % n, ["d%d" % (i + 1) for i in range(n)], {})


def solvable2():
    """[a, b] = b."""
    return LieAlgebra("solv2", ["a", "b"], {(0, 1): {1: 1}})


def heisenberg3():
    """[a, b] = c."""
    return LieAlgebra("heis3", ["a", "b", "c"], {(0, 1): {2: 1}})


def sl2():
    """Basis (e, f, h): [e, f] = h, [h, e] = 2e, [h, f] = -2f."""
    return LieAlgebra("sl2", ["e", "f", "h"],
                      {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})


CATALOG_BUILDERS = {
    "abelian1": lambda: abelian(1),
    "abelian2": lambda: abelian(2),
    "abelian3": lambda: abelian(3),
    "abelian4": lambda: abelian(4),
    "solv2": solvable2,
    "heis3": heisenberg3,
    "sl2": sl2,
}


def algebra_by_name(name):
    if name not in CATALOG_BUILDERS:
        raise KeyError("unknown Lie algebra %r" % name)
    return CATALOG_BUILDERS[name]()
