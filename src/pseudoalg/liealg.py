"""Finite-dimensional Lie algebras over Q and constant-coefficient exterior forms.

A LieAlgebra holds structure constants on an ordered basis.  Forms on the
dual space carry the geometric data (a closed 1-form chi, a 2-form omega,
a contact form theta) that parameterize the rank-one pseudoalgebra
families; validation of that data lives here as well.
"""

from fractions import Fraction
from itertools import combinations

from .linalg import SparseCombination, bump, invert_matrix

Fr = Fraction


class ValidationReport:
    """Outcome of a structural check: a list of named failures, empty iff valid."""

    def __init__(self):
        self.failures = []
        self.data = {}

    def fail(self, name, witness=None):
        self.failures.append((name, witness))

    @property
    def ok(self):
        return not self.failures

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        return "ValidationReport(failures=%r)" % (self.failures,)


class LieAlgebra:
    """Lie algebra given by rational structure constants on an ordered basis.

    Brackets are stored for index pairs i < j only and extended by
    antisymmetry, so the stored table can never break antisymmetry.
    """

    def __init__(self, name, basis, brackets):
        """`brackets`: {(i, j): {k: Fraction}} with i < j, [x_i, x_j] = sum c^k x_k."""
        self.name = name
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        tbl = {}
        for (i, j), comps in brackets.items():
            if not (0 <= i < j < self.dim):
                raise ValueError("bracket indices must satisfy 0 <= i < j < dim")
            comps = {k: Fr(c) for k, c in comps.items() if Fr(c)}
            for k in comps:
                if not 0 <= k < self.dim:
                    raise ValueError("bracket component out of range")
            if comps:
                tbl[(i, j)] = comps
        self.table = tbl
        self._trace_ad = None
        self._killing = None
        self._mul_cache = {}
        self._straight_cache = {}
        self._antipode_cache = {}
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
                for k, c in self.bracket(i, j).items():
                    bump(out, k, ci * cj * c)
        return out

    @property
    def is_abelian(self):
        return not self.table

    def ad_matrix(self, i):
        """Matrix of ad x_i: column j holds [x_i, x_j]."""
        m = [[Fr(0)] * self.dim for _ in range(self.dim)]
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
                    for p, cp in self.bracket(a, m).items():
                        bump(acc, p, cm * cp)
            if acc:
                fails.append(((i, j, k), acc))
        return fails

    def trace_ad(self):
        if self._trace_ad is None:
            self._trace_ad = tuple(
                sum((self.ad_matrix(i)[j][j] for j in range(self.dim)), Fr(0))
                for i in range(self.dim))
        return self._trace_ad

    def killing_form(self):
        """Matrix (x_i | x_j) = tr(ad x_i ad x_j); computed once and cached."""
        if self._killing is None:
            ads = [self.ad_matrix(i) for i in range(self.dim)]
            n = self.dim
            K = [[Fr(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    t = sum((ads[i][p][q] * ads[j][q][p]
                             for p in range(n) for q in range(n)), Fr(0))
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
            v = sum((Fr(chi[k]) * c for k, c in comps.items()), Fr(0))
            if v:
                return False
        return True

    def __repr__(self):
        return "LieAlgebra(%s, dim=%d)" % (self.name, self.dim)


def validate_lie_algebra(alg):
    rep = ValidationReport()
    for idx, acc in alg.jacobi_failures():
        rep.fail("jacobi", {"triple": idx, "residual": acc})
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
            v = Fr(v)
            if v:
                self.c[idx] = v

    def __call__(self, *indices):
        """Evaluate on basis vectors x_{i1} ^ ... ^ x_{in} (any order)."""
        if len(indices) != self.degree:
            raise ValueError("arity mismatch")
        if len(set(indices)) != len(indices):
            return Fr(0)
        order = sorted(range(len(indices)), key=lambda p: indices[p])
        sign = _perm_sign(order)
        return sign * self.c.get(tuple(sorted(indices)), Fr(0))

    def eval_vector_slot(self, vec, rest):
        """Evaluate with a coefficient vector {i: c} in the first slot."""
        return sum((c * self(i, *rest) for i, c in vec.items()), Fr(0))

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
                if set(a) & set(b):
                    continue
                merged = a + b
                order = sorted(range(len(merged)), key=lambda p: merged[p])
                sign = _perm_sign(order)
                bump(out, tuple(sorted(merged)), sign * ca * cb)
        return Form(self.alg, deg, out)

    def __repr__(self):
        if not self.c:
            return "Form(0)"
        return "Form(" + " + ".join("%s*e*%s" % (v, list(k)) for k, v in sorted(self.c.items())) + ")"


def _perm_sign(order):
    sign = 1
    seen = [False] * len(order)
    for i in range(len(order)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


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
        total = Fr(0)
        for a in range(n + 1):
            for b in range(a + 1, n + 1):
                rest = tuple(idx[p] for p in range(n + 1) if p != a and p != b)
                sign = Fr((-1) ** (a + b))  # 0-based pair (a,b) of (-1)^{i+j}, i<j 1-based
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
    rep = ValidationReport()
    N = alg.dim
    if datum.kind == "H":
        if N % 2 == 1:
            rep.fail("even-dimension")
            return rep
        omega, chi = datum.omega, datum.chi
        if omega.degree != 2 or chi.degree != 1:
            rep.fail("degree-shape")
            return rep
        top = omega
        for _ in range(N // 2 - 1):
            top = top.wedge(omega)
        if top.is_zero():
            rep.fail("omega-degenerate")
        if not ce_differential(alg, chi).is_zero():
            rep.fail("chi-not-closed")
        if omega.degree < N:
            # otherwise d(omega) and chi ^ omega live above the top degree
            resid = ce_differential(alg, omega) + chi.wedge(omega)
            if not resid.is_zero():
                rep.fail("omega-twisted-cocycle", repr(resid))
        if not rep.ok:
            return rep
        W = [[omega(i, j) for j in range(N)] for i in range(N)]
        try:
            R = invert_matrix(W)
        except ValueError:
            rep.fail("omega-degenerate")
            return rep
        # chi(x_j) = omega(s ^ x_j) = sum_i s^i W[i][j], so s = chi . W^{-1}
        s = [sum((chi(i) * R[i][k] for i in range(N)), Fr(0)) for k in range(N)]
        for j in range(N):
            got = sum((s[i] * W[i][j] for i in range(N)), Fr(0))
            if got != chi(j):
                rep.fail("s-recovery")
                return rep
        rep.data["r"] = R
        rep.data["s"] = tuple(s)
        return rep

    # contact kind
    if N % 2 == 0:
        rep.fail("odd-dimension")
        return rep
    theta = datum.theta
    if theta.degree != 1:
        rep.fail("degree-shape")
        return rep
    if N == 1:
        # the contact condition degenerates to theta != 0
        if theta.is_zero():
            rep.fail("not-contact")
            return rep
        v = theta(0)
        rep.data["r"] = [[Fr(0)]]
        rep.data["s"] = (Fr(-1) / v,)
        return rep
    dtheta = ce_differential(alg, theta)
    top = theta
    for _ in range((N - 1) // 2):
        top = top.wedge(dtheta)
    if top.is_zero():
        rep.fail("not-contact")
        return rep
    # radical of dtheta
    M = [[dtheta(i, j) for j in range(N)] for i in range(N)]
    kernel = _matrix_kernel(M)
    if len(kernel) != 1:
        rep.fail("radical-dimension", len(kernel))
        return rep
    v = kernel[0]
    pairing = sum((theta(i) * v[i] for i in range(N)), Fr(0))
    if not pairing:
        rep.fail("radical-on-kernel")
        return rep
    s = tuple(-v[i] / pairing for i in range(N))  # theta(s) = -1
    # basis of ker theta
    kb = _functional_kernel([theta(i) for i in range(N)])
    G = [[sum((kb[p][i] * kb[q][j] * dtheta(i, j) for i in range(N) for j in range(N)), Fr(0))
          for q in range(len(kb))] for p in range(len(kb))]
    try:
        Ginv = invert_matrix(G)
    except ValueError:
        rep.fail("dtheta-degenerate-on-kernel")
        return rep
    R = [[Fr(0)] * N for _ in range(N)]
    for p in range(len(kb)):
        for q in range(len(kb)):
            if Ginv[p][q]:
                for i in range(N):
                    for j in range(N):
                        R[i][j] += Ginv[p][q] * kb[p][i] * kb[q][j]
    rep.data["r"] = R
    rep.data["s"] = s
    return rep


def _matrix_kernel(M):
    n = len(M)
    rows = [list(r) for r in M]
    pivots = []
    rr = 0
    for col in range(n):
        piv = next((r for r in range(rr, n) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rr], rows[piv] = rows[piv], rows[rr]
        inv = Fr(1) / rows[rr][col]
        rows[rr] = [x * inv for x in rows[rr]]
        for r in range(n):
            if r != rr and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rr])]
        pivots.append(col)
        rr += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fr(0)] * n
        v[fc] = Fr(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def _functional_kernel(chi):
    n = len(chi)
    piv = next((i for i in range(n) if chi[i]), None)
    if piv is None:
        return [[Fr(1) if i == j else Fr(0) for i in range(n)] for j in range(n)]
    basis = []
    for j in range(n):
        if j == piv:
            continue
        v = [Fr(0)] * n
        v[j] = Fr(1)
        v[piv] = -chi[j] / chi[piv]
        basis.append(v)
    return basis


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
