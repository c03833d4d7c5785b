"""What one job of each workload computes and how its result is checked.

Every workload offers `setup()`, which builds the structures its jobs
share, `execute(ctx, job)`, which calls into the public API of pseudoalg
and returns the raw result, and `verify(ctx, job, result)`, which says
whether the result is right.  `corrupt(result)` damages a result for the
benchmark's negative self-test.  The caller must have put the package
source on `sys.path` before importing this module.  Calls go through the
package's module attributes, so span wrappers installed later see them.
"""

from fractions import Fraction
from math import factorial

import pseudoalg as pa
from pseudoalg import forms, pseudo

import gen


def is_probe(job):
    return job[0][0] == "probe"


def rank1_datum(struct):
    """Fresh datum of a rank-one structure: the named data, and rank1:w1 for
    the vector fields in one variable."""
    name = struct.partition(":")[2]
    if name == "w1":
        return pa.Rank1Datum(pa.algebra_by_name("abelian1"), [[0]], (1,))
    return pa.named_rank1_datum(name)


# -- hopf ----------------------------------------------------------------------

def probe_factors(alg_name, k):
    """d^(0..,k) and d^(k,..0) for a deep probe."""
    dim = gen.DIMS[alg_name]
    return (0,) * (dim - 1) + (k,), (k,) + (0,) * (dim - 1)


def probe_expected(alg_name, k):
    """Closed form of the probe product, derived without straightening.

    sl2 (e, f, h): h e = e (h + 2), so h^k e^k = e^k (h + 2k)^k and
        d^(0,0,k) d^(k,0,0) = sum_j (2k)^(k-j) / (k-j)! d^(k,0,j).
    solv2 (a, b), [a, b] = b: b a = (a - 1) b, so b^k a^k = (a - k)^k b^k and
        d^(0,k) d^(k,0) = sum_j (-k)^(k-j) / (k-j)! d^(j,k).
    """
    if alg_name == "sl2":
        return {(k, 0, j): Fraction((2 * k) ** (k - j), factorial(k - j))
                for j in range(k + 1)}
    if alg_name == "solv2":
        return {(j, k): Fraction((-k) ** (k - j), factorial(k - j))
                for j in range(k + 1)}
    raise KeyError("no closed form for %r" % alg_name)


def hopf_setup():
    return None


def hopf_execute(ctx, job):
    shape, payload = job
    alg = pa.algebra_by_name(shape[1])
    if shape[0] == "probe":
        left, right = probe_factors(shape[1], shape[2])
        return [(pa.HElt.monomial(alg, left) * pa.HElt.monomial(alg, right),
                 pa.HElt(alg, probe_expected(shape[1], shape[2])))]
    x, y, z = (pa.HElt(alg, dict(terms)) for terms in payload)
    xy = x * y
    t = pa.TensorElt.pure([x, z])
    return [(xy * z, x * (y * z)),
            (xy.antipode(), y.antipode() * x.antipode()),
            (xy.coproduct(), x.coproduct() * y.coproduct()),
            (x.antipode().antipode(), x),
            (pa.fourier(pa.fourier(t), inverse=True), t)]


def pairs_verify(ctx, job, result):
    return all(lhs == rhs for lhs, rhs in result)


def hopf_corrupt(result):
    (lhs, rhs), rest = result[0], result[1:]
    return [(lhs + pa.HElt.one(lhs.alg), rhs)] + rest


# -- identities ---------------------------------------------------------------

def identities_setup():
    """The shared structures, built once; their caches warm across jobs."""
    sl2 = pa.algebra_by_name("sl2")
    wd_heis, wd_heis_h = pa.make_wd(pa.algebra_by_name("heis3"))
    wd_sl2, _ = pa.make_wd(sl2)
    sd3 = pa.make_sd(pa.algebra_by_name("abelian3"))
    sd4 = pa.make_sd(pa.algebra_by_name("abelian4"))
    structures = {name: pa.make_rank1(rank1_datum(name), run_axioms=False)
                  for name in gen.RANK1}
    structures.update({
        "cur:sl2": pa.make_current(pa.algebra_by_name("abelian1"), sl2),
        "wd:heis3": wd_heis,
        "wd:sl2": wd_sl2,
        "sd:abelian3": sd3,
        "sd:abelian4": sd4,
        "gc:3": pa.make_gc(pa.algebra_by_name("abelian1"), 3)[1],
        "gc:2@sl2": pa.make_gc(sl2, 2)[1],
        "cend:2": pa.make_cend(pa.algebra_by_name("abelian1"), 2),
    })
    modules = {("wd:heis3", "H"): wd_heis_h}
    for struct, P in (("wd:heis3", wd_heis), ("wd:sl2", wd_sl2)):
        for degree in (1, 2):
            modules[(struct, "forms%d" % degree)] = forms.wd_action_on_forms(P, degree)
    return {"structures": structures, "modules": modules}


def _element(target, module, terms):
    """Module element from (multi-index, generator, coefficient) terms.

    For the divergence-free structures the generator is a pair (a, b) and
    the term stands for coefficient * d^(I) e_ab inside the ambient
    vector fields.
    """
    if hasattr(target, "ambient"):
        out = pa.MElt.zero(target.ambient.module)
        for I, pair, c in terms:
            out = out + target.gens[pair].h_mul(pa.HElt.monomial(target.alg, I, c))
        return out
    return pa.MElt(module, {(I, g): c for I, g, c in terms})


def identities_execute(ctx, job):
    (check, struct, module, _, _), elts = job
    target = ctx["structures"][struct]
    P = getattr(target, "ambient", target)
    a, b = (_element(target, P.module, t) for t in elts[:2])
    rep = pa.Report("%s:%s" % (check, struct))
    if check == "skew":
        res = pseudo.skew_residual(P, a, b)
    elif check == "jacobi":
        res = pseudo.jacobi_residual(P, a, b, _element(target, P.module, elts[2]))
    elif check == "assoc":
        res = pseudo.assoc_residual(P, a, b, _element(target, P.module, elts[2]))
    else:
        M = ctx["modules"][(struct, module)]
        res = pseudo.module_residual(P, M, a, b, _element(M, M.module, elts[2]))
    rep.record(check, not res, None if not res else res)
    return rep


def identities_verify(ctx, job, result):
    return result.ok


def identities_corrupt(result):
    result.record("corrupted", False)
    return result


# -- annihilate ---------------------------------------------------------------

def annihilate_setup():
    return {name: pa.make_wd(pa.algebra_by_name(name))[0]
            for name in gen.ANNIHILATE_ALGEBRAS}


def annihilate_execute(ctx, job):
    (_, alg_name, cutoff, _), (uterms, vterms) = job
    P = ctx[alg_name]
    u, v = (pa.AnnihilationElement(P.module, cutoff, {(I, g): c for I, g, c in terms})
            for terms in (uterms, vterms))
    br = pa.annihilation_bracket(P, u, v)
    vf = pa.vector_field_bracket(P.alg, u, v)
    cut = min(br.cutoff, vf.cutoff)
    return [(br.truncate(cut), vf.truncate(cut))]


def annihilate_corrupt(result):
    (br, vf), rest = result[0], result[1:]
    extra = pa.AnnihilationElement.generator(br.module, (0,) * br.module.alg.dim,
                                          br.module.gens[0], br.cutoff)
    return [(br + extra, vf)] + rest


# -- central ------------------------------------------------------------------

# (dim_h2, dim_cocycles, dim_trivial) of every structure in the pool, as the
# solvers returned them at the commit that defined the benchmark, at every
# window in gen.CENTRAL_SHAPES (dmax 3-8 for the rank-one data, checked
# at each of 3-8)
CENTRAL_PINS = {
    "rank1:w1": (1, 2, 1),
    "rank1:abelian2": (2, 2, 0),
    "rank1:heisenberg": (0, 1, 1),
    "rank1:solv2": (0, 1, 1),
    "rank1:sl2": (0, 1, 1),
    "cur:sl2": (1, 4, 3),
    "wd:solv2": (0, 2, 2),
    "wd:heis3": (0, 3, 3),
    "wd:abelian3": (0, 3, 3),
    "sd:abelian3": (0, 3, 3),
    "sd:abelian4": (0, 6, 6),
}
# the generic solver is cross-checked against the closed rank-one form up to
# this window; both agree there
CROSS_CHECK_DMAX = 4


def _dims(sol):
    return (sol.dim, sol.dim_cocycles, sol.dim_trivial)


def central_setup():
    return {"pins": dict(CENTRAL_PINS)}


def central_execute(ctx, job):
    (_, struct, dmax), _ = job
    family, _, name = struct.partition(":")
    if family == "rank1":
        P = pa.make_rank1(rank1_datum(struct), run_axioms=False)
        out = {"dims": _dims(pa.solve_central_extensions_rank1(P, dmax))}
        if dmax <= CROSS_CHECK_DMAX:
            out["generic"] = _dims(pa.solve_central_extensions(P, dmax))
        return out
    if family == "sd":
        return {"dims": _dims(pa.sd_central_suite(pa.algebra_by_name(name), dmax))}
    if family == "cur":
        P = pa.make_current(pa.algebra_by_name("abelian1"), pa.algebra_by_name(name))
    else:
        P = pa.make_wd(pa.algebra_by_name(name))[0]
    return {"dims": _dims(pa.solve_central_extensions(P, dmax))}


def central_verify(ctx, job, result):
    struct = job[0][1]
    return (result["dims"] == ctx["pins"][struct]
            and result.get("generic", result["dims"]) == result["dims"])


def central_corrupt(result):
    h2, cocycles, trivial = result["dims"]
    return dict(result, dims=(h2 + 1, cocycles, trivial))


WORKLOADS = {
    "hopf": (hopf_setup, hopf_execute, pairs_verify, hopf_corrupt),
    "identities": (identities_setup, identities_execute, identities_verify,
                   identities_corrupt),
    "annihilate": (annihilate_setup, annihilate_execute, pairs_verify,
                   annihilate_corrupt),
    "central": (central_setup, central_execute, central_verify, central_corrupt),
}

