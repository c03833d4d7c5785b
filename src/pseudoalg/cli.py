"""Batch front end.

Subcommands: verify, bracket, xbracket, annihilate, cohomology, poisson,
catalog, forms.  `build_structure` is the one place that knows the
structure families: it turns a reference such as cur:sl2 or sd:abelian3
into the structure that bracket, xbracket and annihilate act on, the
family's verify report and its central-extension solver.  Exit codes: 0
all checks pass, 1 a mathematical check failed (witnesses in the
report), 2 input or usage error, unreadable or unwritable files
included.  Reports are deterministic for a fixed --seed, which is echoed
in every report.
"""

import argparse
import json
import math
import sys
from itertools import combinations, product

from . import liealg
from .annihilation import (AnnihilationElement, PrecisionError, TruncatedSeries,
                           annihilation_bracket, vector_field_bracket)
from .cohomology import (sd_central_suite, solve_central_extensions,
                         solve_central_extensions_rank1)
from .constructions import (Rank1Datum, check_ybe, embed_rank1_in_wd,
                            make_current, make_gc, make_rank1,
                            make_rank1_from_alpha, make_sd, make_wd,
                            named_rank1_datum, wd_element)
from .forms import (PForm, act_on_form, contract_form, differential_on_quotient,
                    form_differential, form_module, volume_action_expected,
                    wd_action_on_forms)
from .io import load_poisson, save_json
from .liealg import algebra_by_name
from .literals import parse_fraction, parse_helt, parse_module_element, parse_tensor
from .pbw import multiindices_up_to
from .poisson import (poisson_catalog, poisson_to_pseudo, pseudo_to_poisson,
                      verify_poisson_jacobi)
from .pseudo import (Report, verify_axioms, verify_axioms_elements, verify_module,
                     x_bracket)
from .tensor import QElt

# Largest number of dual basis monomials t_I (|I| <= cutoff) that
# `annihilate` takes on; the README command (wd:abelian2 at cutoff 6)
# needs 28.  The run builds and caches one transposed product table over
# them per monomial it acts by, so this count bounds the table work and
# the memory (at the budget, sl2 at cutoff 20 and abelian4 at 12 peak at
# about 24 and 28 MB), and beyond it a run is refused as an input error
# instead of running for minutes or without end.  It does not bound the
# run time, which is set by the dim^2 * C(min(3, cutoff - 2) + dim, dim)^2
# bracket pairs checked: those stop growing at cutoff 5, so abelian4
# checks 19,600 pairs in about 1 s at cutoff 6 (210 monomials) as at 12,
# and sl2 3,600 pairs in about 2 s at cutoff 20 (in process, one core of
# a shared 2-vCPU VM).
ANNIHILATE_MAX_MONOMIALS = 2000

# Largest number of generator triples (len(verify_gens) ** 3) that `verify`
# checks on `gc:<n>` and `cend:<n>`, and `poisson verify` on a spec of r
# fields (r ** 3): one Jacobi or associativity residual each, about 5 s for
# the 32,768 of gc:4.  The build budget of `constructions.CEND_MAX_GENERATORS`
# admits gc:45, whose suite would never end; this one admits gc:4 over one
# direction, gc:3 over sl2 and a spec of 36 fields.
VERIFY_MAX_TRIPLES = 50_000

# Largest number of unknowns, |gens|^2 * C(dmax + dim, dim), that
# `cohomology central` solves for: one cocycle coefficient per ordered
# generator pair and window monomial, counted before any row is built.
# It admits wd:sl2 at dmax 10 (2,574 unknowns, about 2 s) and sd:abelian4
# at dmax 4 (2,520, about 0.3 s), the widest known windows; wd:sl2 at
# dmax 12 (4,095) takes about 7 s, and at dmax 40 (111,069) it ran past
# 20 s without end in sight.
CENTRAL_MAX_UNKNOWNS = 3_000


def _parse_chi(text):
    """Comma-separated rationals, as in sd:abelian3:1,0,0 or --chi 1,0."""
    return tuple(parse_fraction(x) for x in text.split(","))


def build_structure(spec, alpha=None, algebra=None):
    """Materialize a structure reference like cur:sl2 or wd:heis3.

    Returns (family, P, verify, central): the family is the head of the
    reference (or "rank1"); P is the structure that bracket, xbracket and
    annihilate act on; verify() builds the family's report; central(dmax)
    runs the family's central-extension solver once the window's unknowns
    are counted under `CENTRAL_MAX_UNKNOWNS`.
    """
    family, _, rest = spec.partition(":")
    verify = central = ngens = None
    if spec == "rank1":
        alg = algebra_by_name(algebra or "abelian1")
        if alpha is None:
            raise ValueError("rank1 needs --alpha")
        P = make_rank1_from_alpha(alg, parse_tensor(alg, alpha, arity=2), name="rank1")
    elif family == "cur":
        gname, _, dname = rest.partition("@")
        g = algebra_by_name(gname)
        P = make_current(algebra_by_name(dname or "abelian1"), g)
    elif family == "wd":
        alg = algebra_by_name({"dim1": "abelian1"}.get(rest, rest))
        P, M = make_wd(alg)

        def verify():
            return verify_module(P, M, report=verify_axioms(P))
        if alg.dim == 1 and alg.is_abelian:
            def central(dmax):
                # the one-variable vector fields are the rank-one datum r = 0, s = 1
                R = make_rank1(Rank1Datum(alg, [[0]], (1,)), run_axioms=False)
                return solve_central_extensions_rank1(R, dmax=dmax)
    elif family == "sd":
        dname, _, chis = rest.partition(":")
        S = make_sd(algebra_by_name(dname), _parse_chi(chis) if chis else None)
        P = S.ambient
        ngens = len(S.pairs)  # the central solve runs over the pair generators

        def verify():
            rep = Report("sd:%s" % S.alg.name)
            elts = {"e_%d%d" % (a + 1, b + 1): S.gens[(a, b)] for (a, b) in S.pairs}
            verify_axioms_elements(P, elts, report=rep)
            rep.extend(S.closure_report())
            return rep

        def central(dmax):
            if any(S.chi):
                raise ValueError("central extensions of sd are solved for chi = 0 only")
            return sd_central_suite(S.alg, dmax=dmax)
    elif family in ("h-type", "k-type"):
        datum = named_rank1_datum(rest)
        P = make_rank1(datum, run_axioms=False)

        def verify():
            rep = check_ybe(datum)
            verify_axioms(P, report=rep)
            rep.extend(embed_rank1_in_wd(datum))
            return rep

        def central(dmax):
            return solve_central_extensions_rank1(P, dmax=dmax)
    elif family in ("gc", "cend"):
        nstr, _, dname = rest.partition("@")
        # the rank as it prints: ASCII digits, no sign, space, _ or leading zero
        if not (nstr.isascii() and nstr.isdigit() and nstr == str(int(nstr))):
            raise ValueError("rank %r of %s is not a plain decimal numeral" % (nstr, spec))
        C, G = make_gc(algebra_by_name(dname or "abelian1"), int(nstr))
        P = C if family == "cend" else G

        def verify():
            triples = len(P.verify_gens) ** 3
            if triples > VERIFY_MAX_TRIPLES:
                raise ValueError("%s has %d generator triples to verify, over the budget "
                                 "of %d" % (spec, triples, VERIFY_MAX_TRIPLES))
            return verify_axioms(P)
    else:
        raise ValueError("unknown structure %r" % spec)
    solve = central or (lambda dmax: solve_central_extensions(P, dmax=dmax))
    ngens = len(P.module.gens) if ngens is None else ngens

    def budgeted_central(dmax):
        # a negative dmax is left to the solver, which names it
        unknowns = ngens ** 2 * math.comb(dmax + P.alg.dim, P.alg.dim) if dmax >= 0 else 0
        if unknowns > CENTRAL_MAX_UNKNOWNS:
            raise ValueError("%s at dmax %d has %d unknowns to solve, over the budget "
                             "of %d" % (spec, dmax, unknowns, CENTRAL_MAX_UNKNOWNS))
        return solve(dmax)
    return family, P, verify or (lambda: verify_axioms(P)), budgeted_central


def _structure(args):
    return build_structure(args.structure, args.alpha, args.algebra)


def emit(report, fmt, seed):
    if not report.checks:
        raise ValueError("%s checks nothing" % (report.title or "report"))
    data = report.as_dict()
    data["seed"] = seed
    if fmt == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print("%s: %s" % (data["title"] or "report", "ok" if data["ok"] else "FAILED"))
        for c in data["checks"]:
            if not c["passed"]:
                witness = "  witness: " + c["witness"] if c["witness"] else ""
                print("  FAIL %s%s" % (c["name"], witness))
        npass = sum(1 for c in data["checks"] if c["passed"])
        print("  %d/%d checks passed (seed %d)" % (npass, len(data["checks"]), seed))
    return 0 if data["ok"] else 1


def _print_or_write(data, out):
    """Print the JSON of `data`, or write it to the file `out` if one is named."""
    if out:
        save_json(out, data)
        print("wrote %s" % out)
    else:
        print(json.dumps(data, indent=2, sort_keys=True))
    return 0


def cmd_verify(args):
    return emit(_structure(args)[2](), args.format, args.seed)


def _operands(args):
    """The structure and its --left and --right module elements."""
    P = _structure(args)[1]
    return P, parse_module_element(P.module, args.left), parse_module_element(P.module, args.right)


def cmd_bracket(args):
    P, a, b = _operands(args)
    q = repr(P.bracket(a, b))
    print(json.dumps({"bracket": q}, indent=2) if args.format == "json" else q)
    return 0


def cmd_xbracket(args):
    P, a, b = _operands(args)
    x = parse_helt(P.alg, args.x, symbol="t")
    xs = TruncatedSeries(P.alg, args.cutoff, dict(x.c))
    try:
        res = x_bracket(P, a, xs, b)
    except PrecisionError as exc:
        print("precision error: %s" % exc, file=sys.stderr)
        return 2
    print(repr(res))
    return 0


def cmd_annihilate(args):
    family, P, _, _ = _structure(args)
    if family != "wd":
        print("annihilate expects a wd:<algebra> structure", file=sys.stderr)
        return 2
    alg = P.alg
    D = args.cutoff
    need = math.comb(D + alg.dim, alg.dim) if D >= 0 else 0
    if need > ANNIHILATE_MAX_MONOMIALS:
        raise ValueError("cutoff %d needs %d dual basis monomials, over the budget of %d"
                         % (D, need, ANNIHILATE_MAX_MONOMIALS))
    rep = Report("annihilation:%s@D=%d" % (alg.name, D))
    basis_depth = max(0, D - 2)
    mis = multiindices_up_to(alg.dim, min(3, basis_depth))
    gens = {(I, a): (AnnihilationElement.generator(P.module, I, a, D), "t%s w%d" % (I, a))
            for I in mis for a in range(alg.dim)}
    for I, J, a, b in product(mis, mis, range(alg.dim), range(alg.dim)):
        (u, uname), (v, vname) = gens[(I, a)], gens[(J, b)]
        try:
            br = annihilation_bracket(P, u, v)
            vf = vector_field_bracket(alg, u, v)
        except PrecisionError as exc:
            print("precision error: %s" % exc, file=sys.stderr)
            return 2
        cut = min(br.cutoff, vf.cutoff)
        ok = br.truncate(cut).c == vf.truncate(cut).c
        rep.record("cross-oracle[%s, %s]" % (uname, vname), ok, None if ok else (br, vf))
    return emit(rep, args.format, args.seed)


def cmd_cohomology(args):
    sol = _structure(args)[3](args.dmax)

    def render_tables(vectors):
        return ["; ".join("%s -> %s" % (k, v) for k, v in sol.beta_table_of(vec).items())
                for vec in vectors]

    data = sol.summary()
    data["completeness"] = ("complete" if sol.complete
                            else "complete up to degree %d" % sol.dmax)
    data["representatives"] = render_tables(sol.representatives)
    data["cocycle_basis"] = render_tables(sol.basis)
    data["shift_space"] = render_tables(sol.trivial)
    data["seed"] = args.seed
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True, default=str))
    else:
        print("second cohomology dimension: %d (%s)" % (data["dim_h2"], data["completeness"]))
        print("cocycle space %d, shift space %d, dmax %d, seed %d"
              % (data["dim_cocycles"], data["dim_trivial"], data["dmax"], args.seed))
        for t in data["representatives"]:
            print("  representative: %s" % t)
    return 0


def cmd_poisson(args):
    if args.action == "catalog":
        params = {"r": args.r, "N": args.N}
        if args.chi:
            params["chi"] = _parse_chi(args.chi)
        if args.g:
            params["g"] = algebra_by_name(args.g)
        return _print_or_write(poisson_catalog(args.family, **params).as_dict(), args.out)
    if args.file is None:
        print("poisson %s needs --file" % args.action, file=sys.stderr)
        return 2
    spec = load_poisson(args.file)
    if args.action == "export":
        return _print_or_write(spec.as_dict(), args.out)
    if args.action == "import":
        P, beta = poisson_to_pseudo(spec)
        back = pseudo_to_poisson(P, names=spec.names)
        rep = Report("poisson-import")
        rep.record("round-trip-identity", back.Q == spec.Q)
        rep.record("central-terms-carried", (beta is not None) == bool(spec.central))
        return emit(rep, args.format, args.seed)
    # one Jacobi residual per triple of the r fields, counted before the
    # pseudoalgebra is built
    triples = spec.r ** 3
    if triples > VERIFY_MAX_TRIPLES:
        raise ValueError("%s has %d generator triples to verify (r = %d), over the "
                         "budget of %d" % (args.file, triples, spec.r, VERIFY_MAX_TRIPLES))
    return emit(verify_poisson_jacobi(spec), args.format, args.seed)


def cmd_catalog(args):
    algs = sorted(liealg.CATALOG_BUILDERS)
    structures = ["cur:<g>[@<d>]", "wd:<d>", "sd:<d>[:<chi>]", "h-type:<datum>",
                  "k-type:<datum>", "gc:<n>[@<d>]", "cend:<n>[@<d>]", "rank1 (--alpha ...)"]
    data = {"algebras": algs, "structures": structures,
            "rank1_data": ["solv2", "abelian2", "heisenberg", "sl2"]}
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print("algebras:   " + " ".join(algs))
        print("structures: " + "  ".join(structures))
        print("rank1 data: " + " ".join(data["rank1_data"]))
    return 0


def cmd_forms(args):
    alg = algebra_by_name(args.algebra)
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
        rep.record("volume-action[%s]" % alg.basis[a],
                   got == volume_action_expected(alg, a))
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
        M = wd_action_on_forms(P, n)
        verify_module(P, M, report=rep)
    return emit(rep, args.format, args.seed)


def make_parser():
    p = argparse.ArgumentParser(prog="pseudoalg",
                                description="finite pseudoalgebra workbench")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=20260801,
                   help="seed for randomized spot checks; echoed in reports")
    sub = p.add_subparsers(dest="command", required=True)

    structure = argparse.ArgumentParser(add_help=False)
    structure.add_argument("--structure", required=True)
    structure.add_argument("--alpha", help="arity-2 tensor literal for rank1")
    structure.add_argument("--algebra", help="base algebra for rank1")
    operands = argparse.ArgumentParser(add_help=False)
    operands.add_argument("--left", required=True)
    operands.add_argument("--right", required=True)

    sp = sub.add_parser("verify", parents=[structure],
                        help="run the identity suite of a structure")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bracket", parents=[structure, operands],
                        help="canonical form of a bracket")
    sp.set_defaults(func=cmd_bracket)

    sp = sub.add_parser("xbracket", parents=[structure, operands],
                        help="scalar-specialized bracket")
    sp.add_argument("--x", required=True, help="functional literal, e.g. t^(1)")
    sp.add_argument("--cutoff", type=int, default=6)
    sp.set_defaults(func=cmd_xbracket)

    sp = sub.add_parser("annihilate", parents=[structure], help="functional brackets at a cutoff")
    sp.add_argument("--cutoff", type=int, default=6)
    sp.set_defaults(func=cmd_annihilate)

    sp = sub.add_parser("cohomology", parents=[structure], help="central extension solver")
    sp.add_argument("what", choices=("central",))
    sp.add_argument("--dmax", type=int, default=4)
    sp.set_defaults(func=cmd_cohomology)

    sp = sub.add_parser("poisson", help="bracket-kernel dictionary")
    sp.add_argument("action", choices=("import", "export", "verify", "catalog"))
    sp.add_argument("--file")
    sp.add_argument("--out")
    sp.add_argument("--family", choices=("W", "S", "H", "Cur", "semidirect"))
    sp.add_argument("--r", type=int)
    sp.add_argument("--N", type=int)
    sp.add_argument("--chi")
    sp.add_argument("--g")
    sp.set_defaults(func=cmd_poisson)

    sp = sub.add_parser("catalog", help="list named algebras and structures")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("forms", help="pseudoform identity suite")
    sp.add_argument("--algebra", required=True)
    sp.set_defaults(func=cmd_forms)
    return p


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # str(KeyError(msg)) is repr(msg): print the message itself
        if isinstance(exc, KeyError) and exc.args:
            exc = exc.args[0]
        print("input error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
