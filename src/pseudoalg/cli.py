"""Batch front end.

Subcommands: verify, bracket, xbracket, annihilate, cohomology, poisson,
catalog, forms.  `build_structure` is the one place that knows the
structure families: it turns a reference such as cur:sl2 or sd:abelian3
into the structure that bracket, xbracket and annihilate act on, the
family's verify report and its central-extension solver.  Exit codes: 0
all checks pass, 1 a mathematical check failed (witnesses in the
report), 2 input or usage error, unreadable or unwritable files
included.  No check draws a random number, so a command line's report
is the same bytes on every run.  A command prints nothing itself: it
returns a `Report` or a pair (data, text lines), and `main` hands that to
`emit`, the one printer, and turns refusals into exit codes.
"""

import argparse
import json
import math
import os
import sys

from . import liealg
from .annihilation import PrecisionError, TruncatedSeries, annihilation_suite
from .cohomology import (sd_central_suite, solve_central_extensions,
                         solve_central_extensions_rank1)
from .constructions import (RANK1_DATA, Rank1Datum, check_ybe, embed_rank1_in_wd,
                            make_current, make_gc, make_rank1,
                            make_rank1_from_alpha, make_sd, make_wd,
                            named_rank1_datum)
from .forms import forms_suite
from .liealg import algebra_by_name
from .literals import parse_fraction, parse_helt, parse_module_element, parse_tensor
from .pbw import mi_weight
from .poisson import (CATALOG_FAMILIES, load_poisson, poisson_catalog, poisson_to_pseudo,
                      pseudo_to_poisson, save_poisson, verify_poisson_jacobi)
from .pseudo import (Report, verify_axioms, verify_axioms_elements, verify_module,
                     x_bracket)

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

# Largest work estimate, `poisson_work`, of the spec that `poisson verify` and
# `poisson import` take on, counted before the pseudoalgebra is built.  The
# golden, CI and test specs need at most 16.  With r = N = 1 and one term,
# lambda^222 d^223 (99,681) verifies in about 1.4 s, and d^445 (99,681)
# verifies in about 1.7 s and imports in about 1.9 s, the slowest admitted
# spec found; with N = 3, d^(8,8,8) (91,125) takes about 1.2 s and 1.3 s.
# Refused: lambda^400 d^400 (321,201) and lambda = d = (8,8,8) (3,581,577),
# each about 7 s to verify, and lambda^800 (321,201), whose verify report
# fails to print a coefficient of over 4,300 digits.  Timings are from the
# CLI, Python 3.11 on 2 vCPUs.
POISSON_MAX_WORK = 100_000

# Largest work estimate, `catalog_work`, of the spec that `poisson catalog`
# builds, counted from its parameters before anything is built.  The
# README, golden and test catalogs need at most 756 (S at r = 3, N = 4),
# the CI ones 985,527 (W at r = N = 69).  The widest admitted builds end
# within about 2 s from the CLI: W at r = N = 69 (985,527, printing 32 MB
# of JSON in 2.1 s), H at r = N = 1000 (1,000,000, 30 MB in 1.4 s),
# semidirect over sl2 at r = N = 60 (682,020, 22 MB in 1.3 s), S at
# r = N = 9 (632,043, 3.4 MB in 1.1 s), S at r = 3, N = 5291 (999,999,
# 6.0 MB in 0.3 s), S at r = 2, N = 41,666 (999,984, 2.5 MB in 0.2 s) and
# Cur over sl2 at N = 37,037 (999,999, 6.7 MB in 0.4 s).  Refused: W at
# r = N = 150 (10,125,000), which printed 314 MB in 29 s.  Timings are
# Python 3.11 on 2 vCPUs.
CATALOG_MAX_WORK = 1_000_000

# Largest number of unknowns, |gens|^2 * C(dmax + dim, dim), that
# `cohomology central` solves for: one cocycle coefficient per ordered
# generator pair and window monomial, counted before any row is built.
# It admits wd:sl2 at dmax 10 (2,574 unknowns, about 0.5 s from the CLI)
# and sd:abelian4 at dmax 4 (2,520, about 0.3 s), the widest known
# windows, and k-type:sl2 at dmax 24 (2,925, about 8.5 s), the slowest
# admitted one found; wd:sl2 at dmax 12 (4,095) takes about 0.8-1.3 s in
# process, and at dmax 40 (111,069) it ran past 20 s without end in sight.
# Timings are Python 3.11 on 2 vCPUs, every row set fed shortest first
# and the rank-one rows built from the top weight down.
CENTRAL_MAX_UNKNOWNS = 3_000

# Largest work estimate, `bracket_work`, of the operands that `bracket` and
# `xbracket` take on, counted before any product.  The README commands need
# 6 and 1.  Over wd:sl2, d^(5,5,5) on both sides (1,178,496) takes about 3 s
# and d^(0,0,34) against d^(34,0,0) (2,000,425) about 0.5 s; d^(6,6,6) on
# both sides (3,134,677) takes about 10 s, and d^(8,8,8) (15,181,425) ran
# for about a minute and printed 9.7 MB, from a 50-byte argument.  Over
# wd:abelian1, d^(100000) on both sides is refused; over wd:abelian4,
# d^(11,11,11,11) on both sides (1,845,504) takes about 1.4 s.
BRACKET_MAX_WORK = 2_500_000


def _parse_chi(text):
    """Comma-separated rationals, as in sd:abelian3:1,0,0 or --chi 1,0."""
    return tuple(parse_fraction(x) for x in text.split(","))


def build_structure(spec, alpha=None, algebra=None):
    """Materialize a structure reference like cur:sl2 or wd:heis3.

    Returns (family, P, verify, central): the family is the head of the
    reference (or "rank1"); P is the structure that bracket, xbracket and
    annihilate act on; verify() builds the family's report; central(dmax)
    runs the family's central-extension solver once the window's unknowns
    are counted under `CENTRAL_MAX_UNKNOWNS`.  `alpha` and `algebra` (the
    `--alpha` and `--algebra` options) define rank1 alone; given with any
    other reference they are refused.
    """
    for option, value in (("--alpha", alpha), ("--algebra", algebra)):
        if value is not None and spec != "rank1":
            raise ValueError("%s applies to rank1 only, not to %s" % (option, spec))
    family, _, rest = spec.partition(":")
    verify = central = ngens = None
    if spec == "rank1":
        alg = algebra_by_name(algebra or "abelian1")
        if alpha is None:
            raise ValueError("rank1 needs --alpha")
        P = make_rank1_from_alpha(alg, parse_tensor(alg, alpha), name="rank1")
    elif family == "cur":
        gname, _, dname = rest.partition("@")
        g = algebra_by_name(gname)
        P = make_current(algebra_by_name(dname or "abelian1"), g)
    elif family == "wd":
        alg = algebra_by_name({"dim1": "abelian1"}.get(rest, rest))
        P, M = make_wd(alg)

        def verify():
            rep = verify_axioms(P)
            rep.extend(verify_module(P, M))
            return rep
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
            rep.extend(verify_axioms_elements(P, elts))
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
            rep.extend(verify_axioms(P))
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


class Refused(Exception):
    """A usage refusal that `main` prints as it stands, with exit code 2."""


def emit(args, result):
    """Print a command's result in the --format of `args`; return the exit code.

    The result is a `Report` or a pair (data, lines): the JSON object and
    the text lines, None to print the JSON in either format.  A report
    exits 1 when a check failed, and a report of no checks is an input
    error.
    """
    code = 0
    if isinstance(result, Report):
        if not result.checks:
            raise ValueError("%s checks nothing" % (result.title or "report"))
        data = result.as_dict()
        failed = [c for c in data["checks"] if not c["passed"]]
        lines = ["%s: %s" % (data["title"] or "report", "FAILED" if failed else "ok")]
        lines += ["  FAIL %s%s" % (c["name"], "  witness: " + c["witness"] if c["witness"] else "")
                  for c in failed]
        lines.append("  %d/%d checks passed" % (len(data["checks"]) - len(failed),
                                                len(data["checks"])))
        code = 1 if failed else 0
        result = data, lines
    data, lines = result
    if args.format == "json" or lines is None:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


def cmd_verify(args):
    return _structure(args)[2]()


def bracket_work(P, a, b):
    """Work estimate of the bracket of module elements a and b, from their
    terms' multi-indices alone, before any product.

    The canonical form splits the multi-index J of each term of b into
    prod(J_i + 1) pairs of legs, and each leg pair is a product over
    monomials of degree up to da + |J|, with da the largest degree in a.
    The estimate is |a| times the sum over the terms of b of the splits
    times C(da + |J| + dim, dim), the number of monomials up to that degree.
    Over an abelian algebra a product of monomials is one monomial, so a
    split costs da + |J| + 1 there; in one variable the two counts agree.
    """
    alg = P.alg
    da = max((mi_weight(I) for I, _ in a.c), default=0)

    def split_cost(degree):
        return degree + 1 if alg.is_abelian else math.comb(degree + alg.dim, alg.dim)
    return len(a.c) * sum(math.prod(j + 1 for j in J) * split_cost(da + mi_weight(J))
                          for J, _ in b.c)


def poisson_work(spec):
    """Work estimate of a Poisson spec, from its exponents alone.

    A term lambda^A d^B becomes a table entry whose Jacobi and round-trip
    products run over pairs of monomials of degree up to A_i + B_i in
    each variable: prod C(A_i + B_i + 2, 2) of them, which grows with the
    degree and with its spread over the N variables.  The estimate sums
    that over the terms, a central term lambda^A counted with B = 0.
    """
    def pairs(degrees):
        return math.prod(math.comb(d + 2, 2) for d in degrees)
    return (sum(pairs(map(sum, zip(A, B))) for terms in spec.Q.values() for A, B in terms)
            + sum(pairs(A) for terms in spec.central.values() for A in terms))


def catalog_work(family, params):
    """Work estimate of a `poisson catalog` build, from r, N and dim g alone:
    the table terms the family builds, each counted once per variable.  W,
    S and Cur are read off the pseudo tables of `wd` and `sd` on r variables
    and `cur` on N variables, then padded to N (`poisson._current`).  W
    writes 3 r^2 terms, H r and Cur dim(g)^3; semidirect writes those of W
    and Cur and 3 r dim(g) more.  S builds the vector-field table on r
    variables (3 r^2 terms), then about 6 p^2 terms over its p = r(r-1)/2
    pair fields, each found against the r directions.  A parameter that is
    absent or negative counts as 0, and the build refuses it."""
    r, N = (max(params.get(k) or 0, 0) for k in ("r", "N"))
    d = params["g"].dim if "g" in params else 0
    terms = {"W": 3 * r * r, "H": r, "Cur": d ** 3, "semidirect": 3 * r * r + d ** 3 + 3 * r * d,
             "S": 3 * r * r + 6 * (r * (r - 1) // 2) ** 2 * r}[family]
    return terms * N


def _operands(args):
    """The structure and its --left and --right module elements, refused as
    an input error when their bracket is over `BRACKET_MAX_WORK`."""
    P = _structure(args)[1]
    a, b = parse_module_element(P.module, args.left), parse_module_element(P.module, args.right)
    work = bracket_work(P, a, b)
    if work > BRACKET_MAX_WORK:
        raise ValueError("the bracket of these operands has work estimate %d, over the "
                         "budget of %d" % (work, BRACKET_MAX_WORK))
    return P, a, b


def cmd_bracket(args):
    P, a, b = _operands(args)
    q = repr(P.bracket(a, b))
    return {"bracket": q}, [q]


def cmd_xbracket(args):
    P, a, b = _operands(args)
    x = parse_helt(P.alg, args.x, symbol="t")
    if args.cutoff < 0:  # an input error here, not the series' precision error
        raise ValueError("cutoff must be nonnegative")
    xs = TruncatedSeries(P.alg, args.cutoff, dict(x.c))
    q = repr(x_bracket(P, a, xs, b))
    return {"xbracket": q}, [q]


def cmd_annihilate(args):
    family, P, _, _ = _structure(args)
    if family != "wd":
        raise Refused("annihilate expects a wd:<algebra> structure")
    D, dim = args.cutoff, P.alg.dim
    if D < 0:  # an input error here, not the suite's precision error
        raise ValueError("cutoff must be nonnegative")
    need = math.comb(D + dim, dim)
    if need > ANNIHILATE_MAX_MONOMIALS:
        raise ValueError("cutoff %d needs %d dual basis monomials, over the budget of %d"
                         % (D, need, ANNIHILATE_MAX_MONOMIALS))
    return annihilation_suite(P, D)


def cmd_cohomology(args):
    _, P, _, central = _structure(args)
    sol = central(args.dmax)

    def tables(vectors):
        return ["; ".join("%s -> %s" % kv for kv in sol.beta_table_of(vec).items())
                for vec in vectors]
    # the subject: the reference as given, a rank1 one with its --alpha
    structure = args.structure + (" --alpha " + args.alpha if args.structure == "rank1" else "")
    data = dict(sol.summary(), structure=structure, algebra=P.alg.name,
                completeness="complete" if sol.complete else "complete up to degree %d" % sol.dmax,
                representatives=tables(sol.representatives), cocycle_basis=tables(sol.basis),
                shift_space=tables(sol.trivial))
    lines = ["central extensions of %s (algebra %s)" % (structure, P.alg.name),
             "second cohomology dimension: %d (%s)" % (sol.dim, data["completeness"]),
             "cocycle space %d, shift space %d, dmax %d"
             % (sol.dim_cocycles, sol.dim_trivial, sol.dmax)]
    return data, lines + ["  representative: %s" % t for t in data["representatives"]]


# the options each poisson action reads; a catalog reads its family's parameters too
POISSON_OPTIONS = {"import": ("file",), "verify": ("file",), "export": ("file", "out"),
                   "catalog": ("family", "out")}


def cmd_poisson(args):
    needs = "family" if args.action == "catalog" else "file"
    if getattr(args, needs) is None:
        raise Refused("poisson %s needs --%s" % (args.action, needs))
    reads, where = POISSON_OPTIONS[args.action], "poisson " + args.action
    if args.action == "catalog":
        reads += CATALOG_FAMILIES[args.family][1]
        where += " --family " + args.family
    for option in ("file", "out", "family", "r", "N", "chi", "g"):
        if getattr(args, option) is not None and option not in reads:
            raise ValueError("--%s does not apply to %s" % (option, where))
    if args.action != "catalog":
        spec = load_poisson(args.file)
    if args.action == "verify":
        # one Jacobi residual per triple of the r fields, counted before the
        # pseudoalgebra is built
        triples = spec.r ** 3
        if triples > VERIFY_MAX_TRIPLES:
            raise ValueError("%s has %d generator triples to verify (r = %d), over the "
                             "budget of %d" % (args.file, triples, spec.r, VERIFY_MAX_TRIPLES))
    if args.action in ("import", "verify"):
        work = poisson_work(spec)
        if work > POISSON_MAX_WORK:
            raise ValueError("%s has work estimate %d, over the budget of %d"
                             % (args.file, work, POISSON_MAX_WORK))
    if args.action == "import":
        P, beta = poisson_to_pseudo(spec)
        back = pseudo_to_poisson(P, names=spec.names, beta=beta)
        rep = Report("poisson-import")
        rep.record("round-trip-identity", back.Q == spec.Q)
        rep.record("central-terms-carried", back.central == spec.central)
        return rep
    if args.action == "verify":
        return verify_poisson_jacobi(spec)
    if args.action == "catalog":
        params = {"r": args.r, "N": args.N}
        if args.chi:
            params["chi"] = _parse_chi(args.chi)
        if args.g:
            params["g"] = algebra_by_name(args.g)
        work = catalog_work(args.family, params)
        if work > CATALOG_MAX_WORK:
            raise ValueError("poisson catalog --family %s has work estimate %d, over the "
                             "budget of %d" % (args.family, work, CATALOG_MAX_WORK))
        spec = poisson_catalog(args.family, **params)
    # an export prints its JSON in either format, or writes it to --out
    if not args.out:
        return spec.as_dict(), None
    save_poisson(args.out, spec)
    return {"wrote": args.out}, ["wrote %s" % args.out]


def cmd_catalog(args):
    algs = sorted(liealg.CATALOG_BUILDERS)
    structures = ["cur:<g>[@<d>]", "wd:<d>", "sd:<d>[:<chi>]", "h-type:<datum>",
                  "k-type:<datum>", "gc:<n>[@<d>]", "cend:<n>[@<d>]", "rank1 (--alpha ...)"]
    data = {"algebras": algs, "structures": structures,
            "rank1_data": list(RANK1_DATA)}
    return data, ["algebras:   " + " ".join(algs), "structures: " + "  ".join(structures),
                  "rank1 data: " + " ".join(data["rank1_data"])]


def cmd_forms(args):
    return forms_suite(algebra_by_name(args.algebra))


def make_parser():
    p = argparse.ArgumentParser(prog="pseudoalg",
                                description="finite pseudoalgebra workbench")
    p.add_argument("--format", choices=("text", "json"), default="text")
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
    args = make_parser().parse_args(argv)
    try:
        code = emit(args, args.func(args))
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # a reader closed stdout (`| head`): exit as SIGPIPE would, stdout on
        # devnull for the flush at exit (the SIGPIPE note in the `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Refused as exc:
        print(exc, file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print("precision error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        # str(KeyError(msg)) is repr(msg): print the message itself
        if isinstance(exc, KeyError) and exc.args:
            exc = exc.args[0]
        print("input error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
