"""Batch front end.

Subcommands: verify, bracket, xbracket, annihilate, cohomology, poisson,
catalog, forms.  Exit codes: 0 all checks pass, 1 a mathematical check
failed (witnesses in the report), 2 input or usage error.  Reports are
deterministic for a fixed --seed, which is echoed in every report.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from . import liealg
from .annihilation import (AnnihilationElement, PrecisionError, TruncatedSeries,
                           annihilation_bracket, vector_field_bracket)
from .cohomology import (sd_central_suite, solve_central_extensions,
                         solve_central_extensions_rank1)
from .constructions import (Rank1Datum, check_ybe, embed_rank1_in_wd,
                            make_current, make_gc, make_rank1,
                            make_rank1_from_alpha, make_sd, make_wd,
                            named_rank1_datum)
from .liealg import algebra_by_name
from .literals import parse_helt, parse_tensor
from .pseudo import Report, verify_axioms, verify_axioms_elements, verify_module

# Largest number of dual basis monomials t_I (|I| <= cutoff) that
# `annihilate` takes on; the README command (wd:abelian2 at cutoff 6)
# needs 28.  The run builds and caches one transposed product table over
# them per monomial it acts by, so this count bounds the table work and
# the memory (at the budget, sl2 at cutoff 20 and abelian4 at 12 take
# about 50 MB), and beyond it a run is refused as an input error instead
# of running for minutes or without end.  It does not bound the run time,
# which is set by the dim^2 * C(min(3, cutoff - 2) + dim, dim)^2 bracket
# pairs checked: those stop growing at cutoff 5, so abelian4 takes about
# 5 s at cutoff 6 (210 monomials) as at 12.
ANNIHILATE_MAX_MONOMIALS = 2000

CHECK_GLOSSARY = {
    "skew-commutativity": "bracket is odd under the slot transposition",
    "jacobi": "left-nested bracket equals right-nested minus its transpose",
    "associativity": "both association orders agree in the triple tensor",
    "module-identity": "action satisfies the bracket compatibility",
    "bracket-compat": "map intertwines the two bracket tables",
    "r-commutes-with-s": "skew matrix commutes with the split of s",
    "dynamical-triple-identity": "cyclic triple identity for (r, s)",
    "closed": "pairing table satisfies the cocycle identity",
    "cross-oracle": "functional bracket matches the vector-field bracket",
    "fourier": "transform and inverse compose to the identity",
}


def _structure_catalog_names():
    return sorted(liealg.CATALOG_BUILDERS), [
        "cur:<g>[@<d>]", "wd:<d>", "sd:<d>[:<chi>]", "h-type:<datum>",
        "k-type:<datum>", "gc:<n>[@<d>]", "cend:<n>[@<d>]", "rank1 (--alpha ...)",
    ]


def build_structure(spec, alpha=None, algebra=None):
    """Materialize a structure reference like cur:sl2 or wd:heis3.

    Returns (kind-tag, payload); payload shape depends on the family.
    """
    if spec == "rank1":
        alg = algebra_by_name(algebra or "abelian1")
        if alpha is None:
            raise ValueError("rank1 needs --alpha")
        t = parse_tensor(alg, alpha, arity=2)
        return "rank1", make_rank1_from_alpha(alg, t, name="rank1")
    head, _, rest = spec.partition(":")
    if head == "cur":
        gname, _, dname = rest.partition("@")
        g = algebra_by_name(gname)
        alg = algebra_by_name(dname or "abelian1")
        return "cur", make_current(alg, g)
    if head == "wd":
        name = {"dim1": "abelian1"}.get(rest, rest)
        alg = algebra_by_name(name)
        P, M = make_wd(alg)
        return "wd", (P, M)
    if head == "sd":
        dname, _, chis = rest.partition(":")
        alg = algebra_by_name(dname)
        chi = None
        if chis:
            from .literals import parse_fraction
            chi = tuple(parse_fraction(x) for x in chis.split(","))
        return "sd", make_sd(alg, chi)
    if head == "h-type" or head == "k-type":
        datum = named_rank1_datum(rest)
        return "rank1-datum", datum
    if head in ("gc", "cend"):
        nstr, _, dname = rest.partition("@")
        alg = algebra_by_name(dname or "abelian1")
        n = int(nstr)
        C, G = make_gc(alg, n)
        return head, (C, G)
    raise ValueError("unknown structure %r" % spec)


def emit(report, fmt, seed, extra=None):
    data = report.as_dict()
    data["seed"] = seed
    if extra:
        data.update(extra)
    if fmt == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print("%s: %s" % (data["title"] or "report", "ok" if data["ok"] else "FAILED"))
        for c in data["checks"]:
            if c["passed"]:
                continue
            print("  FAIL %s%s" % (c["name"],
                                   "" if not c["witness"] else "  witness: " + c["witness"]))
        npass = sum(1 for c in data["checks"] if c["passed"])
        print("  %d/%d checks passed (seed %d)" % (npass, len(data["checks"]), seed))
        for k, v in (extra or {}).items():
            print("  %s: %s" % (k, v))
    return 0 if data["ok"] else 1


def cmd_verify(args):
    kind, payload = build_structure(args.structure, args.alpha, args.algebra)
    if kind == "wd":
        P, M = payload
        rep = verify_axioms(P)
        verify_module(P, M, report=rep)
        return emit(rep, args.format, args.seed)
    if kind == "sd":
        S = payload
        rep = Report("sd:%s" % S.alg.name)
        elts = {"e_%d%d" % (a + 1, b + 1): S.gens[(a, b)] for (a, b) in S.pairs}
        verify_axioms_elements(S.ambient, elts, report=rep)
        rep.extend(S.closure_report())
        return emit(rep, args.format, args.seed)
    if kind == "rank1-datum":
        datum = payload
        rep = check_ybe(datum)
        P = make_rank1(datum, run_axioms=False)
        verify_axioms(P, report=rep)
        rep.extend(embed_rank1_in_wd(datum))
        return emit(rep, args.format, args.seed)
    if kind in ("gc", "cend"):
        C, G = payload
        rep = verify_axioms(C if kind == "cend" else G)
        return emit(rep, args.format, args.seed)
    rep = verify_axioms(payload)
    return emit(rep, args.format, args.seed)


def _main_structure(payload, kind):
    if kind == "wd":
        return payload[0]
    if kind in ("gc", "cend"):
        return payload[0] if kind == "cend" else payload[1]
    if kind == "rank1-datum":
        return make_rank1(payload, run_axioms=False)
    if kind == "sd":
        return payload.ambient
    return payload


def cmd_bracket(args):
    kind, payload = build_structure(args.structure, args.alpha, args.algebra)
    P = _main_structure(payload, kind)
    from .literals import parse_module_element
    a = parse_module_element(P.module, args.left)
    b = parse_module_element(P.module, args.right)
    q = P.bracket(a, b)
    if args.format == "json":
        print(json.dumps({"bracket": repr(q)}, indent=2))
    else:
        print(repr(q))
    return 0


def cmd_xbracket(args):
    kind, payload = build_structure(args.structure, args.alpha, args.algebra)
    P = _main_structure(payload, kind)
    from .literals import parse_module_element
    from .pseudo import x_bracket
    a = parse_module_element(P.module, args.left)
    b = parse_module_element(P.module, args.right)
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
    kind, payload = build_structure(args.structure, args.alpha, args.algebra)
    if kind != "wd":
        print("annihilate expects a wd:<algebra> structure", file=sys.stderr)
        return 2
    P, _ = payload
    alg = P.alg
    D = args.cutoff
    need = math.comb(D + alg.dim, alg.dim) if D >= 0 else 0
    if need > ANNIHILATE_MAX_MONOMIALS:
        raise ValueError("cutoff %d needs %d dual basis monomials, over the budget of %d"
                         % (D, need, ANNIHILATE_MAX_MONOMIALS))
    rep = Report("annihilation:%s@D=%d" % (alg.name, D))
    from .pbw import multiindices_up_to
    basis_depth = max(0, D - 2)
    mis = multiindices_up_to(alg.dim, min(3, basis_depth))
    gens = {(I, a): AnnihilationElement.generator(P.module, I, a, D)
            for I in mis for a in range(alg.dim)}
    for I in mis:
        for J in mis:
            for a in range(alg.dim):
                for b in range(alg.dim):
                    u, v = gens[(I, a)], gens[(J, b)]
                    try:
                        br = annihilation_bracket(P, u, v)
                        vf = vector_field_bracket(alg, u, v)
                    except PrecisionError as exc:
                        print("precision error: %s" % exc, file=sys.stderr)
                        return 2
                    cut = min(br.cutoff, vf.cutoff)
                    ok = br.truncate(cut).c == vf.truncate(cut).c
                    rep.record("cross-oracle[t%s w%d, t%s w%d]" % (I, a, J, b), ok,
                               None if ok else (br, vf))
    return emit(rep, args.format, args.seed)


def cmd_cohomology(args):
    if args.what != "central":
        print("only central-extension cohomology is implemented", file=sys.stderr)
        return 2
    kind, payload = build_structure(args.structure, args.alpha, args.algebra)
    if kind == "wd" and payload[0].alg.dim == 1 and payload[0].alg.is_abelian:
        # the one-variable vector fields are the rank-one datum r = 0, s = 1
        kind, payload = "rank1-datum", Rank1Datum(payload[0].alg, [[0]], (1,))
    if kind == "sd":
        if any(payload.chi):
            raise ValueError("central extensions of sd are solved for chi = 0 only")
        sol = sd_central_suite(payload.alg, dmax=args.dmax)
    elif kind == "rank1-datum":
        sol = solve_central_extensions_rank1(make_rank1(payload, run_axioms=False),
                                             dmax=args.dmax)
    else:
        sol = solve_central_extensions(_main_structure(payload, kind), dmax=args.dmax)

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
        print(json.dumps({k: (v if not isinstance(v, Fraction) else str(v))
                          for k, v in data.items()}, indent=2, sort_keys=True, default=str))
    else:
        print("second cohomology dimension: %d (%s)" % (data["dim_h2"], data["completeness"]))
        print("cocycle space %d, shift space %d, dmax %d, seed %d"
              % (data["dim_cocycles"], data["dim_trivial"], data["dmax"], args.seed))
        for t in data["representatives"]:
            print("  representative: %s" % t)
    return 0


def cmd_poisson(args):
    from .io import load_poisson, save_json
    from .poisson import (poisson_catalog, poisson_to_pseudo, pseudo_to_poisson,
                          verify_poisson_jacobi)
    if args.action == "catalog":
        params = {"r": args.r, "N": args.N}
        if args.chi:
            from .literals import parse_fraction
            params["chi"] = tuple(parse_fraction(x) for x in args.chi.split(","))
        if args.g:
            params["g"] = algebra_by_name(args.g)
        spec = poisson_catalog(args.family, **params)
        if args.out:
            save_json(args.out, spec.as_dict())
            print("wrote %s" % args.out)
        else:
            print(json.dumps(spec.as_dict(), indent=2, sort_keys=True))
        return 0
    if args.file is None:
        print("poisson %s needs --file" % args.action, file=sys.stderr)
        return 2
    spec = load_poisson(args.file)
    if args.action == "export":
        data = spec.as_dict()
        out = json.dumps(data, indent=2, sort_keys=True)
        if args.out:
            save_json(args.out, data)
            print("wrote %s" % args.out)
        else:
            print(out)
        return 0
    if args.action == "import":
        P, beta = poisson_to_pseudo(spec)
        back = pseudo_to_poisson(P, names=spec.names)
        rep = Report("poisson-import")
        rep.record("round-trip-identity", back.Q == spec.Q)
        rep.record("central-terms-carried", (beta is not None) == bool(spec.central))
        return emit(rep, args.format, args.seed)
    if args.action == "verify":
        rep = verify_poisson_jacobi(spec)
        return emit(rep, args.format, args.seed)
    print("unknown poisson action %r" % args.action, file=sys.stderr)
    return 2


def cmd_catalog(args):
    algs, structures = _structure_catalog_names()
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
    from itertools import combinations
    from .constructions import wd_element
    from .forms import (PForm, act_on_form, contract_form,
                        differential_on_quotient, form_differential, form_module,
                        volume_action_expected, wd_action_on_forms)
    from .tensor import QElt
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

    sp = sub.add_parser("verify", help="run the identity suite of a structure")
    sp.add_argument("--structure", required=True)
    sp.add_argument("--alpha", help="arity-2 tensor literal for rank1")
    sp.add_argument("--algebra", help="base algebra for rank1")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bracket", help="canonical form of a bracket")
    sp.add_argument("--structure", required=True)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--alpha")
    sp.add_argument("--algebra")
    sp.set_defaults(func=cmd_bracket)

    sp = sub.add_parser("xbracket", help="scalar-specialized bracket")
    sp.add_argument("--structure", required=True)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--x", required=True, help="functional literal, e.g. t^(1)")
    sp.add_argument("--cutoff", type=int, default=6)
    sp.add_argument("--alpha")
    sp.add_argument("--algebra")
    sp.set_defaults(func=cmd_xbracket)

    sp = sub.add_parser("annihilate", help="functional brackets at a cutoff")
    sp.add_argument("--structure", required=True)
    sp.add_argument("--cutoff", type=int, default=6)
    sp.add_argument("--alpha")
    sp.add_argument("--algebra")
    sp.set_defaults(func=cmd_annihilate)

    sp = sub.add_parser("cohomology", help="central extension solver")
    sp.add_argument("what", choices=("central",))
    sp.add_argument("--structure", required=True)
    sp.add_argument("--dmax", type=int, default=4)
    sp.add_argument("--alpha")
    sp.add_argument("--algebra")
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
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
