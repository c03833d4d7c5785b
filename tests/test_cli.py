import hashlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from pseudoalg import cli, poisson
from pseudoalg.annihilation import annihilation_suite
from pseudoalg.cli import (BRACKET_MAX_WORK, CATALOG_MAX_WORK, CENTRAL_MAX_UNKNOWNS,
                          POISSON_MAX_WORK, VERIFY_MAX_TRIPLES, build_structure, main)
from pseudoalg.constructions import CEND_MAX_GENERATORS, make_wd, named_rank1_datum
from pseudoalg.forms import form_module, forms_suite
from pseudoalg.liealg import CATALOG_BUILDERS, algebra_by_name
from pseudoalg.literals import parse_module_element, render_module_element
from pseudoalg.pbw import HElt, mi_factorial, mi_weight
from pseudoalg.pseudo import PseudoStructure


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_verify_current_passes():
    code, out = run_cli("verify", "--structure", "cur:sl2")
    assert code == 0
    assert "ok" in out


def test_verify_symmetric_alpha_fails_with_witness():
    code, out = run_cli("verify", "--structure", "rank1", "--alpha", "d^(1)#d^(1)")
    assert code == 1
    assert "skew" in out and "witness" in out


def test_usage_error_exit_code():
    code, _ = run_cli("verify", "--structure", "nosuch:thing")
    assert code == 2
    code, _ = run_cli("verify", "--structure", "rank1")  # missing --alpha
    assert code == 2


@pytest.mark.parametrize("structure, code", [("cur:sl2", 0), ("nosuch:x", 2)])
def test_python_m_runs_the_cli_from_a_checkout(structure, code):
    """`python -m pseudoalg` from the source tree, without installing."""
    argv = ["verify", "--structure", structure]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "pseudoalg", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == run_cli(*argv)
    assert run.returncode == code


def test_closed_stdout_exits_as_sigpipe_without_a_message():
    """A reader that closes the pipe early (`| head -c 100`) is no input
    error: exit 141 (128 + SIGPIPE), nothing on stderr.  The report is
    421 KB, past any pipe buffer, so the write meets the closed pipe."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["--format", "json", "annihilate", "--structure", "wd:sl2", "--cutoff", "5"]
    proc = subprocess.Popen([sys.executable, "-m", "pseudoalg", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (len(head), proc.wait(timeout=120), err) == (100, 141, b"")


def test_cohomology_dim1_example():
    code, out = run_cli("cohomology", "central", "--structure", "wd:dim1",
                        "--dmax", "4")
    assert code == 0
    assert "dimension: 1" in out
    assert "d^(3)" in out


def test_cohomology_k_type_complete():
    code, out = run_cli("cohomology", "central", "--structure", "k-type:heisenberg",
                        "--dmax", "3")
    assert code == 0
    assert "dimension: 0 (complete)" in out


def test_bracket_and_xbracket():
    code, out = run_cli("bracket", "--structure", "wd:abelian1",
                        "--left", "(1) @ w_d1", "--right", "(1) @ w_d1")
    assert code == 0 and "2*(d^(1) # d^(0)) @ w_d1" in out
    code, out = run_cli("xbracket", "--structure", "wd:abelian1",
                        "--left", "(1) @ w_d1", "--right", "(1) @ w_d1",
                        "--x", "t^(1)", "--cutoff", "5")
    assert code == 0 and out.strip() == "(-2) @ w_d1"


def test_deep_bracket_exits_zero():
    # weight 34 on each side: straightening recursion stays linear in the weight
    code, out = run_cli("bracket", "--structure", "wd:sl2",
                        "--left", "(d^(0,0,34)) @ w_h", "--right", "(d^(34,0,0)) @ w_e")
    assert code == 0
    assert out.rstrip().endswith("+ 35*(d^(35,0,34) # d^(0,0,0)) @ w_h")


def test_xbracket_precision_exit():
    code, _ = run_cli("xbracket", "--structure", "wd:abelian1",
                      "--left", "(1) @ w_d1", "--right", "(1) @ w_d1",
                      "--x", "t^(0)", "--cutoff", "0")
    assert code == 2


def test_xbracket_cutoff_needs_no_budget():
    """x_bracket's work does not grow with the cutoff: the README command
    prints the same bytes at cutoff 10^9 as at 6."""
    argv = ["xbracket", "--structure", "wd:abelian1", "--left", "(1) @ w_d1",
            "--right", "(1) @ w_d1", "--x", "t^(1)", "--cutoff"]
    assert run_cli(*argv, "1000000000") == run_cli(*argv, "6")
    assert run_cli(*argv, "6")[0] == 0


def test_annihilate_cross_oracle():
    code, out = run_cli("annihilate", "--structure", "wd:abelian1", "--cutoff", "6")
    assert code == 0


def test_forms_suite():
    code, out = run_cli("forms", "--algebra", "abelian2")
    assert code == 0


@pytest.mark.parametrize("argv, suite", [
    (["annihilate", "--structure", "wd:abelian2", "--cutoff", "6"],
     lambda: annihilation_suite(make_wd(algebra_by_name("abelian2"))[0], 6)),
    (["forms", "--algebra", "solv2"], lambda: forms_suite(algebra_by_name("solv2")))],
    ids=["annihilate", "forms"])
def test_suites_are_the_library_functions(argv, suite):
    """The README's annihilate and forms reports are the library suites'
    reports."""
    code, out = run_cli("--format", "json", *argv)
    assert (code, json.loads(out)) == (0, suite().as_dict())


def test_poisson_catalog_and_verify(tmp_path):
    code, out = run_cli("poisson", "catalog", "--family", "W", "--r", "1", "--N", "1")
    assert code == 0
    spec_path = tmp_path / "w11.json"
    code, _ = run_cli("poisson", "catalog", "--family", "W", "--r", "1", "--N", "1",
                      "--out", str(spec_path))
    assert code == 0
    code, out = run_cli("poisson", "verify", "--file", str(spec_path))
    assert code == 0
    code, out = run_cli("poisson", "import", "--file", str(spec_path))
    assert code == 0
    code, out = run_cli("poisson", "export", "--file", str(spec_path))
    assert code == 0 and json.loads(out)["r"] == 1


# the one-field vector fields with the Virasoro term lambda^3 / 12, whose
# exponent is odd and whose factorial is not 1
VIRASORO_SPEC = {"r": 1, "N": 1,
                 "Q": [{"i": 1, "j": 1, "k": 1,
                        "terms": [{"lambda": [0], "partial": [1], "coeff": "1"},
                                  {"lambda": [1], "partial": [0], "coeff": "2"}]}],
                 "central": [{"i": 1, "j": 1, "terms": [{"lambda": [3], "coeff": "1/12"}]}]}


@pytest.mark.parametrize("coeff, code", [
    (lambda A, c: (-1) ** mi_weight(A) * c * mi_factorial(A), 0),
    (lambda A, c: c * mi_factorial(A), 1),
    (lambda A, c: (-1) ** mi_weight(A) * c, 1)],
    ids=["dictionary", "sign-dropped", "factorial-dropped"])
def test_poisson_import_checks_the_central_conversion(coeff, code, tmp_path, monkeypatch):
    """`poisson import` maps the central terms to the cocycle and back: the
    dictionary's own conversion passes, and one with the sign or the
    factorial dropped fails the round trip."""
    def convert(spec):
        P, _ = poisson.poisson_to_pseudo(spec)
        return P, {ij: HElt(P.alg, {A: coeff(A, c) for A, c in terms.items()})
                   for ij, terms in spec.central.items()}

    path = tmp_path / "virasoro.json"
    path.write_text(json.dumps(VIRASORO_SPEC))
    monkeypatch.setattr(cli, "poisson_to_pseudo", convert)
    got, out = run_cli("poisson", "import", "--file", str(path))
    assert got == code
    assert ("FAIL central-terms-carried" in out) == bool(code)


def test_zero_denominator_literal_is_usage_error():
    code, out = run_cli("bracket", "--structure", "wd:abelian2",
                        "--left", "1/0*d^(1,0) @ w_d1", "--right", "(1) @ w_d2")
    assert code == 2 and out == ""


@pytest.mark.parametrize("structure", ["wd:dim1", "cur:abelian1", "sd:abelian3"])
def test_negative_dmax_is_usage_error(structure):
    # one structure per solver: rank-one, generic, divergence-type suite
    code, out = run_cli("cohomology", "central", "--structure", structure, "--dmax", "-1")
    assert code == 2 and out == ""


def test_sd_cohomology_rejects_nonzero_chi(capsys):
    # the solver covers chi = 0; a nonzero chi is refused rather than dropped
    code, out = run_cli("cohomology", "central", "--structure", "sd:abelian3:1,2,3")
    assert code == 2 and out == ""
    assert "chi" in capsys.readouterr().err
    # chi = 0 spelled out is the same window: the reports differ in the
    # reference they name alone
    runs = [run_cli("--format", "json", "cohomology", "central", "--structure", spec, "--dmax", "2")
            for spec in ("sd:abelian3:0,0,0", "sd:abelian3")]
    reports = [json.loads(out) for _, out in runs]
    assert [r.pop("structure") for r in reports] == ["sd:abelian3:0,0,0", "sd:abelian3"]
    assert [code for code, _ in runs] == [0, 0] and reports[0] == reports[1]


@pytest.mark.parametrize("dmax", ["0", "1"])
def test_sd_cohomology_window_below_shift_degree_is_usage_error(dmax, monkeypatch, capsys):
    # the counit shifts of S(d) have degree 2 and would leave the window;
    # they are found before any row, and the message names the structure,
    # the shift degree and dmax
    from pseudoalg.linalg import SparseEliminator
    added = []
    add = SparseEliminator.add
    monkeypatch.setattr(SparseEliminator, "add",
                        lambda self, row: added.append(row) or add(self, row))
    code, out = run_cli("cohomology", "central", "--structure", "sd:abelian3", "--dmax", dmax)
    assert code == 2 and out == "" and added == []
    err = capsys.readouterr().err
    assert "degree window" in err
    assert err == ("input error: sd:abelian3 has a counit shift of degree 2, which leaves "
                   "the degree window of dmax %s\n" % dmax)


def test_annihilate_cutoff_over_budget_is_usage_error(capsys):
    # refused from its size estimate before any table is built
    start = time.perf_counter()
    code, out = run_cli("annihilate", "--structure", "wd:abelian1", "--cutoff", "100000000")
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert "budget" in capsys.readouterr().err
    # the budget of 2000 monomials admits cutoff 61 in two variables (1953)
    assert run_cli("annihilate", "--structure", "wd:abelian2", "--cutoff", "62")[0] == 2
    assert run_cli("annihilate", "--structure", "wd:abelian2", "--cutoff", "61")[0] == 0


@pytest.mark.parametrize("spec, count", [("gc:99999", 19_999_600_002),
                                         ("cend:100000", 20_000_000_000)])
def test_oversized_pseudolinear_structure_is_refused_before_building(spec, count, capsys):
    """C(dim + 1, dim) n^2 generators are counted before the list is made, so
    every subcommand refuses these sizes at once instead of allocating them."""
    with pytest.raises(ValueError, match="needs %d generators of degree <= 1, over the "
                       "budget of %d" % (count, CEND_MAX_GENERATORS)):
        build_structure(spec)
    for argv in (["verify", "--structure", spec],
                 ["bracket", "--structure", spec, "--left", "(1) @ c[0;0,0]",
                  "--right", "(1) @ c[0;0,0]"]):
        assert run_cli(*argv) == (2, "")
        assert capsys.readouterr().err.startswith("input error: rank ")


def _pseudolinear_specs():
    """The gc/cend references of the golden cases, the README and DISPATCH."""
    argvs = ([c["argv"] for c in GOLDEN_CASES] + _readme_commands()
             + [argv for argv, _, _ in DISPATCH])
    specs = {argv[argv.index("--structure") + 1] for argv in argvs if "--structure" in argv}
    return sorted(s for s in specs if s.startswith(("gc:", "cend:")))


def test_verify_budget_admits_the_pinned_structures():
    specs = _pseudolinear_specs()
    assert {"gc:2", "gc:3", "cend:2", "cend:3"} <= set(specs)
    # and the ones the benchmark and the text name: gc:4 is the largest rank
    # over one direction, gc:3@sl2 (46,656 triples) over sl2
    for spec in specs + ["gc:4", "cend:4", "gc:2@sl2", "gc:3@sl2"]:
        assert len(build_structure(spec)[1].verify_gens) ** 3 <= VERIFY_MAX_TRIPLES, spec


@pytest.mark.parametrize("spec, count", [("gc:10", 8_000_000), ("cend:5", 125_000),
                                         ("gc:4@sl2", 262_144)])
def test_verify_budget_refuses_before_any_bracket(spec, count, monkeypatch, capsys):
    """The triples are counted before the suite runs: with gen_bracket
    failing, an admitted structure fails and these are refused as before."""
    def evaluated(*args):
        raise AssertionError("a bracket was evaluated")
    monkeypatch.setattr(PseudoStructure, "gen_bracket", evaluated)
    with pytest.raises(AssertionError):
        build_structure("gc:1")[2]()
    with pytest.raises(ValueError, match="%s has %d generator triples to verify, over the "
                       "budget of %d" % (spec, count, VERIFY_MAX_TRIPLES)):
        build_structure(spec)[2]()
    assert run_cli("verify", "--structure", spec) == (2, "")
    assert capsys.readouterr().err.startswith("input error: %s has %d" % (spec, count))


class Solved(Exception):
    """Raised by a patched central solver in place of solving."""


def _patch_central_solvers(monkeypatch):
    def solved(*args, **kwargs):
        raise Solved
    for name in ("solve_central_extensions", "solve_central_extensions_rank1",
                 "sd_central_suite"):
        monkeypatch.setattr(cli, name, solved)


def _option(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _central_windows():
    """(spec, alpha, dmax) of every `cohomology central` run of the golden
    cases, the README, DISPATCH and the central benchmark workload."""
    argvs = ([c["argv"] for c in GOLDEN_CASES] + _readme_commands()
             + [argv for argv, code, _ in DISPATCH if code == 0])
    windows = {(_option(argv, "--structure"), _option(argv, "--alpha"),
                int(_option(argv, "--dmax", 4)))
               for argv in argvs if "central" in argv}
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    # a benchmark rank-one datum is the k-type structure of the same name,
    # and rank1:w1 the vector fields in one variable
    for _, name, dmax in gen.CENTRAL_SHAPES:
        family, _, rest = name.partition(":")
        if family == "rank1":
            name = "wd:dim1" if rest == "w1" else "k-type:" + rest
        windows.add((name, None, dmax))
    return sorted(windows, key=repr)


def test_central_budget_admits_the_pinned_windows(monkeypatch):
    """Every known window reaches the solver, the widest included: wd:sl2
    at dmax 10 (2,574 unknowns) and sd:abelian4 at dmax 4 (2,520)."""
    _patch_central_solvers(monkeypatch)
    windows = _central_windows()
    assert ("sd:abelian4", None, 3) in windows and ("k-type:sl2", None, 8) in windows
    for spec, alpha, dmax in windows + [("wd:sl2", None, 10), ("sd:abelian4", None, 4)]:
        with pytest.raises(Solved):
            build_structure(spec, alpha)[3](dmax)


@pytest.mark.parametrize("spec, dmax, count", [("wd:sl2", 40, 111_069), ("wd:sl2", 11, 3_276),
                                               ("sd:abelian4", 5, 4_536),
                                               ("k-type:sl2", 25, 3_276),
                                               ("wd:dim1", 3_000, 3_001)])
def test_central_budget_refuses_before_any_solve(spec, dmax, count, monkeypatch, capsys):
    """|gens|^2 C(dmax + dim, dim) unknowns are counted before the solver
    runs: with every solver patched to raise, these are refused as input
    errors naming the count and the budget."""
    _patch_central_solvers(monkeypatch)
    with pytest.raises(ValueError, match="%s at dmax %d has %d unknowns to solve, over the "
                       "budget of %d" % (spec, dmax, count, CENTRAL_MAX_UNKNOWNS)):
        build_structure(spec)[3](dmax)
    argv = ["cohomology", "central", "--structure", spec, "--dmax", str(dmax)]
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err.startswith("input error: %s at dmax %d has %d unknowns"
                                              % (spec, dmax, count))


def _bracket_operands():
    """(spec, alpha, algebra, left, right) of every bracket and xbracket run
    of the golden cases, the README and DISPATCH."""
    argvs = ([c["argv"] for c in GOLDEN_CASES] + _readme_commands()
             + [argv for argv, _, _ in DISPATCH])
    return sorted({tuple(_option(argv, name) for name in
                         ("--structure", "--alpha", "--algebra", "--left", "--right"))
                   for argv in argvs if "bracket" in argv or "xbracket" in argv}, key=repr)


def _bracket_work(spec, left, right, alpha=None, algebra=None):
    P = build_structure(spec, alpha, algebra)[1]
    return cli.bracket_work(P, parse_module_element(P.module, left),
                            parse_module_element(P.module, right))


def test_bracket_budget_admits_the_pinned_operands():
    """Every known operand pair is far under the budget (16 at most), and
    so are the widest measured over wd:sl2: d^(5,5,5) on both sides (about
    3 s) and the deep pair of `test_deep_bracket_exits_zero`."""
    cases = _bracket_operands()
    assert ("wd:abelian2", None, None, "(1) @ w_d1", "(d^(1,0)) @ w_d2") in cases
    assert len(cases) == 10
    for spec, alpha, algebra, left, right in cases:
        assert _bracket_work(spec, left, right, alpha, algebra) <= 16, spec
    for left, right, work in [("(d^(5,5,5)) @ w_e", "(d^(5,5,5)) @ w_f", 1_178_496),
                              ("(d^(0,0,34)) @ w_h", "(d^(34,0,0)) @ w_e", 2_000_425)]:
        assert _bracket_work("wd:sl2", left, right) == work <= BRACKET_MAX_WORK


def test_bracket_budget_counts_one_monomial_per_abelian_product(capsys):
    """Over an abelian algebra a product of monomials is one monomial, so
    each split of a right multi-index J costs da + |J| + 1: d^(3,3,3,3) on
    both sides over wd:abelian4 reads 6,400 (C(da + |J| + dim, dim) counted
    5,241,600) and runs.  In one variable the two counts agree, so
    d^(100000) on both sides over wd:abelian1 is still refused."""
    for spec, J, work in [("wd:abelian4", "3,3,3,3", 6_400),
                          ("wd:abelian4", "11,11,11,11", 1_845_504),
                          ("wd:abelian2", "80,80", 2_106_081),
                          ("wd:abelian3", "20,20,20", 1_120_581)]:
        left, right = "(d^(%s)) @ w_d1" % J, "(d^(%s)) @ w_d2" % J
        assert _bracket_work(spec, left, right) == work <= BRACKET_MAX_WORK
    code, out = run_cli("bracket", "--structure", "wd:abelian4", "--left",
                        "(d^(3,3,3,3)) @ w_d1", "--right", "(d^(3,3,3,3)) @ w_d2")
    assert code == 0 and out
    left = right = "(d^(100000)) @ w_d1"
    work = 100_001 * 200_001  # 100,001 splits of d^(100000), each 200,000 + 1
    assert _bracket_work("wd:abelian1", left, right) == work
    assert run_cli("bracket", "--structure", "wd:abelian1", "--left", left,
                   "--right", right) == (2, "")
    assert "work estimate %d, over the budget" % work in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bracket", "xbracket"])
@pytest.mark.parametrize("k, work", [(6, 3_134_677), (8, 15_181_425), (12, 148_352_425)])
def test_bracket_budget_refuses_before_any_product(command, k, work, monkeypatch, capsys):
    """The work is estimated from the operands' term counts and degrees
    before any product: with the bracket failing, an admitted pair fails
    and these are refused as input errors naming the estimate and the
    budget.  d^(8,8,8) on both sides ran for about a minute before."""
    def evaluated(*args):
        raise AssertionError("a bracket was evaluated")
    monkeypatch.setattr(PseudoStructure, "bracket", evaluated)
    extra = ["--x", "t^(1,0,0)"] if command == "xbracket" else []
    argv = [command, "--structure", "wd:sl2", "--left", "(d^(1,1,1)) @ w_e",
            "--right", "(d^(1,1,1)) @ w_f"] + extra
    with pytest.raises(AssertionError):
        run_cli(*argv)
    left, right = "(d^(%d,%d,%d)) @ w_e" % (k, k, k), "(d^(%d,%d,%d)) @ w_f" % (k, k, k)
    assert _bracket_work("wd:sl2", left, right) == work
    argv[argv.index("--left") + 1], argv[argv.index("--right") + 1] = left, right
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err == (
        "input error: the bracket of these operands has work estimate %d, over the "
        "budget of %d\n" % (work, BRACKET_MAX_WORK))


def test_annihilate_negative_cutoff_is_usage_error(capsys):
    code, out = run_cli("annihilate", "--structure", "wd:abelian2", "--cutoff", "-1")
    assert code == 2 and out == ""
    assert "cutoff must be nonnegative" in capsys.readouterr().err


def test_catalog_listing():
    code, out = run_cli("catalog")
    assert code == 0
    assert "sl2" in out and "wd:<d>" in out


def test_same_command_line_same_bytes():
    a = run_cli("verify", "--structure", "h-type:solv2")
    b = run_cli("verify", "--structure", "h-type:solv2")
    assert a == b
    c = run_cli("--format", "json", "annihilate", "--structure", "wd:abelian1", "--cutoff", "5")
    d = run_cli("--format", "json", "annihilate", "--structure", "wd:abelian1", "--cutoff", "5")
    assert c == d


def test_seed_option_is_refused(capsys):
    """No check draws a random number, so there is no --seed to set."""
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1", "verify", "--structure", "cur:sl2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pseudoalg [-h] [--format {text,json}]\n")
    assert "\npseudoalg: error: " in err


def test_json_format_is_machine_readable():
    code, out = run_cli("--format", "json", "verify", "--structure", "cur:sl2")
    data = json.loads(out)
    assert data["ok"] is True
    assert "seed" not in data
    assert all("name" in c and "passed" in c for c in data["checks"])


# -- golden output ---------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["name"] for c in GOLDEN_CASES])
def test_readme_commands_golden_json(case, tmp_path, monkeypatch):
    """The README commands and a few more, in JSON, print exactly the
    pinned bytes and exit with the pinned code.

    The fixtures were captured from the reference implementation; change
    them only for an intended change of output.  Commands that write or
    read a file do so in a fresh working directory, which holds the case's
    `files` as JSON.
    """
    monkeypatch.chdir(tmp_path)
    for name, data in case.get("files", {}).items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    if "before" in case:
        assert run_cli("--format", "json", *case["before"])[0] == 0
    code, out = run_cli("--format", "json", *case["argv"])
    expected = (GOLDEN / (case["name"] + ".out")).read_text(encoding="utf-8")
    assert out == expected
    assert code == case["exit"]
    json.loads(out)  # one JSON document, the xbracket value and a written file's name too


# -- inputs that once ended in a traceback or an empty pass ----------------------

BAD_INPUTS = [
    # the lazily indexed pseudolinear modules read back only names c[J;p,q]
    # with one entry of J per direction and p, q below the rank
    ["bracket", "--structure", "cend:1", "--left", "(1) @ x", "--right", "(1) @ x"],
    ["bracket", "--structure", "gc:1", "--left", "(1) @ x", "--right", "(1) @ x"],
    # rank below one: no generators, so the axiom suite checked nothing
    ["verify", "--structure", "gc:0"],
    # a rank is ASCII digits with no sign, space, underscore or leading zero,
    # so that no spelling of a rank builds a structure named otherwise
    ["verify", "--structure", "gc:-1"],
    ["verify", "--structure", "gc:1_0"],
    ["verify", "--structure", "gc: 2 "],
    ["verify", "--structure", "gc:+2"],
    ["verify", "--structure", "gc:02"],
    ["verify", "--structure", "cend:1_1"],
    # over the verify budget of generator triples
    ["verify", "--structure", "gc:10"],
    # over the budget of central unknowns
    ["cohomology", "central", "--structure", "wd:sl2", "--dmax", "40"],
    # S(d) on one direction has no pair generators, so its suite checked nothing
    ["verify", "--structure", "sd:abelian1"],
    # no listed generators, so the solver reported dimension 0 over nothing
    ["cohomology", "central", "--structure", "gc:1", "--dmax", "1"],
    # chi with 2 entries over a 3-dimensional algebra
    ["verify", "--structure", "sd:abelian3:1,0"],
    # catalog families without their parameters
    ["poisson", "catalog", "--family", "W", "--r", "1"],
    ["poisson", "catalog", "--family", "Cur", "--N", "1"],
]


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=[" ".join(a) for a in BAD_INPUTS])
def test_bad_structure_input_is_usage_error(argv, capsys):
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("input error:")


def test_empty_report_names_its_title(capsys):
    assert run_cli("verify", "--structure", "sd:abelian1") == (2, "")
    assert capsys.readouterr().err == "input error: sd:abelian1 checks nothing\n"


@pytest.mark.parametrize("name", ["c[0;0,1]", "c[-1;0,0]"])
def test_unknown_generator_error_names_it_once(name, capsys):
    """A KeyError prints its message, not its repr, and a sign inside a
    generator's brackets does not split the term."""
    assert run_cli("bracket", "--structure", "cend:1", "--left", "(1) @ " + name,
                   "--right", "(1) @ c[0;0,0]") == (2, "")
    assert capsys.readouterr().err == "input error: no generator named '%s'\n" % name


def test_poisson_catalog_error_names_missing_parameter(capsys):
    assert run_cli("poisson", "catalog", "--family", "W", "--r", "1")[0] == 2
    assert "parameter N" in capsys.readouterr().err
    assert run_cli("poisson", "catalog", "--family", "semidirect", "--r", "1", "--N", "1")[0] == 2
    assert "parameter g" in capsys.readouterr().err


def test_poisson_catalog_chi_counts_the_directions(capsys):
    # the S family takes one chi entry per direction r, not per coordinate N
    argv = ["poisson", "catalog", "--family", "S", "--r", "2", "--N", "3"]
    assert run_cli(*argv, "--chi", "1,0,0") == (2, "")
    assert "chi needs 2 entries, got 3" in capsys.readouterr().err
    assert run_cli(*argv, "--chi", "0,0")[0] == 0


def _readme_commands():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("pseudoalg ")]


def test_readme_commands_are_golden_cases():
    """Every command of the README's command-line block is pinned by a golden case."""
    pinned = [c["argv"] for c in GOLDEN_CASES] + [c["before"] for c in GOLDEN_CASES
                                                  if "before" in c]
    commands = _readme_commands()
    assert len(commands) == 14
    for argv in commands:
        assert argv in pinned, argv


def test_readme_quick_start_prints_what_its_comments_state():
    """The README's library example, run as a process from the checkout,
    prints the value that the comment of each print line states."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    stated = [line.split("# ", 1)[1].strip() for line in block.splitlines()
              if line.startswith("print(")]
    assert stated == ["True", "True", "True", "1 d^(3)"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True,
                         text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines() == stated


# one reference per head that `catalog` lists under structures, with the
# --alpha and --algebra options it needs
CATALOG_EXAMPLES = {
    "cur": ("cur:sl2@abelian2", None, None),
    "wd": ("wd:heis3", None, None),
    "sd": ("sd:abelian3:1,0,0", None, None),
    "h-type": ("h-type:solv2", None, None),
    "k-type": ("k-type:sl2", None, None),
    "gc": ("gc:2@sl2", None, None),
    "cend": ("cend:3", None, None),
    "rank1": ("rank1", "d^(1)#d^(0) - d^(0)#d^(1)", "abelian1"),
}


def test_catalog_lists_what_build_structure_builds():
    """Every head that `catalog` lists builds from an example reference, a
    head it does not list is refused, and its rank1 data are the names
    `named_rank1_datum` accepts."""
    code, out = run_cli("--format", "json", "catalog")
    data = json.loads(out)
    heads = [s.split(":")[0].split(" ")[0] for s in data["structures"]]
    assert code == 0 and sorted(heads) == sorted(CATALOG_EXAMPLES)
    for head, (spec, alpha, algebra) in CATALOG_EXAMPLES.items():
        assert build_structure(spec, alpha, algebra)[0] == head
    for spec in ("gl:2", "w:abelian1", "rank2", "cur2:sl2", "H-type:solv2"):
        with pytest.raises(ValueError, match="unknown structure %r" % spec):
            build_structure(spec)
    for name in data["rank1_data"]:
        assert build_structure("k-type:" + name)[0] == "k-type"
    for name in ("heis3", "abelian1", "Sl2", ""):
        with pytest.raises(KeyError, match="unknown rank-one datum %r" % name):
            named_rank1_datum(name)


def test_every_generator_name_reads_back():
    """Each generator that a catalog structure or a form module names,
    printed as the module element (1) @ name, parses back to itself: the
    "@"-term grammar splits no name the package makes.  The lazily indexed
    gc and cend modules are read over their `verify_gens`."""
    modules = [(P.module, P.verify_gens) for P in
               (build_structure(*example)[1] for example in CATALOG_EXAMPLES.values())]
    for name in CATALOG_BUILDERS:
        alg = algebra_by_name(name)
        modules += [(M, M.gens) for M in (form_module(alg, n) for n in range(alg.dim + 1))]
    checked = 0
    for module, gens in modules:
        for g in gens:
            element = module.element(g)
            text = render_module_element(element)
            assert parse_module_element(module, text) == element, text
            checked += 1
    assert checked == 96


# -- the family dispatch, cell by cell ---------------------------------------------

ALPHA = "d^(1)#d^(0) - d^(0)#d^(1)"

# (subcommand x family) cells that no golden case covers, each with the exit
# code and the sha256 of its stdout as the per-family dispatch first printed
# them; argv runs in JSON unless it names its own --format.  The JSON central
# windows over several generators were pinned again when `kernel` began to
# list each vector's pivot unknowns in the order of the unknowns, every
# central window again when its report began to name its structure and
# algebra, the xbracket cells when --format json began to print JSON, and
# every verify, annihilate and central cell when its report stopped
# printing a seed
DISPATCH = [
    (["verify", "--structure", "gc:2"], 0,
     "a735b1c55c86021944f5f350f60bc25fdb2b95a5e962a12df9a46e066e95b9f4"),
    (["verify", "--structure", "cend:1"], 0,
     "faa15384cd54b71739b62e02900d1b69f6c724183683ca795b041d04f377ea77"),
    (["verify", "--structure", "wd:sl2"], 0,
     "55c5be181394fe417426f0fa06d514ff48f9237a1b2fe9d8ae4ab6cc891cfbb9"),
    (["verify", "--structure", "h-type:solv2"], 0,
     "4a5f8dc2358c2c71e29b6b355a0700808cd2969b011760d0aa284bae2ae39573"),
    (["verify", "--structure", "k-type:sl2"], 0,
     "0d01678df8fa794231708c7e6f89a6bed0a65e3206a30b272e326de25aa8ae0c"),
    (["verify", "--structure", "sd:abelian3:1,0,0"], 0,
     "2c7fc3f559c00cd135e18047fa8af68b3177038b3f3b7152513012df052c4ffc"),
    (["bracket", "--structure", "sd:abelian3",
      "--left", "(1) @ w_d1", "--right", "(d^(0,1,0)) @ w_d2"], 0,
     "d15d66ec83d3d28426e2588a0253f920f60193a58912c3d0c81e51ae5f31f9ab"),
    (["bracket", "--structure", "h-type:abelian2",
      "--left", "(1) @ e", "--right", "(d^(1,0)) @ e"], 0,
     "ee257f603e285a2b2675d337aecf64da830927ce4215b827dd0523eb584ff040"),
    (["bracket", "--structure", "cur:sl2", "--left", "(1) @ g_e", "--right", "(d^(1)) @ g_f"], 0,
     "cc50e6c7f80768415d4a365c7939669ddf8a54735153878079ba5a10f3fc89de"),
    (["bracket", "--structure", "rank1", "--alpha", ALPHA,
      "--left", "(1) @ e", "--right", "(d^(2)) @ e"], 0,
     "fcebda29cbbb75827c1841177f3e6e55a677352eb7677bd76f7f7987c77454a4"),
    (["xbracket", "--structure", "cur:sl2",
      "--left", "(1) @ g_e", "--right", "(d^(2)) @ g_h", "--x", "t^(1)"], 0,
     "16a6918b707f0b5754f3607c84e9ba2a90ecd8835db54e8916f342a49b5d7bc1"),
    (["xbracket", "--structure", "k-type:heisenberg", "--left", "(1) @ e",
      "--right", "(d^(1,0,0)) @ e", "--x", "t^(0,1,0)", "--cutoff", "4"], 0,
     "c6e3d8d66cad3058178761d85b5dbf19b7547a2a584ef3a48acc22d83b620537"),
    (["cohomology", "central", "--structure", "cur:sl2", "--dmax", "3"], 0,
     "c9d974063f375ac6f4a957d3642ef1f0581ca885c464fa84f48aee7adefb6531"),
    (["cohomology", "central", "--structure", "wd:solv2", "--dmax", "3"], 0,
     "724d4b86357fb8a215a1dba52d09c060a770b75c3a559b4bf1a47fc8c0d5128b"),
    # the closed rank-one form and the generic solver agree on one variable
    # (`test_rank_one_and_generic_solvers_agree_on_one_variable`)
    (["cohomology", "central", "--structure", "wd:abelian1", "--dmax", "3"], 0,
     "58926c441b71bcd2157628aac12526b0dc148e8932a8018500dd163f3fdf94b1"),
    (["cohomology", "central", "--structure", "rank1", "--alpha", ALPHA, "--dmax", "3"], 0,
     "8f26b7bab40e99b79809a88c3cb1d89efda0cdda012c0422492b7ba7f41b0ccd"),
    (["cohomology", "central", "--structure", "k-type:sl2", "--dmax", "3"], 0,
     "b5d7b91a82edcf9dbd875f32ba13f299c4ec6f20dc0c7a92ca70d2cf53e87338"),
    (["--format", "text", "verify", "--structure", "cend:1"], 0,
     "e75a4a2b67e54e2279f979dcb4051f3d35659ff52f53eb0352b4243409f08671"),
    (["--format", "text", "bracket", "--structure", "cur:sl2",
      "--left", "(1) @ g_e", "--right", "(d^(1)) @ g_f"], 0,
     "12f1004428fdc2f4b58e1197d91bb3ce35d541d0903c536864a4ad019bb7a381"),
    (["--format", "text", "cohomology", "central", "--structure", "cur:sl2", "--dmax", "3"], 0,
     "2db5f7de01481261b2bfd21ae39d1a360e69864f69fd1ab9ad6491cc1579bd25"),
    # heavier reports, pinned before a rework of the table code so that it
    # keeps their bytes: full axiom suites and central-extension windows
    (["verify", "--structure", "gc:3"], 0,
     "e1bebb756b63829a54ab04ae18f1a8daefc8cf6b9ab86d336d32aa46c8188dc6"),
    (["verify", "--structure", "cend:3"], 0,
     "d26a5c293bf1bef2ba596de0755d24f26f44f517ed579f4caa2871ef4d2786d1"),
    (["verify", "--structure", "sd:abelian4"], 0,
     "aeaf68d35588d9bf32bafeccd3733bf7b7f049bec791d7bb4d33d76211eb0c86"),
    (["cohomology", "central", "--structure", "wd:sl2", "--dmax", "3"], 0,
     "0f7534587d59c9ab978a8eea1ab71c9efdb34db630a594ad66e37929e61a6e9d"),
    (["cohomology", "central", "--structure", "sd:abelian3", "--dmax", "3"], 0,
     "821e80320873202ba951a94b923178bb3e7f32e251cfee27b9ceda6d28e1b451"),
    # larger windows, pinned before a rework of the eliminator and of the
    # tensor product kernel so that both keep their bytes
    (["cohomology", "central", "--structure", "k-type:sl2", "--dmax", "8"], 0,
     "2159cf898564a39b24c1a917a9ed4626c71f98d37da258767b56c1772b3f8852"),
    (["cohomology", "central", "--structure", "h-type:solv2", "--dmax", "8"], 0,
     "a360007247644738dc6ec055c387919a67b4edfa7c049673473219f2a965cf4a"),
    (["cohomology", "central", "--structure", "sd:abelian4", "--dmax", "3"], 0,
     "352068b3f80e04f441d0562f33f2f013a914c127216b50a6214a300d3f1b168b"),
    # the S catalog reads its tables off the pair structure of S(d)
    (["poisson", "catalog", "--family", "S", "--r", "3", "--N", "3"], 0,
     "82f9596e7266a6348f70961176a3fc4ffde76fa041e81683827e81438faac3f2"),
    (["poisson", "catalog", "--family", "S", "--r", "3", "--N", "4", "--chi", "1/2,1,-1"], 0,
     "155ee63c3fe18d8d99a6f1911b256fd45d5c5b31172d10a70fff1265a48744c0"),
    # operands named as the pseudolinear modules print their generators
    (["bracket", "--structure", "cend:2",
      "--left", "(1) @ c[1;0,1]", "--right", "(d^(1)) @ c[0;1,0]"], 0,
     "9b893474400b4bea5cf661abb52e5679fb42f0a6c44eb72231ea8bc24a9ee412"),
    (["bracket", "--structure", "gc:1",
      "--left", "(1) @ c[1;0,0]", "--right", "(1) @ c[0;0,0]"], 0,
     "f879606a5fe267cba8e5d04b58cff9cdc288596b9311e03d2712bfbee6cc9ebf"),
    # the JSON central windows the CI workflow pins by hash: their reports
    # print the cocycle basis, the shift space and the representatives
    (["cohomology", "central", "--structure", "sd:abelian4", "--dmax", "4"], 0,
     "d18f56dc8ecd3009e5294cb3b0a9c4789adeaddcf6e4bcf1fd430207ba8125d8"),
    (["cohomology", "central", "--structure", "wd:sl2", "--dmax", "8"], 0,
     "27a016fcb1fd7017d61d2c84e6a2936f919a8bd4e8f18f22e1bc0fc67249b986"),
    # non-abelian annihilate reports, pinned before the brackets began to
    # clear denominators once per call, so that they keep their bytes
    (["annihilate", "--structure", "wd:sl2", "--cutoff", "5"], 0,
     "ad2bfcbfd86c18083f1e3d33b96d50d243cc08eecbc1abbda9a2998888fa3b8a"),
    (["annihilate", "--structure", "wd:heis3", "--cutoff", "5"], 0,
     "3494a4618eb303b13d6578a079f162a71c6899389c3e5daba11eb34f01b9b5b3"),
]


def _cell_id(argv):
    if "--structure" not in argv:
        return " ".join(argv)
    command = argv[2] if argv[0] == "--format" else argv[0]
    fmt = argv[:2] if command != argv[0] else []
    # the dmax-3 windows keep their short ids; a larger window names its dmax
    if "--dmax" in argv and argv[argv.index("--dmax") + 1] != "3":
        fmt = argv[argv.index("--dmax"):][:2] + fmt
    return " ".join([command, argv[argv.index("--structure") + 1]] + fmt)


@pytest.mark.parametrize("argv, code, sha", DISPATCH, ids=[_cell_id(a) for a, _, _ in DISPATCH])
def test_family_dispatch_matrix(argv, code, sha):
    if argv[0] != "--format":
        argv = ["--format", "json"] + argv
    got, out = run_cli(*argv)
    assert (got, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (code, sha)
    if argv[1] == "json":
        json.loads(out)  # one JSON document


def test_rank_one_and_generic_solvers_agree_on_one_variable():
    """wd:abelian1 takes the closed rank-one solver and rank1 --alpha the
    generic one: their reports differ in the structure they name alone."""
    reports = [json.loads(run_cli("--format", "json", "cohomology", "central", *argv,
                                  "--dmax", "3")[1])
               for argv in (["--structure", "wd:abelian1"],
                            ["--structure", "rank1", "--alpha", ALPHA])]
    assert [r.pop("structure") for r in reports] == ["wd:abelian1", "rank1 --alpha " + ALPHA]
    assert reports[0] == reports[1] and reports[0]["algebra"] == "abelian1"


def test_central_reports_name_their_subject():
    """Two structures whose central windows have the same solution print
    different reports: each names its structure and algebra, in JSON and on
    the first text line."""
    argv = ["cohomology", "central", "--dmax", "3", "--structure"]
    reports = {spec: json.loads(run_cli("--format", "json", *argv, spec)[1])
               for spec in ("k-type:sl2", "k-type:heisenberg")}
    assert {spec: (r.pop("structure"), r.pop("algebra")) for spec, r in reports.items()} == {
        "k-type:sl2": ("k-type:sl2", "sl2"), "k-type:heisenberg": ("k-type:heisenberg", "heis3")}
    assert reports["k-type:sl2"] == reports["k-type:heisenberg"]
    first = run_cli(*argv, "k-type:sl2")[1].splitlines()[0]
    assert first == "central extensions of k-type:sl2 (algebra sl2)"


@pytest.mark.parametrize("argv, option, spec", [
    (["verify", "--structure", "wd:abelian1", "--alpha", "garbage", "--algebra", "nosuch"],
     "--alpha", "wd:abelian1"),
    (["cohomology", "central", "--structure", "cur:sl2", "--algebra", "sl2"],
     "--algebra", "cur:sl2")])
def test_rank1_options_are_refused_on_other_families(argv, option, spec, capsys):
    """--alpha and --algebra define rank1 alone; with another family they
    are input errors naming the option, where they were ignored before."""
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err == "input error: %s applies to rank1 only, not to %s\n" % (
        option, spec)
    with pytest.raises(ValueError, match="%s applies to rank1 only" % option):
        build_structure(spec, **{option[2:]: "sl2"})


@pytest.mark.parametrize("argv", [["--structure", "sd:abelian3"],
                                  ["--structure", "rank1", "--alpha", ALPHA]])
def test_annihilate_refuses_other_families(argv, capsys):
    assert run_cli("annihilate", *argv) == (2, "")
    assert capsys.readouterr().err == "annihilate expects a wd:<algebra> structure\n"


def test_catalog_out_to_a_directory_is_usage_error(tmp_path, capsys):
    # an OSError other than a missing file is an input error too
    argv = ["poisson", "catalog", "--family", "W", "--r", "1", "--N", "1", "--out", str(tmp_path)]
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err.startswith("input error:")


def _w11():
    return {"r": 1, "N": 1, "names": ["u1"], "central": [],
            "Q": [{"i": 1, "j": 1, "k": 1,
                   "terms": [{"lambda": [0], "partial": [1], "coeff": "1"},
                             {"lambda": [1], "partial": [0], "coeff": "2"}]}]}


def _spec_with(change):
    data = _w11()
    change(data)
    return data


def _set_term(field, value):
    return lambda d: d["Q"][0]["terms"][0].__setitem__(field, value)


MALFORMED_SPECS = {
    "top-level list": ([_w11()], "JSON object"),
    "lambda not a list": (_spec_with(_set_term("lambda", 5)), "lambda = 5"),
    # zipped against the one variable, [0, 0] once read as [0]
    "lambda too long": (_spec_with(_set_term("lambda", [0, 0])), "lambda (0, 0) has length 2"),
    "negative partial": (_spec_with(_set_term("partial", [-1])), "partial = [-1]"),
    "field index beyond r": (_spec_with(lambda d: d["Q"][0].__setitem__("i", 3)),
                             "i = 3 is not a field in 1..1"),
    "names shorter than r": (_spec_with(lambda d: d.update(r=2, names=["u1"])),
                             "names lists 1 fields, expected r = 2"),
    # int([1]) raised a TypeError traceback
    "r not an integer": (_spec_with(lambda d: d.update(r=[1])), "r = [1] is not a positive integer"),
    # row["i"] on an int raised a TypeError traceback
    "Q row not an object": (_spec_with(lambda d: d.update(Q=[5])), "Q = [5] is not a list of objects"),
    "term not an object": (_spec_with(lambda d: d["Q"][0].update(terms=[[0]])),
                           "terms = [[0]] is not a list of objects"),
    # list(5) raised a TypeError traceback; "u" passed as the list ["u"]
    "names not a list": (_spec_with(lambda d: d.update(names=5)), "names = 5 is not a list of strings"),
    "names a string": (_spec_with(lambda d: d.update(names="u")),
                       "names = 'u' is not a list of strings"),
    # no fields, so the Jacobi suite passed with 0/0 checks
    "no fields": (_spec_with(lambda d: d.update(r=0, names=[], Q=[])),
                  "r = 0 is not a positive integer"),
}


@pytest.mark.parametrize("action", ["verify", "export"])
@pytest.mark.parametrize("case", MALFORMED_SPECS)
def test_malformed_poisson_spec_is_usage_error(case, action, tmp_path, capsys):
    data, message = MALFORMED_SPECS[case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("poisson", action, "--file", str(path)) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err, err


def test_poisson_verify_budget_refuses_before_any_build(tmp_path, monkeypatch, capsys):
    """r ** 3 Jacobi triples are counted before the pseudoalgebra is built:
    with the suite patched to raise, a spec of 36 fields (46,656 triples)
    reaches it, and specs of 37 and 200 fields are refused as input errors
    naming the count and the budget."""
    def verified(spec):
        raise Solved
    monkeypatch.setattr(cli, "verify_poisson_jacobi", verified)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"r": 36, "N": 1}), encoding="utf-8")
    with pytest.raises(Solved):
        main(["poisson", "verify", "--file", str(path)])
    for r, count in [(37, 50_653), (200, 8_000_000)]:
        path.write_text(json.dumps({"r": r, "N": 1}), encoding="utf-8")
        assert run_cli("poisson", "verify", "--file", str(path)) == (2, "")
        assert capsys.readouterr().err == (
            "input error: %s has %d generator triples to verify (r = %d), over the "
            "budget of %d\n" % (path, count, r, VERIFY_MAX_TRIPLES))


def test_well_formed_poisson_spec_still_loads(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_w11()), encoding="utf-8")
    code, out = run_cli("--format", "json", "poisson", "export", "--file", str(path))
    assert code == 0 and json.loads(out) == _w11()
    assert run_cli("poisson", "verify", "--file", str(path))[0] == 0


def _one_term_spec(lam, der, central=None):
    data = {"r": 1, "N": len(lam),
            "Q": [{"i": 1, "j": 1, "k": 1,
                   "terms": [{"lambda": lam, "partial": der, "coeff": "1"}]}]}
    if central:
        data["central"] = [{"i": 1, "j": 1, "terms": [{"lambda": central, "coeff": "1"}]}]
    return data


@pytest.mark.parametrize("lam, der, central, work", [
    ([0], [445], None, 99_681), ([222], [223], None, 99_681), ([0], [446], None, 100_128),
    ([445], [0], None, 99_681), ([0], [1], [445], 99_684), ([0], [1], [446], 100_131),
    ([0, 0, 0], [8, 8, 8], None, 91_125), ([0, 0, 0], [9, 8, 8], None, 111_375),
    ([400], [400], None, 321_201), ([8, 8, 8], [8, 8, 8], None, 3_581_577),
    ([800], [800], None, 1_282_401)],
    ids=lambda v: "-".join(map(str, v)) if isinstance(v, list) else None)
def test_poisson_spec_work_budget_refuses_before_any_build(lam, der, central, work, tmp_path,
                                                           monkeypatch, capsys):
    """`poisson verify` and `poisson import` price a spec from its exponents
    before the pseudoalgebra is built: prod C(A_i + B_i + 2, 2) per term,
    summed, grows with the degree and with its spread over the variables.
    With the builds patched to raise, a spec at the budget reaches them,
    and one over it is refused as an input error naming the estimate and
    the budget."""
    def built(spec):
        raise Solved
    monkeypatch.setattr(cli, "verify_poisson_jacobi", built)
    monkeypatch.setattr(cli, "poisson_to_pseudo", built)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_one_term_spec(lam, der, central)), encoding="utf-8")
    assert cli.poisson_work(poisson.load_poisson(path)) == work
    for action in ("verify", "import"):
        if work <= POISSON_MAX_WORK:
            with pytest.raises(Solved):
                main(["poisson", action, "--file", str(path)])
            continue
        assert run_cli("poisson", action, "--file", str(path)) == (2, "")
        assert capsys.readouterr().err == (
            "input error: %s has work estimate %d, over the budget of %d\n"
            % (path, work, POISSON_MAX_WORK))


def _patch_catalog_build(monkeypatch):
    def built(name, **params):
        raise Solved
    monkeypatch.setattr(cli, "poisson_catalog", built)


def test_catalog_budget_admits_the_pinned_catalogs(monkeypatch):
    """Every `poisson catalog` run of the golden cases, the README and
    DISPATCH reaches the build; the widest, S at r = 3, N = 4, is priced
    at 756, and the CI step's H at r = N = 2 at 4."""
    _patch_catalog_build(monkeypatch)
    argvs = [argv for argv in ([c["argv"] for c in GOLDEN_CASES] + _readme_commands()
                               + [argv for argv, code, _ in DISPATCH if code == 0])
             if argv[:2] == ["poisson", "catalog"]]
    assert len(argvs) >= 4
    for argv in argvs:
        with pytest.raises(Solved):
            main(argv)
    assert cli.catalog_work("S", {"r": 3, "N": 4}) == 756
    assert cli.catalog_work("H", {"r": 2, "N": 2}) == 4


@pytest.mark.parametrize("argv, work", [
    (["W", "--r", "69", "--N", "69"], 985_527), (["W", "--r", "70", "--N", "70"], 1_029_000),
    (["W", "--r", "150", "--N", "150"], 10_125_000),
    (["S", "--r", "9", "--N", "9"], 632_043), (["S", "--r", "10", "--N", "10"], 1_218_000),
    (["S", "--r", "3", "--N", "5291"], 999_999), (["S", "--r", "3", "--N", "5292"], 1_000_188),
    (["H", "--r", "1000", "--N", "1000"], 1_000_000),
    (["H", "--r", "1000", "--N", "1001"], 1_001_000),
    (["Cur", "--g", "sl2", "--N", "37037"], 999_999),
    (["Cur", "--g", "sl2", "--N", "37038"], 1_000_026),
    (["semidirect", "--r", "60", "--N", "60", "--g", "sl2"], 682_020),
    (["semidirect", "--r", "70", "--N", "70", "--g", "sl2"], 1_074_990)],
    ids=lambda v: "_".join(x.lstrip("-") for x in v) if isinstance(v, list) else None)
def test_catalog_budget_refuses_before_any_build(argv, work, monkeypatch, capsys):
    """`poisson catalog` prices its family from r, N and dim g before it
    builds: with the build patched to raise, a catalog at the budget
    reaches it, and one just over it is refused as an input error naming
    the estimate and the budget, the build never called."""
    params = {name[2:]: int(v) for name, v in zip(argv[1::2], argv[2::2]) if name != "--g"}
    if "--g" in argv:
        params["g"] = algebra_by_name(_option(argv, "--g"))
    assert cli.catalog_work(argv[0], params) == work
    _patch_catalog_build(monkeypatch)
    argv = ["poisson", "catalog", "--family"] + argv
    if work <= CATALOG_MAX_WORK:
        with pytest.raises(Solved):
            main(argv)
        return
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err == (
        "input error: poisson catalog --family %s has work estimate %d, over the budget "
        "of %d\n" % (argv[3], work, CATALOG_MAX_WORK))


POISSON_UNREAD_OPTIONS = [
    (["catalog", "--family", "H", "--r", "2", "--N", "2", "--chi", "1"],
     "--chi does not apply to poisson catalog --family H"),
    (["catalog", "--family", "W", "--r", "1", "--N", "1", "--g", "sl2"],
     "--g does not apply to poisson catalog --family W"),
    (["catalog", "--family", "S", "--r", "2", "--N", "2", "--g", "sl2"],
     "--g does not apply to poisson catalog --family S"),
    (["catalog", "--family", "Cur", "--g", "sl2", "--N", "1", "--r", "1"],
     "--r does not apply to poisson catalog --family Cur"),
    (["catalog", "--family", "semidirect", "--r", "1", "--N", "1", "--g", "sl2", "--chi", "1"],
     "--chi does not apply to poisson catalog --family semidirect"),
    (["catalog", "--family", "W", "--r", "1", "--N", "1", "--file", "spec.json"],
     "--file does not apply to poisson catalog --family W"),
    (["verify", "--file", "spec.json", "--out", "out.json"], "--out does not apply to poisson verify"),
    (["import", "--file", "spec.json", "--out", "out.json"], "--out does not apply to poisson import"),
    (["export", "--file", "spec.json", "--family", "W"], "--family does not apply to poisson export"),
    (["verify", "--file", "spec.json", "--r", "1"], "--r does not apply to poisson verify"),
    (["import", "--file", "spec.json", "--N", "1"], "--N does not apply to poisson import"),
    (["export", "--file", "spec.json", "--chi", "1"], "--chi does not apply to poisson export"),
]


@pytest.mark.parametrize("argv, message", POISSON_UNREAD_OPTIONS,
                         ids=[" ".join(a) for a, _ in POISSON_UNREAD_OPTIONS])
def test_poisson_refuses_options_it_does_not_read(argv, message, tmp_path, monkeypatch, capsys):
    """An option the action (or the catalog family) does not read is refused
    as an input error naming it, before any file is read or written; the
    same command without it runs."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(_w11()), encoding="utf-8")
    assert run_cli("poisson", *argv) == (2, "")
    assert capsys.readouterr().err == "input error: %s\n" % message
    assert not (tmp_path / "out.json").exists()
    option = message.split()[0]
    at = argv.index(option)
    assert run_cli("poisson", *argv[:at], *argv[at + 2:])[0] == 0


def test_poisson_catalog_needs_a_family(capsys):
    assert run_cli("poisson", "catalog", "--r", "1", "--N", "1") == (2, "")
    assert capsys.readouterr().err == "poisson catalog needs --family\n"
