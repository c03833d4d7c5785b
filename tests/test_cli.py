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

from pseudoalg import cli
from pseudoalg.cli import (CENTRAL_MAX_UNKNOWNS, VERIFY_MAX_TRIPLES, build_structure,
                          main)
from pseudoalg.constructions import CEND_MAX_GENERATORS
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
    assert (run_cli("cohomology", "central", "--structure", "sd:abelian3:0,0,0", "--dmax", "2")
            == run_cli("cohomology", "central", "--structure", "sd:abelian3", "--dmax", "2"))


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


def test_annihilate_negative_cutoff_is_usage_error(capsys):
    code, out = run_cli("annihilate", "--structure", "wd:abelian2", "--cutoff", "-1")
    assert code == 2 and out == ""
    assert "cutoff must be nonnegative" in capsys.readouterr().err


def test_catalog_listing():
    code, out = run_cli("catalog")
    assert code == 0
    assert "sl2" in out and "wd:<d>" in out


def test_determinism_same_seed_same_bytes():
    a = run_cli("--seed", "7", "verify", "--structure", "h-type:solv2")
    b = run_cli("--seed", "7", "verify", "--structure", "h-type:solv2")
    assert a == b
    c = run_cli("--seed", "7", "--format", "json", "annihilate",
                "--structure", "wd:abelian1", "--cutoff", "5")
    d = run_cli("--seed", "7", "--format", "json", "annihilate",
                "--structure", "wd:abelian1", "--cutoff", "5")
    assert c == d


def test_json_format_is_machine_readable():
    code, out = run_cli("--format", "json", "verify", "--structure", "cur:sl2")
    data = json.loads(out)
    assert data["ok"] is True
    assert data["seed"] == 20260801
    assert all("name" in c and "passed" in c for c in data["checks"])


# -- golden output ---------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["name"] for c in GOLDEN_CASES])
def test_readme_commands_golden_json(case, tmp_path, monkeypatch):
    """The README commands and a few more, in JSON at the default seed,
    print exactly the pinned bytes and exit with the pinned code.

    The fixtures were captured from the reference implementation; change
    them only for an intended change of output.  Commands that write or
    read a file do so in a fresh working directory.
    """
    monkeypatch.chdir(tmp_path)
    if "before" in case:
        assert run_cli("--format", "json", *case["before"])[0] == 0
    code, out = run_cli("--format", "json", *case["argv"])
    expected = (GOLDEN / (case["name"] + ".out")).read_text(encoding="utf-8")
    assert out == expected
    assert code == case["exit"]


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


# -- the family dispatch, cell by cell ---------------------------------------------

ALPHA = "d^(1)#d^(0) - d^(0)#d^(1)"

# (subcommand x family) cells that no golden case covers, each with the exit
# code and the sha256 of its stdout as the per-family dispatch first printed
# them; argv runs in JSON unless it names its own --format.  The JSON central
# windows over several generators were pinned again when `kernel` began to
# list each vector's pivot unknowns in the order of the unknowns
DISPATCH = [
    (["verify", "--structure", "gc:2"], 0,
     "de5e8ea492df90b669fa3ec46bb4fbd6261bdee45d74f02643bf530728f0b2e2"),
    (["verify", "--structure", "cend:1"], 0,
     "330286a8ca59ce47d398a5af823b53063aca5fddbb8c09a48087f3c199612911"),
    (["verify", "--structure", "wd:sl2"], 0,
     "85d22d8a63e7807077b5759cadbced71eb82d831af4196decda6941ab9ed83ce"),
    (["verify", "--structure", "h-type:solv2"], 0,
     "ad79fe038fdd0239736dbd914d0c7bc15e545f9fab0ec1156448dfa24497552a"),
    (["verify", "--structure", "k-type:sl2"], 0,
     "85c6aa07febcc3b1f482c1a22b706156f1e6cca2ab3caa4a23ac19ef8783696f"),
    (["verify", "--structure", "sd:abelian3:1,0,0"], 0,
     "a0b5ffa47c56dbc03ebd21783d75a7f7886696ac400746ccc368e276dee1d9c1"),
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
     "3651a07b914cdc3fcbacf0a15a3cf8fee003114b85873465eda3c0937c4b006e"),
    (["xbracket", "--structure", "k-type:heisenberg", "--left", "(1) @ e",
      "--right", "(d^(1,0,0)) @ e", "--x", "t^(0,1,0)", "--cutoff", "4"], 0,
     "f37e9c194ba361e677c7c0a90ccd24e3076315af869711ba42c764a15308bf03"),
    (["cohomology", "central", "--structure", "cur:sl2", "--dmax", "3"], 0,
     "e0672ad9675d4549d8b1549ef4cb35ce3790efea39136e2c330a725d70a6195a"),
    (["cohomology", "central", "--structure", "wd:solv2", "--dmax", "3"], 0,
     "ac443097969d6d5e20ce72fa8f44b7b4d36ac42dc78440300c1172a4cb83b688"),
    # the closed rank-one form and the generic solver agree on one variable
    (["cohomology", "central", "--structure", "wd:abelian1", "--dmax", "3"], 0,
     "c15e50f651ebc398df3d216b43b1808b015a0db9368afff376ad4ca51f18c8f2"),
    (["cohomology", "central", "--structure", "rank1", "--alpha", ALPHA, "--dmax", "3"], 0,
     "c15e50f651ebc398df3d216b43b1808b015a0db9368afff376ad4ca51f18c8f2"),
    (["cohomology", "central", "--structure", "k-type:sl2", "--dmax", "3"], 0,
     "d3a1e49285edc523ef5599df61c40500eb804d93b06fa23f874c1dd42182b7ca"),
    (["--format", "text", "verify", "--structure", "cend:1"], 0,
     "a2f0ed29a52c12e76a79c9d21db010e405a0606033c8bdce1c392ea16f715256"),
    (["--format", "text", "bracket", "--structure", "cur:sl2",
      "--left", "(1) @ g_e", "--right", "(d^(1)) @ g_f"], 0,
     "12f1004428fdc2f4b58e1197d91bb3ce35d541d0903c536864a4ad019bb7a381"),
    (["--format", "text", "cohomology", "central", "--structure", "cur:sl2", "--dmax", "3"], 0,
     "023bc6450a004fe0fdb4655f91a6477d4000c59e8bc9169e15c1d04bc6e36c4b"),
    # heavier reports, pinned before a rework of the table code so that it
    # keeps their bytes: full axiom suites and central-extension windows
    (["verify", "--structure", "gc:3"], 0,
     "459b8a7e5bb2fb4c92a85b04a1e859a24aa5bfe3243e439e4fba8db97be26b31"),
    (["verify", "--structure", "cend:3"], 0,
     "1f7e1cee81010ecc2588cdc142d4608d3db80b04ba4ee2e5f2f777ff51d256bf"),
    (["verify", "--structure", "sd:abelian4"], 0,
     "37305161de328c04ab95bd50b5143814762c1b9e77928d06cbb3ed65a787ba3a"),
    (["cohomology", "central", "--structure", "wd:sl2", "--dmax", "3"], 0,
     "de3ac310d069c9cb9c69037a22023b7fc8fa5756e8af1f2f0fd3d6d0503ac470"),
    (["cohomology", "central", "--structure", "sd:abelian3", "--dmax", "3"], 0,
     "410c32a494b18fa897e75b391010fbd0e2b3897bf07da3f633d6d06fbcdf72df"),
    # larger windows, pinned before a rework of the eliminator and of the
    # tensor product kernel so that both keep their bytes
    (["cohomology", "central", "--structure", "k-type:sl2", "--dmax", "8"], 0,
     "d1769e40493d64c692fe163966755833b34f1195a5e239095f05eca051884345"),
    (["cohomology", "central", "--structure", "h-type:solv2", "--dmax", "8"], 0,
     "9675deaeebb2c629c41949ce3c46fa5d133ec5e0777d9fa9cbd631ee7a80fba5"),
    (["cohomology", "central", "--structure", "sd:abelian4", "--dmax", "3"], 0,
     "f177a7b742c32ad8fcddc1965c84bb8d4516f526001c998401db3d5c1bbfdab9"),
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
    # non-abelian annihilate reports, pinned before the brackets began to
    # clear denominators once per call, so that they keep their bytes
    (["annihilate", "--structure", "wd:sl2", "--cutoff", "5"], 0,
     "bd8de8e9d9a67c6a07d10a9c57f9b5d47bbe3bfd3d83db2c2bb8f5a5c2509108"),
    (["annihilate", "--structure", "wd:heis3", "--cutoff", "5"], 0,
     "0878f70ae5d94ab4c73483dc80b56c1402447caa87e39adb9089cf3af19b767b"),
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
