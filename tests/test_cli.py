import io
import json
import shlex
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from pseudoalg.cli import main


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
def test_sd_cohomology_window_below_shift_degree_is_usage_error(dmax, capsys):
    # the counit shifts of S(d) have degree 2 and would leave the window
    code, out = run_cli("cohomology", "central", "--structure", "sd:abelian3", "--dmax", dmax)
    assert code == 2 and out == ""
    assert "degree window" in capsys.readouterr().err


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
    # the lazily indexed pseudolinear modules have no generator names to look up
    ["bracket", "--structure", "cend:1", "--left", "(1) @ x", "--right", "(1) @ x"],
    ["bracket", "--structure", "gc:1", "--left", "(1) @ x", "--right", "(1) @ x"],
    # rank below one: no generators, so the axiom suite checked nothing
    ["verify", "--structure", "gc:0"],
    ["verify", "--structure", "gc:-1"],
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
