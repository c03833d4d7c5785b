"""The perfbench tracer wraps names of pseudoalg; each must exist and come back.

`perfbench/spans.py` is imported by path and left as it is.  A traced run
breaks if a wrapped name is renamed or removed, and every later test in the
process would see wrappers if `uninstall` missed one.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pseudoalg.annihilation  # noqa: F401  (the tracer patches loaded modules)
import pseudoalg.cohomology  # noqa: F401
import pseudoalg.constructions  # noqa: F401
import pseudoalg.forms  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    """Every attribute of every pseudoalg module and of the classes it defines."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "pseudoalg" and not name.startswith("pseudoalg."):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[name, attr, cattr] = cvalue
    return out


def test_tracer_wraps_every_span_and_uninstall_restores_it():
    spans = load_spans()
    before = package_bindings()
    tracer = spans.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        for _, modname, path, _, _ in spans.SPANS:
            owner = sys.modules["pseudoalg." + modname]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            assert (owner, attr) in {(o, a) for o, a, _ in patches}, path
            assert getattr(owner, attr) is not before["pseudoalg." + modname, *cls, attr]
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, attr
    assert package_bindings() == before


def test_benchmark_selftest_passes():
    """The harness's own self-test reads pseudoalg bindings beyond the spans
    (`mul_basis` in pbw, tensor, pseudo, cohomology and constructions)."""
    run = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--selftest"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
