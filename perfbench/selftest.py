"""Self-tests of the benchmark: seeded generator, correctness gate, spans.

    python3 perfbench/run.py --selftest

Prints one line per test and returns 0 only if every test passes.  Runs
in one process in well under a minute.
"""

import json
import traceback
from fractions import Fraction

import gen
import run
import spans
import worker


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def _supports(block):
    """A block's regular jobs with every coefficient blanked, in a fixed order."""
    def strip(x):
        return tuple(map(strip, x)) if isinstance(x, tuple) else \
            None if isinstance(x, Fraction) else x
    return sorted(repr(strip(job)) for job in block if job[0][0] != "probe")


def test_generator():
    """Same seed, same bytes; another seed, another list of the same size mix."""
    for w in gen.BUILDERS:
        a, b, c = gen.generate(w, 1), gen.generate(w, 1), gen.generate(w, 2)
        check(repr(a) == repr(b) and gen.digest(a) == gen.digest(b),
              w + ": not reproducible")
        check(gen.digest(a) != gen.digest(c), w + ": seed 2 gives the same list")
        check(repr(gen.generate(w, 1, 3)) == repr(a[:3]),
              w + ": the first blocks depend on how many are generated")
        check(sum(map(len, a)) == sum(map(len, c)), w + ": job count depends on the seed")
        check(gen.size_mix(a) == gen.size_mix(c), w + ": size mix depends on the seed")
        check([_supports(x) for x in a] == [_supports(x) for x in c],
              w + ": supports depend on the seed")
        regular = [gen.size_mix([[j for j in block if j[0][0] != "probe"]])
                   for block in a]
        check(all(m == regular[0] for m in regular), w + ": blocks differ in mix")


def test_latency_ranks_failures_slowest():
    ok = [["%d" % i, 0.001 * (i + 1), True, False] for i in range(30)]
    stats = run.latency_stats(ok)
    check(abs(stats["job_tail_ms"] - 20.0) < 1e-9, "tail is not the 11th slowest")
    failed = [["f%d" % i, 1e-6, False, False] for i in range(11)]
    stats = run.latency_stats(ok + failed)
    check(stats["job_tail_ms"] == 30.0, "eleven failures do not set the tail")


def test_correctness_gate():
    """Each workload's check passes on a real result and fails on a corrupted
    one; the job loop records wrong results and exceptions and goes on."""
    import jobs
    for w, (setup, execute, verify, corrupt) in jobs.WORKLOADS.items():
        ctx = setup()
        job = min((j for block in gen.generate(w, 1)[:2] for j in block
                   if not jobs.is_probe(j)), key=lambda j: repr(j[0]))
        result = execute(ctx, job)
        check(verify(ctx, job, result), w + ": a correct result fails its check")
        check(not verify(ctx, job, corrupt(result)), w + ": a corrupted result passes")

    setup, execute, verify, _ = jobs.WORKLOADS["central"]
    ctx = setup()
    ctx["pins"]["rank1:w1"] = (0, 2, 1)  # the pinned dimension of H^2 is 1
    blocks = [[(("central", "rank1:w1", 3), ()),
               (("central", "rank1:abelian2", 3), ()),
               (("central", "nosuch:algebra", 3), ())]]
    out = worker.run_blocks(blocks, ctx, execute, verify, seed=7, max_blocks=1)
    check([r[2] for r in out["records"]] == [False, True, False], "gate outcomes")
    wrong, raised = out["failures"]
    check(wrong["job"] == "0.0" and wrong["wrong"] and wrong["seed"] == 7,
          "a wrong pinned value is not counted as a wrong result")
    check(raised["job"] == "0.2" and not raised["wrong"]
          and raised["error"].startswith("KeyError"), "an exception is not recorded")


def test_spans():
    """Wrappers patch every binding once, restore on uninstall, and the self
    times of a job's spans plus its glue time sum to the job's wall time."""
    import jobs
    import pseudoalg
    from pseudoalg import cohomology, constructions, pbw, pseudo, tensor
    original = pbw.mul_basis
    tracer = spans.Tracer()
    tracer.install()
    try:
        homes = (pbw, tensor, pseudo, cohomology, constructions)
        bindings = [m.mul_basis for m in homes]
        check(all(b is bindings[0] for b in bindings) and bindings[0] is not original,
              "mul_basis is not wrapped once in every namespace")
        check(pseudoalg.fourier is pbw.fourier, "package-level fourier not wrapped")
        before = tracer.totals()["pbw.mul_basis.calls"]
        tensor.mul_basis(pseudoalg.algebra_by_name("sl2"), (1, 0, 0), (0, 1, 0))
        check(tracer.totals()["pbw.mul_basis.calls"] == before + 1,
              "a call counted twice")
        for w, (setup, execute, verify, _) in jobs.WORKLOADS.items():
            ctx = setup()
            blocks = [gen.generate(w, 3)[0][:4]]
            worker.run_blocks(blocks, ctx, execute, verify, seed=3, max_blocks=1,
                              tracer=tracer)
    finally:
        tracer.uninstall()
    check(all(m.mul_basis is original for m in (pbw, tensor, pseudo, cohomology)),
          "uninstall did not restore the originals")
    check(len(tracer.jobs) == 16, "one span per job")
    for job_id, wall, self_s, glue in tracer.jobs:
        check(abs(self_s + glue - wall) <= 1e-6 + 1e-9 * wall,
              "job %s: self %.9f + glue %.9f != wall %.9f" % (job_id, self_s, glue, wall))
    totals = tracer.totals()
    check(sorted(list(totals) + ["trace.overhead_frac"])
          == sorted(n for n, _ in spans.LAYER_METRICS),
          "the traced run does not report exactly the per-layer metrics")
    for layer in ("pbw.mul_basis", "tensor.QElt.canonicalize",
                  "pseudo.PseudoStructure.bracket", "annihilation.TruncatedSeries.act",
                  "cohomology.solve", "linalg.nullspace", "constructions.build"):
        check(totals[layer + ".calls"] > 0, layer + " never traced")


def test_benchmark_json():
    """BENCHMARK.json lists exactly the metrics the runs report."""
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END,
          "end_to_end metrics differ from run.END_TO_END")
    check([(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.LAYER_METRICS,
          "per_layer metrics differ from spans.LAYER_METRICS")
    check([w["name"] for w in bench["workloads"]] == run.WORKLOADS, "workloads differ")


TESTS = [test_generator, test_latency_ranks_failures_slowest, test_correctness_gate,
         test_spans, test_benchmark_json]


def main():
    worker.import_package()
    failed = 0
    for test in TESTS:
        try:
            test()
            print("ok    %s" % test.__name__)
        except Exception:
            failed += 1
            print("FAIL  %s\n%s" % (test.__name__, traceback.format_exc()))
    print("%d of %d self-tests passed" % (len(TESTS) - failed, len(TESTS)))
    return 1 if failed else 0
