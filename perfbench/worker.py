"""One workload in one process: set up, run job blocks, print one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                --blocks B [--seconds S]

MODE `measure` runs whole job blocks, B of them or until S reference
seconds (see `run_blocks`) have passed, whichever comes first; with B = 0
it only sets up, which gives one more sample of the set-up time.  `trace`
does the same with the span wrappers installed before set-up.  Only the
blocks a run can use are generated.  The package is always imported from
the `src` directory of this checkout.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALIBRATE_EVERY_S = 0.2
CALIBRATIONS_KEPT = 5
# calibration_kernel's time on a quiet shared 2-vCPU VM (Python 3.11); a
# reference second is a second on a machine that runs the kernel this fast
CALIBRATION_REF_S = 0.005


def calibration_kernel():
    """Fixed exact-arithmetic work in the program's style: Fraction products
    summed into a dict keyed by tuples.  It never changes, so its time
    measures how fast the machine runs at that moment."""
    acc = {}
    for i in range(1, 1200):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + Fraction(i, i % 7 + 1) * Fraction(3, i % 11 + 1)
    return acc


def time_kernel():
    """Seconds of one calibration kernel, with the cyclic collector off so
    the kernel's time does not grow with the program's heap."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def import_package():
    sys.path.insert(0, str(SRC))
    import pseudoalg
    if Path(pseudoalg.__file__).resolve().parent != SRC / "pseudoalg":
        raise ImportError("pseudoalg imported from %s, not from %s"
                          % (pseudoalg.__file__, SRC))


def describe(exc):
    """Exception type, message and the innermost frame, on one line."""
    where = traceback.extract_tb(exc.__traceback__)
    at = " at %s:%d" % (Path(where[-1].filename).name, where[-1].lineno) if where else ""
    return ("%s: %s" % (type(exc).__name__, exc))[:240] + at


def run_blocks(blocks, ctx, execute, verify, seed, seconds=None, max_blocks=None,
               tracer=None, is_probe=lambda job: False):
    """Closed loop over job blocks; stops on a block boundary, after
    `max_blocks` blocks or once `seconds` reference seconds have passed:
    the wall time scaled by CALIBRATION_REF_S over the median of the
    recent kernel times, so a busy machine does not cut a run short.

    Before each job, outside its timed region, the cyclic garbage collector
    collects its two young generations, so the young garbage of earlier
    jobs and of the calibration kernel does not land in a later job's time.
    Full collections are left to their usual schedule: they walk the whole
    heap, caches included, and land in the jobs whose allocations trigger
    them, as they do when the program runs from its command line.  Every
    CALIBRATE_EVERY_S the calibration kernel is timed, also outside the
    jobs.

    Returns per-job records [job id, latency s, ok, probe, calibration s],
    the calibration being the median of the last CALIBRATIONS_KEPT kernel
    times before the job (about a second, so one slow sample does not
    count but a slowdown of the machine does), and the failures,
    each with its job id and seed.  No exception ends the loop.
    """
    clock = time.perf_counter
    records, failures = [], []
    t_first = time.monotonic()
    start = clock()
    done = 0
    calibrated_at = None
    calibrations = deque(maxlen=CALIBRATIONS_KEPT)
    while max_blocks is None or done < max_blocks:
        for i, job in enumerate(blocks[done % len(blocks)]):
            job_id = "%d.%d" % (done, i)
            if calibrated_at is None or clock() - calibrated_at >= CALIBRATE_EVERY_S:
                calibrations.append(time_kernel())
                calibrated_at = clock()
            gc.collect(1)
            if tracer is not None:
                tracer.begin_job(job_id)
            t0 = clock()
            error, wrong = None, False
            try:
                if not verify(ctx, job, execute(ctx, job)):
                    error, wrong = "wrong result", True
            except Exception as exc:  # recorded per job; the run goes on
                error = describe(exc)
            latency = clock() - t0
            if tracer is not None:
                tracer.end_job()
            records.append([job_id, latency, error is None, is_probe(job),
                            statistics.median(calibrations)])
            if error is not None:
                failures.append({"job": job_id, "seed": seed, "shape": job[0],
                                 "wrong": wrong, "error": error})
        done += 1
        if seconds is not None and ((clock() - start) * CALIBRATION_REF_S
                                    / statistics.median(calibrations) >= seconds):
            break
    return {"t_first": t_first, "wall_s": clock() - start, "blocks": done,
            "records": records, "failures": failures}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("measure", "trace"), required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--seconds", type=float)
    args = p.parse_args(argv)

    import_package()
    t0 = time.monotonic()
    kernel_before = [time_kernel() for _ in range(CALIBRATIONS_KEPT)]
    kernel_wall = time.monotonic() - t0
    import gen
    import jobs
    tracer = None
    if args.mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()
    t0 = time.monotonic()
    blocks = gen.generate(args.workload, args.seed, args.blocks)
    generate_wall = time.monotonic() - t0
    setup, execute, verify, _ = jobs.WORKLOADS[args.workload]
    ctx = setup()
    t0 = time.monotonic()
    kernel_after = [time_kernel() for _ in range(CALIBRATIONS_KEPT)]
    kernel_wall += time.monotonic() - t0
    out = {"digest": gen.digest(blocks), "jobs_listed": sum(map(len, blocks))}
    out.update(run_blocks(blocks, ctx, execute, verify, args.seed,
                          seconds=args.seconds, max_blocks=args.blocks,
                          tracer=tracer, is_probe=jobs.is_probe))
    # set-up time leaves out the benchmark's own work, the kernels timed
    # before and after set-up and the job generation, and is scaled by the
    # kernels' median
    out["t_first"] -= kernel_wall + generate_wall
    out["kernel_setup_s"] = statistics.median(kernel_before + kernel_after)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the kernel on the bare interpreter and next to the program's full
    # heap: if they differ, scaling by the kernel hides part of the change
    out["kernel_before_s"] = statistics.median(kernel_before)
    out["kernel_end_s"] = statistics.median(time_kernel()
                                            for _ in range(CALIBRATIONS_KEPT))
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.totals()
        out["by_parent"] = tracer.by_parent()
        out["job_spans"] = tracer.jobs
    print(json.dumps(out))


if __name__ == "__main__":
    main()
