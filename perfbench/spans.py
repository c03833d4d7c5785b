"""Span wrappers installed on pseudoalg from outside the package.

A module-level function is replaced in every pseudoalg namespace that
binds it (`from .pbw import mul_basis` copies the binding into tensor,
pseudo, cohomology and others); a method is replaced on its class.  Each
original is wrapped once, so a call is counted once whichever name it
went through.

Hot calls are aggregated per (span name, parent span name) as call count,
total time and self time (total minus time in child spans), so memory
stays bounded however many calls a run makes.  Only jobs keep a full
span each.  Work counts sit beside the times: terms in and out, the share
of distinct arguments, eliminator rows and their useful share.
"""

import sys
import time
import weakref
from collections import defaultdict
from functools import wraps


class DistinctCounter:
    """Distinct (algebra, argument) keys without keeping algebras alive.

    Keys are collected per live algebra; when an algebra is freed its set
    is folded into a running total, so a workload that builds a fresh
    algebra per job holds one set at a time.
    """

    def __init__(self):
        self.live = {}
        self.retired = 0

    def add(self, alg, key):
        seen = self.live.get(id(alg))
        if seen is None:
            seen = self.live[id(alg)] = set()
            weakref.finalize(alg, self._retire, id(alg))
        seen.add(key)

    def _retire(self, ident):
        self.retired += len(self.live.pop(ident, ()))

    def total(self):
        return self.retired + sum(len(s) for s in self.live.values())


# -- work counters: post(tracer, name, args, result) ----------------------------

def _distinct(argkey):
    def post(tracer, name, args, result):
        tracer.distinct.setdefault(name, DistinctCounter()).add(args[0], argkey(args))
    return post


def _terms_out(tracer, name, args, result):
    tracer.work[name + ".terms_out"] += len(result.c)


def _canonicalize(tracer, name, args, result):
    tracer.work[name + ".terms_in"] += len(args[0].c)
    tracer.work[name + ".terms_out"] += len(result.c)


def _unknowns(tracer, name, args, result):
    tracer.work[name + ".unknowns"] += len(result.unknowns)


def _nullspace(tracer, name, args, result):
    rows, columns = args[0], args[1]
    tracer.work[name + ".rows_in"] += len(rows)
    tracer.work[name + ".nnz_in"] += sum(len(r) for r in rows)
    tracer.work[name + ".rank"] += len(columns) - len(result)


def _accepted(tracer, name, args, result):
    tracer.work[name + ".accepted"] += bool(result)


def _rows_as_list(args):
    # rows may be a one-shot iterable; the counter needs to read it too
    return (list(args[0]),) + tuple(args[1:])


# (span name, module, attribute path, post counter, argument pre-processor)
SPANS = [
    ("pbw.mul_basis", "pbw", "mul_basis", _distinct(lambda a: (a[1], a[2])), None),
    ("pbw.antipode_basis", "pbw", "antipode_basis", _distinct(lambda a: a[1]), None),
    ("pbw.HElt.mul", "pbw", "HElt.__mul__", _terms_out, None),
    ("pbw.HElt.antipode", "pbw", "HElt.antipode", None, None),
    ("pbw.HElt.coproduct", "pbw", "HElt.coproduct", _terms_out, None),
    ("pbw.TensorElt.mul", "pbw", "TensorElt.__mul__", None, None),
    ("pbw.fourier", "pbw", "fourier", None, None),
    ("tensor.QElt.canonicalize", "tensor", "QElt.canonicalize", _canonicalize, None),
    ("tensor.QElt.permuted", "tensor", "QElt.permuted", None, None),
    ("pseudo.PseudoStructure.bracket", "pseudo", "PseudoStructure.bracket",
     _terms_out, None),
    ("pseudo.ModuleStructure.act", "pseudo", "ModuleStructure.act", None, None),
    ("pseudo.compose", "pseudo", "compose_left", None, None),
    ("pseudo.compose", "pseudo", "compose_right", None, None),
    ("pseudo.PseudoStructure.gen_bracket", "pseudo", "PseudoStructure.gen_bracket",
     None, None),
    ("annihilation.TruncatedSeries.act", "annihilation", "TruncatedSeries.act",
     _terms_out, None),
    ("annihilation.TruncatedSeries.pair", "annihilation", "TruncatedSeries.pair",
     None, None),
    ("annihilation.TruncatedSeries.mul", "annihilation", "TruncatedSeries.__mul__",
     None, None),
    ("annihilation.annihilation_bracket", "annihilation", "annihilation_bracket",
     None, None),
    ("annihilation.vector_field_bracket", "annihilation", "vector_field_bracket",
     None, None),
    ("cohomology.solve", "cohomology", "solve_central_extensions", _unknowns, None),
    ("cohomology.solve", "cohomology", "solve_central_extensions_rank1", _unknowns, None),
    ("cohomology.solve", "cohomology", "sd_central_suite", _unknowns, None),
    ("linalg.nullspace", "linalg", "nullspace", _nullspace, _rows_as_list),
    ("linalg.SparseEliminator.add", "linalg", "SparseEliminator.add", _accepted, None),
] + [("constructions.build", "constructions", fn, None, None)
     for fn in ("make_current", "make_wd", "make_sd", "make_rank1",
                "make_rank1_from_alpha", "make_cend", "make_gc", "make_module_rank1")
     ] + [("constructions.build", "forms", "wd_action_on_forms", None, None)] + [
    ("forms.calculus", "forms", fn, None, None)
    for fn in ("act_on_form", "contract_form", "form_differential",
               "differential_on_quotient", "act_on_full_module")]

# per-layer metrics reported by a traced run, in order; each is
# (metric name, unit)
LAYER_METRICS = []
for _span, _extra in [
        ("pbw.mul_basis", ["distinct_frac"]), ("pbw.antipode_basis", ["distinct_frac"]),
        ("pbw.HElt.mul", ["terms_out"]), ("pbw.HElt.antipode", []),
        ("pbw.HElt.coproduct", ["terms_out"]), ("pbw.TensorElt.mul", []),
        ("pbw.fourier", []),
        ("tensor.QElt.canonicalize", ["terms_in", "terms_out"]),
        ("tensor.QElt.permuted", []),
        ("pseudo.PseudoStructure.bracket", ["terms_out"]),
        ("pseudo.ModuleStructure.act", []), ("pseudo.compose", []),
        ("pseudo.PseudoStructure.gen_bracket", []),
        ("annihilation.TruncatedSeries.act", ["terms_out"]),
        ("annihilation.TruncatedSeries.pair", []),
        ("annihilation.TruncatedSeries.mul", []),
        ("annihilation.annihilation_bracket", []),
        ("annihilation.vector_field_bracket", []),
        ("cohomology.solve", ["unknowns"]),
        ("linalg.nullspace", ["rows_in", "nnz_in", "rank"]),
        ("linalg.SparseEliminator.add", ["accepted_frac"]),
        ("constructions.build", []), ("forms.calculus", [])]:
    LAYER_METRICS += [(_span + ".calls", "count"), (_span + ".self_s", "s")]
    LAYER_METRICS += [(_span + "." + x, "ratio" if x.endswith("_frac") else "count")
                      for x in _extra]
LAYER_METRICS.append(("trace.overhead_frac", "ratio"))


class Tracer:
    """Aggregated spans for one process; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.stack = [["(setup)", 0.0]]
        self.agg = {}       # (span, parent) -> [calls, total_s, self_s]
        self.work = defaultdict(int)  # "span.counter" -> number
        self.distinct = {}  # span -> DistinctCounter
        self.jobs = []      # (job id, wall_s, self_s of spans inside, glue_s)
        self._patches = []  # (namespace or class, attribute, original)
        self._job = None

    def _wrap(self, name, fn, post, pre):
        stack, agg, clock = self.stack, self.agg, time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                rec = agg.get((name, parent[0]))
                if rec is None:
                    rec = agg[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if post is not None:
                post(self, name, args, result)
            return result
        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "pseudoalg" or n.startswith("pseudoalg.")]
        for name, modname, path, post, pre in SPANS:
            home = sys.modules["pseudoalg." + modname]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original, post, pre))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(name, original, post, pre)
            for mod in modules:
                if mod.__dict__.get(path) is original:
                    self._patch(mod, path, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- job spans -------------------------------------------------------------

    def begin_job(self, job_id):
        frame = ["job", 0.0]
        self.stack.append(frame)
        self._job = (job_id, frame, self.self_total(), time.perf_counter())

    def end_job(self):
        job_id, frame, self_before, t0 = self._job
        wall = time.perf_counter() - t0
        self.stack.pop()
        self.jobs.append((job_id, wall, self.self_total() - self_before, wall - frame[1]))
        self._job = None

    def self_total(self):
        return sum(rec[2] for rec in self.agg.values())

    # -- results ---------------------------------------------------------------

    def totals(self):
        """Every per-layer metric except the overhead; idle spans read 0."""
        out = {name: 0 for name, _ in LAYER_METRICS[:-1]}
        for (name, _), (calls, _, self_s) in self.agg.items():
            out[name + ".calls"] += calls
            out[name + ".self_s"] += self_s
        for name, counter in self.distinct.items():
            out[name + ".distinct_frac"] = counter.total() / out[name + ".calls"]
        for key, value in self.work.items():
            if key.endswith(".accepted"):
                calls = out[key[:-len("accepted")] + "calls"]
                out[key + "_frac"] = value / calls
            else:
                out[key] = value
        return out

    def by_parent(self):
        """(span, parent) rows, for the run record."""
        return [{"span": s, "parent": p, "calls": c, "total_s": t, "self_s": x}
                for (s, p), (c, t, x) in sorted(self.agg.items())]
