"""Closed-loop runner: one caller, one thread, the next instance starts when
the previous verdict is in.

A run builds the corpus from the seed and repeats timed passes over it for
the requested number of seconds. In the first pass every output is checked
against its oracle, between instances; every later output must equal the
first. With tracing on, traced and untraced passes alternate, so the
ratio of their wall times is the tracing overhead.

Times are calibrated seconds (see calibration.py); the raw seconds go to
the run record next to them.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from math import ceil
from time import perf_counter, sleep
from typing import Dict, List, Optional, Tuple

from latchain.suites import SUITE_NAMES

import tracing
from calibration import REFERENCE_NOMINAL_S, WINDOW_S, SpeedSampler
from workloads import WORKLOADS, Instance

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7

END_TO_END = (
    ("wall_s", "s"),
    ("inst_p50_ms", "ms"),
    ("inst_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_MODULE_TOTALS = ("polynomial", "posets", "tn", "families", "permstats")


def per_layer_metrics() -> List[Tuple[str, str]]:
    """(name, unit) of every metric the traced run prints, in order."""
    out = []
    for span in tracing.SPAN_NAMES:
        if span == "cli.main":
            out.append(("cli.self_s", "s"))
        elif span == "reports.write_jsonl":
            out.append(("reports.write_jsonl.self_s", "s"))
        else:
            out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    out += [(f"suites.{name}.wall_s", "s") for name in SUITE_NAMES]
    out.append(("suites.self_s", "s"))
    out += [(f"{module}.self_s", "s") for module in _MODULE_TOTALS]
    out += list(tracing.COUNTERS)
    out += [("trace.outside_s", "s"), ("trace.overhead_ratio", "ratio")]
    return out


# -- one pass ------------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def fail(self, tag: str, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{tag}: {reason}")


class Pass:
    """Start, end and raw seconds of each instance of one timed pass, and
    the calibrated seconds once the pass is calibrated."""

    def __init__(self) -> None:
        self.spans: List[Tuple[float, float]] = []
        self.raw: List[float] = []
        self.cal: List[float] = []

    def calibrate(self, sampler: SpeedSampler) -> None:
        self.cal = [t * sampler.factor(a, b) for t, (a, b) in zip(self.raw, self.spans)]


def timed_pass(corpus: List[Instance], expected: list, tally: Tally, sampler: SpeedSampler) -> Pass:
    """Run every instance once, timing only its library calls. The first pass
    checks each output against its oracle and keeps (oracle agreed, comparable
    output) in ``expected``; every later pass must reproduce it."""
    record = Pass()
    first = not expected
    for i, inst in enumerate(corpus):
        tally.attempted += 1
        out, error = None, None  # the previous output is released first
        spent = sampler.spent
        t0 = perf_counter()
        try:
            out = inst.run()
        except Exception as exc:  # an instance that raises counts as failed
            error = f"raised {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        record.spans.append((t0, t1))
        record.raw.append(t1 - t0 - (sampler.spent - spent))
        if first:
            keyed, reason = None, error
            if error is None:
                try:
                    keyed, reason = inst.key(out), inst.check(out)
                except Exception as exc:
                    reason = f"oracle raised {type(exc).__name__}: {exc}"
            expected.append((reason is None, keyed))
        else:
            good, keyed = expected[i]
            reason = error
            if error is None and not good:
                tally.failed += 1  # its reason was recorded on the first pass
            elif error is None and inst.key(out) != keyed:
                reason = "output differs from the first pass"
        if reason is not None:
            tally.fail(inst.tag, reason)
    return record


# -- set-up ----------------------------------------------------------------------------


def measure_setup(workload: str, seed: int, samples: int = SETUP_SAMPLES) -> Pass:
    """Start a fresh interpreter that imports latchain and builds the corpus,
    and time it until it reports ready; one child at a time. After that the
    child times the reference loop on its own CPU, which calibrates it."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    record = Pass()
    for _ in range(samples):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            seconds = perf_counter() - t0
            refs = child.stdout.read().split()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0 or not refs:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        record.raw.append(seconds)
        record.cal.append(seconds * REFERENCE_NOMINAL_S / statistics.fmean(map(float, refs)))
    return record


# -- run record --------------------------------------------------------------------------


def _git_commit() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """sha256 over the library sources, which identifies the code measured
    also where the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "latchain")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_record(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# -- the run -------------------------------------------------------------------------------


def _percentile(values: List[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _min_passes(size: int, tail_pct: int, floor: int) -> int:
    """Enough passes for at least ten instances beyond the tail percentile."""
    return max(floor, ceil(10 / ((100 - tail_pct) / 100 * size)))


def _passes(seconds: float, minimum: int, run_pass) -> None:
    """Run whole passes while the next one, at the median pass time so far,
    still ends inside the window; at least ``minimum`` of them."""
    start = perf_counter()
    durations: List[float] = []
    while len(durations) < minimum or perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = perf_counter()
        run_pass(len(durations))
        durations.append(perf_counter() - t0)


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False, setup_samples: int = SETUP_SAMPLES) -> dict:
    spec = WORKLOADS[workload]
    setup = None if trace else measure_setup(workload, seed, setup_samples)
    os.makedirs(OUT, exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="scratch-") as scratch:
        corpus = spec.build(seed, small, scratch)
        expected: list = []
        untraced: List[Pass] = []
        traced: List[Tuple[Pass, dict, dict]] = []
        tracer = tracing.Tracer()
        sampler = SpeedSampler()

        def one_pass(index: int) -> None:
            if not trace or index % 2 == 0:
                untraced.append(timed_pass(corpus, expected, tally, sampler))
                return
            first = len(tracer.spans)
            tracer.counters = {}
            with tracer.installed():
                times = timed_pass(corpus, expected, tally, sampler)
            traced.append((times, tracer.summarize(first), dict(tracer.counters)))

        minimum = 3 if trace else _min_passes(len(corpus), spec.tail_pct, 4)
        with sampler.running():
            _passes(seconds, minimum, one_pass)
            sleep(WINDOW_S)  # samples after the last instance
        for p in untraced + [t[0] for t in traced]:
            p.calibrate(sampler)

    record = run_record(workload, seed, seconds, trace)
    record.update(
        instances_per_pass=len(corpus),
        instance_unit=spec.unit,
        reference_nominal_s=REFERENCE_NOMINAL_S,
        speed_samples=len(sampler.refs),
    )
    if trace:
        metrics, shares = _per_layer(untraced, traced)
        record.update(traced_passes=len(traced), untraced_passes=len(untraced), self_time_shares=shares)
        spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
        tracer.write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics, notes = _end_to_end(untraced, setup, spec.tail_pct)
        record.update(notes)
    record.update(attempted=tally.attempted, failed=tally.failed, failed_ratio=tally.failed / tally.attempted)
    if tally.reasons:
        record["failures"] = tally.reasons
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"run-{workload}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1, sort_keys=True)
    return {"record": record, "result": result}


def _end_to_end(passes: List[Pass], setup: Pass, tail_pct: int):
    pooled = [t for p in passes for t in p.cal]
    tail = _percentile(pooled, tail_pct)
    values = {
        "wall_s": statistics.median(sum(p.cal) for p in passes),
        "inst_p50_ms": statistics.median(pooled) * 1e3,
        "inst_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setup.cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "timed_passes": len(passes),
        "pass_wall_s": [sum(p.cal) for p in passes],
        "pass_wall_raw_s": [sum(p.raw) for p in passes],
        "instance_samples": len(pooled),
        "tail_percentile": tail_pct,
        "instances_beyond_tail": sum(1 for t in pooled if t > tail),
        "setup_samples_s": setup.cal,
        "setup_samples_raw_s": setup.raw,
        "instance_times_s": [p.cal for p in passes],
        "instance_raw_s": [p.raw for p in passes],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, notes


def _per_layer(untraced: List[Pass], traced) -> Tuple[Dict[str, dict], Dict[str, float]]:
    """Per-module numbers of the traced passes, each pass's span times scaled
    by that pass's calibration factor."""
    rows: Dict[str, List[float]] = {}

    def put(name: str, value: float) -> None:
        rows.setdefault(name, []).append(value)

    untraced_wall = statistics.median(sum(p.cal) for p in untraced)
    for times, summary, counters in traced:
        wall = sum(times.cal)
        scale = wall / sum(b - a for a, b in times.spans)  # spans also hold sampler time
        put("trace.overhead_ratio", wall / untraced_wall)
        put("trace.outside_s", wall - scale * sum(s["self_s"] for s in summary.values()))
        modules: Dict[str, float] = {}
        for span, s in summary.items():
            module = tracing.module_of(span)
            modules[module] = modules.get(module, 0.0) + scale * s["self_s"]
            if span.startswith("suites.") and span[len("suites.") :] in SUITE_NAMES:
                put(f"{span}.wall_s", scale * s["wall_s"])
            elif span != "cli.main":  # reported as the cli module total
                put(f"{span}.calls", s["calls"])
                put(f"{span}.self_s", scale * s["self_s"])
        for module, self_s in modules.items():
            put(f"{module}.self_s", self_s)
            put(f"share.{module}", self_s / wall)
        for name, value in counters.items():
            put(name, value)
    shares = {module: statistics.median(rows.get(f"share.{module}", [0.0])) for module in tracing.LIBRARY_MODULES}
    metrics = {}
    for name, unit in per_layer_metrics():
        values = rows.get(name, [0])
        # calls and counters repeat exactly from pass to pass
        value = values[0] if len(set(values)) == 1 else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, shares
