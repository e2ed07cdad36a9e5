"""Benchmark of the baire-odometers library and CLI.

    python3 perfbench/run.py --workload stream|verify|deep --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  One process, one operation at a time, no threads: a
closed loop with one client.  Every run is a fresh interpreter, so set-up
time and peak memory are its own.

A run builds the workload from the seed, runs every op once as a warm-up
whose outputs are checked against the oracles in ``oracles.py``, and then
repeats the whole op list in timed passes until ``--seconds`` of op time
have been measured.  Later passes are checked by comparing each output with
the verified one, outside the timed region.

Every op is timed between two runs of the calibration kernel in
``hostspeed.py`` and scaled to the kernel's nominal speed, so that
contention from other tenants of the host, which comes and goes in phases
of seconds to minutes, cancels out; an op's time is then the median over
the passes.  Set-up is timed the same way in fresh child interpreters, one
after each pass so that the samples spread over the run, and reported as
their median.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, each the median
over the traced passes.  The last line of standard output is the result
object; the line before it holds the run's metadata.  See README.md in this
directory for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

import hostspeed  # noqa: E402  (this directory is on sys.path as the script's own)
import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

SETUP_RUNS = 9  # at least this many set-up samples per run
MIN_PASSES = 3
COVERAGE_MARGIN = 0.05  # traced self times must cover >= 95% of the traced wall time

SETUP_CODE = """
import contextlib, io, statistics, sys, time
sys.path.insert(0, {here!r})
import hostspeed
kernel = statistics.median(hostspeed.kernel_seconds() for _ in range(5))
start = time.perf_counter()
sys.path.insert(0, {src!r})
from baire_odometers import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["codec", "--from", "cf", "--to", "word", "1/2"])
elapsed = time.perf_counter() - start
print(repr(elapsed), repr(kernel), code)
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Per-layer metrics: "<name>.calls" and "<name>.self_s" are read off the
# trace for any layer or wrapped callable; the others are computed below.
PER_LAYER = (
    [f"{layer}.{what}" for layer in LAYERS for what in ("calls", "self_s")]
    + [
        "words.FiniteWord.init.calls", "words.FiniteWord.init.self_s", "words.word_at.self_s",
        "words.TailWord.init.calls", "words.TailWord.init.self_s", "words.block_encode.self_s",
        "odometers.baire_step.calls", "odometers.baire_step.self_s",
        "odometers.dyadic_step.calls", "odometers.fast_forward.calls",
        "word_actions.step.calls", "word_actions.step.self_s",
        "trees.subtree_level.self_s", "trees.locate.calls", "trees.locate_per_row",
        "codecs.encode_per_row", "codecs.cf_encode.self_s", "codecs.bcf_encode.self_s",
        "codecs.cf_decode.self_s", "codecs.bcf_decode.self_s",
        "codecs.cf_decode.exp", "codecs.bcf_decode.exp", "codecs.cf_encode.exp",
        "interval_maps.gauss_odometer.calls", "interval_maps.gauss_odometer.self_s",
        "interval_maps.gauss_odometer.exp",
        "interval_maps.dyadic_interval_step.self_s", "interval_maps.dyadic_interval_step.exp",
        "interval_maps.question_mark.self_s", "interval_maps.question_mark.exp",
        "interval_maps.renyi_odometer.self_s", "interval_maps.k_gauss_odometer.self_s",
        "analysis.enumerate_rationals.self_s", "analysis.distribution_test.self_s",
        "analysis.bfs_oracle.self_s", "analysis.stern_oracle.self_s",
        "analysis.frequency_test.self_s", "analysis.stern.exp",
        "cli.rows", "cli.out_bytes",
    ]
    + [f"cli.verify.{suite}.wall_s" for suite in workloads.VERIFY_SUITES]
    + ["cli.digit_limit.probes", "cli.digit_limit.failed",
       "trace.overhead_ratio", "trace.self_coverage"]
)


def unit_of(name: str) -> str:
    if name.endswith(".exp"):
        return "slope"
    if name.endswith(".calls") or name in ("cli.rows", "cli.digit_limit.probes",
                                           "cli.digit_limit.failed"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name == "cli.out_bytes":
        return "bytes"
    return "ratio"


# ------------------------------------------------------------------ running

def execute(op: workloads.Op) -> workloads.Outcome:
    """Run one op through the library as it is now (patched or not)."""
    if op.call:
        module, name = op.call
        fn = getattr(sys.modules[f"baire_odometers.{module}"], name)
        return workloads.Outcome(0, value=fn(*op.args))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["baire_odometers.cli"].main(list(op.argv))
    return workloads.Outcome(code, out.getvalue(), err.getvalue())


def fingerprint(r: workloads.Outcome):
    if r.value is None:
        return r.code, hashlib.blake2b(r.out.encode()).digest()
    if hasattr(r.value, "letters"):
        return r.value.floor, r.value.letters
    return r.value.numerator, r.value.denominator


class Runner:
    """Runs a workload's ops, checks them and keeps their timings."""

    def __init__(self, workload: workloads.Workload, tracer: Tracer | None) -> None:
        self.ops = workload.ops
        self.tracer = tracer
        self.verified: list = [None] * len(self.ops)  # fingerprint of a checked output
        self.rows = [0] * len(self.ops)
        self.out_bytes = [0] * len(self.ops)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latency: list[list[float]] = [[] for _ in self.ops]  # host-normalized seconds
        self.host: list[float] = []  # kernel time over its nominal time, per timed op

    def per_op(self) -> list[float]:
        """Each op's median host-normalized time over the timed passes."""
        return [statistics.median(times) for times in self.latency]

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"op {i} {self.ops[i].kind}: {why}")

    def _settle(self, i: int, outcome) -> None:
        """Check one op's outcome, by the oracle the first time, by fingerprint after."""
        if isinstance(outcome, BaseException):
            self._fail(i, "".join(traceback.format_exception_only(outcome)).strip()[:300])
            return
        if self.verified[i] is not None:
            if fingerprint(outcome) != self.verified[i]:
                self._fail(i, "output differs from the verified output")
            return
        try:
            rows = self.ops[i].check(outcome)
        except oracles.Mismatch as exc:
            self._fail(i, str(exc))
            return
        self.verified[i] = fingerprint(outcome)
        self.rows[i] = rows
        self.out_bytes[i] = len(outcome.out.encode())

    def run_pass(self, timed: bool, traced: bool = False) -> tuple[float, float]:
        """Run every op once; return the summed op time, raw and host-normalized."""
        gc.collect()
        clock = time.perf_counter
        raw = normalized = 0.0
        kernel_before = hostspeed.kernel_seconds()
        for i, op in enumerate(self.ops):
            start = clock()
            try:
                if traced:
                    outcome = self.tracer.run_op(i, op.kind, lambda: execute(op))
                else:
                    outcome = execute(op)
            except Exception as exc:  # an op that crashes is a failed op, not a crash
                outcome = exc
            elapsed = clock() - start
            kernel_after = hostspeed.kernel_seconds()
            host = (kernel_before + kernel_after) / (2 * hostspeed.NOMINAL_S)
            kernel_before = kernel_after
            raw += elapsed
            normalized += elapsed / host
            self.attempted += 1
            if timed and not traced:
                self.latency[i].append(elapsed / host)
                self.host.append(host)
            self._settle(i, outcome)
        return raw, normalized


def run_probes(workload: workloads.Workload) -> dict:
    """Run the over-limit probes once: count exits, and check any output."""
    failed = wrong = 0
    for op in workload.probes:
        try:
            outcome = execute(op)
        except Exception:  # counted as a failure, like a nonzero exit
            failed += 1
            continue
        if outcome.code != 0:
            failed += 1
            continue
        try:
            op.check(outcome)
        except oracles.Mismatch:
            wrong += 1
    return {"probes": len(workload.probes), "failed": failed, "wrong": wrong}


def time_setup() -> tuple[float, float]:
    """Import the CLI, build its parser and print one value, in a fresh interpreter.

    Returns the raw and the host-normalized seconds.
    """
    code = SETUP_CODE.format(here=str(HERE), src=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=False)
    fields = done.stdout.split()
    if done.returncode != 0 or len(fields) != 3 or fields[2] != "0":
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-300:]}")
    elapsed, kernel = float(fields[0]), float(fields[1])
    return elapsed, elapsed * hostspeed.NOMINAL_S / kernel


# ------------------------------------------------------------------ metrics

def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (the 'inclusive' method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def slope(sizes: list[int], seconds: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def scaling(runner: Runner) -> dict:
    """Per scaled function: sizes, seconds per size and the fitted exponent."""
    fits = {}
    for module, name, _sizes, unit in workloads.SCALING:
        points = [(op.size, t) for op, t in zip(runner.ops, runner.per_op())
                  if op.call == (module, name)]
        if len(points) >= 3:
            sizes, secs = zip(*sorted(points))
            fits[f"{module}.{name}.exp"] = {"exp": slope(sizes, secs), "sizes": list(sizes),
                                            "size_unit": unit, "seconds": list(secs)}
    return fits


def layer_metrics(tracer: Tracer, host: float, rows: int, out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; times are divided by the pass's host factor."""
    spans = {name: [calls, total / host, own / host]
             for name, (calls, total, own) in tracer.by_name().items()}
    metrics = {}
    for layer in LAYERS:
        mine = [rec for name, rec in spans.items() if name.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = sum(rec[0] for rec in mine)
        metrics[f"{layer}.self_s"] = sum(rec[2] for rec in mine)
    for name in PER_LAYER:
        if name in metrics:
            continue
        base, _, what = name.rpartition(".")
        if what == "calls":
            metrics[name] = spans.get(base, [0, 0.0, 0.0])[0]
        elif what == "self_s":
            metrics[name] = spans.get(base, [0, 0.0, 0.0])[2]
    calls = lambda n: spans.get(n, [0])[0]
    metrics["trees.locate_per_row"] = calls("trees.locate") / rows
    metrics["codecs.encode_per_row"] = sum(
        calls(f"codecs.{s}_encode") for s in ("cf", "bcf", "dyadic")) / rows
    metrics["cli.rows"] = rows
    metrics["cli.out_bytes"] = out_bytes
    return metrics


def end_to_end(runner: Runner, setup: list[float]) -> dict[str, float]:
    per_op = runner.per_op()
    wall = sum(per_op)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "rows_per_s": sum(runner.rows) / wall,
        "op_p50_ms": quantile(per_op, 0.5) * 1e3,
        "op_p90_ms": quantile(per_op, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }


# --------------------------------------------------------------------- main

def load_library():
    if not (SRC / "baire_odometers" / "__init__.py").is_file():
        raise RuntimeError(f"no baire_odometers package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import baire_odometers
    from baire_odometers import cli  # noqa: F401  (imports every layer module)
    if Path(baire_odometers.__file__).resolve().parent != (SRC / "baire_odometers").resolve():
        raise RuntimeError(f"imported baire_odometers from {baire_odometers.__file__}, not {SRC}")
    return baire_odometers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    default_limit = sys.int_info.default_max_str_digits
    if sys.get_int_max_str_digits() != default_limit:
        print(f"error: int str-digit limit is {sys.get_int_max_str_digits()}, "
              f"not the interpreter default {default_limit}", file=sys.stderr)
        return 2
    try:
        lib = load_library()
        setup = [] if args.trace else [time_setup()]
    except (RuntimeError, ImportError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed, lib)
    tracer = Tracer() if args.trace else None
    runner = Runner(workload, tracer)
    runner.run_pass(timed=False)  # warm-up; checks every output against the oracles
    probes = run_probes(workload)

    walls, traced_walls, traced = [], [], []  # (raw, normalized) pass times
    measured = 0.0
    while measured < args.seconds or len(walls) < MIN_PASSES:
        walls.append(runner.run_pass(timed=True))
        measured += walls[-1][0]
        if not tracer:
            setup.append(time_setup())  # spread over the run, like the timed passes
            continue
        tracer.reset()
        tracer.install()
        try:
            raw, normalized = runner.run_pass(timed=True, traced=True)
        finally:
            tracer.uninstall()
        traced_walls.append((raw, normalized))
        measured += raw
        layers = layer_metrics(tracer, raw / normalized, sum(runner.rows), sum(runner.out_bytes))
        layers["trace.self_coverage"] = tracer.spanned_seconds() / raw
        traced.append(layers)
    while len(setup) < SETUP_RUNS and not tracer:
        setup.append(time_setup())

    fits = scaling(runner)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "int_max_str_digits": sys.get_int_max_str_digits(),
        "argv_digest": workload.digest(), "ops": len(workload.ops), "passes": len(walls),
        "op_samples": sum(len(t) for t in runner.latency), "rows_per_pass": sum(runner.rows),
        "host_factor": statistics.median(runner.host),
        "raw_pass_s": statistics.median(raw for raw, _ in walls),
        "raw_setup_s": statistics.median(raw for raw, _ in setup) if setup else None,
        "setup_runs": len(setup), "digit_limit": probes, "scaling": fits,
        "op_s": [[op.kind, t] for op, t in zip(runner.ops, runner.per_op())],
        "failures": runner.failures,
    }
    if workload.note:
        meta["note"] = workload.note

    correct = runner.failed == 0 and probes["wrong"] == 0
    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.dump()))
        meta["trace_file"] = str(trace_file.relative_to(ROOT))
        meta["traced_passes"] = len(traced)
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update({name: statistics.median(m[name] for m in traced) for name in traced[0]})
        metrics["trace.overhead_ratio"] = (statistics.median(n for _, n in traced_walls)
                                           / statistics.median(n for _, n in walls))
        for key, fit in fits.items():
            metrics[key] = fit["exp"]
        for op, t in zip(runner.ops, runner.per_op()):
            if op.kind.startswith("verify."):
                metrics[f"cli.{op.kind}.wall_s"] = t
        metrics["cli.digit_limit.probes"] = probes["probes"]
        metrics["cli.digit_limit.failed"] = probes["failed"]
        if metrics["trace.self_coverage"] < 1 - COVERAGE_MARGIN:
            runner.failures.append(f"trace covers {metrics['trace.self_coverage']:.3f} of the wall time")
            correct = False
        units = {name: unit_of(name) for name in PER_LAYER}
        metrics = {name: metrics[name] for name in PER_LAYER}
    else:
        metrics = end_to_end(runner, [normalized for _, normalized in setup])
        units = END_TO_END

    for line in runner.failures:
        print(f"failure: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
