#!/usr/bin/env python3
"""leavitt-lab benchmark: one closed-loop client calling ``leavitt_lab.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload classify --seed 1 --seconds 25 --trace 0

One process, sequential calls, no extra threads.  The workload's inputs come
from ``--seed`` alone (``workloads.py``), every output is checked against a
reference the benchmark computes itself, and the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the package's functions
from outside (``tracer.py``) and reports the per-layer metrics.  The line
before it carries the machine block, the input digest and sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from pace import KERNEL_EXPONENT, KERNEL_REF_S, NUMPY_START_REF_S, Pace, kernel, numpy_start  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

MIN_BATCHES = 3
COLD_STARTS_PER_BATCH = 3

END_TO_END = {
    "batch_s": "s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "setup_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "cold_start_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, stats in LAYERS.items():
        for stat in stats:
            units[f"{layer}.{stat}"] = {"self_ms": "ms", "kept_ratio": "ratio"}.get(stat, "count")
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def pin_environment() -> int:
    """One BLAS thread, the package's own thread pool left at its default, and
    this process and its children held on one CPU, the one whose pace the
    kernel measures.  Returns that CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("LEAVITT_LAB_THREADS", None)
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def blas_threads(np) -> str:
    """The thread count OpenBLAS reports, when numpy bundles it; else the pinned setting."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            return str(get())
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (pinned)"


def machine_block(nproc: int, cpu: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(np),
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def import_program():
    """A fresh import of the package from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "leavitt_lab" or n.startswith("leavitt_lab.")]:
        del sys.modules[name]
    cli = importlib.import_module("leavitt_lab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"leavitt_lab was imported from {cli.__file__}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# calls and checks
# ---------------------------------------------------------------------------


class Ledger:
    """Calls attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, key: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{key}: {problem}")
                print(f"check failed: {key}: {problem}", file=sys.stderr)


def run_batch(main, calls, pace: Pace | None = None) -> tuple[float, list, dict, dict]:
    """Push every call through ``main`` once.

    Returns the batch time, the (start, seconds) of each call, and each
    call's stdout and exit.  The batch time is the sum of the call times, so
    pace samples taken between calls do not count in it.
    """
    outs, codes, lat = {}, {}, []
    gc.collect()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(call.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed call, not a benchmark crash
                code = "exception"
                err.write(traceback.format_exc())
        lat.append((t0, perf_counter() - t0))
        outs[call.key], codes[call.key] = out.getvalue(), (code, err.getvalue())
        if pace is not None:
            pace.maybe_sample()
    return sum(s for _, s in lat), lat, outs, codes


def check_output(call, out: str) -> str | None:
    try:
        return call.check(out)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return f"unreadable output: {exc!r}"


def check_batch(calls, outs, codes, ledger: Ledger, first: dict) -> None:
    """Check every output; ``first`` holds the first batch's stdout, which later batches must repeat."""
    for call in calls:
        code, err = codes[call.key]
        if code != 0:
            problem = f"exit {code}: {err.strip()[-300:]}"
        elif first.setdefault(call.key, outs[call.key]) != outs[call.key]:
            problem = "output differs from the first batch"
        else:
            problem = check_output(call, outs[call.key])
        ledger.record(call.key, problem)


def warm_up_calls(w) -> list:
    """The smallest call of each family."""
    smallest = {}
    for call in w.calls:
        best = smallest.get(call.family)
        if best is None or w.input_size(call) < w.input_size(best):
            smallest[call.family] = call
    keys = {c.key for c in smallest.values()}
    return [c for c in w.calls if c.key in keys]


def set_up(name: str, seed: int, tiny: bool, work: Path, ledger: Ledger):
    """Import, generate, write the inputs and warm up; returns (cli module, workload)."""
    cli = import_program()
    w = build(name, seed, tiny)
    for old in work.iterdir():
        old.unlink()
    for fname, text in w.files.items():
        (work / fname).write_text(text, encoding="utf-8")
    warm = warm_up_calls(w)
    _, _, outs, codes = run_batch(cli.main, warm)
    check_batch(warm, outs, codes, ledger, {})
    return cli, w


def cold_start_ms(call, ledger: Ledger) -> float:
    """Wall time of one ``python -m leavitt_lab`` subprocess on ``call``'s input."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "leavitt_lab", *call.argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
    )
    elapsed = (perf_counter() - t0) * 1e3
    problem = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr[-300:]}"
    ledger.record(f"cold:{call.key}", problem or check_output(call, proc.stdout))
    return elapsed


# ---------------------------------------------------------------------------
# the two runs
# ---------------------------------------------------------------------------


def timed_run(cli, w, timed_set_up, pace, seconds, ledger, first) -> tuple[dict, dict]:
    """Timed batches, each followed by ``COLD_STARTS_PER_BATCH`` cold starts and one complete set-up.

    The machine's speed drifts over seconds, so every metric samples the whole
    run instead of one burst at its start or end, and every interval is
    scaled by the pace measured around it (``pace.py``): calls by the kernel,
    cold starts by an interpreter start that imports numpy, after each.
    """
    start_pace = Pace(numpy_start, NUMPY_START_REF_S)
    cold_call = min(w.calls, key=w.input_size)
    digest = w.digest()
    batches, colds = [], []  # (start, seconds) of each call, per batch; (start, end, ms) of each cold start
    deadline = perf_counter() + seconds
    while len(batches) < MIN_BATCHES or perf_counter() < deadline:
        _, calls, outs, codes = run_batch(cli.main, w.calls, pace)
        batches.append(calls)
        check_batch(w.calls, outs, codes, ledger, first)
        for _ in range(COLD_STARTS_PER_BATCH):
            start = perf_counter()
            ms = cold_start_ms(cold_call, ledger)
            colds.append((start, perf_counter(), ms))
            start_pace.sample()
        pace.sample()
        cli, w = timed_set_up()
        if w.digest() != digest:
            raise RuntimeError("the same seed generated different inputs")

    def summary(scale, scale_cold) -> tuple[dict, list[float]]:
        scaled = [[x * scale(t, t + x) for t, x in calls] for calls in batches]
        lat = [x * 1e3 for calls in scaled for x in calls]
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        return {
            "batch_s": statistics.median(sum(calls) for calls in scaled),
            "call_ms_p50": deciles[4],
            "call_ms_p90": deciles[8],
            "cold_start_ms": statistics.median(ms * scale_cold(s, e) for s, e, ms in colds),
        }, lat

    metrics, lat = summary(pace.factor, start_pace.factor)
    info = {
        "batches": len(batches),
        "latency_samples": len(lat),
        "samples_beyond_p90_per_batch": sum(x > metrics["call_ms_p90"] for x in lat) / len(batches),
        "cold_start_input": cold_call.key,
        "cold_starts": len(colds),
        "wall": summary(lambda s, e: 1.0, lambda s, e: 1.0)[0],
        "numpy_start_ms": start_pace.median_ms(),
    }
    return metrics, info


def traced_run(cli, w, seconds, ledger, first, spans_file: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced batches; per-layer counts come from one
    traced batch (all must agree), self times are medians over traced batches."""
    tracer = Tracer()
    plain, traced, self_ms, counts = [], [], [], None
    stable = True
    deadline = perf_counter() + seconds
    while len(traced) < MIN_BATCHES or perf_counter() < deadline:
        batch_s, _, outs, codes = run_batch(cli.main, w.calls)
        check_batch(w.calls, outs, codes, ledger, first)
        plain.append(batch_s)
        tracer.reset()
        tracer.install()
        try:
            batch_s, _, outs, codes = run_batch(cli.main, w.calls)
        finally:
            tracer.uninstall()
        check_batch(w.calls, outs, codes, ledger, first)
        traced.append(batch_s)
        self_ms.append(tracer.self_ms())
        snap = tracer.snapshot_counts()
        if counts is None:
            counts = snap
        elif snap != counts:
            stable = False
    tracer.write_spans(str(spans_file))

    metrics = {}
    for layer, stats in LAYERS.items():
        c = counts.get(layer, {})
        for stat in stats:
            if stat == "self_ms":
                value = statistics.median(s.get(layer, 0.0) for s in self_ms)
            elif stat == "kept_ratio":
                value = c.get("terms_out", 0) / c["terms_in"] if c.get("terms_in") else 0.0
            else:
                value = c.get(stat, 0)
            metrics[f"{layer}.{stat}"] = value
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    info = {
        "counts_stable": stable,
        "traced_batches": len(traced),
        "untraced_batch_s": statistics.median(plain),
        "traced_batch_s": statistics.median(traced),
        "overhead_s": overhead,
        "spans_per_batch": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "bindings": tracer.binding_map(),
    }
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input set, for the benchmark's self-tests")
    args = ap.parse_args(argv)

    if not (SRC / "leavitt_lab" / "__init__.py").is_file():
        print(f"error: no leavitt_lab package under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cpu = pin_environment()
    sys.path.insert(0, str(SRC))
    machine = machine_block(nproc, cpu)  # imports numpy after the BLAS pin, outside set-up

    tiny = args.size == "tiny"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    ledger = Ledger()
    first: dict = {}
    cwd = os.getcwd()
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)  # calls name their input files relative to the work directory
    setups: list[tuple[float, float]] = []  # (start, end) of each set-up
    pace = Pace(kernel, KERNEL_REF_S, KERNEL_EXPONENT)

    def timed_set_up():
        start = perf_counter()
        result = set_up(args.workload, args.seed, tiny, work, ledger)
        setups.append((start, perf_counter()))
        pace.sample()
        return result

    try:
        cli, w = timed_set_up()
        if args.trace:
            metrics, info = traced_run(cli, w, args.seconds, ledger, first, OUT / f"{tag}.spans.jsonl")
        else:
            metrics, info = timed_run(cli, w, timed_set_up, pace, args.seconds, ledger, first)
            metrics["setup_s"] = statistics.median((e - s) * pace.factor(s, e) for s, e in setups)
            info["wall"]["setup_s"] = statistics.median(e - s for s, e in setups)
            info["kernel_ms"] = pace.median_ms()
            info["kernel_samples"] = len(pace.seconds)
            metrics["ok_frac"] = 1 - ledger.failed / ledger.attempted
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    units = END_TO_END if not args.trace else per_layer_units()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "input_sha256": w.digest(),
        "calls_per_batch": len(w.calls),
        "setup_s": [e - s for s, e in setups],
        "machine": machine,
        "failures": ledger.reasons,
        **info,
    }
    (OUT / f"{tag}.json").write_text(json.dumps({"details": details, "metrics": metrics}, indent=1) + "\n")
    print(json.dumps(details, separators=(",", ":")))
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0 and info.get("counts_stable", True),
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
