"""bellkit benchmark: one closed-loop workload per run, timings at reference speed.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

Run from the repository root; the program is imported from ``src/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics from a traced run with ``--trace 1``). The
line before it is the provenance block; ``bench/out/`` receives the full
result and, for traced runs, the spans.

Every op is timed right after the fixed calibration kernel, and reported as
``raw * CAL_NOMINAL_MS / kernel_ms`` with the kernel timed on either side of
the op, so a vCPU that drifts in speed between runs moves both alike.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import calibration
from spans import SPAN_NAMES, TRACED, Recorder
from workloads import KNOWN_DEFECTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPS = 7


def fresh_import():
    """Import bellkit (and its cli) from scratch, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "bellkit" or n.startswith("bellkit.")]:
        del sys.modules[name]
    bk = importlib.import_module("bellkit")
    importlib.import_module("bellkit.cli")
    return bk


def calibrated_ms() -> float:
    """Median of three kernel runs, for timing a stretch longer than an op."""
    return statistics.median(calibration.timed_ms() for _ in range(3))


def set_up(workload, seed: int, pool_size: int, workdir: Path):
    """Import, input generation and one warm-up op, repeated; returns the
    last (bellkit, pool) and the median set-up time at reference speed."""
    times = []
    before = calibrated_ms()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        bk = fresh_import()
        pool = workload.make_pool(np.random.default_rng(seed), pool_size, workdir)
        workload.op(bk, pool[0], Counter())
        raw = time.perf_counter() - t0
        after = calibrated_ms()
        times.append(raw * 2.0 * calibration.CAL_NOMINAL_MS / (before + after))
        before = after
    return bk, pool, statistics.median(times)


class Passes:
    """Whole passes over the pool, each op preceded by the calibration kernel."""

    def __init__(self):
        self.raw_s: list[float] = []
        self.cal_ms: list[float] = []
        self.items = 0
        self.failures: list = []
        self.passes = 0

    def run(self, workload, bk, pool, counters, seconds: float, recorder=None) -> None:
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            for item in pool:
                self.cal_ms.append(calibration.timed_ms())
                if recorder is not None:
                    recorder.op = len(self.raw_s)
                t0 = time.perf_counter()
                items, failures = workload.op(bk, item, counters)
                self.raw_s.append(time.perf_counter() - t0)
                self.items += items
                self.failures += failures
            self.passes += 1
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
        self.cal_ms.append(calibration.timed_ms())

    def scales(self) -> list[float]:
        """Per op: nominal / mean of the kernel runs right before and after it."""
        c = self.cal_ms
        return [2.0 * calibration.CAL_NOMINAL_MS / (c[i] + c[i + 1]) for i in range(len(self.raw_s))]

    def normalized_ms(self) -> list[float]:
        return [r * 1e3 * s for r, s in zip(self.raw_s, self.scales())]

    def op_latency_ms(self) -> np.ndarray:
        """Per pool entry, the median of its normalized times over the passes,
        so that a pause of the vCPU during one pass does not set a percentile."""
        return np.median(np.reshape(self.normalized_ms(), (self.passes, -1)), axis=0)


def provenance(workload: str, seed: int, trace: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "commit": git_commit(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "src_lines": src_lines,
        "cal_nominal_ms": calibration.CAL_NOMINAL_MS,
    }


def git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(passes: Passes, setup_s: float) -> tuple[dict, dict]:
    lat = passes.op_latency_ms()
    ops = len(passes.raw_s)
    metrics = {
        "throughput_items_s": metric(passes.items / (sum(passes.normalized_ms()) / 1e3), "1/s"),
        "latency_p50_ms": metric(np.percentile(lat, 50), "ms"),
        "latency_p90_ms": metric(np.percentile(lat, 90), "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": metric(1.0 - len(passes.failures) / passes.items, "ratio"),
    }
    samples = {"throughput_items_s": ops, "latency_p50_ms": len(lat), "latency_p90_ms": len(lat),
               "setup_s": SETUP_REPS, "peak_rss_mb": 1, "ok_share": passes.items}
    return metrics, samples


def per_layer(untraced: Passes, traced: Passes, recorder: Recorder, counters: Counter) -> dict:
    ops = len(traced.raw_s)
    self_total, calls = recorder.self_ms(traced.scales())
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = metric(calls[name] / ops, "count")
        metrics[f"{name}.self_ms"] = metric(self_total[name] / ops, "ms")
    for layer, names in TRACED.items():
        metrics[f"{layer}.self_ms"] = metric(
            sum(self_total[f"{layer}.{n}"] for n in names) / ops, "ms")
    traced_ms = traced.normalized_ms()
    metrics["trace.op_ms"] = metric(statistics.fmean(traced_ms), "ms")
    metrics["trace.overhead_share"] = metric(
        traced.op_latency_ms().sum() / untraced.op_latency_ms().sum() - 1.0, "ratio")
    rc = recorder.counters
    metrics["feasibility.feasible_share"] = metric(
        rc["witnesses"] / rc["lp_solves"] if rc["lp_solves"] else 0.0, "ratio")
    metrics["feasibility.disagreements"] = metric(rc["disagreements"] / ops, "count")
    for key in ("exit0", "exit1", "exit2", "crashed"):
        metrics[f"cli.{key}"] = metric(counters[key] / ops, "count")
    metrics["calib.ref_ms"] = metric(statistics.median(traced.cal_ms + untraced.cal_ms), "ms")
    metrics["raw.throughput_items_s"] = metric(untraced.items / sum(untraced.raw_s), "1/s")
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, pool_size: int | None = None):
    """One measured run; returns (result line, full record)."""
    workload = WORKLOADS[name]
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bk, pool, setup_s = set_up(workload, seed, pool_size or workload.pool_size, workdir)
        counters: Counter = Counter()
        untraced = Passes()
        if not trace:
            untraced.run(workload, bk, pool, counters, seconds)
            metrics, samples = end_to_end(untraced, setup_s)
            measured = untraced
        else:
            began = time.perf_counter()
            untraced.run(workload, bk, pool, Counter(), seconds / 2)
            remaining = seconds - (time.perf_counter() - began)
            recorder, traced = Recorder(), Passes()
            recorder.install()
            try:
                traced.run(workload, bk, pool, counters, remaining, recorder)
            finally:
                recorder.uninstall()
            metrics = per_layer(untraced, traced, recorder, counters)
            samples = {k: len(traced.raw_s) for k in metrics}
            measured = traced
            recorder.dump(OUT / f"spans-{name}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    known = KNOWN_DEFECTS.get(name, set())
    unexpected = [f for f in measured.failures if f[0] not in known]
    line = {
        "correct": not unexpected,
        "attempted": measured.items,
        "failed": len(measured.failures),
        "metrics": metrics,
    }
    record = {
        "provenance": provenance(name, seed, int(trace)),
        "samples": samples,
        "item": workload.item,
        "ops": len(measured.raw_s),
        "passes": measured.passes,
        "items_per_op": measured.items / len(measured.raw_s),
        "raw_throughput_items_s": untraced.items / sum(untraced.raw_s),
        "normalized_throughput_items_s": untraced.items / (sum(untraced.normalized_ms()) / 1e3),
        "calib_median_ms": statistics.median(measured.cal_ms),
        "failures": sorted({f"{k}: {r}" for k, r in measured.failures}),
        "unexpected_failures": len(unexpected),
        "per_op": {"raw_ms": [r * 1e3 for r in measured.raw_s], "cal_ms": measured.cal_ms},
        "result": line,
    }
    return line, record


def smoke() -> int:
    """Run every workload for a couple of ops, traced and untraced, and check
    that each emits exactly the metric names and units BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            line, _ = run(workload, seed=1, seconds=0.0, trace=bool(trace), pool_size=2)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            good = got == expected[trace] and line["correct"] and line["attempted"] >= 1
            ok = ok and good
            print(f"{workload} trace={trace}: {'ok' if good else 'MISMATCH'}"
                  f" ({len(got)} metrics, {line['failed']}/{line['attempted']} failed)")
            for name in sorted(set(got) ^ set(expected[trace])):
                print(f"  name differs: {name}")
            for name in sorted(n for n in set(got) & set(expected[trace]) if got[n] != expected[trace][n]):
                print(f"  unit differs: {name}: {got[name]} != {expected[trace][name]}")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick self-test of every workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bellkit" / "__init__.py").is_file():
        print(f"bench: no bellkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
