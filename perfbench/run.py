#!/usr/bin/env python3
"""trendfuse benchmark: one seeded workload, timed (--trace 0) or traced (--trace 1).

    python3 perfbench/run.py --workload zoo-train --seed 0 --seconds 30 --trace 0

Run from a checkout: the program is imported from its `src/` directory.
Every line before the last is a human-readable report (`metric <name>
<value> <unit>`, host and flags); the last line is one JSON object with
`correct`, `attempted`, `failed` and the metrics listed in BENCHMARK.json
for the mode. Exits 2 without a result when the program is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# Median of reference_loops() on the host the benchmark was defined on.
REFERENCE_S = 0.019


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("zoo-train", "text-encoder", "cli-pipeline"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "min"), default="full",
                        help="work per pass; 'min' is for the smoke test")
    return parser.parse_args(argv)


def blas_threads() -> int | None:
    """Thread count reported by the BLAS library loaded into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "blas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_info(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trendfuse" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    start = time.perf_counter()
    import workloads as wl
    import_s = time.perf_counter() - start
    import trendfuse
    if not Path(trendfuse.__file__).resolve().is_relative_to(SRC):
        print(f"error: trendfuse imported from {trendfuse.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the finally runs
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        return measure(args, wl, np, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class _Node:
    __slots__ = ("value", "parents", "back")

    def __init__(self, value, parents, back):
        self.value, self.parents, self.back = value, parents, back


def reference_loops(np) -> float:
    """Seconds for two fixed loops, as their geometric mean.

    One does small-array numpy arithmetic, the other pure-Python object and
    closure churn, the two kinds of work the program does. Together they
    track how fast the host runs this interpreter at the moment.
    """
    a, w = np.ones((32, 10)), np.full((10, 8), 0.1)
    start = time.perf_counter()
    for _ in range(3000):
        np.maximum(np.tanh(a @ w) * 0.5 + 1.0, 0.2).sum(axis=0, keepdims=True)
    numeric = time.perf_counter() - start
    start = time.perf_counter()
    nodes: list = []
    for i in range(20000):
        nodes.append(_Node(i * 0.5, tuple(nodes[-1:]), lambda g, i=i: g * i))
        if len(nodes) > 200:
            del nodes[:150]
    {id(n): n.back(1.0) for n in nodes}
    return (numeric * (time.perf_counter() - start)) ** 0.5


class Clock:
    """Times work in reference seconds.

    The host's speed can drift by a third over tens of seconds, for reasons
    outside this process. Each measurement is therefore bracketed by the
    reference loops and scaled by REFERENCE_S / (their mean time), which
    cancels the drift; the raw seconds are kept as well.
    """

    def __init__(self, np):
        self.np = np
        self.last = reference_loops(np)

    def time(self, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - start
        before, self.last = self.last, reference_loops(self.np)
        return out, raw, REFERENCE_S * 2 / (before + self.last)


@dataclass
class Pass:
    raw: float            # seconds spent in program calls, as measured
    scale: float          # reference seconds per measured second
    metrics: dict
    bytes_written: int
    traced: bool = False
    first: int = 0        # index of the pass's first span when traced


def measure(args, wl, np, workdir: Path, import_s: float) -> int:
    setup, run_pass = wl.WORKLOADS[args.workload]
    size = wl.SIZES[args.workload][args.size]
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    check_losses = args.size == "full" and args.seed == reference["seed"]
    clock = Clock(np)

    setups = []   # (raw seconds, scale)
    for _ in range(SETUP_REPEATS):
        inputs, raw, scale = clock.time(setup, args.seed, size, workdir)
        setups.append((raw, scale))

    totals = {"attempted": 0, "failed": 0}
    expected_digest = []
    final_losses = {}

    def one_pass(run_id: int):
        log = wl.PassLog()
        metrics, _, scale = clock.time(run_pass, inputs, log, workdir)
        if check_losses:
            for key, (op, value) in log.final_losses.items():
                ref = reference["final_losses"].get(key)
                log.expect(op, ref is not None and abs(value - ref) <= wl.LOSS_RTOL * abs(ref),
                           f"final loss {key}={value!r} differs from reference {ref!r}")
        if not final_losses:
            final_losses.update((key, value) for key, (_, value) in log.final_losses.items())
        digest = log.digest.hexdigest()
        if not expected_digest:
            expected_digest.append(digest)
        log.attempted += 1
        log.expect("outputs-identical", digest == expected_digest[0],
                   f"pass {run_id} outputs differ from the first pass")
        totals["attempted"] += log.attempted
        totals["failed"] += len(log.failed)
        return Pass(sum(log.seconds.values()), scale, metrics, log.bytes_written)

    one_pass(-1)  # warm-up: fills caches, sets the reference outputs
    passes: list[Pass] = []
    tracer = None
    t0 = time.perf_counter()
    phases = [(args.seconds / 2, False), (args.seconds, True)] if args.trace else [
        (args.seconds, False)]
    for limit, traced in phases:
        if traced:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        try:
            done = 0
            while True:
                typical = statistics.median(p.raw for p in passes) if passes else 0.0
                if done and time.perf_counter() - t0 + typical > limit:
                    break
                if tracer:
                    tracer.run = len(passes)
                first = len(tracer.spans) if tracer else 0
                p = one_pass(len(passes))
                p.traced, p.first = traced, first
                passes.append(p)
                done += 1
        finally:
            if tracer:
                tracer.uninstall()

    print("host " + json.dumps(host_info(np), sort_keys=True))
    untraced = [p for p in passes if not p.traced]
    wall_s = statistics.median(p.raw * p.scale for p in untraced)
    e2e = {
        "setup_s": (statistics.median(raw * scale for raw, scale in setups), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": (totals["failed"] / totals["attempted"], "ratio"),
    }
    for name, unit in wl.WORKLOAD_METRICS[args.workload].items():
        values = [p.metrics[name] / p.scale for p in untraced if name in p.metrics]
        e2e[name] = (statistics.median(values) if values else 0.0, unit)
    for name, (value, unit) in e2e.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"info raw_wall_s={statistics.median(p.raw for p in untraced)!r} "
          f"raw_setup_s={statistics.median(raw for raw, _ in setups)!r} "
          f"host_speed={statistics.median(p.scale for p in passes)!r} import_s={import_s!r}")
    print(f"info passes={len(untraced)} digest={expected_digest[0]}")
    print("info final_losses " + json.dumps(final_losses, sort_keys=True))

    metrics = e2e
    if args.trace:
        metrics = layer_metrics(tracer, [p for p in passes if p.traced], reference, args,
                                totals)
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.raw * p.scale for p in passes if p.traced) / wall_s, "ratio")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} {value!r} {unit}")
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"info spans={len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    print(json.dumps({
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def layer_metrics(tracer, traced, reference, args, totals) -> dict:
    """Median per-layer times (reference ms or s) over traced passes, plus
    exact counters.

    Counters must agree across every traced pass and every step within a
    pass; a disagreement is a failed check. A counter that differs from
    the committed reference is flagged but not failed, since a change to
    the program may move it on purpose.
    """
    import tracing
    bounds = [p.first for p in traced] + [len(tracer.spans)]
    per_pass = []
    for p, end in zip(traced, bounds[1:]):
        times, counts = tracing.pass_metrics(tracer.spans, p.first, end)
        counts["cli.bytes_written"] = {p.bytes_written}
        per_pass.append(({name: value * (1 if name.startswith("trace.") else p.scale)
                          for name, value in times.items()}, counts))
    out = {name: (statistics.median(t[name] for t, _ in per_pass),
                  "ratio" if name.startswith("trace.") else
                  "s" if name.endswith("_s") or "_s." in name else "ms")
           for name in per_pass[0][0]}
    totals["attempted"] += 1
    agreed = True
    for name in per_pass[0][1]:
        seen = set().union(*(c[name] for _, c in per_pass))
        if len(seen) > 1:
            agreed = False
            print(f"flag counter {name} differs between steps or passes: {sorted(seen)}",
                  file=sys.stderr)
        value = min(seen) if seen else 0
        expected = reference["counters"].get(name)
        if args.seed == reference["seed"]:
            expected = reference["seed_counters"].get(name, expected)
        if args.size == "full" and expected is not None and value != expected:
            print(f"flag counter {name}={value} differs from reference {expected}")
        out[name] = (value, "count")
    if not agreed:
        totals["failed"] += 1
    return out


if __name__ == "__main__":
    sys.exit(main())
