"""End-to-end benchmark of both paths of the repository: source -> verdict
and source -> executed result.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload exec_bulk --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics, prints a table
of layer self times and writes a Chrome trace to
``.bench_out/trace_<workload>_seed<seed>.json``.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); every line before it is for people.  See
``e2ebench/README.md`` for the workloads, the metrics and how to read
the trace.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("verdict_sweep", "exec_bulk", "exec_fine", "exec_hybrid")

#: set-ups per run; ``setup_s`` is the median
SETUP_REPEATS = 3

#: (name, unit): every workload reports every one of these
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("frontend.parse_ms", "ms"),
    ("ir.build_ms", "ms"),
    ("ir.print_ms", "ms"),
    ("symbolic.memo_hit_rate", "ratio"),
    ("symbolic.interned_nodes", "count"),
    ("analysis.analyze_ms", "ms"),
    ("analysis.nest_cache_hit_rate", "ratio"),
    ("analysis.fallbacks", "count"),
    ("dependence.test_ms", "ms"),
    ("dependence.loops_tested", "count"),
    ("parallelizer.plan_ms", "ms"),
    ("parallelizer.parallel_loops", "count"),
    ("parallelizer.schedule_ms", "ms"),
    ("service.self_ms", "ms"),
    ("service.cache_hits", "count"),
    ("service.failures", "count"),
    ("engines.self_ms", "ms"),
    ("compiler.run_ms", "ms"),
    ("compiler.vec_activations", "count"),
    ("compiler.vec_fallbacks", "count"),
    ("parallel.lower_ms", "ms"),
    ("parallel.lookup_us", "us"),
    ("parallel.run_self_ms", "ms"),
    ("parallel.us_per_activation", "us"),
    ("parallel.activations", "count"),
    ("parallel.inproc_chunks", "count"),
    ("parallel.mp_chunks", "count"),
    ("parallel.serial_fallbacks", "count"),
    ("fabric.dispatch_ms", "ms"),
    ("fabric.worker_compute_ms", "ms"),
    ("fabric.ipc_ms", "ms"),
    ("fabric.dispatches", "count"),
    ("fabric.warm_dispatch_ratio", "ratio"),
    ("fabric.pool_spawns", "count"),
    ("fabric.arena_high_water_mb", "MB"),
    ("fabric.arena_leaked", "count"),
    ("inspector.lower_ms", "ms"),
    ("inspector.cold_us", "us"),
    ("inspector.warm_us", "us"),
    ("inspector.hit_rate", "ratio"),
    ("inspector.passes", "count"),
    ("inspector.refusals", "count"),
    ("inspector.skips", "count"),
    ("compiled_calls_per_s", "1/s"),
    ("speedup_vs_compiled_geomean", "x"),
    ("speedup_vs_compiled_min", "x"),
    ("trace.overhead_pct", "%"),
)

#: layers of the self-time table, in pipeline order ("bench" is the
#: harness itself: input copies, output checks)
LAYERS = (
    "bench", "service", "frontend", "ir", "analysis", "dependence",
    "parallelizer", "engines", "compiler", "parallel", "fabric", "inspector",
)


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def commit_id() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
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
    return "unknown (not a git checkout)"


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKERS

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": commit_id(),
        "src_sha256": digest.hexdigest()[:16],
    }


def start_seconds() -> list[float]:
    """Wall time of fresh interpreters that import the benchmark and the
    program: the process start-up part of set-up, one per set-up."""
    code = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return times


def pct(values: "list[float]", q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def engine_comparison(rec, compiled_rates: list[float]) -> tuple[list[tuple], dict[str, float]]:  # noqa: ANN001
    """Per-kernel median parallel and compiled ms and their ratio, plus
    the compiled throughput (median of per-pass rates) and the summary
    ratios (compiled/parallel per kernel, from medians)."""
    rows = []
    kernels = sorted({k for kind, k in rec.lat if kind == "parallel"})
    for k in kernels:
        par, comp = rec.lat[("parallel", k)], rec.lat.get(("compiled", k), [])
        if par and comp:
            p, c = statistics.median(par), statistics.median(comp)
            rows.append((k, p * 1e3, c * 1e3, c / p))
    ratios = [r[3] for r in rows]
    return rows, {
        "compiled_calls_per_s": statistics.median(compiled_rates) if compiled_rates else 0.0,
        "speedup_vs_compiled_geomean": (
            math.exp(sum(math.log(r) for r in ratios) / len(ratios)) if ratios else 0.0
        ),
        "speedup_vs_compiled_min": min(ratios, default=0.0),
    }


def span_rows(tracer, roots: list[int]) -> list[tuple]:  # noqa: ANN001
    """``(name, op kind, inclusive s, self s, args, child names)`` for every
    span under ``roots``; the op kind is inherited from the enclosing
    ``bench.op`` span (``None`` outside ops)."""
    spans = tracer.spans
    idxs = sorted(tracer.subtree(roots))
    selfs = tracer.self_seconds(idxs)
    kids: dict[int, set[str]] = defaultdict(set)
    for i in idxs:
        kids[spans[i][3]].add(spans[i][0])
    kind: dict[int, "str | None"] = {}
    rows = []
    for i in idxs:
        name, start, end, parent, args = spans[i]
        kind[i] = args["kind"] if name == "bench.op" else kind.get(parent)
        rows.append((name, kind[i], end - start, selfs[i], args, kids[i]))
    return rows


def layer_metrics(tracer, pass_roots, setup_roots, primary, counts, n_passes, fabric_end) -> tuple[dict, dict]:  # noqa: ANN001
    """Per-layer metrics from the traced passes (time per primary op,
    counts per pass) and the traced set-ups (time per set-up), plus the
    self time of each layer over the traced passes.  ``fabric_end`` is
    ``(fabric_stats(), arena_unaccounted())`` before the pool stopped."""
    import repro.symbolic.expr as sx

    P = primary
    rows = span_rows(tracer, pass_roots)
    srows = span_rows(tracer, setup_roots)
    by_layer: dict[str, float] = defaultdict(float)
    for r in rows:
        by_layer[r[0].split(".", 1)[0]] += r[3]

    def total(rs: list, name: str, kind: "str | None" = P, col: int = 3) -> float:
        return sum(r[col] for r in rs if r[0] == name and r[1] == kind)

    def count(name: str, kind: str = P) -> int:
        return sum(1 for r in rows if r[0] == name and r[1] == kind)

    n_ops = count("bench.op") or 1
    n_comp = count("bench.op", "compiled") or 1
    n_setups = len(setup_roots) or 1
    passes = n_passes or 1

    def per_op_ms(name: str, kind: str = P, n: int = n_ops) -> float:
        return 1e3 * total(rows, name, kind) / n

    def setup_ms(name: str) -> float:
        return 1e3 * total(srows, name, None) / n_setups

    warm = [r[2] for r in rows
            if r[0] == "parallel.compile" and r[1] == P and "parallel.lower" not in r[5]]
    cold_lower = sum(r[2] for r in srows
                     if r[0] == "parallel.compile" and "parallel.lower" in r[5])
    cold_i = [r[2] for r in rows if r[0] == "inspector.inspect" and not r[4].get("cached")]
    warm_i = [r[2] for r in rows if r[0] == "inspector.inspect" and r[4].get("cached")]
    dispatch = total(rows, "fabric.dispatch", col=2)
    busiest = sum(r[4].get("busiest_compute_s", 0.0) for r in rows
                  if r[0] == "fabric.dispatch" and r[1] == P)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    c = counts
    fab, leaked = fabric_end
    m = {
        "frontend.parse_ms": per_op_ms("frontend.parse"),
        "ir.build_ms": per_op_ms("ir.build"),
        "ir.print_ms": per_op_ms("ir.print"),
        "symbolic.memo_hit_rate": ratio(c["memo_hits"], c["memo_hits"] + c["memo_misses"]),
        "symbolic.interned_nodes": sum(sx.intern_stats().values()),
        "analysis.analyze_ms": per_op_ms("analysis.analyze"),
        "analysis.nest_cache_hit_rate": ratio(c["nest_hits"], c["nest_hits"] + c["nest_misses"]),
        "analysis.fallbacks": c["analysis_fallbacks"] / passes,
        "dependence.test_ms": per_op_ms("dependence.test"),
        "dependence.loops_tested": count("dependence.test") / passes,
        "parallelizer.plan_ms": per_op_ms("parallelizer.plan"),
        "parallelizer.parallel_loops": c["parallel_loops"] / passes,
        "parallelizer.schedule_ms": setup_ms("parallelizer.schedule"),
        "service.self_ms": per_op_ms("service.batch"),
        "service.cache_hits": c["service_cache_hits"] / passes,
        "service.failures": c["service_failures"] / passes,
        "engines.self_ms": per_op_ms("engines.execute"),
        "compiler.run_ms": per_op_ms("compiler.run", "compiled", n_comp),
        "compiler.vec_activations": c["vec_activations"] / passes,
        "compiler.vec_fallbacks": c["vec_fallbacks"] / passes,
        "parallel.lower_ms": 1e3 * cold_lower / n_setups,
        "parallel.lookup_us": 1e6 * statistics.mean(warm) if warm else 0.0,
        "parallel.run_self_ms": per_op_ms("parallel.run"),
        "parallel.us_per_activation": 1e6 * ratio(
            total(rows, "parallel.run"), c["par_parallel_activations"]
        ),
        "parallel.activations": c["par_parallel_activations"] / passes,
        "parallel.inproc_chunks": c["par_inproc_chunks"] / passes,
        "parallel.mp_chunks": c["par_mp_chunks"] / passes,
        "parallel.serial_fallbacks": c["par_serial_fallbacks"] / passes,
        "fabric.dispatch_ms": 1e3 * dispatch / n_ops,
        "fabric.worker_compute_ms": 1e3 * busiest / n_ops,
        "fabric.ipc_ms": 1e3 * (dispatch - busiest) / n_ops,
        "fabric.dispatches": c["fabric_dispatches"] / passes,
        "fabric.warm_dispatch_ratio": ratio(c["fabric_warm_dispatches"], c["fabric_dispatches"]),
        "fabric.pool_spawns": fab["pool_spawns"],
        "fabric.arena_high_water_mb": fab["arena"]["high_water_bytes"] / 2**20,
        "fabric.arena_leaked": leaked,
        "inspector.lower_ms": setup_ms("inspector.lower"),
        "inspector.cold_us": 1e6 * statistics.mean(cold_i) if cold_i else 0.0,
        "inspector.warm_us": 1e6 * statistics.mean(warm_i) if warm_i else 0.0,
        "inspector.hit_rate": ratio(c["inspector_hits"], c["inspector_inspections"]),
        "inspector.passes": c["inspector_passes"] / passes,
        "inspector.refusals": c["inspector_refusals"] / passes,
        "inspector.skips": c["par_inspection_skips"] / passes,
    }
    return m, by_layer


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
    out=print,  # noqa: ANN001
) -> dict:
    """Run one workload; returns the result object (the last output line)."""
    import workloads as W
    from spans import Patcher, Tracer

    wl = W.WORKLOADS[name](seed, tiny=tiny)
    wl.prepare()
    tracer = Tracer() if trace else None
    patcher = Patcher(tracer) if trace else None

    setup_times, setup_roots = [], []
    try:
        for _ in range(SETUP_REPEATS):
            if tracer:
                patcher.install()
                setup_roots.append(tracer.open("bench.setup"))
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                tracer.close(setup_roots[-1])
                patcher.uninstall()

        plain, traced = W.Recorder(), W.Recorder()
        counts: dict[str, float] = defaultdict(float)
        walls = {False: [], True: []}
        # ops per second of busy time in each untraced pass, by op kind
        rates: dict[str, list[float]] = defaultdict(list)
        pass_roots: list[int] = []
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            traced_pass = bool(tracer) and i % 2 == 1
            rec = traced if traced_pass else plain
            gc.collect()
            wl.begin_pass()
            before = W.process_counters()
            pass_counts: dict[str, float] = defaultdict(float)
            if traced_pass:
                patcher.install()
                rec.tracer = tracer
                pass_roots.append(tracer.open("bench.pass"))
            ops0, busy0 = dict(rec.count), dict(rec.busy)
            t0 = time.perf_counter()
            wl.run_pass(rec, pass_counts)
            walls[traced_pass].append(time.perf_counter() - t0)
            for kind, busy in rec.busy.items():
                if not traced_pass and busy > busy0.get(kind, 0.0):
                    rates[kind].append(
                        (rec.count[kind] - ops0.get(kind, 0)) / (busy - busy0.get(kind, 0.0))
                    )
            if traced_pass:
                tracer.close(pass_roots[-1])
                rec.tracer = None
                patcher.uninstall()
            after = W.process_counters()
            if traced_pass or not tracer:
                for key, val in after.items():
                    counts[key] += val - before[key]
                for key, val in pass_counts.items():
                    counts[key] += val
            i += 1
            if time.perf_counter() >= deadline and (not tracer or i % 2 == 0):
                break
        wl.close(plain)
        fabric_end = (W.fabric.fabric_stats(), W.arena_unaccounted())
    finally:
        W.stop_pools(tracker=True)

    failures: dict[str, int] = defaultdict(int)
    for r in (plain, traced):
        for msg, n in r.failures.items():
            failures[msg] += n
    attempted = plain.attempted + traced.attempted
    failed = sum(failures.values())
    prov = provenance(name, seed, seconds, trace)

    out(f"provenance: {json.dumps(prov, sort_keys=True)}")
    if prov["nproc"] != W.WORKERS:
        out(f"note: {prov['nproc']} CPUs but {W.WORKERS} workers; the figures were sized on {W.WORKERS}")
    n_plain = len(walls[False])
    prim = [t for (kind, _), ts in plain.lat.items() if kind == wl.primary for t in ts]
    out(f"{name}, seed {seed}: {n_plain} untraced pass(es), {len(walls[True])} traced; "
        f"{len(prim)} untraced primary ops ({wl.primary})")
    rows, cmp = engine_comparison(plain, rates["compiled"])
    if rows:
        out(f"  {'kernel':<24} {'parallel ms p50':>16} {'compiled ms p50':>16} {'compiled/parallel':>18}")
        for k, p, c, r in rows:
            out(f"  {k:<24} {p:16.3f} {c:16.3f} {r:17.2f}x")
    if not trace:
        starts = start_seconds() if not tiny else [0.0]
        values = {
            "setup_s": statistics.median(starts) + statistics.median(setup_times),
            "op_ms_p50": pct(prim, 50) * 1e3,
            "op_ms_p90": pct(prim, 90) * 1e3,
            "ops_per_s": statistics.median(rates[wl.primary]) if rates[wl.primary] else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (values[k], unit) for k, unit in END_TO_END}
        out(f"  setup_s: median of interpreter start + imports "
            f"{', '.join(f'{t:.3f}' for t in starts)} s + median of set-ups "
            f"{', '.join(f'{t:.3f}' for t in setup_times)} s")
        out(f"  ops_per_s: median of {len(rates[wl.primary])} per-pass rates")
        out(f"  percentiles over n={len(prim)} samples ({len(prim) - math.ceil(0.9 * len(prim))} beyond p90)")
        for key, val in cmp.items():
            out(f"  {key} = {val:.4g}" + (" 1/s" if key.endswith("per_s") else " x"))
    else:
        n_traced = len(pass_roots)
        layer, by_layer = layer_metrics(
            tracer, pass_roots, setup_roots, wl.primary, counts, n_traced, fabric_end
        )
        untraced_wall = statistics.mean(walls[False])
        traced_wall = statistics.mean(walls[True])
        layer.update(cmp)
        layer["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
        metrics = {k: (layer[k], unit) for k, unit in PER_LAYER}
        total_self = sum(by_layer.values())
        wall = sum(walls[True])
        out(f"  layer self time over {n_traced} traced pass(es) "
            f"(wall {wall * 1e3:.1f} ms, tracing overhead {layer['trace.overhead_pct']:.1f}%):")
        for lay in LAYERS:
            s = by_layer.get(lay, 0.0)
            out(f"    {lay:<14} {s * 1e3:10.2f} ms {100 * s / wall if wall else 0:6.1f}%")
        out(f"    {'sum':<14} {total_self * 1e3:10.2f} ms of wall {wall * 1e3:.2f} ms")
        if wall and abs(total_self - wall) > 0.05 * wall:
            failures[f"{name}: layer self times sum to {total_self:.4f} s, traced wall {wall:.4f} s"] += 1
            failed += 1
        os.makedirs(".bench_out", exist_ok=True)
        path = os.path.join(".bench_out", f"trace_{name}_seed{seed}.json")
        tracer.write_chrome(path, prov)
        out(f"  chrome trace: {path} ({len(tracer.spans)} spans)")
    for key, (val, unit) in metrics.items():
        out(f"  {key} = {val:.6g} {unit}")
    out(f"  error_rate = {failed}/{attempted} = {failed / max(1, attempted):.4g}")
    for msg, n in sorted(failures.items()):
        out(f"  FAILED x{n}: {msg}")
    return {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
