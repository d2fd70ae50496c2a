"""Smoke test of the benchmark itself, at a tiny size.

Run from the root of a checkout::

    python3 e2ebench/smoke.py

It checks that

* every hand-written NumPy reference equals the ``interp`` engine (the
  repository's reference semantics) on tiny inputs, including the
  hybrid workload's moved-boundary and overlapping-segment inputs;
* every workload, untraced and traced, emits every metric that
  ``BENCHMARK.json`` names, with its unit, and reports no failed op;
* the metric names and units in ``BENCHMARK.json`` are the ones
  ``run.py`` emits.

Exits 0 when every check holds, 1 otherwise (each failure is printed).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402
from repro.ir import build_function  # noqa: E402
from repro.runtime import run_function  # noqa: E402


def check_references(problems: list[str]) -> None:
    rng = np.random.default_rng(0)
    cases = []
    for name, (src, make) in W.HANDWRITTEN.items():
        env, expected = make(rng, 24)
        cases.append((name, src, env, expected))
    hybrid = W.ExecHybrid(0, tiny=True)
    hybrid.prepare()
    base = hybrid.kernel.env
    moved = W.copy_env(base)
    hybrid._move_boundary(moved["ptr"])
    overlap = W.copy_env(base)
    hybrid._overlap(overlap["ptr"])
    for label, env in (("base", base), ("moved", moved), ("overlap", overlap)):
        cases.append((f"csr_input_hybrid/{label}", hybrid.kernel.source, env,
                      W.csr_segments_expected(env)))
    for name, src, env, expected in cases:
        out = W.copy_env(env)
        run_function(build_function(src), out)
        bad = W.mismatches(out, expected)
        if bad:
            problems.append(f"reference {name}: {', '.join(bad)} differ from interp")


def check_workloads(problems: list[str]) -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if e2e != dict(run.END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if layer != dict(run.PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    for name in run.WORKLOAD_NAMES:
        for trace, wanted in ((False, e2e), (True, layer)):
            lines: list[str] = []
            res = run.run_workload(name, 0, 0.2, trace, tiny=True, out=lines.append)
            tag = f"{name} trace={int(trace)}"
            if res["failed"] or not res["correct"]:
                problems.append(f"{tag}: {res['failed']} failed op(s): "
                                + "; ".join(l for l in lines if "FAILED" in l))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted:
                problems.append(f"{tag}: metrics/units {sorted(got.items())} "
                                f"!= {sorted(wanted.items())}")
            if not all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()):
                problems.append(f"{tag}: a metric value is not a number")
            print(f"ok: {tag}: {res['attempted']} ops, {len(got)} metrics")


def main() -> int:
    problems: list[str] = []
    check_references(problems)
    check_workloads(problems)
    for p in problems:
        print("FAIL:", p)
    print("smoke:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
