"""The benchmark's four workloads and the references that check them.

Each workload has the same life cycle, driven by ``run.py``:

* ``prepare()`` builds the seeded inputs and the expected outputs.  It
  is not timed: references are not part of set-up.
* ``setup()`` takes the program from cold to ready (fresh memo tables,
  fresh worker pool, cold lowering, one warm-up call per kernel).  It
  is timed and repeated, and ``setup_s`` reports the median.
* ``run_pass(rec, counts)`` runs the workload's fixed op sequence once,
  timing each op and checking each output.  A run repeats passes until
  its time is up, so every pass does the same work and per-pass counts
  repeat exactly.

References never come from the engine under test: verdicts are checked
against the corpus' ``expect_parallel`` and, for fuzz kernels, against
the dynamic independence oracle; outputs are checked against the
corpus ``reference`` functions or the hand-written NumPy functions
below (``smoke.py`` checks those against the ``interp`` engine).
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

import repro.runtime as rt
from repro.analysis.framework import nest_cache_stats
from repro.corpus import all_kernels
from repro.evaluation import figure10
from repro.ir import build_function
from repro.runtime import fabric
from repro.runtime.bench import _CSR_INPUT_SRC, BENCH_KERNELS
from repro.runtime.compiler import compile_function
from repro.service import AnalysisRequest, BatchEngine, ResultCache, corpus_requests
from repro.symbolic.expr import clear_memo_tables, memo_stats
from repro.workloads.generators import random_kernel

#: closed loop, one client; the parallel engine always gets this many
#: workers (the 2-CPU host the benchmark was sized on)
WORKERS = 2

#: fuzz kernels: the seeds the tier-1 fuzz suite pins
FUZZ_SEEDS = 200


def copy_env(env: dict[str, Any]) -> dict[str, Any]:
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}


class Recorder:
    """Op latencies by ``(kind, kernel)``, op count and named failures.

    ``tracer`` is set only during traced passes; each op then becomes a
    ``bench.op`` span, the root of everything the op calls."""

    def __init__(self) -> None:
        self.lat: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)  # ops by kind
        self.busy: dict[str, float] = defaultdict(float)  # seconds in ops by kind
        self.tracer = None

    def fail(self, msg: str) -> None:
        self.failures[msg] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def timed(self, kind: str, kernel: str, fn: Callable[[], Any]) -> tuple[bool, Any]:
        """Run one op; returns ``(ok, result)``.  An exception is a
        failed op, named by kernel and exception."""
        self.attempted += 1
        tr = self.tracer
        idx = tr.open("bench.op", {"kind": kind, "kernel": kernel}) if tr else -1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # noqa: BLE001 — a failed op is reported, not fatal
            if tr:
                tr.close(idx)
            self.fail(f"{kernel} [{kind}]: {type(exc).__name__}: {exc}")
            return False, None
        dt = time.perf_counter() - t0
        if tr:
            tr.close(idx)
        self.lat[(kind, kernel)].append(dt)
        self.count[kind] += 1
        self.busy[kind] += dt
        return True, out


def process_counters() -> dict[str, float]:
    """Process-wide counters of the layers' public stats surfaces;
    ``run.py`` takes their delta over each pass."""
    memo = memo_stats()
    nest = nest_cache_stats()
    fab = fabric.fabric_stats()
    insp = rt.inspector_stats()
    return {
        "memo_hits": memo["hits"],
        "memo_misses": memo["misses"],
        "nest_hits": nest["hits"],
        "nest_misses": nest["misses"],
        "fabric_dispatches": fab["dispatches"],
        "fabric_warm_dispatches": fab["warm_dispatches"],
        "inspector_inspections": insp["inspections"],
        "inspector_hits": insp["hits"],
        "inspector_passes": insp["passes"],
        "inspector_refusals": insp["refusals"],
    }


def stop_pools(tracker: bool = False) -> None:
    """Shut the fabric's worker pool down, waiting for its processes,
    then drop every pool and shared-memory segment.  With ``tracker``,
    also stop the shared-memory resource tracker process and wait for
    it (a later segment starts a new one)."""
    fab = fabric.get_fabric(WORKERS)
    if fab.pool is not None:
        fab.pool.shutdown(wait=True)
    fabric.shutdown_fabric()
    if tracker:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()


def arena_unaccounted() -> int:
    """Shared-memory segments the arena created but can account for
    neither as unlinked, free nor leased (must be 0)."""
    a = fabric.fabric_stats()["arena"]
    return a["created"] - a["unlinked"] - a["free"] - a["outstanding"]


# --------------------------------------------------------------------------
# verdict_sweep: source -> verdict
# --------------------------------------------------------------------------


class VerdictSweep:
    """Corpus kernels plus fuzz kernels through a fresh
    ``BatchEngine(jobs=1)`` after ``clear_memo_tables()``, one request
    at a time, in an order drawn from the workload seed.  Only the
    analysis path works here; the runtime is idle.

    The fuzz kernels are the fixed population the tier-1 fuzz suite
    pins (seeds 0-199), so a pass costs the same on every workload
    seed; the seed orders the requests (which decides what the memo
    tables already hold for each one) and draws the inputs the oracle
    reference runs on."""

    name = "verdict_sweep"
    primary = "verdict"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.fuzz_seeds = range(5) if tiny else range(FUZZ_SEEDS)
        self.requests: list[AnalysisRequest] = []
        self.corpus = all_kernels()
        self.engine: "BatchEngine | None" = None
        self.first_parallel_loops: "int | None" = None

    def prepare(self) -> None:
        """Requests plus the reference: the dynamic oracle's answer for
        every loop of every fuzz kernel on seeded inputs."""
        requests = corpus_requests()
        self.oracle: dict[str, dict[str, bool]] = {}
        for s in self.fuzz_seeds:
            rk = random_kernel(s)
            name = f"fuzz{s}"
            requests.append(AnalysisRequest(name=name, source=rk.source))
            func = build_function(rk.source)
            self.oracle[name] = {
                lp.label: rt.check_loop_independence(
                    func, rk.make_inputs(self.seed), lp.label, engine="compiled"
                ).independent
                for lp in func.loops()
            }
        order = np.random.default_rng(self.seed).permutation(len(requests))
        self.requests = [requests[i] for i in order]

    def setup(self) -> None:
        clear_memo_tables()
        self.engine = BatchEngine(jobs=1, cache=ResultCache())
        for req in self.requests:
            if req.kernel is not None:
                self.engine.run([req])

    def begin_pass(self) -> None:
        clear_memo_tables()
        self.engine = BatchEngine(jobs=1, cache=ResultCache())

    def run_pass(self, rec: Recorder, counts: dict[str, float]) -> None:
        n_parallel = 0
        for req in self.requests:
            ok, report = rec.timed("verdict", req.name, lambda r=req: self.engine.run([r]))
            if not ok:
                continue
            verdict = report.verdicts[0]
            health = report.health
            counts["service_failures"] += len(health["failed"]) + len(health["quarantined"])
            counts["analysis_fallbacks"] += len(verdict.payload.get("fallbacks", ()))
            if not verdict.ok:
                rec.fail(f"{req.name} [verdict]: {verdict.payload.get('error')}")
                continue
            loops = verdict.parallel_loops
            n_parallel += len(loops)
            if req.kernel is not None:
                k = self.corpus[req.kernel]
                if (k.target_loop in loops) != k.expect_parallel:
                    rec.fail(
                        f"{req.name} [verdict]: {k.target_loop} parallel="
                        f"{k.target_loop in loops}, expected {k.expect_parallel}"
                    )
            else:
                for label in loops:
                    if not self.oracle[req.name].get(label, False):
                        rec.fail(f"{req.name} [verdict]: {label} PARALLEL but the oracle sees a conflict")
        counts["parallel_loops"] += n_parallel
        counts["service_cache_hits"] += self.engine.cache.stats.hits
        if self.first_parallel_loops is None:
            self.first_parallel_loops = n_parallel
        elif n_parallel != self.first_parallel_loops:
            rec.fail(
                f"verdict_sweep: {n_parallel} parallel loops in a pass, "
                f"{self.first_parallel_loops} in the first"
            )

    def close(self, rec: Recorder) -> None:
        pass


# --------------------------------------------------------------------------
# source -> result: kernels, inputs and hand-written references
# --------------------------------------------------------------------------


class ExecKernel:
    """One kernel of an ``exec_*`` workload: source, seeded inputs, the
    expected arrays, and the planner assertions it runs under."""

    def __init__(
        self,
        name: str,
        source: str,
        env: dict[str, Any],
        expected: dict[str, np.ndarray],
        assertions: Callable[[], Any] | None = None,
        tier: str = "static",
    ) -> None:
        self.name = name
        self.source = source
        self.env = env
        self.expected = expected
        self.make_assertions = assertions
        self.tier = tier
        self.func = None
        self.assertions = None
        self.pf = None
        self.cf = None

    def build(self) -> None:
        self.func = build_function(self.source)
        self.assertions = self.make_assertions() if self.make_assertions else None

    def run_parallel(self, env: dict[str, Any]) -> None:
        # without assertions this is the engine registry's own path;
        # planner assertions only reach the engine through run_parallel
        if self.assertions is None:
            rt.execute(self.func, env, engine="parallel", workers=WORKERS, tier=self.tier)
        else:
            rt.run_parallel(
                self.func, env, workers=WORKERS, assertions=self.assertions, tier=self.tier
            )

    def run_compiled(self, env: dict[str, Any]) -> None:
        rt.execute(self.func, env, engine="compiled")

    def bind(self) -> None:
        """Keep the lowered forms the calls use, to read their counters."""
        self.pf = rt.compile_parallel(self.func, self.assertions, tier=self.tier)
        self.cf = compile_function(self.func)


def mismatches(env: dict[str, Any], expected: dict[str, np.ndarray]) -> list[str]:
    return [k for k, v in expected.items() if not np.array_equal(env[k], v)]


def _scatter(rng: np.random.Generator, n: int) -> tuple[dict, dict]:
    env = {
        "n": n,
        "off": np.zeros(n, np.int64),
        "data": rng.integers(-1000, 1000, 2 * n + 2),
    }
    i = np.arange(n, dtype=np.int64)
    data = env["data"].copy()
    data[2 * i + 1] = i
    return env, {"off": 2 * i + 1, "data": data}


def _gather(rng: np.random.Generator, n: int) -> tuple[dict, dict]:
    env = {
        "n": n,
        "idx": np.zeros(n, np.int64),
        "g": rng.integers(-1000, 1000, n),
        "v": rng.integers(-1000, 1000, n),
    }
    idx = (np.arange(n, dtype=np.int64) * 3 + 1) % n
    return env, {"idx": idx, "g": env["v"][idx] + 1}


def _row_scatter(rng: np.random.Generator, n: int) -> tuple[dict, dict]:
    env = {
        "n": n,
        "mp": np.zeros(n, np.int64),
        "grid": rng.integers(-1000, 1000, (n, 16)),
    }
    i = np.arange(n, dtype=np.int64)
    rows = n - 1 - i
    # grid[mp[i]][j] = i + j with mp[i] = n - 1 - i
    grid = (n - 1 - i)[:, None] + np.arange(16, dtype=np.int64)[None, :]
    return env, {"mp": rows, "grid": grid}


def _par_branch(rng: np.random.Generator, n: int) -> tuple[dict, dict]:
    env = {"n": n, "a": np.zeros(n, np.int64), "out": rng.integers(-1000, 1000, n)}
    i = np.arange(n, dtype=np.int64)
    a = (i * 7) % 13 - 6
    return env, {"a": a, "out": np.where(a > 0, a * 3, 1 - a) + i}


def _csr_walk(rng: np.random.Generator, n: int) -> tuple[dict, dict]:
    env = {
        "n": n,
        "sz": np.zeros(n, np.int64),
        "ptr": np.zeros(n + 1, np.int64),
        "seg": rng.integers(-1000, 1000, 4 * n + 4),
        "inp": rng.integers(-1000, 1000, 4 * n + 4),
    }
    sz = np.arange(n, dtype=np.int64) % 4
    ptr = np.concatenate([[0], np.cumsum(sz)]).astype(np.int64)
    seg = env["seg"].copy()
    nnz = int(ptr[-1])
    seg[:nnz] = env["inp"][:nnz] + 1
    return env, {"sz": sz, "ptr": ptr, "seg": seg}


def _cg_product(rng: np.random.Generator, nrows: int) -> tuple[dict, dict]:
    """The Figure-10 CG product loop over seeded row lengths (~64 per row)."""
    ptr = np.zeros(nrows + 1, np.int64)
    np.cumsum(rng.integers(32, 97, nrows), out=ptr[1:])
    nnz = int(ptr[-1])
    env = {
        "rowptr": ptr,
        "value": rng.uniform(-1.0, 1.0, nnz),
        "vector": rng.uniform(-1.0, 1.0, nnz),
        "product": rng.uniform(-1.0, 1.0, nnz),
        "nrows": nrows,
    }
    return env, {"product": env["value"] * env["vector"]}


def csr_segments_expected(env: dict[str, Any]) -> dict[str, np.ndarray]:
    """``seg[j] = inp[j] + 1`` over every row segment ``[ptr[i], ptr[i+1])``
    of the input-rowptr walk; segments may overlap (each write stores
    the same value) and a decreasing pair is an empty segment."""
    ptr, n = env["ptr"], env["n"]
    cover = np.zeros(len(env["seg"]) + 1, np.int64)
    lo, hi = ptr[:n], ptr[1 : n + 1]
    keep = hi > lo
    np.add.at(cover, lo[keep], 1)
    np.add.at(cover, hi[keep], -1)
    covered = np.cumsum(cover[:-1]) > 0
    seg = env["seg"].copy()
    seg[covered] = env["inp"][covered] + 1
    return {"seg": seg}


#: name -> (source, hand-written inputs + reference); sources are the
#: repo's own bench kernels and the Figure-10 measured CG product
HANDWRITTEN: dict[str, tuple[str, Callable]] = {
    "cg_product": (figure10.MEASURED_SRC, _cg_product),
    "par_branch_private": (BENCH_KERNELS["par_branch_private"][0], _par_branch),
    "scatter_filled": (BENCH_KERNELS["scatter_filled"][0], _scatter),
    "gather_subsub": (BENCH_KERNELS["gather_subsub"][0], _gather),
    "row_scatter_2d": (BENCH_KERNELS["row_scatter_2d"][0], _row_scatter),
    "csr_segment_walk": (BENCH_KERNELS["csr_segment_walk"][0], _csr_walk),
}


class ExecWorkload:
    """Source -> result: every kernel once on ``engine="parallel"`` (the
    timed primary op) and once on ``engine="compiled"`` (the serial
    baseline) per pass, the order alternating between passes."""

    primary = "parallel"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.kernels: list[ExecKernel] = []
        self.passes = 0

    def setup(self) -> None:
        stop_pools()
        clear_memo_tables()
        for k in self.kernels:
            k.build()
            for run in (k.run_parallel, k.run_compiled):
                env = copy_env(k.env)
                run(env)
            k.bind()

    def begin_pass(self) -> None:
        pass

    def call(self, rec: Recorder, k: ExecKernel, kind: str, env: dict, counts: dict) -> None:
        """One timed call, its output check, and its engine counters."""
        run = k.run_parallel if kind == "parallel" else k.run_compiled
        ok, _ = rec.timed(kind, k.name, lambda: run(env))
        if not ok:
            return
        bad = mismatches(env, k.expected)
        if bad:
            rec.fail(f"{k.name} [{kind}]: {', '.join(bad)} differ from the reference")
        if kind == "parallel":
            for key, val in k.pf.last_counters.items():
                counts["par_" + key] += val
        else:
            counts["vec_activations"] += k.cf.last_stats.vec_activations
            counts["vec_fallbacks"] += k.cf.last_stats.vec_fallbacks

    def run_pass(self, rec: Recorder, counts: dict[str, float]) -> None:
        order = ("parallel", "compiled") if self.passes % 2 == 0 else ("compiled", "parallel")
        self.passes += 1
        for k in self.kernels:
            for kind in order:
                self.call(rec, k, kind, copy_env(k.env), counts)

    def close(self, rec: Recorder) -> None:
        leaked = arena_unaccounted()
        if leaked:
            rec.fail(f"{self.name}: arena created-unlinked-free-leased = {leaked}, not 0")


class ExecBulk(ExecWorkload):
    """Kernels where one call is one long parallel activation, on both
    sides of the serial-vs-parallel choice."""

    name = "exec_bulk"

    SIZES = {
        "cg_product": 2000,
        "par_branch_private": 20000,
        "scatter_filled": 100000,
        "gather_subsub": 100000,
        "row_scatter_2d": 20000,
    }

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        for name, size in self.SIZES.items():
            src, make = HANDWRITTEN[name]
            env, expected = make(rng, 24 if self.tiny else size)
            assertions = figure10._measured_assertions if name == "cg_product" else None
            self.kernels.append(ExecKernel(name, src, env, expected, assertions))


class ExecFine(ExecWorkload):
    """Corpus kernels at their own sizes (per-call overhead) and the
    static-tier CSR walk (~0.75 n short activations: per-activation
    overhead)."""

    name = "exec_fine"

    def prepare(self) -> None:
        for name, k in sorted(all_kernels().items()):
            if k.make_inputs is None or k.reference is None:
                continue
            env = k.make_inputs(self.seed)
            expected = k.reference(copy_env(env))
            self.kernels.append(ExecKernel(name, k.source, env, expected, k.assertion_env))
        src, make = HANDWRITTEN["csr_segment_walk"]
        env, expected = make(np.random.default_rng(self.seed), 40 if self.tiny else 2000)
        self.kernels.append(ExecKernel("csr_segment_walk", src, env, expected))


class ExecHybrid(ExecWorkload):
    """The input-rowptr CSR walk on ``tier="hybrid"`` as a seeded call
    stream.  Per pass: 14 calls reuse ``ptr`` with fresh ``inp`` (memo
    hits), 3 first move one row boundary of ``ptr`` in place keeping it
    monotone (cold inspection that passes), 3 run on a copy of ``ptr``
    with overlapping segments (cold inspection that must refuse)."""

    name = "exec_hybrid"
    PATTERN = ("hit",) * 14 + ("mono",) * 3 + ("overlap",) * 3

    def prepare(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        rows = 600 if self.tiny else 3000
        ptr = np.zeros(rows + 1, np.int64)
        np.cumsum(self.rng.integers(0, 8, rows), out=ptr[1:])
        nnz = int(ptr[-1])
        env = {
            "n": rows,
            "ptr": ptr,
            "seg": np.zeros(nnz, np.int64),
            "inp": self.rng.integers(-1000, 1000, nnz),
        }
        self.kernel = ExecKernel(
            "csr_input_hybrid", _CSR_INPUT_SRC, env, csr_segments_expected(env), tier="hybrid"
        )
        self.kernels = [self.kernel]
        self.order = list(self.PATTERN)
        self.rng.shuffle(self.order)

    def _move_boundary(self, ptr: np.ndarray) -> None:
        """Move one interior row boundary to another value between its
        neighbours, so ``ptr`` changes but stays monotone."""
        while True:
            r = int(self.rng.integers(1, len(ptr) - 1))
            lo, span = int(ptr[r - 1]), int(ptr[r + 1] - ptr[r - 1]) + 1
            if span >= 2:
                ptr[r] = lo + (int(ptr[r]) - lo + int(self.rng.integers(1, span))) % span
                return

    def _overlap(self, ptr: np.ndarray) -> None:
        """Make row ``r-1`` extend over the non-empty row ``r+1``."""
        while True:
            r = int(self.rng.integers(1, len(ptr) - 2))
            if ptr[r + 2] > ptr[r + 1]:
                ptr[r] = ptr[r + 2]
                return

    def run_pass(self, rec: Recorder, counts: dict[str, float]) -> None:
        k = self.kernel
        order = ("parallel", "compiled") if self.passes % 2 == 0 else ("compiled", "parallel")
        self.passes += 1
        for call in self.order:
            if call == "mono":
                self._move_boundary(k.env["ptr"])
            env = copy_env(k.env)
            env["inp"] = self.rng.integers(-1000, 1000, len(env["inp"]))
            if call == "overlap":
                self._overlap(env["ptr"])
            k.expected = csr_segments_expected(env)
            for kind in order:
                self.call(rec, k, kind, copy_env(env), counts)
                if kind == "parallel" and call == "overlap":
                    res = k.pf.last_inspections.get("L1")
                    if res is None or res.parallel:
                        rec.fail("csr_input_hybrid [parallel]: overlapping segments not refused")


WORKLOADS = {
    "verdict_sweep": VerdictSweep,
    "exec_bulk": ExecBulk,
    "exec_fine": ExecFine,
    "exec_hybrid": ExecHybrid,
}
