"""Differential engine equivalence: compiled and parallel backends vs
the reference interpreter.

The compiled runtime (:mod:`repro.runtime.compiler`) and the parallel
runtime (:mod:`repro.runtime.parallel`) are only trustworthy because
this suite pins them to the interpreter's semantics on every fuzz
kernel and corpus kernel:

* identical final environments after plain execution (every array, every
  scalar — including byte-identical float reduction results under the
  parallel engine's chunked execution, which on fork hosts every loop
  activation reaches through the worker fabric: ``workers=2``,
  ``mp_min_trips=1``);
* identical oracle results for **every** loop label: same
  independent/conflicting verdict, same iteration and access counts, and
  the same per-activation conflict *set* (order may differ — the
  vectorized fast path commits statement-at-a-time, which permutes the
  first-write order some conflicts are discovered in).

The fuzz half scales with ``pytest --fuzz-seeds N`` like the soundness
suite.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.corpus import all_kernels
from repro.ir import build_function
from repro.runtime import check_loop_independence, execute, run_function

#: every non-reference engine is pinned to the interpreter
CANDIDATE_ENGINES = ("compiled", "parallel")

#: the parallel leg dispatches every scheduled per-iteration activation,
#: however short, so chunking, privatization and the reduction event
#: replay run on every seed (a whole-array activation runs its NumPy op;
#: without fork there is no fabric: serial closures)
PARALLEL_OPTS = (
    {"workers": 2, "mp_min_trips": 1}
    if "fork" in multiprocessing.get_all_start_methods()
    else {}
)


def _copy_env(env):
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}


def _assert_env_equal(interp_env, other_env, context):
    assert interp_env.keys() == other_env.keys(), context
    for name in interp_env:
        a, b = interp_env[name], other_env[name]
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f"{context}: array {name} diverged"
        else:
            assert a == b, f"{context}: scalar {name}: interp {a!r} vs {b!r}"


def _assert_all_engines_equal(func, env, context):
    env_i = _copy_env(env)
    run_function(func, env_i)
    for engine in CANDIDATE_ENGINES:
        env_e = _copy_env(env)
        opts = PARALLEL_OPTS if engine == "parallel" else {}
        execute(func, env_e, engine=engine, **opts)
        _assert_env_equal(env_i, env_e, f"{context} [{engine}]")


def _assert_oracle_equal(func, env, label, context):
    r1 = check_loop_independence(
        func, _copy_env(env), label, max_conflicts=1 << 30, engine="interp"
    )
    for engine in CANDIDATE_ENGINES:
        r2 = check_loop_independence(
            func, _copy_env(env), label, max_conflicts=1 << 30, engine=engine
        )
        ctx = f"{context} loop {label} [{engine}]"
        assert r1.independent == r2.independent, ctx
        assert r1.iterations == r2.iterations, ctx
        assert r1.accesses_recorded == r2.accesses_recorded, ctx
        assert len(r1.conflicts) == len(r2.conflicts), ctx
        assert set(r1.conflicts) == set(r2.conflicts), ctx


def test_fuzz_engine_equivalence(fuzz_seed):
    """Outputs, verdicts, and conflict sets match on every fuzz kernel."""
    from repro.workloads.generators import random_kernel

    rk = random_kernel(fuzz_seed)
    func = build_function(rk.source)

    env = rk.make_inputs(3000 + fuzz_seed)
    _assert_all_engines_equal(func, env, f"fuzz{fuzz_seed}")

    for lp in func.loops():
        _assert_oracle_equal(func, env, lp.label, f"fuzz{fuzz_seed}")


@pytest.mark.parametrize(
    "name", sorted(n for n, k in all_kernels().items() if k.make_inputs is not None)
)
def test_corpus_engine_equivalence(name):
    """Same pins on every corpus kernel with an input generator."""
    k = all_kernels()[name]
    func = build_function(k.source)
    for seed in (0, 5):
        env = k.make_inputs(seed)
        _assert_all_engines_equal(func, env, name)
        for lp in func.loops():
            _assert_oracle_equal(func, env, lp.label, name)


class TestMultiDimVectorPath:
    """The vectorized fast path must execute multi-dimensional
    straight-line stores (it used to force the scalar fallback for any
    ``len(indices) != 1``), with trace-identical semantics."""

    SRC = """
    void md(int mp[], int grid[][8], int acc[][8], int n)
    {
        int i, j;
        for (i = 0; i < n; i++) { mp[i] = (i * 5 + 2) % n; }
        for (j = 0; j < 8; j++) {
            for (i = 0; i < n; i++) {
                grid[mp[i]][j] = i + j;
            }
        }
        for (i = 0; i < n; i++) {
            for (j = 0; j < 8; j++) {
                acc[i][j] = grid[i][j] * 2;
            }
        }
    }
    """

    def _env(self, n):
        return {
            "n": n,
            "mp": np.zeros(n, np.int64),
            "grid": np.zeros((n, 8), np.int64),
            "acc": np.zeros((n, 8), np.int64),
        }

    def test_vector_plan_covers_multidim_stores(self):
        from repro.runtime.compiler import compile_function

        func = build_function(self.SRC)
        env = self._env(512)
        cf = compile_function(func)
        cf.run(env)
        # the inner scatter (over i, 512 trips) and the scalar fallback
        # counter tell us the fast path actually ran multi-dim stores
        assert cf.last_stats.vec_activations >= 8
        assert cf.last_stats.vec_fallbacks == 0

    def test_multidim_outputs_and_traces_match_interpreter(self):
        func = build_function(self.SRC)
        env = self._env(64)
        _assert_all_engines_equal(func, env, "multidim")
        for lp in func.loops():
            _assert_oracle_equal(func, env, lp.label, "multidim")

    def test_multidim_out_of_bounds_falls_back_exactly(self):
        # an OOB row index must produce the interpreter's exact error
        src = """
        void bad(int a[][4], int n)
        {
            int i, j;
            for (j = 0; j < 4; j++) {
                for (i = 0; i < n + 1; i++) {
                    a[i][j] = i;
                }
            }
        }
        """
        from repro.errors import InterpreterError

        func = build_function(src)
        msgs = []
        for engine in ("interp", *CANDIDATE_ENGINES):
            env = {"n": 40, "a": np.zeros((40, 4), np.int64)}
            with pytest.raises(InterpreterError) as e:
                execute(func, env, engine=engine)
            msgs.append(str(e.value))
        assert len(set(msgs)) == 1, msgs


class TestHybridTierEquivalence:
    """PR 10: the hybrid (static → inspector → executor) dispatch tier
    is pinned to the interpreter exactly like the static tier — on
    every fuzz kernel the static stack leaves ``unknown``, whether the
    runtime inspection then passes (parallel dispatch) or refuses
    (serial).  Wrong parallel dispatch would show up here as a byte
    difference."""

    @staticmethod
    def _hybrid_candidates(func):
        """Loop labels whose static verdict is unknown (a dependence
        test ran and came back inconclusive, scalar analysis clean) —
        the hybrid tier's candidate set."""
        from repro.parallelizer.planner import plan_function

        plan = plan_function(func, method="extended")
        return [
            lbl
            for lbl, lp in plan.loops.items()
            if not lp.parallel
            and lp.dependence is not None
            and lp.scalars is not None
            and lp.scalars.ok
        ]

    def test_fuzz_sweep_hybrid_matches_interp(self, request):
        """Sweep the fuzz seeds, collect every kernel with an
        unknown-verdict loop, and pin the hybrid tier's outputs to the
        interpreter on all of them; across the default 200-seed sweep
        at least 5 loops must genuinely dispatch parallel through the
        inspector."""
        from repro.runtime.parallel import compile_parallel
        from repro.workloads.generators import random_kernel

        n_seeds = request.config.getoption("--fuzz-seeds")
        candidates = 0
        dispatched = 0
        for seed in range(n_seeds):
            rk = random_kernel(seed)
            func = build_function(rk.source)
            if not self._hybrid_candidates(func):
                continue
            pf = compile_parallel(func, tier="hybrid")
            if not pf.inspectors:
                continue
            candidates += 1
            env = rk.make_inputs(3000 + seed)
            env_i = _copy_env(env)
            run_function(func, env_i)
            env_h = _copy_env(env)
            pf.run(env_h, workers=2, mp_min_trips=16, inspect_min_trips=1)
            _assert_env_equal(env_i, env_h, f"fuzz{seed} [hybrid]")
            c = pf.last_counters
            if c["inspection_passes"] and c["parallel_activations"]:
                dispatched += 1
        assert candidates > 0, "fuzz sweep produced no inspector candidates"
        if n_seeds >= 200:
            assert dispatched >= 5, (
                f"only {dispatched} unknown-verdict kernels dispatched "
                f"parallel through the hybrid tier across {n_seeds} seeds"
            )

    def test_adversarial_duplicate_index_is_refused(self):
        """A histogram through an index array *with* duplicates: the
        inspector must say no (injectivity fails), the loop runs
        serial, and the output still matches the interpreter."""
        from repro.runtime.parallel import compile_parallel

        src = """
        void hist(int cnt[], int idx[], int n)
        {
            int i;
            for (i = 0; i < n; i++) {
                cnt[idx[i]] = cnt[idx[i]] + 1;
            }
        }
        """
        func = build_function(src)
        n = 400
        rng = np.random.default_rng(11)
        idx = rng.integers(0, 40, size=n).astype(np.int64)  # heavy duplicates
        env = {"n": n, "cnt": np.zeros(64, np.int64), "idx": idx}
        env_i = _copy_env(env)
        run_function(func, env_i)
        pf = compile_parallel(func, tier="hybrid")
        assert "L1" in pf.inspectors
        env_h = _copy_env(env)
        pf.run(env_h, workers=2, mp_min_trips=16, inspect_min_trips=1)
        _assert_env_equal(env_i, env_h, "duplicate-histogram [hybrid]")
        c = pf.last_counters
        assert c["inspection_refusals"] >= 1
        assert c["parallel_activations"] == 0
        res = pf.last_inspections["L1"]
        assert not res.parallel
        # whichever conflicting pair is checked first catches the
        # duplicates: the R×W pair via value-disjointness or the W×W
        # self-pair via injectivity — both mirror the same static test
        assert res.failed is not None
        assert "injectivity" in res.failed or "value-disjointness" in res.failed

    def test_via_array_mutation_invalidates_memo(self):
        """Regression: the indirect-injectivity verdict reads the *via*
        index array's values (the np.unique window), so its bytes must
        key the inspection memo.  A CSR-style scatter whose col array
        mutates in place from injective to all-duplicates — shapes,
        dtypes and every other binding byte-identical — must be
        re-inspected and refused, never served a stale PARALLEL."""
        from repro.runtime import inspector
        from repro.runtime.parallel import compile_parallel

        src = """
        void csr_scat(int ptr[], int col[], int y[], int n)
        {
            int i, j;
            for (i = 0; i < n; i++) {
                for (j = ptr[i]; j < ptr[i+1]; j++) {
                    y[col[j]] = y[col[j]] + 1;
                }
            }
        }
        """
        func = build_function(src)
        pf = compile_parallel(func, tier="hybrid")
        assert "L1" in pf.inspectors
        # the via array's contents feed the verdict: its bytes must be
        # part of the content key
        assert "col" in pf.inspectors["L1"].index_arrays

        n = 300
        ptr = np.zeros(n + 1, np.int64)
        np.cumsum(np.full(n, 2, np.int64), out=ptr[1:])
        nnz = int(ptr[-1])
        col = np.arange(nnz, dtype=np.int64)  # injective
        env = {"n": n, "ptr": ptr, "col": col, "y": np.zeros(nnz, np.int64)}

        env_i = _copy_env(env)
        run_function(func, env_i)
        env_h = _copy_env(env)
        pf.run(env_h, workers=2, mp_min_trips=16, inspect_min_trips=1)
        _assert_env_equal(env_i, env_h, "csr-scatter injective [hybrid]")
        first = pf.last_inspections["L1"]
        assert first.parallel and not first.cached
        assert pf.last_counters["inspection_passes"] == 1

        # mutate the via array IN PLACE: every other binding identical
        env["col"][:] = np.repeat(np.arange(nnz // 2, dtype=np.int64), 2)[:nnz]
        key_dup = inspector.content_key(pf.inspectors["L1"], env, 0, n)
        env["col"][:] = np.arange(nnz, dtype=np.int64)
        key_inj = inspector.content_key(pf.inspectors["L1"], env, 0, n)
        assert key_dup != key_inj, "content key must hash the via array's bytes"
        env["col"][:] = np.repeat(np.arange(nnz // 2, dtype=np.int64), 2)[:nnz]

        env_i = _copy_env(env)
        run_function(func, env_i)
        env_h = _copy_env(env)
        pf.run(env_h, workers=2, mp_min_trips=16, inspect_min_trips=1)
        _assert_env_equal(env_i, env_h, "csr-scatter duplicates [hybrid]")
        second = pf.last_inspections["L1"]
        assert not second.parallel and not second.cached
        assert second.failed is not None and "indirect-injectivity" in second.failed
        assert pf.last_counters["inspection_refusals"] == 1
        assert pf.last_counters["parallel_activations"] == 0

    @pytest.mark.parametrize("seed", [0, 2])  # one rmw, one scatter variant
    def test_disjoint_sharing_kernel_dispatches_parallel(self, seed):
        """The cross-segment disjoint-array-sharing generator is the
        natural source of inspector-decidable ``unknown`` kernels: both
        write loops into the shared array are statically serial
        ("subscript equality not refuted") and pass runtime inspection
        on every generated input.  End to end, a writer with a
        whole-array body runs as one NumPy op (never inspected); every
        other writer is inspected and dispatches parallel — both
        byte-identical to the interpreter."""
        from repro.parallelizer.planner import plan_function
        from repro.runtime import inspector
        from repro.runtime.parallel import compile_parallel
        from repro.workloads.generators import disjoint_sharing_kernel

        rk = disjoint_sharing_kernel(seed)
        func = build_function(rk.source)
        plan = plan_function(func, method="extended")
        unknown = self._hybrid_candidates(func)
        shared_writers = [
            lbl
            for lbl, lp in plan.loops.items()
            if not lp.parallel and "shr" in (lp.reason or "")
        ]
        assert shared_writers and set(shared_writers) <= set(unknown)

        pf = compile_parallel(func, tier="hybrid")
        assert set(shared_writers) <= set(pf.inspectors)
        env = rk.make_inputs(3000 + seed)
        env_i = _copy_env(env)
        run_function(func, env_i)
        # every shared writer passes inspection over the index maps the
        # fill loops produce (only the fills write ``offa``/``offb``, so
        # the interpreter's final state holds the writers' inputs)
        for lbl in shared_writers:
            res = inspector.inspect(
                pf.inspectors[lbl], env_i, pf.fingerprint, 0, env_i["n"]
            )
            assert res.parallel, (lbl, res.failed)
        env_h = _copy_env(env)
        pf.run(env_h, workers=2, mp_min_trips=4, inspect_min_trips=1)
        _assert_env_equal(env_i, env_h, f"disjoint-sharing seed {seed} [hybrid]")
        per_iteration = [l for l in shared_writers if pf.scheduled[l].vec is None]
        c = pf.last_counters
        assert c["inspections"] == len(per_iteration)
        assert c["inspection_passes"] == len(per_iteration)
        assert c["inspection_refusals"] == 0
        assert c["parallel_activations"] >= len(per_iteration)

    def test_disjoint_sharing_not_in_random_kernel_families(self):
        """Adding the sharing generator to _SEGMENT_FAMILIES would
        reshuffle every existing fuzz seed; pin that it stays a separate
        generator (the pathological_kernel precedent)."""
        from repro.workloads.generators import random_kernel

        for s in range(10):
            assert all(
                "disjoint_shared" not in f for f in random_kernel(s).families
            )

    def test_injective_scatter_dispatches_parallel(self):
        """The positive control: the same shape with a permutation
        index passes inspection and dispatches parallel, byte-identical
        to the interpreter."""
        from repro.runtime.parallel import compile_parallel

        # a per-iteration body (the scalar ``t``): a whole-array body
        # would run as one NumPy op and never reach the inspector
        src = """
        void scat(int a[], int idx[], int b[], int n)
        {
            int i, t;
            for (i = 0; i < n; i++) { t = b[i] + 1; a[idx[i]] = t; }
        }
        """
        func = build_function(src)
        n = 600
        idx = np.random.default_rng(3).permutation(n).astype(np.int64)
        env = {
            "n": n,
            "a": np.zeros(n, np.int64),
            "idx": idx,
            "b": np.arange(n, dtype=np.int64),
        }
        env_i = _copy_env(env)
        run_function(func, env_i)
        pf = compile_parallel(func, tier="hybrid")
        env_h = _copy_env(env)
        pf.run(env_h, workers=2, mp_min_trips=16, inspect_min_trips=1)
        _assert_env_equal(env_i, env_h, "injective-scatter [hybrid]")
        c = pf.last_counters
        assert c["inspection_passes"] == 1
        assert c["parallel_activations"] == 1
        assert pf.last_inspections["L1"].parallel
