"""The parallel engine's own contract, beyond the differential suite:

* ordered reductions are **byte-identical** to sequential execution
  (``float.hex`` equality) at every worker count, through the worker
  fabric on small and large activations alike (``workers=1`` never
  dispatches and runs the serial closures);
* scalar privatization: a written-before-read scalar parallelizes, a
  carried scalar derives no schedule and takes the serial path;
* schedule validation records problems instead of executing invalid
  plans;
* the degradation ladder: an injected chunk/shm failure rolls back,
  replays serially, and files an ``engine:compiled`` fallback note —
  and ``REPRO_FALLBACKS=0`` turns it back into the raw exception;
* program errors (OOB, budget) reproduce the interpreter's exact error
  and partial effects even when they happen inside a worker chunk.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.corpus import all_kernels
from repro.ir import build_function
from repro.parallelizer import ParallelSchedule, derive_schedule, plan_function
from repro.runtime import (
    compile_parallel,
    execute,
    run_function,
    run_parallel,
    schedules_for,
)
from repro.runtime import fabric
from repro.runtime.parallel import MP_MIN_TRIPS
from repro.service import faults

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()

REDUCE_SRC = all_kernels()["par_reduce_mix"].source
BRANCH_SRC = all_kernels()["par_private_branch"].source
CARRIED_SRC = all_kernels()["par_carried_serial"].source


def _reduce_env(n: int) -> dict:
    rng = np.random.default_rng(7)
    return {
        "a": rng.uniform(-3.0, 3.0, size=n),
        "s": 0.125,
        "lo": np.inf,
        "hi": -np.inf,
        "n": n,
    }


def _branch_env(n: int) -> dict:
    rng = np.random.default_rng(11)
    return {
        "a": rng.integers(-9, 10, size=n).astype(np.int64),
        "out": np.zeros(n, dtype=np.int64),
        "n": n,
    }


def _copy(env: dict) -> dict:
    return {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in env.items()}


class TestReductionDeterminism:
    """The reduction event stream replays the exact sequential op order."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_small_n_byte_identical(self, workers):
        if workers > 1 and not HAVE_FORK:
            pytest.skip("fabric dispatch needs the fork start method")
        func = build_function(REDUCE_SRC)
        base = _reduce_env(48)  # small: dispatched only at mp_min_trips=1
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        pf.run(env, workers=workers, mp_min_trips=1)
        if workers == 1:
            assert pf.last_counters["parallel_activations"] == 0
        else:
            assert pf.last_counters["mp_chunks"] == workers
        for name in ("s", "lo", "hi"):
            assert float(env[name]).hex() == float(ref[name]).hex(), name

    @pytest.mark.parametrize("workers", [2, 4])
    def test_mp_byte_identical(self, workers):
        if not HAVE_FORK:
            pytest.skip("multiprocessing strategy needs the fork start method")
        func = build_function(REDUCE_SRC)
        n = max(MP_MIN_TRIPS, 4 * workers) * 2
        base = _reduce_env(n)
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        pf.run(env, workers=workers)
        assert pf.last_counters["mp_chunks"] == workers  # the pool really ran
        for name in ("s", "lo", "hi"):
            assert float(env[name]).hex() == float(ref[name]).hex(), name

    def test_schedule_names_all_three_reductions(self):
        func = build_function(REDUCE_SRC)
        (sched,) = schedules_for(func).values()
        assert sched.ok
        assert sorted((r.name, r.op) for r in sched.reductions) == [
            ("hi", "max"),
            ("lo", "min"),
            ("s", "+"),
        ]
        assert "t" in sched.private


WHOLE_ARRAY_SRC = """
void vadd(int out[], int x[], int y[], int n)
{
    int i;
    for (i = 0; i < n; i++) { out[i] = x[i] + y[i]; }
}
"""


def _vadd_env(n: int) -> dict:
    rng = np.random.default_rng(5)
    return {
        "out": np.zeros(n, dtype=np.int64),
        "x": rng.integers(-1000, 1000, size=n).astype(np.int64),
        "y": rng.integers(-1000, 1000, size=n).astype(np.int64),
        "n": n,
    }


class TestWholeArrayDecision:
    """A scheduled activation settles on the compiled engine's
    whole-array NumPy op whenever that op commits; only a declined
    activation (or a body without one) reaches the fabric or the
    hybrid tier's inspector."""

    def _run(self, base: dict):
        func = build_function(WHOLE_ARRAY_SRC)
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        assert pf.scheduled["L1"].vec is not None
        env = _copy(base)
        pf.run(env, workers=2)
        assert np.array_equal(env["out"], ref["out"])
        return pf

    def test_commit_stays_off_the_fabric(self):
        before = fabric.fabric_stats()
        pf = self._run(_vadd_env(4096))
        after = fabric.fabric_stats()
        assert pf.last_counters["mp_chunks"] == 0
        assert pf.last_stats.vec_activations == 1
        assert after["dispatches"] == before["dispatches"]
        assert after["arena"]["leases"] == before["arena"]["leases"]

    def test_decline_dispatches(self):
        if not HAVE_FORK:
            pytest.skip("fabric dispatch needs the fork start method")
        base = _vadd_env(4096)
        # every sum fits int64, but the whole-array bound guard
        # (max|x| + max|y|) cannot prove it and declines
        base["x"][0] = base["y"][1] = 2**62 + 1
        pf = self._run(base)
        assert pf.last_stats.vec_fallbacks == 1
        assert pf.last_counters["mp_chunks"] == 2

    def test_hybrid_whole_array_loop_is_not_inspected(self):
        src = """
        void scat(int a[], int idx[], int b[], int n)
        {
            int i;
            for (i = 0; i < n; i++) { a[idx[i]] = b[i] + 1; }
        }
        """
        func = build_function(src)
        n = 4096
        base = {
            "a": np.zeros(n, dtype=np.int64),
            "idx": np.random.default_rng(3).permutation(n).astype(np.int64),
            "b": np.arange(n, dtype=np.int64),
            "n": n,
        }
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func, tier="hybrid")
        assert "L1" in pf.inspectors  # statically unknown: a hybrid candidate
        assert pf.scheduled["L1"].vec is not None
        env = _copy(base)
        pf.run(env, workers=2, mp_min_trips=8, inspect_min_trips=1)
        assert pf.last_counters["inspections"] == 0
        assert pf.last_counters["mp_chunks"] == 0
        assert pf.last_stats.vec_activations == 1
        assert np.array_equal(env["a"], ref["a"])


class TestPrivatization:
    def test_private_scalar_parallelizes(self):
        func = build_function(BRANCH_SRC)
        scheds = schedules_for(func)
        assert scheds["L1"].ok and "t" in scheds["L1"].private

    def test_mp_shared_memory_writeback(self):
        if not HAVE_FORK:
            pytest.skip("multiprocessing strategy needs the fork start method")
        func = build_function(BRANCH_SRC)
        n = MP_MIN_TRIPS * 8
        base = _branch_env(n)
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        pf.run(env, workers=2)
        assert pf.last_counters["mp_chunks"] == 2
        assert np.array_equal(env["out"], ref["out"])
        # the final private value is the last chunk's, i.e. sequential's
        assert env["t"] == ref["t"]

    def test_carried_scalar_forces_serial_path(self):
        func = build_function(CARRIED_SRC)
        assert schedules_for(func) == {}  # no PARALLEL verdict, no schedule
        base = {"a": np.zeros(64), "s": 3.0, "n": 64}
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        pf.run(env, workers=4)
        assert pf.last_counters["parallel_activations"] == 0
        assert np.array_equal(env["a"], ref["a"]) and env["s"] == ref["s"]


class TestScheduleValidation:
    def test_serial_plan_is_a_problem(self):
        func = build_function(CARRIED_SRC)
        plan = plan_function(func)
        (loop,) = func.loops()
        sched = derive_schedule(loop, plan.loops["L1"], func.symtab)
        assert not sched.ok
        assert any("serial" in p or "carried" in p for p in sched.problems), (
            sched.problems
        )

    def test_break_is_a_problem(self):
        src = """
        void early(int a[], int n)
        {
            int i;
            for (i = 0; i < n; i++) {
                if (a[i] < 0) { break; }
                a[i] = a[i] + 1;
            }
        }
        """
        func = build_function(src)
        plan = plan_function(func)
        (loop,) = func.loops()
        sched = derive_schedule(loop, plan.loops["L1"], func.symtab)
        assert not sched.ok and any("break" in p for p in sched.problems)

    def test_chunks_cover_contiguously(self):
        for trips, parts in [(10, 3), (256, 4), (5, 8), (1, 1)]:
            chunks = ParallelSchedule.chunks(trips, parts)
            assert sum(c for _, c in chunks) == trips
            pos = 0
            for first, count in chunks:
                assert first == pos and count >= 1
                pos += count
            sizes = [c for _, c in chunks]
            assert max(sizes) - min(sizes) <= 1  # near-equal


class TestDegradationLadder:
    def test_injected_worker_fault_replays_serially(self):
        func = build_function(BRANCH_SRC)
        base = _branch_env(512)
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        faults.drain_fallback_notes()
        with faults.injected("engine.parallel.worker:par_private_branch"):
            pf.run(env, workers=2)
        assert np.array_equal(env["out"], ref["out"])
        assert pf.last_counters["serial_fallbacks"] == 1
        notes = faults.drain_fallback_notes()
        assert any(
            kind == "engine:compiled" and "FaultInjected" in detail
            for kind, detail in notes
        ), notes

    def test_injected_shm_fault_replays_serially(self):
        if not HAVE_FORK:
            pytest.skip("multiprocessing strategy needs the fork start method")
        func = build_function(BRANCH_SRC)
        base = _branch_env(MP_MIN_TRIPS * 8)
        ref = _copy(base)
        run_function(func, ref)
        pf = compile_parallel(func)
        env = _copy(base)
        faults.drain_fallback_notes()
        with faults.injected("engine.parallel.shm:par_private_branch"):
            pf.run(env, workers=2)
        assert np.array_equal(env["out"], ref["out"])
        assert pf.last_counters["mp_chunks"] == 0
        assert any(
            kind == "engine:compiled" for kind, _ in faults.drain_fallback_notes()
        )

    def test_kill_switch_surfaces_the_fault(self, monkeypatch):
        monkeypatch.setenv("REPRO_FALLBACKS", "0")
        func = build_function(BRANCH_SRC)
        env = _branch_env(512)
        with faults.injected("engine.parallel.worker:par_private_branch"):
            with pytest.raises(faults.FaultInjected):
                run_parallel(func, env, workers=2)

    def test_execute_ladder_rolls_back_to_compiled(self, monkeypatch):
        # a fault below run_parallel is handled *inside* the engine; a
        # fault in the compiled rung after an injected parallel failure
        # exercises execute()'s own rung ordering
        func = build_function(BRANCH_SRC)
        base = _branch_env(64)
        ref = _copy(base)
        run_function(func, ref)
        env = _copy(base)
        out = execute(func, env, engine="parallel")
        assert np.array_equal(out["out"], ref["out"])

    def test_repro_engine_env_selects_parallel(self, monkeypatch):
        from repro.runtime import default_engine

        monkeypatch.setenv("REPRO_ENGINE", "parallel")
        assert default_engine() == "parallel"
        func = build_function(BRANCH_SRC)
        base = _branch_env(48)
        ref = _copy(base)
        run_function(func, ref)
        env = _copy(base)
        execute(func, env)  # no explicit engine: honours REPRO_ENGINE
        assert np.array_equal(env["out"], ref["out"])


class TestProgramErrorsReproduceExactly:
    OOB_SRC = """
    void oob(int a[], int out[], int n)
    {
        int i, t;
        for (i = 0; i < n; i++) {
            t = a[i] + 1;
            out[i + 1] = t;
        }
    }
    """

    @pytest.mark.parametrize("workers", [1, 2])
    def test_oob_error_and_partial_effects_match(self, workers):
        from repro.errors import InterpreterError

        func = build_function(self.OOB_SRC)
        n = 64
        base = {
            "a": np.arange(n, dtype=np.int64),
            "out": np.zeros(n, dtype=np.int64),
            "n": n,
        }
        ref = _copy(base)
        with pytest.raises(InterpreterError) as e_ref:
            run_function(func, ref)
        env = _copy(base)
        with pytest.raises(InterpreterError) as e_par:
            run_parallel(func, env, workers=workers)
        assert str(e_par.value) == str(e_ref.value)
        assert np.array_equal(env["out"], ref["out"])  # same partial writes

    def test_step_budget_matches_compiled(self):
        from repro.errors import InterpreterError

        func = build_function(BRANCH_SRC)
        env = _branch_env(2048)
        ref = _copy(env)
        with pytest.raises(InterpreterError) as e_ref:
            run_function(func, ref, max_steps=500)
        with pytest.raises(InterpreterError) as e_par:
            run_parallel(func, env, max_steps=500, workers=2)
        assert type(e_par.value) is type(e_ref.value)
