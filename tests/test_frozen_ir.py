"""The IR is immutable after the build, fingerprinted once, and the
runtime's lowering caches key on that fingerprint.

Annotation is a printer overlay, so planning never changes the IR text
or the fingerprint; the annotated C stays what the in-place annotation
used to print (pinned by digest per corpus kernel).
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.analysis import PropertyEnv
from repro.corpus import all_kernels
from repro.ir import build_function, build_program, function_to_c
from repro.ir import printer as ir_printer
from repro.ir.nodes import IRFunction
from repro.ir.symtab import ElemType, VarInfo
from repro.parallelizer import parallelize
from repro.runtime.compiler import compile_function
from repro.runtime.parallel import compile_parallel
from repro.symbolic.expr import clear_memo_tables, memo_stats

#: sha256[:16] of ``parallelize(k.source, assertions=k.assertion_env())
#: .annotated_c`` per corpus kernel, recorded while the planner still
#: wrote its pragmas into the IR
ANNOTATED_C_DIGESTS = {
    "blocked_counter_fill": "dd707f5115f9f645",
    "btf_scatter": "b2aad7065f70787e",
    "colamd_heads": "adbc099ed7831db1",
    "csr_gather_accum": "108bcf5e46ff6fd2",
    "cx_match": "c60945e27dbc2597",
    "dc_views": "1f8ccb0b1da8432c",
    "fig2_ua_injective": "43b65bdf79b05681",
    "fig3_cg_monotonic": "22d4d653fb1d4cc3",
    "fig4_cg_monodiff": "aa62a85b20d5b0a2",
    "fig5_csparse_subset": "27c82e4d54c5eab9",
    "fig6_csparse_simul": "de2f30d81c846d63",
    "fig7_ua_simul_inj": "ae8f4b935d5fb371",
    "fig8_ua_disjoint": "d8ec43f85c7a081c",
    "fig9_csr_product": "ccb4fdbc0b798d0d",
    "ft_indexmap": "14fffbe0edc18b4d",
    "guarded_prefix_fill": "a43f69edb41b580b",
    "histogram_serial": "74c76c5a3ffc5484",
    "inv_perm_scatter": "300ff488fc5dc9ef",
    "is_bucket": "022e4da630e728aa",
    "lu_pivot": "31e4f4483ade5268",
    "par_carried_serial": "1f857ba0a1e17cd3",
    "par_private_branch": "a2f64b4c459d4a87",
    "par_reduce_mix": "ea5ab992cdab0e43",
    "perm_row_scatter": "323aaaae059880a0",
    "strict_mono_kernel": "929cc0a29626d90c",
}

_SCATTER = """
void scat(int a[], int idx[], int b[], int n)
{
    int i, t;
    for (i = 0; i < n; i++) { t = b[i] + 1; a[idx[i]] = t; }
}
"""


def _stmts(func: IRFunction):
    def walk(stmts):
        for s in stmts:
            yield s
            for b in s.blocks():
                yield from walk(b)

    return list(walk(func.body))


class TestImmutability:
    @pytest.mark.parametrize("name", sorted(ANNOTATED_C_DIGESTS))
    def test_every_field_refuses_assignment(self, name):
        func = build_function(all_kernels()[name].source)
        nodes: list = [func, *_stmts(func)]
        for node in nodes:
            for f in dataclasses.fields(node):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(node, f.name, getattr(node, f.name))

    def test_bodies_are_tuples(self):
        func = build_function(all_kernels()["fig9_csr_product"].source)
        assert isinstance(func.body, tuple)
        blocks = [b for s in _stmts(func) for b in s.blocks()]
        assert blocks and all(isinstance(b, tuple) for b in blocks)

    def test_nodes_stay_unhashable(self):
        func = build_function(_SCATTER)
        for node in (func, *_stmts(func)):
            with pytest.raises(TypeError):
                hash(node)

    def test_declare_after_build_raises(self):
        func = build_function(_SCATTER)
        info = VarInfo("late", ElemType.INT)
        for tab in (func.symtab, func.symtab.parent):
            with pytest.raises(dataclasses.FrozenInstanceError):
                tab.declare(info)
        prog = build_program("int g; " + _SCATTER)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prog.globals.declare(info)

    def test_labels_are_set_in_program_order(self):
        func = build_function(
            "void f(int n, int a[]) { int i, j, k;"
            " for (i = 0; i < n; i++) { for (j = 0; j < n; j++) a[j] = i;"
            "   while (k > 0) { k = k - 1; } }"
            " if (n > 0) { for (i = 0; i < n; i++) a[i] = 0; } }"
        )
        labels = [s.label for s in _stmts(func) if hasattr(s, "label")]
        assert labels == ["L1", "L1.1", "L1.2", "L2"]


class TestAnnotationOverlay:
    @pytest.mark.parametrize("name", sorted(ANNOTATED_C_DIGESTS))
    def test_parallelize_leaves_the_ir_alone(self, name):
        k = all_kernels()[name]
        func = build_function(k.source)
        text, fp = function_to_c(func), func.fingerprint
        out = parallelize(func, assertions=k.assertion_env())
        assert function_to_c(func) == text
        assert func.fingerprint == fp
        digest = hashlib.sha256(out.annotated_c.encode("utf-8")).hexdigest()[:16]
        assert digest == ANNOTATED_C_DIGESTS[name]

    def test_planned_pragma_replaces_the_sources_omp_pragmas(self):
        src = _SCATTER.replace(
            "    for (i", "#pragma unroll\n#pragma omp parallel for\n    for (i"
        ).replace("a[idx[i]] = t;", "a[i] = t;")
        out = parallelize(src)
        assert out.parallel_loops == ["L1"]
        assert "    #pragma unroll\n    #pragma omp parallel for private(t)\n" in out.annotated_c
        assert out.annotated_c.count("#pragma omp") == 1
        # the unannotated print keeps the source's own pragmas
        assert "#pragma omp parallel for\n" in function_to_c(out.func)

    def test_verdict_path_never_fingerprints(self):
        out = parallelize(all_kernels()["fig9_csr_product"].source)
        assert out.func._fingerprint is None


class TestContentKeyedCaches:
    def test_two_builds_share_one_compiled_function(self):
        f1, f2 = build_function(_SCATTER), build_function(_SCATTER)
        assert f1 is not f2 and f1.fingerprint == f2.fingerprint
        assert compile_function(f1) is compile_function(f2)

    def test_compiled_cache_is_a_registered_memo_table(self):
        func = build_function(_SCATTER)
        cf = compile_function(func)
        assert memo_stats()["tables"]["compiler.functions"] >= 1
        clear_memo_tables()
        assert memo_stats()["tables"]["compiler.functions"] == 0
        assert compile_function(func) is not cf  # genuinely cold again

    def test_parallelize_between_lookups_hits(self):
        func = build_function(all_kernels()["fig9_csr_product"].source)
        pf = compile_parallel(func)
        parallelize(func)
        assert compile_parallel(func) is pf

    def test_warm_lookup_prints_nothing(self, monkeypatch):
        func = build_function(_SCATTER)
        pf = compile_parallel(func)
        calls = []
        real = ir_printer._print_function
        monkeypatch.setattr(
            ir_printer, "_print_function", lambda *a, **kw: calls.append(1) or real(*a, **kw)
        )
        for _ in range(3):
            assert compile_parallel(func) is pf
            assert compile_function(func) is compile_function(func)
        assert calls == []

    def test_assertion_sets_never_share_worker_closures(self):
        k = all_kernels()["csr_gather_accum"]
        func = build_function(k.source)
        asserted = compile_parallel(func, k.assertion_env())
        bare = compile_parallel(func, PropertyEnv())
        assert asserted is not bare
        assert asserted.fingerprint != bare.fingerprint
        shared = set(asserted.task_headers) & set(bare.task_headers)
        assert shared  # the same label is scheduled under both
        for label in shared:
            assert asserted.task_headers[label][0] != bare.task_headers[label][0]

    def test_mutated_assertions_miss(self):
        k = all_kernels()["csr_gather_accum"]
        func = build_function(k.source)
        env = PropertyEnv()
        bare = compile_parallel(func, env)
        for name, rec in k.assertion_env().records.items():
            env.records[name] = rec
        assert compile_parallel(func, env) is not bare



def test_bench_gate_fails_a_slow_lookup():
    from repro.runtime.bench import check_regression

    entry = {
        "name": "k",
        "oracle": {"speedup": 10.0},
        "engines_agree": True,
        "execute": {
            "compiled": {"seconds": 200e-6},
            "whole_array_only": True,
            "parallel_dispatches": 0,
            "parallel_lookup_us": 9.0,
        },
    }
    doc = {"kernels": [entry], "fuzz_sweep": {"verdicts_agree": True}}
    assert check_regression(doc) == []
    entry["execute"]["parallel_lookup_us"] = 11.0  # > 0.05 x 200us
    (problem,) = check_regression(doc)
    assert "warm parallel lookup 11.0us" in problem
