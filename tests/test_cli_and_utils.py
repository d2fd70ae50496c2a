"""Tests for the CLI, the table renderer, and the error hierarchy."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cli import main
from repro.errors import (
    AnalysisError,
    IRError,
    InterpreterError,
    LexError,
    ParseError,
    ReproError,
    SymbolicError,
    WorkloadError,
)
from repro.utils import Table, format_table, indent_block, pluralize
from tests.conftest import FIG9_SOURCE


_SCATTER_TMPL = """
void scat(int a[], int idx[], int b[], int n)
{{
    int i, t;
    for (i = 0; i < n; i++) {{ {body} }}
}}
"""


@pytest.fixture()
def fig9_file(tmp_path):
    p = tmp_path / "fig9.c"
    p.write_text(FIG9_SOURCE)
    return str(p)


class TestCli:
    def test_parallelize(self, fig9_file, capsys):
        assert main(["parallelize", fig9_file]) == 0
        out = capsys.readouterr().out
        assert "#pragma omp parallel for private(j,j1)" in out

    def test_parallelize_with_plan_and_trace(self, fig9_file, capsys):
        assert main(["parallelize", fig9_file, "--plan", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "PARALLEL" in out and "Phase 2" in out

    def test_parallelize_baseline_method(self, fig9_file, capsys):
        assert main(["parallelize", fig9_file, "--method", "range"]) == 0
        out = capsys.readouterr().out
        # the baseline cannot parallelize the subscripted-subscript outer
        # loop (it may still pick up the affine inner loop)
        assert "private(j,j1)" not in out

    def test_parallelize_execute(self, tmp_path, capsys):
        from repro.corpus import all_kernels

        path = tmp_path / "branch.c"
        path.write_text(all_kernels()["par_private_branch"].source)
        argv = ["parallelize", str(path), "--execute", "--size", "64", "--workers", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "counters:" in out and "engines agree: yes" in out

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the hybrid tier only inspects on a fork host",
    )
    def test_inspect_per_iteration_scatter_refuses(self, tmp_path, capsys):
        # synthesized indices draw from [0, size): they repeat
        path = tmp_path / "scat.c"
        path.write_text(_SCATTER_TMPL.format(body="t = b[i] + 1; a[idx[i]] = t;"))
        argv = ["inspect", "L1", str(path), "--size", "500", "--workers", "2"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "injectivity" in out and "engines agree: yes" in out

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the hybrid tier only inspects on a fork host",
    )
    def test_inspect_short_activation_is_still_inspected(self, tmp_path, capsys):
        # 200 trips sit below both default thresholds; the command
        # lowers them, so the loop is inspected rather than "0 trips"
        path = tmp_path / "scat.c"
        path.write_text(_SCATTER_TMPL.format(body="t = b[i] + 1; a[idx[i]] = t;"))
        argv = ["inspect", "L1", str(path), "--size", "200", "--workers", "2"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "injectivity" in out and "engines agree: yes" in out

    def test_inspect_single_worker_names_the_reason(self, tmp_path, capsys):
        path = tmp_path / "scat.c"
        path.write_text(_SCATTER_TMPL.format(body="t = b[i] + 1; a[idx[i]] = t;"))
        argv = ["inspect", "L1", str(path), "--size", "500", "--workers", "1"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "never inspected" in out and "--workers" in out
        assert "0 trips" not in out

    def test_inspect_whole_array_scatter_is_not_inspected(self, tmp_path, capsys):
        path = tmp_path / "scat.c"
        path.write_text(_SCATTER_TMPL.format(body="a[idx[i]] = b[i] + 1;"))
        argv = ["inspect", "L1", str(path), "--size", "500", "--workers", "2"]
        assert main(argv) == 1
        assert "whole-array body" in capsys.readouterr().out

    def test_analyze(self, fig9_file, capsys):
        assert main(["analyze", fig9_file, "--vars", "rowptr,count"]) == 0
        out = capsys.readouterr().out
        assert "Monotonic_inc" in out

    def test_figure10_command(self, capsys):
        assert main(["figure10"]) == 0
        out = capsys.readouterr().out
        assert "all paper shape checks hold" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_batch_over_file(self, fig9_file, capsys):
        assert main(["batch", fig9_file]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "L3" in out

    def test_batch_json_to_stdout(self, fig9_file, capsys):
        import json

        assert main(["batch", fig9_file, "--quiet", "--json", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdicts"][0]["parallel_loops"] == ["L3"]

    def test_batch_duplicate_stems_get_unique_labels(self, tmp_path, capsys):
        # two files sharing a basename stem must not abort the batch
        one = tmp_path / "a" / "x.c"
        two = tmp_path / "b" / "x.c"
        for p, body in ((one, "int a[]"), (two, "int b[]")):
            p.parent.mkdir()
            p.write_text(
                "void f(%s, int n) { int i; for (i = 0; i < n; i++) { } }" % body
            )
        assert main(["batch", str(one), str(two)]) == 0
        out = capsys.readouterr().out
        assert "x " in out or "x|" in out.replace(" ", "")
        assert "x-2" in out

    def test_batch_unreadable_file_is_one_error_row(self, fig9_file, tmp_path, capsys):
        import json

        missing = str(tmp_path / "gone.c")
        binary = tmp_path / "bin.c"
        binary.write_bytes(b"\xff\xfe\x00 not utf-8")
        argv = ["batch", missing, fig9_file, str(binary), "--quiet", "--json", "-"]
        assert main(argv) == 1
        rows = {v["name"]: v for v in json.loads(capsys.readouterr().out)["verdicts"]}
        assert sorted(rows) == ["bin", "fig9", "gone"]
        assert rows["fig9"]["parallel_loops"] == ["L3"]  # the others still run
        assert rows["gone"]["error"].startswith(f"cannot read {missing}: ")
        assert rows["bin"]["error"].startswith("cannot read ")
        for name in ("gone", "bin"):  # same keys as every other error row
            assert rows[name]["cache_key"] is None
            assert rows[name]["function"] is None
        assert main(["batch", missing]) == 1
        assert "ERROR: cannot read" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["parallelize", "{f}"],
            ["analyze", "{f}"],
            ["explain", "L1", "{f}"],
            ["inspect", "L1", "{f}"],
        ],
    )
    def test_unreadable_file_is_a_one_line_error(self, argv, tmp_path, capsys):
        missing = str(tmp_path / "gone.c")
        assert main([a.format(f=missing) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot read {missing}: No such file or directory\n"

    def test_bench_analysis_json_and_check(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "BENCH_analysis.json"
        assert (
            main(
                [
                    "bench",
                    "--analysis",
                    "--repeats",
                    "1",
                    "--quiet",
                    "--json",
                    str(out_path),
                    "--check",
                    # generous: this gate trips on order-of-magnitude
                    # regressions, not on a loaded CI runner
                    "--max-sweep-seconds",
                    "30",
                ]
            )
            == 0
        )
        doc = json.loads(out_path.read_text())
        assert doc["summary"]["verdicts_ok"]
        assert doc["corpus_sweep"]["kernels"] == len(doc["per_kernel"])
        assert doc["corpus_sweep"]["seconds_median"] > 0
        assert 0.0 <= doc["memo"]["hit_rate"] <= 1.0
        assert doc["baseline"]["corpus_sweep_seconds_median"] > 0
        assert set(doc["memo"]["tables"]) == {
            "expr.add",
            "expr.mul",
            "expr.minmax",
            "ranges.subst",
            "compare.prover",
            "framework.nest",
            "compiler.functions",
            "parallel.functions",
            "runtime.inspections",
        }

    def test_bench_analysis_check_catches_regression(self):
        from repro.analysis.bench import check_regression

        doc = {
            "corpus_sweep": {"seconds_median": 2.0},
            "summary": {"verdicts_ok": True},
        }
        assert check_regression(doc, max_sweep_seconds=1.0)
        doc["corpus_sweep"]["seconds_median"] = 0.5
        assert check_regression(doc, max_sweep_seconds=1.0) == []
        doc["summary"]["verdicts_ok"] = False
        assert check_regression(doc, max_sweep_seconds=1.0)


class TestTables:
    def test_alignment(self):
        t = Table(["name", "value"], title="demo")
        t.add_row("a", 1)
        t.add_row("long-name", 2.5)
        text = t.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert all(len(l) == len(lines[1]) for l in lines[2:])

    def test_float_formatting(self):
        t = Table(["x"])
        t.add_row(3.14159)
        assert "3.142" in t.render()

    def test_wrong_arity_raises(self):
        t = Table(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_format_table_plain(self):
        text = format_table(["h"], [["v"]])
        assert "h" in text and "v" in text


class TestTextHelpers:
    def test_indent_block(self):
        assert indent_block("a\n\nb", 2) == "  a\n\n  b"

    def test_pluralize(self):
        assert pluralize(1, "loop") == "1 loop"
        assert pluralize(2, "loop") == "2 loops"
        assert pluralize(2, "query", "queries") == "2 queries"


class TestErrors:
    def test_hierarchy(self):
        for exc in (
            LexError("x", 1, 2),
            ParseError("x", 1, 2),
            IRError("x"),
            SymbolicError("x"),
            AnalysisError("x"),
            InterpreterError("x"),
            WorkloadError("x"),
        ):
            assert isinstance(exc, ReproError)

    def test_locations_in_messages(self):
        assert "3:7" in str(LexError("bad", 3, 7))
        assert "2:1" in str(ParseError("bad", 2, 1))
