"""CLI coverage for sweep span recording and the ``spans`` verb.

Exercises ``--spans-out`` / ``REPRO_SPANS`` on real sweeps (serial and
parallel), stdout byte-identity with spans on, the report/json/chrome
formats of ``repro spans``, the ledger hand-off (``runs show`` footer,
span file resolution through the run record), offline ``--from-jsonl``
analysis, and every error exit.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core import experiment

FIGURE_ARGS = [
    "figure4",
    "--benchmarks",
    "gcc",
    "--instructions",
    "1200",
    "--timing-warmup",
    "200",
    "--functional-warmup",
    "5000",
    "--no-progress",
]


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_SPANS", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    experiment.clear_cache()
    yield
    experiment.clear_cache()


def _sweep(tmp_path, capsys, *extra) -> tuple[str, str]:
    """One spanned figure4 sweep; returns (stdout, stderr)."""
    path = str(tmp_path / "spans.jsonl.gz")
    assert main([*FIGURE_ARGS, "--spans-out", path, *extra]) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


class TestSpansRecording:
    def test_spans_out_writes_a_readable_sink(self, tmp_path, capsys):
        from repro.observability.spans import read_spans

        _, err = _sweep(tmp_path, capsys)
        assert "[spans: " in err
        spans = read_spans(str(tmp_path / "spans.jsonl.gz"))
        names = {s["name"] for s in spans}
        assert "sweep" in names
        assert "point" in names
        assert "ledger.append" in names

    def test_stdout_is_byte_identical_with_spans_on(self, tmp_path, capsys):
        assert main([*FIGURE_ARGS, "--cache-dir", str(tmp_path / "a")]) == 0
        plain = capsys.readouterr().out
        assert (
            main(
                [
                    *FIGURE_ARGS,
                    "--cache-dir",
                    str(tmp_path / "b"),
                    "--spans-out",
                    str(tmp_path / "s.jsonl"),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == plain

    def test_parallel_sweep_reassembles_worker_spans(self, tmp_path, capsys):
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("parallel span test assumes fork workers")
        from repro.observability.spans import analyze, read_spans

        _sweep(tmp_path, capsys, "--jobs", "2")
        spans = read_spans(str(tmp_path / "spans.jsonl.gz"))
        procs = {s["proc"] for s in spans if s["name"] == "point"}
        assert any(proc.startswith("worker-") for proc in procs)
        analysis = analyze(spans)
        assert analysis["jobs"] == 2
        assert analysis["critical_path_seconds"] <= analysis["wall_seconds"] * 1.01

        # The coordinator writes each chunk's spans from its chunk result:
        # every point hangs off a chunk of its own trace, and a chunk's
        # queue wait ends when its worker started, before its points.
        by_id = {s["span"]: s for s in spans}
        points = [s for s in spans if s["name"] == "point"]
        assert points
        starts: dict[str, float] = {}
        for point in points:
            chunk = by_id[point["parent"]]
            assert chunk["name"] == "chunk"
            assert chunk["trace"] == point["trace"]
            starts[chunk["span"]] = min(
                starts.get(chunk["span"], point["t0"]), point["t0"]
            )
        waits = [s for s in spans if s["name"] == "chunk.wait"]
        assert {wait["parent"] for wait in waits} >= set(starts)
        for wait in waits:
            if wait["parent"] in starts:
                # Both ends are rounded to the microsecond.
                assert wait["t0"] + wait["dur"] <= starts[wait["parent"]] + 2e-6
        assert not {"point.run", "point.prepare"} & {s["name"] for s in spans}

    def test_env_var_activates_recording(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "env-spans.jsonl")
        monkeypatch.setenv("REPRO_SPANS", path)
        assert main(FIGURE_ARGS) == 0
        assert "[spans: " in capsys.readouterr().err
        assert (tmp_path / "env-spans.jsonl").exists()

    def test_non_sweep_verbs_do_not_record(self, tmp_path, capsys):
        path = tmp_path / "no-spans.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["cache", "info", "--spans-out", str(path)])
        assert excinfo.value.code == 2
        assert not path.exists()


class TestSpansVerb:
    def test_report_resolves_last_run(self, tmp_path, capsys):
        _sweep(tmp_path, capsys)
        assert main(["spans", "last"]) == 0
        out = capsys.readouterr().out
        assert "ideal speedup" in out
        assert "critical path:" in out
        assert "by span name:" in out

    def test_ref_defaults_to_last(self, tmp_path, capsys):
        _sweep(tmp_path, capsys)
        assert main(["spans"]) == 0
        assert "ideal speedup" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        _sweep(tmp_path, capsys)
        assert main(["spans", "last", "--format", "json"]) == 0
        analysis = json.loads(capsys.readouterr().out)
        assert analysis["jobs"] == 1
        assert analysis["span_count"] > 0
        assert analysis["critical_path_seconds"] <= analysis["wall_seconds"] * 1.01

    def test_chrome_format_writes_perfetto_tracks(self, tmp_path, capsys):
        _sweep(tmp_path, capsys)
        out_path = tmp_path / "spans.trace.json"
        assert (
            main(["spans", "last", "--format", "chrome", "--trace-out", str(out_path)])
            == 0
        )
        assert "Chrome trace event(s)" in capsys.readouterr().out
        document = json.loads(out_path.read_text(encoding="utf-8"))
        tracks = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert "coordinator" in tracks

    def test_chrome_default_output_name(self, tmp_path, capsys):
        _sweep(tmp_path, capsys)
        assert main(["spans", "last", "--format", "chrome"]) == 0
        assert (tmp_path / "spans.trace.json").exists()

    def test_from_jsonl_offline(self, tmp_path, capsys):
        _sweep(tmp_path, capsys)
        source = str(tmp_path / "spans.jsonl.gz")
        assert main(["spans", "--from-jsonl", source]) == 0
        assert "ideal speedup" in capsys.readouterr().out

    def test_run_ledger_footer_in_runs_show(self, tmp_path, capsys):
        _sweep(tmp_path, capsys)
        assert main(["runs", "show", "last"]) == 0
        out = capsys.readouterr().out
        assert "wall" in out  # per-point wall-clock column
        assert "spans:" in out
        assert "spans.jsonl.gz" in out

    def test_point_rows_carry_seconds(self, tmp_path, capsys):
        _sweep(tmp_path, capsys)
        assert main(["runs", "show", "last", "--format", "json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert all(row["seconds"] >= 0 for row in record["points"])
        assert record["spans"]["recorded"] > 0
        assert record["spans"]["trace"].startswith(record["plan_digest"][:12])


class TestSpansVerbErrors:
    def test_no_runs_recorded(self, capsys):
        assert main(["spans", "last"]) == 2
        assert "no run matches" in capsys.readouterr().err

    def test_run_without_spans(self, tmp_path, capsys):
        assert main(FIGURE_ARGS) == 0
        capsys.readouterr()
        assert main(["spans", "last"]) == 2
        assert "recorded no spans" in capsys.readouterr().err

    def test_missing_span_file(self, tmp_path, capsys):
        _sweep(tmp_path, capsys)
        (tmp_path / "spans.jsonl.gz").unlink()
        assert main(["spans", "last"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_from_jsonl_missing_file(self, tmp_path, capsys):
        assert main(["spans", "--from-jsonl", str(tmp_path / "nope.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_from_jsonl_rejects_a_ref(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["spans", "last", "--from-jsonl", str(tmp_path / "x.jsonl")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --from-jsonl: not allowed with argument ref" in err

    def test_extra_refs_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["spans", "last", "extra"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: extra" in capsys.readouterr().err

    def test_unknown_format(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["spans", "last", "--format", "BOGUS"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "argument --format: invalid choice: 'bogus'" in err
