"""CLI coverage for the observability verbs: trace, metrics, diagnose,
counters, compare.

Exercises exit codes, ``--format`` validation (one-line parser error,
case-insensitive values), gzip trace output, the loud dropped-events
warning, ``REPRO_TRACE`` env pickup, offline ``--from-jsonl``
conversion, ``metrics --attribution``, the interval-counter verbs
(table/json/csv/chrome, the A/B compare report, ``diagnose
--from-counters``), and the store rule that observation is part of a
design point: observed results are stored under observed keys, apart
from plain ones, and a warm observing verb is served by the store.
"""

from __future__ import annotations

import gzip
import json
import multiprocessing
import re

import pytest

from repro.cli import main
from repro.core import experiment
from repro.engine.store import SCHEMA_VERSION
from repro.observability.trace import DEFAULT_CAPACITY, read_records

FAST_FLAGS = [
    "--instructions",
    "1500",
    "--timing-warmup",
    "300",
    "--functional-warmup",
    "20000",
]


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    """Isolate every CLI run: cwd, store, env, in-process memo."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_ATTRIBUTION", raising=False)
    monkeypatch.delenv("REPRO_COUNTER_INTERVAL", raising=False)
    experiment.clear_cache()
    yield
    experiment.clear_cache()


class TestTraceVerb:
    def test_jsonl_default(self, capsys):
        assert main(["trace", "gcc", *FAST_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "Event stream" in out
        assert "mem.load" in out

    def test_unknown_format_is_a_one_line_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "gcc", "--format", "BOGUS", *FAST_FLAGS])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "argument --format: invalid choice: 'bogus'" in err
        assert "choose from 'jsonl', 'chrome'" in err

    def test_format_is_case_insensitive(self, tmp_path, capsys):
        assert main(["trace", "gcc", "--format", "CHROME", *FAST_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "Chrome trace event(s)" in out
        document = json.loads(
            (tmp_path / "gcc.trace.json").read_text(encoding="utf-8")
        )
        assert document["traceEvents"]

    def test_trace_out_gzip(self, tmp_path, capsys):
        out_path = tmp_path / "stream.jsonl.gz"
        assert main(
            ["trace", "gcc", "--trace-out", str(out_path), *FAST_FLAGS]
        ) == 0
        with gzip.open(out_path, "rt", encoding="utf-8") as handle:
            first = json.loads(handle.readline())
        assert "kind" in first and "cycle" in first

    def test_dropped_events_warn_loudly(self, capsys):
        assert main(["trace", "gcc", "--trace-limit", "8", *FAST_FLAGS]) == 0
        err = capsys.readouterr().err
        assert "warning: ring overflowed" in err
        assert "event(s) dropped" in err

    def test_missing_benchmark_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace"])
        assert excinfo.value.code == 2
        assert "takes a benchmark name" in capsys.readouterr().err


class TestFromJsonl:
    def _make_stream(self, tmp_path, name):
        path = tmp_path / name
        assert main(
            ["trace", "gcc", "--trace-out", str(path), *FAST_FLAGS]
        ) == 0
        return path

    def test_converts_gzip_stream(self, tmp_path, capsys):
        source = self._make_stream(tmp_path, "events.jsonl.gz")
        capsys.readouterr()
        assert main(
            ["trace", "--from-jsonl", str(source), "--format", "chrome"]
        ) == 0
        assert "Chrome trace event(s)" in capsys.readouterr().out
        converted = tmp_path / "events.trace.json"
        assert json.loads(converted.read_text(encoding="utf-8"))["traceEvents"]

    def test_requires_chrome_format(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--from-jsonl", str(tmp_path / "x.jsonl")])
        assert excinfo.value.code == 2
        assert "--from-jsonl requires --format chrome" in capsys.readouterr().err

    def test_rejects_extra_benchmark(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "trace",
                    "gcc",
                    "--from-jsonl",
                    str(tmp_path / "x.jsonl"),
                    "--format",
                    "chrome",
                ]
            )
        assert excinfo.value.code == 2
        assert "drop the benchmark name" in capsys.readouterr().err


class TestMetricsVerb:
    def test_plain_metrics(self, capsys):
        assert main(["metrics", "gcc", *FAST_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "memory.loads" in out
        assert "attribution." not in out

    def test_attribution_metrics(self, capsys):
        assert main(["metrics", "gcc", "--attribution", *FAST_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "attribution.latency.p95" in out
        assert "attribution.component." in out

    def test_attribution_does_not_pollute_the_store(self, capsys):
        assert main(["metrics", "gcc", "--attribution", *FAST_FLAGS]) == 0
        experiment.clear_cache()
        capsys.readouterr()
        assert main(["metrics", "gcc", *FAST_FLAGS]) == 0
        assert "attribution." not in capsys.readouterr().out


class TestDiagnoseVerb:
    def test_diagnose_reports_and_exits_zero(self, capsys):
        assert main(["diagnose", "tomcatv", *FAST_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "Stall-source diagnosis: tomcatv" in out
        assert "cf. Fig. 5" in out
        assert "bank conflicts" in out

    def test_missing_benchmark_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["diagnose"])
        assert excinfo.value.code == 2
        assert "required: benchmark" in capsys.readouterr().err

    def test_unknown_benchmark_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["diagnose", "doom"])
        assert excinfo.value.code == 2


class TestReproTraceEnv:
    def test_env_trace_gzip_pickup(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "env-stream.jsonl.gz"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        assert main(["metrics", "gcc", *FAST_FLAGS]) == 0
        err = capsys.readouterr().err
        assert "[REPRO_TRACE:" in err and str(path) in err
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            assert sum(1 for _ in handle) > 0

    def test_env_trace_plain_pickup(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "env-stream.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        assert main(["metrics", "gcc", *FAST_FLAGS]) == 0
        assert json.loads(path.read_text(encoding="utf-8").splitlines()[0])

    def test_env_trace_holds_cycle_events_only(self, tmp_path, monkeypatch):
        path = tmp_path / "sweep.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        argv = ["figure4", "--benchmarks", "gcc", "--jobs", "1", *FAST_FLAGS]
        assert main(argv) == 0
        kinds = {record["kind"] for record in read_records(path)}
        assert kinds and all(kind.startswith(("cpu.", "mem.")) for kind in kinds)

    def test_env_trace_leaves_the_store_alone(self, tmp_path, monkeypatch, capsys):
        """A stream longer than the default ring drops nothing, warns
        nothing, and stores the same bytes as an untraced run."""
        argv = ["figure4", "--benchmarks", "gcc", "--jobs", "1", *FAST_FLAGS]
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "plain"))
        assert main(argv) == 0
        capsys.readouterr()
        experiment.clear_cache()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "traced"))
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "sweep.jsonl.gz"))
        assert main(argv) == 0
        err = capsys.readouterr().err
        emitted = int(re.search(r"\[REPRO_TRACE: (\d+) event", err).group(1))
        assert emitted > DEFAULT_CAPACITY
        assert "overflowed" not in err
        plain = _store_bytes(tmp_path / "plain")
        assert plain and _store_bytes(tmp_path / "traced") == plain

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="only forked workers inherit the parent's tracer",
    )
    def test_env_trace_with_a_pool_stays_readable(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "sweep.jsonl.gz"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        argv = ["figure4", "--benchmarks", "gcc", "--jobs", "2", *FAST_FLAGS]
        assert main(argv) == 0
        err = capsys.readouterr().err
        emitted = int(re.search(r"\[REPRO_TRACE: (\d+) event", err).group(1))
        assert sum(1 for _ in read_records(path)) == emitted


#: The ``observe`` part of a key sampled every 300 instructions.
SAMPLED_300 = {"counter_interval": 300, "attribution": False}


def _stored_observers(root) -> list:
    """Each store entry's ``settings.observe`` (``None``: a plain key)."""
    return [
        json.loads(path.read_text(encoding="utf-8"))["key"]["settings"].get(
            "observe"
        )
        for path in sorted(root.glob("v*/??/*.json"))
    ]


def _store_bytes(root) -> dict:
    """Every file of a store's current-schema tree, by relative path."""
    tree = root / f"v{SCHEMA_VERSION}"
    return {
        str(path.relative_to(tree)): path.read_bytes()
        for path in sorted(tree.rglob("*"))
        if path.is_file()
    }


class TestCountersVerb:
    def test_table_default_with_sparklines(self, capsys):
        assert main(
            ["counters", "gcc", "--interval", "300", *FAST_FLAGS]
        ) == 0
        out = capsys.readouterr().out
        assert "Interval counters (300 instructions/interval" in out
        assert "sampled" in out
        assert "bank_conflict_rate" in out  # the sparkline block

    def test_json_carries_the_full_series(self, capsys):
        assert main(
            [
                "counters",
                "gcc",
                "--interval",
                "300",
                "--format",
                "json",
                *FAST_FLAGS,
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        series = payload["counters"]
        assert series["interval"] == 300
        assert series["columns"][0] == "instructions"
        assert sum(series["data"][0]) == 1500

    def test_csv_has_header_and_rows(self, capsys):
        assert main(
            [
                "counters",
                "gcc",
                "--interval",
                "300",
                "--format",
                "csv",
                *FAST_FLAGS,
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("index,instructions,cycles,partial")
        assert len(lines) == 1 + 5  # 1500 instructions / 300 per row

    def test_chrome_merges_counter_tracks(self, tmp_path, capsys):
        assert main(
            [
                "counters",
                "gcc",
                "--interval",
                "300",
                "--format",
                "chrome",
                *FAST_FLAGS,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "counter-track sample(s)" in out
        document = json.loads(
            (tmp_path / "gcc.counters.trace.json").read_text(
                encoding="utf-8"
            )
        )
        counter_events = [
            e for e in document["traceEvents"] if e.get("ph") == "C"
        ]
        assert counter_events
        assert any(": ipc" in e["name"] for e in counter_events)

    def test_counters_do_not_pollute_the_store(self, tmp_path, capsys):
        assert main(
            ["counters", "gcc", "--interval", "300", *FAST_FLAGS]
        ) == 0
        assert _stored_observers(tmp_path / "store") == [SAMPLED_300]

    def test_bad_interval_is_a_parser_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["counters", "gcc", "--interval", "0", *FAST_FLAGS])
        assert excinfo.value.code == 2

    def test_unknown_format_lists_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["counters", "gcc", "--format", "BOGUS", *FAST_FLAGS])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "argument --format: invalid choice: 'bogus'" in err

    def test_env_interval_is_the_default(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_COUNTER_INTERVAL", "500")
        assert main(["counters", "gcc", *FAST_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "(500 instructions/interval" in out


class TestCompareVerb:
    def test_default_pair_prints_ranked_table_and_verdict(self, capsys):
        assert main(
            ["compare", "gcc", "--interval", "300", *FAST_FLAGS]
        ) == 0
        out = capsys.readouterr().out
        assert "compared banked-2" in out
        assert "vs dual-ported" in out
        assert "Divergent intervals, widest IPC gap first" in out
        assert "-- cf. Fig." in out

    def test_json_payload_shape(self, capsys):
        assert main(
            [
                "compare",
                "gcc",
                "--a",
                "banked-2",
                "--b",
                "dual-ported",
                "--interval",
                "300",
                "--format",
                "json",
                *FAST_FLAGS,
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["a"]["label"] == "banked-2"
        assert payload["b"]["label"] == "dual-ported"
        assert payload["divergent_intervals"]
        entry = payload["divergent_intervals"][0]
        assert {"index", "gap", "pressure", "ipc_a", "ipc_b"} <= set(entry)
        assert "verdict" in payload

    def test_unknown_label_exits_2_with_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "gcc", "--a", "nonsense", *FAST_FLAGS])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown design point 'nonsense'" in err
        assert "banked-2" in err and "dual-ported" in err

    def test_compare_does_not_pollute_the_store(self, tmp_path, capsys):
        assert main(
            ["compare", "gcc", "--interval", "300", *FAST_FLAGS]
        ) == 0
        assert _stored_observers(tmp_path / "store") == [SAMPLED_300] * 2


class TestDiagnoseFromCounters:
    def test_narratives_cite_the_worst_interval(self, capsys):
        assert main(
            ["diagnose", "gcc", "--from-counters", *FAST_FLAGS]
        ) == 0
        out = capsys.readouterr().out
        assert "worst interval" in out
        assert "IPC under" in out

    def test_plain_diagnose_is_unchanged(self, capsys):
        assert main(["diagnose", "gcc", *FAST_FLAGS]) == 0
        assert "worst interval" not in capsys.readouterr().out


class TestObservedPointsAreDesignPoints:
    """What a run observes is part of its key, in both directions."""

    def test_plain_metrics_after_an_attributed_run_has_no_attribution(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_ATTRIBUTION", "1")
        assert main(["metrics", "gcc", *FAST_FLAGS]) == 0
        assert "attribution." in capsys.readouterr().out
        monkeypatch.delenv("REPRO_ATTRIBUTION")
        experiment.clear_cache()
        assert main(["metrics", "gcc", *FAST_FLAGS]) == 0
        assert "attribution." not in capsys.readouterr().out

    def test_sampled_sweep_on_a_plain_store_carries_counters(
        self, monkeypatch, capsys
    ):
        argv = ["figure4", "--benchmarks", "gcc", "--no-progress", *FAST_FLAGS]
        assert main(argv) == 0
        experiment.clear_cache()
        monkeypatch.setenv("REPRO_COUNTER_INTERVAL", "300")
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["runs", "show", "last", "--format", "json"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert points
        assert all(row["outcome"] == "simulated" for row in points)
        assert all(row["counters"] is not None for row in points)

    def test_warm_diagnose_simulates_nothing(self, monkeypatch, capsys):
        argv = ["diagnose", "gcc", "--from-counters", *FAST_FLAGS]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        experiment.clear_cache()
        # Any simulation would now deadlock; a store-served run never
        # starts one.
        monkeypatch.setenv("REPRO_CHAOS", "stuck-mshr")
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert main(["runs", "show", "last", "--format", "json"]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert [row["outcome"] for row in points] == ["store"] * 7
