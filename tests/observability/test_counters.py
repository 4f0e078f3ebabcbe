"""Interval counter sampling: semantics, serialization, and analysis.

Covers the interval-accounting contract (every committed instruction
lands in exactly one row; the trailing partial interval is emitted and
flagged, never dropped), the schema-v4 persistence path (store
round-trip, quarantine of mis-stamped entries, bounded ledger records),
and the series analysis helpers behind ``repro compare``.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import replace

import pytest

from repro import kernel
from repro.core.experiment import ExperimentSettings, Observe, _simulate
from repro.core.organizations import KB, banked, duplicate, ideal_ports
from repro.engine.executor import Engine, ExecutionPlan
from repro.engine.ledger import build_record
from repro.cpu.result import SimulationResult
from repro.engine.serialize import SerializationError, from_plain, to_plain
from repro.engine.store import SCHEMA_VERSION, ResultStore
from repro.observability import counters
from repro.workloads.catalog import benchmark

FAST = ExperimentSettings(
    instructions=1_000, timing_warmup=200, functional_warmup=10_000
)

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the parallel counters test assumes cheap fork workers",
)


def _run(every: int, org=None, instructions: int | None = None):
    settings = FAST
    if instructions is not None:
        settings = ExperimentSettings(
            instructions=instructions,
            timing_warmup=FAST.timing_warmup,
            functional_warmup=FAST.functional_warmup,
        )
    return _simulate(
        org if org is not None else duplicate(32 * KB, line_buffer=True),
        benchmark("gcc"),
        replace(settings, observe=Observe(counter_interval=every)),
    )


class TestConfiguration:
    def test_off_by_default(self):
        assert Observe.from_env() is None
        assert ExperimentSettings().scaled().observe is None
        result = _simulate(duplicate(32 * KB), benchmark("gcc"), FAST)
        assert result.counters is None

    def test_env_flag_value_is_the_interval(self, monkeypatch):
        monkeypatch.setenv("REPRO_COUNTER_INTERVAL", "250")
        assert Observe.from_env() == Observe(counter_interval=250)

    @pytest.mark.parametrize("raw", ("", "0", "-5", "garbage"))
    def test_bad_env_values_read_as_off(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_COUNTER_INTERVAL", raw)
        assert Observe.from_env() is None

    def test_env_fills_only_an_unset_observe(self, monkeypatch):
        monkeypatch.setenv("REPRO_COUNTER_INTERVAL", "250")
        assert FAST.scaled().observe == Observe(counter_interval=250)
        explicit = replace(FAST, observe=Observe(attribution=True))
        assert explicit.scaled().observe == Observe(attribution=True)

    def test_sampling_rejects_non_positive_interval(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            Observe(counter_interval=0)


class TestIntervalAccounting:
    def test_exact_multiple_has_no_partial_row(self):
        series = _run(250).counters
        cols = counters.columns_of(series)
        assert cols["instructions"] == [250, 250, 250, 250]
        assert cols["partial"] == [0, 0, 0, 0]

    def test_non_multiple_emits_flagged_partial_tail(self):
        series = _run(300).counters
        cols = counters.columns_of(series)
        assert cols["instructions"] == [300, 300, 300, 100]
        assert cols["partial"] == [0, 0, 0, 1]

    def test_interval_longer_than_window_is_one_partial_row(self):
        series = _run(5_000).counters
        cols = counters.columns_of(series)
        assert cols["instructions"] == [1_000]
        assert cols["partial"] == [1]

    @pytest.mark.parametrize("instructions", (999, 1_000, 1_001))
    def test_rows_tile_the_window_at_any_size(self, instructions):
        """Off-by-one window sizes around a multiple of the interval."""
        series = _run(250, instructions=instructions).counters
        cols = counters.columns_of(series)
        assert sum(cols["instructions"]) == instructions
        assert sum(cols["partial"]) == (1 if instructions % 250 else 0)
        # Every row but a partial tail covers exactly one interval.
        for count, partial in zip(cols["instructions"], cols["partial"]):
            assert count == 250 or partial

    def test_cycles_tile_the_measured_region(self):
        result = _run(300)
        cols = counters.columns_of(result.counters)
        assert sum(cols["cycles"]) == result.cycles

    def test_deltas_sum_to_whole_run_aggregates(self):
        result = _run(250, org=banked(32 * KB, banks=2))
        cols = counters.columns_of(result.counters)
        assert sum(cols["loads"]) == result.memory.loads
        assert sum(cols["stores"]) == result.memory.stores
        assert sum(cols["l1_load_misses"]) == result.memory.l1_load_misses
        assert (
            sum(cols["window_full_stalls"])
            == result.pipeline.window_full_stalls
        )

    def test_warmup_never_pollutes_the_first_row(self):
        """The first interval's deltas are measured-region only: a run
        with warmup and one without measure the same region."""
        warm = _run(250).counters
        assert counters.columns_of(warm)["loads"][0] > 0
        # Row values are deltas against the begin() baseline, so the
        # (heavily cache-missing) warmup traffic must not appear.
        total_loads = sum(counters.columns_of(warm)["loads"])
        result = _run(250)
        assert total_loads == result.memory.loads

    def test_mshr_peak_bounded_by_file_size(self):
        series = _run(100, org=banked(32 * KB, banks=1)).counters
        cols = counters.columns_of(series)
        assert max(cols["mshr_occupancy_peak"]) <= 4
        assert any(peak > 0 for peak in cols["mshr_occupancy_peak"])

    def test_columns_cover_every_row_value(self):
        series = _run(250).counters
        assert series["columns"] == list(counters.COLUMNS)
        assert len(series["data"]) == len(counters.COLUMNS)
        assert series["version"] == counters.SERIES_VERSION


class TestSerialization:
    def test_result_dict_round_trip(self):
        result = _run(300)
        restored = from_plain(SimulationResult, to_plain(result))
        assert restored.counters == result.counters

    def test_counter_less_results_round_trip_as_none(self):
        result = _simulate(duplicate(32 * KB), benchmark("gcc"), FAST)
        payload = to_plain(result)
        assert payload["counters"] is None
        assert from_plain(SimulationResult, payload).counters is None
        # Every stored entry since v4 carries the field, so a dict
        # without it is damage, not an old entry.
        payload.pop("counters")
        with pytest.raises(SerializationError):
            from_plain(SimulationResult, payload)

    def test_store_round_trip(self, tmp_path):
        from repro.engine.key import ExperimentKey

        result = _run(300)
        store = ResultStore(tmp_path)
        key = ExperimentKey(
            duplicate(32 * KB, line_buffer=True), "gcc", FAST
        )
        store.save(key, result)
        loaded = store.load(key)
        assert loaded is not None
        assert loaded.counters == result.counters

    def test_schema_mismatch_quarantined_by_cache_verify(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.engine.key import ExperimentKey

        monkeypatch.chdir(tmp_path)
        store = ResultStore(tmp_path / "store")
        key = ExperimentKey(duplicate(32 * KB), "gcc", FAST)
        store.save(key, _run(300))
        # Mis-stamp the entry: claim the previous (counter-less) schema
        # while living in the current-schema directory.
        [entry] = list((tmp_path / "store").glob("v*/??/*.json"))
        payload = json.loads(entry.read_text(encoding="utf-8"))
        payload["schema"] = SCHEMA_VERSION - 1
        entry.write_text(json.dumps(payload), encoding="utf-8")
        assert store.load(key) is None
        assert (
            main(["cache", "verify", "--cache-dir", str(tmp_path / "store")])
            == 0
        )
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert not entry.exists()

    def test_ledger_summary_is_bounded(self):
        """runs.jsonl carries a fixed-size digest, never the series."""
        fine = _run(10)  # 100 rows
        coarse = _run(500)  # 2 rows
        summaries = {}
        for name, result in (("fine", fine), ("coarse", coarse)):
            summary = counters.series_summary(result.counters)
            assert set(summary) == {
                "interval",
                "rows",
                "partial_rows",
                "digest",
            }
            summaries[name] = json.dumps(summary)
        # 50x more rows must not grow the ledger field.
        assert len(summaries["fine"]) <= len(summaries["coarse"]) + 4
        assert counters.series_summary(None) is None

    def test_build_record_embeds_summary_not_series(self):
        from repro.engine.key import ExperimentKey

        result = _run(10)
        key = ExperimentKey(
            duplicate(32 * KB, line_buffer=True), "gcc", FAST
        )
        record = build_record(
            {key: result},
            {key: "simulated"},
            wall_seconds=1.0,
            jobs=1,
            store_schema=SCHEMA_VERSION,
        )
        [row] = record["points"]
        assert row["counters"]["rows"] == 100
        assert "data" not in json.dumps(row)


@FORK_ONLY
class TestParallelDispatch:
    def test_series_identical_across_jobs_1_and_2(self, tmp_path, monkeypatch):
        """Counter-bearing results survive the worker boundary intact."""
        monkeypatch.setenv("REPRO_COUNTER_INTERVAL", "250")
        plans = {}
        for jobs in (1, 2):
            store = ResultStore(tmp_path / f"jobs{jobs}")
            engine = Engine(jobs=jobs, store=store)
            try:
                with kernel.use_backend("reference"):
                    plan = ExecutionPlan(engine)
                    keys = [
                        plan.add(org, name, FAST)
                        for org in (
                            banked(32 * KB, banks=2),
                            ideal_ports(32 * KB, ports=2),
                        )
                        for name in ("gcc", "tomcatv")
                    ]
                    plan.execute()
                    plans[jobs] = [
                        to_plain(plan.resolve(key)) for key in keys
                    ]
            finally:
                engine.shutdown_pool()
        assert plans[1] == plans[2]
        for payload in plans[1]:
            assert payload["counters"] is not None
            assert payload["counters"]["interval"] == 250


class TestAnalysis:
    def test_derived_rates_shapes_and_ranges(self):
        series = _run(250, org=banked(32 * KB, banks=2)).counters
        rates = counters.derived_rates(series)
        rows = counters.row_count(series)
        for values in rates.values():
            assert len(values) == rows
        assert all(rate > 0 for rate in rates["ipc"])
        for key in ("port_grant_rate", "bank_conflict_rate"):
            assert all(0.0 <= rate <= 1.0 for rate in rates[key])

    def test_align_requires_matching_intervals(self):
        a = _run(250).counters
        b = _run(300).counters
        with pytest.raises(ValueError, match="different intervals"):
            counters.align(a, b)

    def test_align_is_the_shorter_row_count(self):
        a = _run(250).counters
        b = _run(250, instructions=500).counters
        assert counters.align(a, b) == 2

    def test_rank_divergent_is_sorted_by_absolute_gap(self):
        a = _run(250, org=banked(32 * KB, banks=2)).counters
        b = _run(250, org=ideal_ports(32 * KB, ports=2)).counters
        ranked = counters.rank_divergent(a, b)
        gaps = [abs(entry["gap"]) for entry in ranked]
        assert gaps == sorted(gaps, reverse=True)
        windows = sorted(tuple(e["instructions"]) for e in ranked)
        assert windows[0] == (0, 250)

    def test_figure5_pair_verdict_blames_bank_conflicts(self):
        """Acceptance: banked-2 vs dual-ported yields a ranked report
        and a paper-style verdict citing the structural difference."""
        a = _run(250, org=banked(32 * KB, banks=2)).counters
        b = _run(250, org=ideal_ports(32 * KB, ports=2)).counters
        ranked = counters.rank_divergent(a, b)
        assert ranked and ranked[0]["pressure"] == "bank_conflict_rate"
        sentence = counters.verdict(
            "banked-2", "dual-ported", a, b, figure="Fig. 5"
        )
        assert "banked-2 loses to dual-ported" in sentence
        assert "bank-conflict rate peaks at" in sentence
        assert sentence.endswith("-- cf. Fig. 5")

    def test_identical_series_verdict_reports_no_divergence(self):
        series = _run(250).counters
        sentence = counters.verdict("a", "b", series, series)
        assert "track each other" in sentence

    def test_sparkline_levels(self):
        assert counters.sparkline([]) == ""
        assert counters.sparkline([0.0, 0.0]) == "▁▁"
        line = counters.sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[-1] == "█"

    def test_render_table_marks_partials(self):
        series = _run(300).counters
        table = counters.render_table(series)
        assert "Interval counters (300 instructions/interval" in table
        assert "3*" in table  # the trailing partial row is flagged
        assert "IPC" in table and "bank conf" in table

    def test_render_sparklines_covers_the_headline_rates(self):
        series = _run(250).counters
        block = counters.render_sparklines(series)
        assert "ipc" in block
        assert "bank_conflict_rate" in block
        assert "min" in block and "max" in block
        # Four sampled intervals -> four spark characters per rate.
        first = block.splitlines()[0].split()[1]
        assert len(first) == 4

    def test_dominant_pressure_picks_the_maximum(self):
        rates = {key: [0.1] for key, _ in counters.PRESSURE_LABELS}
        rates["mshr_stall_share"] = [0.9]
        key, label, value = counters.dominant_pressure(rates, 0)
        assert key == "mshr_stall_share"
        assert label == "MSHR-full stalls"
        assert value == 0.9

    def test_render_csv_is_complete(self):
        series = _run(300).counters
        lines = counters.render_csv(series).splitlines()
        header = lines[0].split(",")
        assert header == ["index", *counters.COLUMNS]
        assert len(lines) == 1 + counters.row_count(series)
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)

    def test_counter_track_events_are_perfetto_counters(self):
        series = _run(300).counters
        events = counters.counter_track_events(series, label="dup+lb")
        assert events
        assert all(event["ph"] == "C" for event in events)
        # Timestamps follow the cycle axis, one batch per interval.
        cols = counters.columns_of(series)
        last = [e for e in events if e["name"] == "dup+lb: ipc"][-1]
        assert last["ts"] == sum(cols["cycles"][:-1])


class TestHotPathDiscipline:
    def test_sampler_owned_by_memory_system_only_when_enabled(self):
        from repro.memory.hierarchy import MemorySystem

        config = duplicate(32 * KB).memory_config(FAST.backside)
        assert MemorySystem(config).counters is None
        sampler = MemorySystem(config, counter_interval=100).counters
        assert sampler is not None
        assert sampler.every == 100
        assert sampler.next_at == -1  # armed only at measurement start
