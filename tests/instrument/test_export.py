"""Sinks and exports: JSONL, Prometheus text, phase tree, BENCH files."""

import json
import pathlib

import pytest

from repro.errors import ParameterError
from repro.instrument import trace
from repro.instrument.export import (
    JsonlSink,
    REQUIRED_BENCH_KEYS,
    bench_payload,
    parse_prometheus,
    phase_shares,
    prometheus_text,
    read_jsonl,
    render_phase_tree,
    validate_bench_payload,
    write_bench_json,
)
from repro.instrument.metrics import BatchTimer
from repro.instrument.telemetry import MetricsRegistry, Tracer
from repro.instrument.work_depth import CostModel

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
COMMITTED_BENCH = sorted(REPO_ROOT.glob("BENCH_*.json"))

def small_run(sink=None):
    cm = CostModel()
    tr = Tracer(cm, sinks=[sink] if sink else [])
    with trace.tracing(tr):
        with trace.span("batch", detail={"index": 0}):
            with trace.span("game.drop"):
                cm.charge(work=30, depth=3)
            with trace.span("game.push"):
                cm.charge(work=10, depth=2)
        trace.event("progress", batch=1, batches=1, work=cm.work, depth=cm.depth)
    return cm, tr


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            _cm, _tr = small_run(sink)
        events = read_jsonl(path)
        assert len(events) == sink.events_written == 4
        kinds = [(e["type"], e["name"]) for e in events]
        assert ("event", "progress") in kinds
        assert kinds.count(("span", "batch")) == 1
        batch = next(e for e in events if e["name"] == "batch")
        assert batch["work"] == 40 and batch["detail"] == {"index": 0}
        assert batch["path"] == ["batch"]
        # spans exit inner-first, and seq is monotonically increasing
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert events[0]["name"] == "game.drop"

    def test_bad_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ParameterError, match="bad.jsonl:2"):
            read_jsonl(path)


class TestPrometheus:
    def make_registry(self):
        reg = MetricsRegistry()
        reg.counter("repro_batches_total", kind="insert").inc(3)
        reg.counter("repro_batches_total", kind="delete").inc(1)
        reg.gauge("repro_last_batch_size").set(16)
        h = reg.histogram("repro_batch_depth")
        for v in (1, 2, 5, 900):
            h.observe(v)
        return reg

    def test_round_trip(self):
        reg = self.make_registry()
        text = prometheus_text(reg)
        samples = parse_prometheus(text)
        assert samples[("repro_batches_total", (("kind", "insert"),))] == 3
        assert samples[("repro_last_batch_size", ())] == 16
        assert samples[("repro_batch_depth_count", ())] == 4
        assert samples[("repro_batch_depth_sum", ())] == 908
        # cumulative buckets end at the observation count
        inf_key = ("repro_batch_depth_bucket", (("le", "+Inf"),))
        assert samples[inf_key] == 4

    def test_type_lines_present(self):
        text = prometheus_text(self.make_registry())
        assert "# TYPE repro_batches_total counter" in text
        assert "# TYPE repro_batch_depth histogram" in text

    def test_histogram_buckets_are_cumulative(self):
        text = prometheus_text(self.make_registry())
        samples = parse_prometheus(text)
        buckets = sorted(
            (float(dict(labels)["le"]), v)
            for (name, labels), v in samples.items()
            if name == "repro_batch_depth_bucket" and dict(labels)["le"] != "+Inf"
        )
        counts = [v for _le, v in buckets]
        assert counts == sorted(counts)

    def test_help_and_type_once_per_family(self):
        # two children of repro_batches_total share one HELP + one TYPE,
        # emitted immediately before the family's first sample
        text = prometheus_text(self.make_registry())
        lines = text.splitlines()
        assert (
            sum(1 for l in lines if l.startswith("# HELP repro_batches_total "))
            == 1
        )
        assert lines.count("# TYPE repro_batches_total counter") == 1
        help_idx = next(
            i for i, l in enumerate(lines)
            if l.startswith("# HELP repro_batches_total")
        )
        assert lines[help_idx + 1] == "# TYPE repro_batches_total counter"
        assert lines[help_idx + 2].startswith("repro_batches_total{")
        # every family on the page has a HELP line
        families = {
            l.split("{")[0].split(" ")[0].rsplit("_bucket", 1)[0]
            for l in lines
            if l and not l.startswith("#")
        }
        helped = {l.split(" ")[2] for l in lines if l.startswith("# HELP")}
        for fam in ("repro_batches_total", "repro_last_batch_size",
                    "repro_batch_depth"):
            assert fam in families and fam in helped

    def test_describe_overrides_builtin_help(self):
        reg = self.make_registry()
        reg.describe("repro_batches_total", "my custom help")
        text = prometheus_text(reg)
        assert "# HELP repro_batches_total my custom help" in text
        # unknown families still get a generated HELP line
        reg.counter("repro_custom_thing_total").inc()
        text = prometheus_text(reg)
        assert "# HELP repro_custom_thing_total repro_custom_thing_total (counter)" in text

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        tricky = 'quote " backslash \\ newline \n end'
        reg.counter("repro_scenario_batches_total", scenario=tricky).inc(7)
        text = prometheus_text(reg)
        assert "\n" not in text.split("repro_scenario_batches_total{", 1)[1].split("}")[0]
        samples = parse_prometheus(text)
        assert samples[
            ("repro_scenario_batches_total", (("scenario", tricky),))
        ] == 7


class TestPhaseTree:
    def test_render_rows_sum_to_total(self):
        cm, tr = small_run()
        report = render_phase_tree(tr.root)
        lines = report.splitlines()[2:]
        work_col = [int(line.split()[-5]) for line in lines]
        # leaf rows + (self) rows partition the total exactly
        leaf_sum = sum(
            w
            for line, w in zip(lines, work_col)
            if "(self" in line or line.strip().startswith(("game.",))
        )
        assert leaf_sum == tr.root.work == cm.work == 40

    def test_phase_shares_flatten(self):
        _cm, tr = small_run()
        shares = phase_shares(tr.root)
        assert shares["run"]["share"] == 1.0
        assert shares["run/batch/game.drop"]["work"] == 30
        assert shares["run/batch/game.drop"]["share"] == pytest.approx(0.75)
        assert sum(s["self_share"] for s in shares.values()) == pytest.approx(1.0)

    def test_min_share_prunes_into_self_row(self):
        _cm, tr = small_run()
        report = render_phase_tree(tr.root, min_share=0.5)
        assert "game.drop" in report  # 75% — kept
        assert "game.push" not in report  # 25% — pruned
        assert "pruned" in report


class TestBench:
    def make_series(self):
        cm = CostModel()
        timer = BatchTimer(cm)
        for i in range(4):
            with timer.batch("insert", 8):
                cm.charge(work=80 * (i + 1), depth=5 + i)
        return timer.series

    def test_payload_has_required_schema(self):
        payload = bench_payload("smoke", self.make_series())
        assert validate_bench_payload(payload) == []
        for key in REQUIRED_BENCH_KEYS:
            assert key in payload
        assert payload["batches"] == 4
        assert payload["edge_updates"] == 32
        assert payload["work_per_edge"]["max"] == 40.0

    def test_validate_reports_missing_keys(self):
        payload = bench_payload("smoke", self.make_series())
        del payload["total_work"]
        del payload["work_per_edge"]["p99"]
        problems = validate_bench_payload(payload)
        assert any("total_work" in p for p in problems)
        assert any("p99" in p for p in problems)
        assert validate_bench_payload([]) != []

    def test_write_bench_json(self, tmp_path):
        _cm, tr = small_run()
        payload = bench_payload("smoke", self.make_series(), tree=tr.root)
        path = write_bench_json(tmp_path, payload)
        assert path.name == "BENCH_smoke.json"
        loaded = json.loads(path.read_text())
        assert validate_bench_payload(loaded) == []
        assert loaded["phase_shares"]["run/batch/game.drop"]["work"] == 30

    def test_write_rejects_invalid_payload(self, tmp_path):
        with pytest.raises(ParameterError):
            write_bench_json(tmp_path, {"name": "broken"})

    @pytest.mark.parametrize("name", ["../../x", "a/b", ".hidden", "", "x y", 7])
    def test_write_rejects_name_that_is_not_a_file_stem(self, tmp_path, name):
        payload = bench_payload("smoke", self.make_series())
        payload["name"] = name
        assert any("name" in p for p in validate_bench_payload(payload))
        with pytest.raises(ParameterError, match="plain file stem"):
            write_bench_json(tmp_path / "out", payload)
        assert not (tmp_path / "out").exists()

    def test_repo_root_has_committed_bench_files(self):
        assert len(COMMITTED_BENCH) >= 3, COMMITTED_BENCH

    @pytest.mark.parametrize("path", COMMITTED_BENCH, ids=lambda p: p.name)
    def test_committed_bench_file_is_valid(self, path):
        assert validate_bench_payload(json.loads(path.read_text())) == []
