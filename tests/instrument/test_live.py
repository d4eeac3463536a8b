"""Live dashboard frames and the /metrics HTTP endpoint."""

import io
import urllib.error
import urllib.request

import pytest

from repro.instrument.export import parse_prometheus
from repro.instrument.live import (
    LiveDashboard,
    MetricsServer,
    TOP_SPANS,
    _fmt_eta,
    serve_metrics,
)
from repro.instrument.telemetry import MetricsRegistry
from repro.instrument.wallclock import FakeClock


def populated_registry():
    reg = MetricsRegistry()
    reg.counter("repro_batches_total", kind="insert").inc(3)
    reg.counter("repro_batches_total", kind="delete").inc(1)
    for span, secs in (
        ("game.drop", 8.0),
        ("game.push", 4.0),
        ("ladder.rung", 2.0),
        ("batch", 1.0),
    ):
        reg.counter("repro_span_seconds_total", span=span).inc(secs)
    return reg


class FakeTty(io.StringIO):
    def isatty(self):
        return True


class TestFmtEta:
    def test_ranges(self):
        assert _fmt_eta(42) == "42s"
        assert _fmt_eta(90) == "1m30s"
        assert _fmt_eta(3720) == "1h02m"
        assert _fmt_eta(float("inf")) == "?"
        assert _fmt_eta(-1) == "?"
        assert _fmt_eta(float("nan")) == "?"


class TestLiveDashboard:
    def test_frame_contents(self):
        clk = FakeClock()
        out = io.StringIO()
        dash = LiveDashboard(
            populated_registry(), out, total_batches=10, clock=clk
        )
        clk.advance(2.0)  # 4 batches in 2 s
        frame = dash.render()
        assert "batch 4/10 (40%)" in frame
        assert "2.0 b/s" in frame
        assert "eta 3s" in frame  # 6 remaining at 2 b/s
        # top-3 hottest spans, hottest first; the 4th is cut
        assert "hot: game.drop=8.0s game.push=4.0s ladder.rung=2.0s" in frame
        assert "batch=1.0s" not in frame
        assert frame.count(" | ") == 3  # progress, rate, eta, hot spans
        assert dash.frames == 1

    def test_frame_without_total_has_no_eta(self):
        clk = FakeClock()
        dash = LiveDashboard(populated_registry(), io.StringIO(), clock=clk)
        clk.advance(1.0)
        frame = dash.render()
        assert "batch 4" in frame
        assert "eta" not in frame
        assert "%" not in frame

    def test_top_spans_is_three(self):
        assert TOP_SPANS == 3

    def test_throttle_on_non_tty(self):
        clk = FakeClock()
        out = io.StringIO()
        dash = LiveDashboard(
            populated_registry(), out, interval=0.5, clock=clk
        )
        dash({"type": "event"})  # first tick always draws
        dash({"type": "event"})  # 0 s later: throttled
        assert dash.frames == 1
        clk.advance(1.0)
        dash({"type": "event"})  # 1 s < 10x interval on a pipe: throttled
        assert dash.frames == 1
        clk.advance(5.0)
        dash({"type": "event"})
        assert dash.frames == 2
        # pipe frames are whole lines
        assert out.getvalue().count("\n") == 2
        assert "\r" not in out.getvalue()

    def test_tty_redraws_in_place(self):
        clk = FakeClock()
        out = FakeTty()
        dash = LiveDashboard(
            populated_registry(), out, interval=0.5, clock=clk
        )
        dash.maybe_render()
        clk.advance(0.6)  # tty throttle is the bare interval
        dash.maybe_render()
        assert dash.frames == 2
        assert out.getvalue().count("\r\x1b[2K") == 2
        assert "\n" not in out.getvalue()

    def test_close_prints_final_newline_frame(self):
        clk = FakeClock()
        out = FakeTty()
        dash = LiveDashboard(populated_registry(), out, clock=clk)
        dash.close()
        assert out.getvalue().endswith("\n")
        assert dash.frames == 1


class TestMetricsServer:
    def test_metrics_round_trip_over_http(self):
        server = serve_metrics(populated_registry())
        try:
            assert server.port > 0
            with urllib.request.urlopen(server.url, timeout=5) as resp:
                assert resp.status == 200
                assert "text/plain" in resp.headers["Content-Type"]
                body = resp.read().decode("utf-8")
            samples = parse_prometheus(body)
            assert samples[("repro_batches_total", (("kind", "insert"),))] == 3
            assert samples[
                ("repro_span_seconds_total", (("span", "game.drop"),))
            ] == 8.0
        finally:
            server.close()

    def test_root_path_serves_metrics_too(self):
        server = MetricsServer(populated_registry())
        try:
            url = f"http://127.0.0.1:{server.port}/"
            with urllib.request.urlopen(url, timeout=5) as resp:
                assert b"repro_batches_total" in resp.read()
        finally:
            server.close()

    def test_other_paths_404(self):
        server = MetricsServer(populated_registry())
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/nope", timeout=5
                )
            assert err.value.code == 404
        finally:
            server.close()

    def test_other_methods_501(self):
        server = MetricsServer(populated_registry())
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    urllib.request.Request(server.url, method="DELETE"), timeout=5
                )
            assert err.value.code == 501
        finally:
            server.close()

    def test_serves_live_registry_state(self):
        reg = MetricsRegistry()
        server = MetricsServer(reg)
        try:
            reg.counter("repro_batches_total").inc(7)
            with urllib.request.urlopen(server.url, timeout=5) as resp:
                samples = parse_prometheus(resp.read().decode("utf-8"))
            assert samples[("repro_batches_total", ())] == 7
        finally:
            server.close()
