"""The Tracer clock and span wall-clock."""

import pytest

from repro.core import BalancedOrientation
from repro.instrument import trace
from repro.instrument import wallclock
from repro.instrument.telemetry import MetricsRegistry, Tracer
from repro.instrument.wallclock import FakeClock, mocked_clock
from repro.instrument.work_depth import CostModel
from repro.resilience import guarded


class TestClock:
    def test_fake_clock_steps_and_advances(self):
        clk = FakeClock(start=10.0, step=1.0)
        assert clk() == 10.0
        assert clk() == 11.0
        clk.advance(5.0)
        assert clk() == 17.0
        assert clk.reads == 3

    def test_mocked_clock_swaps_and_restores(self):
        before = wallclock.monotonic()
        with mocked_clock(FakeClock(start=1000.0)):
            assert wallclock.monotonic() == 1000.0
        # restored: back on the real monotonic clock
        assert wallclock.monotonic() >= before

    def test_mocked_clock_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with mocked_clock(FakeClock(start=5.0)):
                raise RuntimeError("boom")
        assert wallclock.monotonic() != 5.0


class TestSpanWall:
    """Span wall timing under exceptions and guarded() rollback."""

    def run_spans(self, fail_inner: bool, tracer=None):
        if tracer is None:
            tracer = Tracer(CostModel(), clock=FakeClock(step=1.0))
        cm = tracer.cm
        st = BalancedOrientation(H=3, cm=cm)
        try:
            with trace.tracing(tracer):
                with trace.span("batch"):
                    with guarded(st):
                        with trace.span("structure"):
                            st.insert_batch([(0, 1), (1, 2)])
                            if fail_inner:
                                raise RuntimeError("mid-batch fault")
        except RuntimeError:
            pass
        return tracer

    def node(self, tracer, name):
        nodes = tracer.root.find(name)
        assert len(nodes) == 1
        return nodes[0]

    def test_exception_still_records_monotone_walls(self):
        tracer = self.run_spans(fail_inner=True)
        outer = self.node(tracer, "batch")
        inner = self.node(tracer, "structure")
        # both spans closed (guarded re-raised through them) and timed
        assert tracer.open_spans == 0
        assert tracer.frame_mismatches == 0
        assert inner.count == outer.count == 1
        # outer opened before inner and closed after it (the rollback ran
        # between the two exits), so its wall is strictly larger
        assert 0 < inner.wall < outer.wall <= tracer.root.wall

    def test_rollback_then_rerun_does_not_double_count(self):
        # the same failing pass, twice, on one tracer: every FakeClock
        # read sequence is identical, so each span's wall must exactly
        # double — the failed pass's wall is neither lost nor re-added.
        tracer = self.run_spans(fail_inner=True)
        inner1 = self.node(tracer, "structure").wall
        outer1 = self.node(tracer, "batch").wall
        self.run_spans(fail_inner=True, tracer=tracer)
        inner = self.node(tracer, "structure")
        outer = self.node(tracer, "batch")
        assert inner.count == outer.count == 2
        assert inner.wall == 2 * inner1
        assert outer.wall == 2 * outer1
        assert tracer.open_spans == 0

    def test_span_seconds_published_even_on_error(self):
        cm = CostModel()
        reg = MetricsRegistry()
        tracer = Tracer(cm, clock=FakeClock(step=1.0), registry=reg)
        with pytest.raises(RuntimeError):
            with trace.tracing(tracer):
                with trace.span("batch"):
                    raise RuntimeError("boom")
        assert reg.counter("repro_spans_total", span="batch").value == 1
        assert reg.counter("repro_span_seconds_total", span="batch").value == 1.0

    def test_wall_timing_never_touches_cost_model(self):
        tracer = self.run_spans(fail_inner=False)
        cm2 = CostModel()
        st = BalancedOrientation(H=3, cm=cm2)
        with guarded(st):
            st.insert_batch([(0, 1), (1, 2)])
        assert tracer.cm.work == cm2.work
        assert tracer.cm.depth == cm2.depth
