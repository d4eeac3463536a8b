"""Live run dashboard and the HTTP metrics endpoint.

``repro run --live`` attaches a :class:`LiveDashboard` to the process-wide
:class:`~repro.instrument.telemetry.MetricsRegistry`: a single terminal
status line redrawn in place (``\\r`` + erase on a tty, throttled plain
lines otherwise) showing batch progress, throughput, ETA and the top-3
hottest spans by wall-clock.
Everything is *read* from the registry — the dashboard adds no
instrumentation of its own and never touches a cost model, so a live run
stays bit-identical to a quiet one.

``--serve-metrics PORT`` starts a :class:`MetricsServer`: Prometheus text
on ``127.0.0.1`` ``/metrics`` (and ``/``), the text-format twin of the JSONL
telemetry sink, in just enough HTTP/1.0 over :mod:`socketserver` (``http.server``
costs ~12 ms of imports and a reverse DNS lookup per bind).
"""

from __future__ import annotations

import socketserver
import threading
from typing import IO, Callable, Optional

from . import wallclock as _wallclock
from .telemetry import MetricsRegistry

#: default redraw throttle (seconds between frames).
DEFAULT_INTERVAL = 0.5

#: how many hottest spans the dashboard panel shows.
TOP_SPANS = 3


def _sum_family(registry: MetricsRegistry, name: str) -> float:
    """Sum a counter family's value across all its label children."""
    return sum(m.value for m in registry.collect() if m.name == name)


def _family_by_label(
    registry: MetricsRegistry, name: str, label: str
) -> dict[str, float]:
    """One counter family's values keyed by a single label's value."""
    out: dict[str, float] = {}
    for metric in registry.collect():
        if metric.name != name:
            continue
        labels = dict(metric.labels)
        if label in labels:
            out[labels[label]] = out.get(labels[label], 0.0) + metric.value
    return out


def _fmt_eta(seconds: float) -> str:
    if seconds != seconds or seconds < 0 or seconds == float("inf"):
        return "?"
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class LiveDashboard:
    """A one-line terminal view over a live :class:`MetricsRegistry`.

    Use it as a tracer sink (``sinks=[dash]`` — every span/event tick
    gives it a chance to redraw, throttled to ``interval``).
    ``total_batches`` (when known from the trace scan) turns throughput
    into an ETA.

    On a tty each frame is ``\\r`` + erase-line + the new frame; on a
    plain pipe frames are whole lines, further throttled (10x interval)
    so logs stay readable.  :meth:`close` prints a final newline-
    terminated frame either way.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        out: IO[str],
        total_batches: Optional[int] = None,
        interval: float = DEFAULT_INTERVAL,
        clock: Callable[[], float] = _wallclock.monotonic,
    ) -> None:
        self.registry = registry
        self.out = out
        self.total_batches = total_batches
        self.interval = interval
        self.clock = clock
        self.t0 = clock()
        self._last_draw: Optional[float] = None
        self._isatty = bool(getattr(out, "isatty", lambda: False)())
        self.frames = 0

    # -- the sink protocol ---------------------------------------------------

    def __call__(self, event: dict) -> None:
        """Tracer-sink entry point: maybe redraw (event content unused)."""
        self.maybe_render()

    def maybe_render(self) -> None:
        """Redraw if at least ``interval`` elapsed since the last frame."""
        now = self.clock()
        throttle = self.interval if self._isatty else self.interval * 10
        if self._last_draw is not None and now - self._last_draw < throttle:
            return
        self._last_draw = now
        self._draw(self.render())

    # -- frame construction --------------------------------------------------

    def render(self) -> str:
        """Build one status-line frame from the registry's current state."""
        reg = self.registry
        elapsed = max(1e-9, self.clock() - self.t0)
        batches = _sum_family(reg, "repro_batches_total")
        rate = batches / elapsed
        parts = []
        if self.total_batches:
            pct = 100.0 * batches / self.total_batches
            eta = (
                (self.total_batches - batches) / rate if rate > 0 else float("inf")
            )
            parts.append(
                f"batch {int(batches)}/{self.total_batches} ({pct:.0f}%)"
            )
            parts.append(f"{rate:.1f} b/s")
            parts.append(f"eta {_fmt_eta(eta)}")
        else:
            parts.append(f"batch {int(batches)}")
            parts.append(f"{rate:.1f} b/s")
        spans = _family_by_label(reg, "repro_span_seconds_total", "span")
        hottest = sorted(spans.items(), key=lambda kv: -kv[1])[:TOP_SPANS]
        if hottest:
            parts.append(
                "hot: " + " ".join(f"{n}={s:.1f}s" for n, s in hottest)
            )
        self.frames += 1
        return " | ".join(parts)

    def _draw(self, frame: str, final: bool = False) -> None:
        if self._isatty:
            self.out.write("\r\x1b[2K" + frame + ("\n" if final else ""))
        else:
            self.out.write(frame + "\n")
        self.out.flush()

    def close(self) -> None:
        """Print the final frame."""
        self._draw(self.render(), final=True)


# -- the /metrics endpoint ----------------------------------------------------


class _MetricsHandler(socketserver.StreamRequestHandler):
    registry: MetricsRegistry  # injected by MetricsServer

    def handle(self) -> None:
        from .export import prometheus_text  # local: avoid an import cycle

        try:
            words = self.rfile.readline(65536).split()
            for _ in range(100):  # skip the headers; nothing in them matters
                if not self.rfile.readline(65536).strip():
                    break
        except OSError:  # reset: nobody to answer
            return
        if len(words) < 2 or words[0] != b"GET":
            status, body = "501 Unsupported method", b"GET only\n"
        elif words[1].split(b"?", 1)[0] not in (b"/", b"/metrics"):
            status, body = "404 Not Found", b"try /metrics\n"
        else:
            status, body = "200 OK", prometheus_text(self.registry).encode("utf-8")
        self.wfile.write(
            f"HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; "
            f"charset=utf-8\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body
        )


class _MetricsTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class MetricsServer:
    """A daemon-threaded Prometheus text endpoint over one registry.

    Binds ``127.0.0.1:port`` (``port=0`` picks a free one — tests use
    that); :attr:`port` is the bound port either way.  Serving happens on
    a daemon thread, so a crashed run never hangs on the exporter.
    """

    def __init__(self, registry: MetricsRegistry, port: int = 0) -> None:
        handler = type("BoundMetricsHandler", (_MetricsHandler,), {"registry": registry})
        self._httpd = _MetricsTCPServer(("127.0.0.1", port), handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}/metrics"

    def close(self) -> None:
        """Shut the endpoint down (idempotent)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=2.0)


def serve_metrics(registry: MetricsRegistry, port: int = 0) -> MetricsServer:
    """Start (and return) a :class:`MetricsServer` for ``registry``."""
    return MetricsServer(registry, port)


__all__ = [
    "DEFAULT_INTERVAL",
    "LiveDashboard",
    "MetricsServer",
    "TOP_SPANS",
    "serve_metrics",
]
