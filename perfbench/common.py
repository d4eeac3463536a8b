"""Shared machinery: checkout layout, statistics, the answer ledger, the
service process, the open-loop reader, and the serial tenant oracle."""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import pathlib
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (ignored by git)
WORK = ROOT / ".bench_build" / "perfbench"

mono = time.perf_counter


def require_source() -> None:
    """Put the checkout's ``src/`` first on the path, or stop with exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro; run the benchmark "
              "from the root of a checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def fresh_dir(name: str) -> pathlib.Path:
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- statistics -----------------------------------------------------------------


def pct(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- results --------------------------------------------------------------------


@dataclass
class Ledger:
    """Attempted and failed operations; a failure keeps its reason."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)
        return ok

    def merge(self, other: "Ledger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[: max(0, 10 - len(self.reasons))])


@dataclass
class Outcome:
    """One workload run: metrics (name -> (value, unit)), ledger, notes."""

    metrics: dict[str, tuple[float, str]]
    ledger: Ledger
    notes: list[str] = field(default_factory=list)
    fingerprint: str = ""


# -- processes ------------------------------------------------------------------


class Reaper:
    """Every child process the benchmark starts; :meth:`close` ends them."""

    def __init__(self) -> None:
        self.procs: list[Any] = []

    def add(self, proc: Any) -> Any:
        self.procs.append(proc)
        return proc

    def run(self, coro: Any) -> Any:
        """``asyncio.run(coro)``, ending its child processes while the loop
        that owns them is still open."""

        async def guarded() -> Any:
            try:
                return await coro
            finally:
                for proc in self.procs:
                    if isinstance(proc, asyncio.subprocess.Process) and proc.returncode is None:
                        proc.kill()
                        await proc.wait()

        return asyncio.run(guarded())

    def close(self) -> None:
        for proc in self.procs:
            if proc.returncode is None:
                try:
                    proc.kill()
                except ProcessLookupError:
                    pass
        for proc in self.procs:
            if isinstance(proc, subprocess.Popen):
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    pass
        self.procs.clear()


def file_size(path: pathlib.Path) -> int:
    return path.stat().st_size if path.exists() else 0


def peak_rss_mb(pid: int) -> float:
    """High-water resident memory of a live process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def scrape(url: str) -> dict[str, float]:
    """Prometheus text -> family sample name -> value summed over labels."""
    with urllib.request.urlopen(url, timeout=10) as resp:
        text = resp.read().decode()
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name = head.split("{", 1)[0]
        out[name] = out.get(name, 0.0) + float(value)
    return out


_READY = re.compile(r"listening on [\d.]+:(\d+)")
_METRICS = re.compile(r"serving metrics on (http://\S+)")


class Server:
    """One ``repro serve`` process (optionally behind the tracing launcher)."""

    def __init__(self, reaper: Reaper, data_dir: pathlib.Path,
                 dump: Optional[pathlib.Path] = None) -> None:
        self.reaper = reaper
        self.data_dir = data_dir
        self.dump_path = dump
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port = 0
        self.metrics_url = ""
        self.t_spawn = 0.0

    async def start(self) -> float:
        """Spawn and wait for the ready line; returns seconds taken."""
        serve = ["serve", "--data-dir", str(self.data_dir), "--port", "0",
                 "--serve-metrics", "0"]
        if self.dump_path is None:
            argv = [sys.executable, "-m", "repro.cli", *serve]
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"),
                    "--dump", str(self.dump_path), *serve]
        self.t_spawn = mono()
        self.proc = self.reaper.add(await asyncio.create_subprocess_exec(
            *argv, stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE, env=child_env(), cwd=str(ROOT),
        ))
        self.metrics_url = (await self._expect(self.proc.stderr, _METRICS)).group(1)
        self.port = int((await self._expect(self.proc.stdout, _READY)).group(1))
        return mono() - self.t_spawn

    async def _expect(self, stream, pattern) -> re.Match:
        seen = []
        while True:
            line = await asyncio.wait_for(stream.readline(), 120)
            if not line:
                raise RuntimeError(f"server exited before {pattern.pattern!r}: "
                                   f"{b''.join(seen).decode()[-2000:]}")
            seen.append(line)
            match = pattern.search(line.decode())
            if match:
                return match

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def scrape(self) -> dict[str, float]:
        return scrape(self.metrics_url)

    async def dump(self) -> dict[str, Any]:
        """Ask the tracing launcher for its layer totals (SIGUSR1)."""
        assert self.dump_path is not None
        self.dump_path.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = mono() + 30
        while not self.dump_path.exists():
            if mono() > deadline:
                raise RuntimeError("tracing launcher did not dump its layers")
            await asyncio.sleep(0.01)
        return json.loads(self.dump_path.read_text())

    async def stop(self) -> None:
        """Graceful SIGTERM: drain, checkpoint, seal."""
        self.proc.send_signal(signal.SIGTERM)
        await asyncio.wait_for(self.proc.wait(), 120)
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")

    async def kill(self) -> None:
        """``kill -9``: no drain, no seal, no checkpoint."""
        self.proc.kill()
        await asyncio.wait_for(self.proc.wait(), 60)


async def setup_tenant(reaper: Reaper, data_dir: pathlib.Path, tenant: str,
                       n: int, dump: Optional[pathlib.Path] = None
                       ) -> tuple[Server, float]:
    """Spawn a server and create one default tenant; returns the set-up time."""
    from repro.service import ServiceClient

    server = Server(reaper, data_dir, dump)
    await server.start()
    client = await ServiceClient.open("127.0.0.1", server.port)
    await client.create(tenant, n=n)
    await client.close()
    return server, mono() - server.t_spawn


async def repeated_setup(reaper: Reaper, name: str, tenant: str, n: int,
                         setups: int, dump: Optional[pathlib.Path] = None
                         ) -> tuple[Server, list[float]]:
    """Set up ``setups`` times so set-up time is a median; the last server
    is the one the workload uses."""
    times = []
    for _ in range(setups - 1):
        server, took = await setup_tenant(reaper, fresh_dir(f"{name}-setup"), tenant, n)
        times.append(took)
        await server.stop()
        shutil.rmtree(server.data_dir, ignore_errors=True)
    server, took = await setup_tenant(reaper, fresh_dir(name), tenant, n, dump)
    times.append(took)
    return server, times


async def restarts(reaper: Reaper, data_dir: pathlib.Path,
                   dump: Optional[pathlib.Path], tenant: str, epoch: int,
                   count: int, crash: bool) -> tuple[list[float], list, list]:
    """Restart the service on ``data_dir`` ``count`` times, each timed from
    spawn to its first answer at ``epoch``.  Between restarts the server
    is killed with SIGKILL (``crash``) or stopped gracefully; either way
    the on-disk state each restart recovers from is the same.  Returns
    the times, the (coreness, density) replies and any layer dumps."""
    from repro.service import ServiceClient

    times, replies, dumps = [], [], []
    for i in range(count):
        server = Server(reaper, data_dir, dump)
        await server.start()
        client = await ServiceClient.open("127.0.0.1", server.port)
        while True:
            core = await client.query(tenant, "coreness")
            if core["epoch"] >= epoch or mono() - server.t_spawn > 60:
                break
            await asyncio.sleep(0.01)
        times.append(mono() - server.t_spawn)
        replies.append((core, await client.query(tenant, "density")))
        await client.close()
        if dump is not None:
            dumps.append(await server.dump())
        if crash and i + 1 < count:
            await server.kill()
        else:
            await server.stop()
    return times, replies, dumps


def quiet_heap() -> None:
    """Collect once and exempt everything alive from later collections.

    The load generator shares its process with large long-lived objects
    (inputs, the serial oracle); a full collection over them would stall
    the event loop for a tenth of a second and show up as generator lag.
    """
    gc.collect()
    gc.freeze()


# -- the open-loop reader ---------------------------------------------------------


@dataclass
class Sample:
    """One request of the open-loop reader."""

    request: dict
    due: float
    sent: float = 0.0
    recv: float = 0.0
    resp: Optional[dict] = None
    outstanding: int = 0


async def open_loop(port: int, requests: list[dict], rate: float, t0: float,
                    stop: Optional[asyncio.Event] = None) -> list[Sample]:
    """Send ``requests`` on one pipelined connection at ``rate`` per second.

    Each request is due at ``t0 + k / rate`` and sent then, whether or not
    earlier replies have arrived, so a server stall shows as latency (timed
    from the due time) rather than as a slower sender.  With ``stop``,
    sending ends once the event is set.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port,
                                                   limit=64 * 1024 * 1024)
    pending: dict[int, Sample] = {}
    done: list[Sample] = []

    async def receive() -> None:
        while pending or not sending_done.is_set():
            line = await reader.readline()
            if not line:
                break
            now = mono()
            resp = json.loads(line)
            sample = pending.pop(resp.get("id"))
            sample.recv, sample.resp = now, resp
            done.append(sample)
            if not pending and sending_done.is_set():
                break

    sending_done = asyncio.Event()
    receiver = asyncio.create_task(receive())
    try:
        for k, request in enumerate(requests):
            due = t0 + k / rate
            if stop is not None and stop.is_set():
                break
            delay = due - mono()
            if delay > 0:
                await asyncio.sleep(delay)
            if stop is not None and stop.is_set():
                break
            sample = Sample(request=request, due=due, outstanding=len(pending))
            sample.sent = mono()
            pending[k] = sample
            writer.write(json.dumps(dict(request, id=k)).encode() + b"\n")
            await writer.drain()
        sending_done.set()
        if pending:
            await asyncio.wait_for(receiver, 120)
        else:
            receiver.cancel()
    finally:
        receiver.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return done


def reader_stats(samples: list[Sample]) -> dict[str, float]:
    """Generator hygiene and client-side latency of an open-loop run."""
    lag = [1e3 * (s.sent - s.due) for s in samples]
    rtt = [1e3 * (s.recv - s.sent) for s in samples]
    return {
        "lag_p99_ms": pct(lag, 99),
        "backlog_max": float(max((s.outstanding for s in samples), default=0)),
        "rtt_mean_ms": sum(rtt) / len(rtt) if rtt else 0.0,
    }


# -- the serial tenant oracle -----------------------------------------------------


def density_ok(alg: float, rho: float) -> bool:
    """E7's band around the exact densest-subgraph density."""
    return 0.4 * rho <= alg <= max(2.0, 2.2 * rho)


@dataclass(frozen=True)
class Answers:
    """What a tenant's published snapshot serves at one epoch (the density
    fields are None when the oracle keeps no density ladder)."""

    live_edges: int
    coreness: dict
    max_coreness: float
    density: Optional[float]
    arboricity: Optional[float]
    max_outdegree: Optional[int]
    out_neighbors: Optional[dict]
    exact_density: Optional[float]


class TenantOracle:
    """A serial library replay of one service tenant with default
    parameters, recording the answers its snapshot serves at each epoch
    and the model cost of its ladder updates.

    With ``density=False`` only the coreness ladder is replayed (a third
    of the cost); density replies are then judged against the exact
    densest-subgraph density with E7's band instead of bit for bit.
    """

    def __init__(self, n: int, density: bool = True) -> None:
        from repro.core import CorenessDecomposition, DensityEstimator
        from repro.graphs import DynamicGraph
        from repro.instrument import CostModel
        from repro.service import TenantConfig

        cfg = TenantConfig(n=n)
        self.cm = CostModel()
        kwargs = dict(eps=cfg.eps, cm=self.cm, constants=cfg.constants, seed=cfg.seed)
        self.ladders = {"core.coreness": CorenessDecomposition(cfg.n, **kwargs)}
        if density:
            self.ladders["core.density"] = DensityEstimator(cfg.n, **kwargs)
        self.graph = DynamicGraph(n)
        self.model_work = 0
        self.model_depth = 0
        self.epochs: dict[int, Answers] = {0: self._answers()}

    def apply(self, kind: str, edges) -> None:
        for st in self.ladders.values():
            w0, d0 = self.cm.work, self.cm.depth
            getattr(st, f"{kind}_batch")(edges)
            self.model_work += self.cm.work - w0
            self.model_depth += self.cm.depth - d0
        getattr(self.graph, f"{kind}_batch")(edges)
        self.epochs[len(self.epochs)] = self._answers()

    def _answers(self) -> Answers:
        # the same reads, in the same order, as the service's snapshot build
        cd = self.ladders["core.coreness"]
        coreness = dict(cd.estimates())
        max_core = cd.max_estimate()
        de = self.ladders.get("core.density")
        if de is None:
            from repro.baselines import exact_density

            return Answers(len(self.graph.edges), coreness, max_core, None, None,
                           None, None, exact_density(self.graph))
        density, arboricity = de.density_estimate(), de.arboricity_estimate()
        max_out = de.max_outdegree()
        adj = self.graph.adj
        out = {v: sorted(de.orientation_out(v)) for v in sorted(adj) if adj[v]}
        return Answers(len(self.graph.edges), coreness, max_core, density,
                       arboricity, max_out, out, None)

    def judge(self, epoch: int, request: dict, resp: dict) -> bool:
        """Does ``resp`` answer ``request`` as the tenant must at ``epoch``?"""
        ans = self.epochs.get(epoch)
        if ans is None or resp.get("live_edges") != ans.live_edges:
            return False
        what, vs = request.get("what"), request.get("vertices")
        want: dict[str, Any] = {}
        if what == "coreness":
            if vs is None:
                want["coreness"] = {str(v): c for v, c in ans.coreness.items()}
            else:
                want["coreness"] = {str(v): ans.coreness.get(v, 0.0) for v in vs}
            want["max_coreness"] = ans.max_coreness
        elif what == "density" and ans.density is None:
            got = resp.get("density")
            return (isinstance(got, float) and density_ok(got, ans.exact_density)
                    and resp.get("arboricity") == 2 * got)
        elif what == "density":
            want.update(density=ans.density, arboricity=ans.arboricity,
                        max_outdegree=ans.max_outdegree)
        elif what == "orientation":
            want["out_neighbors"] = {str(v): ans.out_neighbors.get(v, [])
                                     for v in vs}
            want["max_outdegree"] = ans.max_outdegree
        else:  # stats
            want["mode"] = "both"
        return all(resp.get(k) == v for k, v in want.items())


def check_reply(oracle: TenantOracle, ledger: Ledger, request: dict,
                resp: Optional[dict], last_epoch: int) -> int:
    """Judge one query reply against the oracle; returns its epoch."""
    if resp is None or not resp.get("ok"):
        ledger.check(False, f"query {request} failed: {resp}")
        return last_epoch
    epoch = resp.get("epoch", -1)
    ok = epoch >= last_epoch and oracle.judge(epoch, request, resp)
    ledger.check(ok, f"query {request} at epoch {epoch} != serial replay")
    return max(epoch, last_epoch)


def corrupt(samples: list[Sample]) -> None:
    """Deliberately falsify one recorded reply (the checker's self-test)."""
    for sample in samples:
        if sample.resp and sample.resp.get("ok"):
            sample.resp["live_edges"] = -1
            return


def fingerprint(inputs: Any) -> str:
    """A short stable digest of a run's generated inputs."""
    blob = json.dumps(inputs, sort_keys=True, default=list).encode()
    return hashlib.sha256(blob).hexdigest()[:12]
