"""``query-heavy``: reads under a trickle of writes on a 4x larger tenant.

Set-up preloads a seeded ``barabasi_albert(256, 2)`` tenant (about 500
edges) in four large ``wait=True`` batches; their throughput is the
workload's ``edges_per_s``.  Then, for ``--seconds``, one pipelined
connection reads open-loop at 200 requests/s -- full-table coreness,
16-vertex coreness, density, 16-vertex orientation and stats, uniformly
mixed -- each timed from when it was due, while a second connection
sends one fresh 4-edge insert batch every 4 s with ``wait=False``.  The
reads and the apply thread share one interpreter lock, so an apply shows
up here as read latency.  Afterwards the server is stopped gracefully
and restarted (checkpoint restore, no replay) and timed until it answers
at the final epoch.  Answers are judged against a serial replay built
before the clock starts.
"""

from __future__ import annotations

import asyncio
import math
import random
import shutil
from typing import Any

from common import (Ledger, Outcome, TenantOracle, check_reply, corrupt, file_size,
                    fingerprint, fresh_dir, median, mono, open_loop, pct,
                    quiet_heap, reader_stats, repeated_setup, restarts)
from perlayer import service_rows

SCALES = {
    "full": dict(n=256, attach=2, preload_batches=4, rate=200.0, every=4.0,
                 trickle=4, subset=16, setups=5, restarts=1),
    "tiny": dict(n=32, attach=2, preload_batches=2, rate=50.0, every=1.0,
                 trickle=2, subset=4, setups=1, restarts=1),
}
TENANT = "reads"
#: a generator later than this at its 99th percentile invalidates the run
MAX_LAG_P99_MS = 50.0


def make_inputs(seed: int, p: dict, seconds: float) -> dict[str, Any]:
    from repro.graphs import generators

    # the graph's shape is fixed so every run preloads comparable work; the
    # seed picks vertex labels, batch membership, trickles and queries
    n, edges = generators.barabasi_albert(p["n"], p["attach"], seed=0)
    rng = random.Random(seed ^ 0x7E11)
    label = list(range(n))
    rng.shuffle(label)
    edges = [(min(label[u], label[v]), max(label[u], label[v])) for u, v in edges]
    rng.shuffle(edges)
    size = math.ceil(len(edges) / p["preload_batches"])
    preload = [tuple(edges[i:i + size]) for i in range(0, len(edges), size)]
    live = set(edges)
    trickles = []
    for _ in range(math.ceil(seconds / p["every"])):
        batch: list[tuple[int, int]] = []
        while len(batch) < p["trickle"]:
            u, v = rng.randrange(n), rng.randrange(n)
            e = (min(u, v), max(u, v))
            if u != v and e not in live and e not in batch:
                batch.append(e)
        live.update(batch)
        trickles.append(tuple(batch))
    queries = []
    for _ in range(int(p["rate"] * seconds)):
        what = rng.choice(("coreness", "coreness-subset", "density",
                           "orientation", "stats"))
        req: dict[str, Any] = {"op": "query", "tenant": TENANT, "what": what}
        if what == "coreness-subset":
            req["what"] = "coreness"
        if what in ("coreness-subset", "orientation"):
            req["vertices"] = rng.sample(range(n), p["subset"])
        queries.append(req)
    return dict(preload=preload, trickles=trickles, queries=queries)


async def _run(reaper, p: dict, inputs: dict, seconds: float,
               traced: bool) -> dict[str, Any]:
    from repro.service import ServiceClient

    dump = fresh_dir("reads-layers") / "layers.json" if traced else None
    server, setup_times = await repeated_setup(reaper, "reads", TENANT, p["n"],
                                               p["setups"], dump)
    writer = await ServiceClient.open("127.0.0.1", server.port)
    acks: list[dict] = []
    t = mono()
    for edges in inputs["preload"]:
        acks.append(await writer.ingest(TENANT, "insert", edges, wait=True))
    preload_wall = mono() - t
    before = server.scrape()

    quiet_heap()
    t0 = mono()

    async def trickle() -> None:
        for k, edges in enumerate(inputs["trickles"]):
            delay = t0 + k * p["every"] - mono()
            if delay > 0:
                await asyncio.sleep(delay)
            try:
                acks.append(await writer.ingest(TENANT, "insert", edges))
            except Exception as exc:  # refused: a failed operation
                acks.append({"ok": False, "error": str(exc)})

    trickler = asyncio.create_task(trickle())
    samples = await open_loop(server.port, inputs["queries"], p["rate"], t0)
    await trickler
    await writer.drain()
    await writer.close()
    after = server.scrape()
    rss = server.peak_rss_mb()
    dumps = [await server.dump()] if traced else []
    await server.stop()
    data_dir = server.data_dir
    ckpt_bytes = file_size(data_dir / TENANT / "checkpoint.json")
    wal_bytes = file_size(data_dir / TENANT / "wal.trace")

    final_epoch = len(inputs["preload"]) + len(inputs["trickles"])
    recover, finals, more = await restarts(reaper, data_dir, dump, TENANT,
                                           final_epoch, p["restarts"], crash=False)
    shutil.rmtree(data_dir, ignore_errors=True)
    return dict(setup_times=setup_times, preload_wall=preload_wall, acks=acks,
                samples=samples, before=before, after=after, rss=rss,
                dumps=dumps + more, ckpt_bytes=ckpt_bytes, wal_bytes=wal_bytes,
                recover_s=median(recover), finals=finals, final_epoch=final_epoch)


def run(reaper, seed: int, seconds: float, scale: str, inject: bool,
        traced: bool = False, prepared: Any = None) -> tuple[Outcome, dict]:
    p = SCALES[scale]
    if prepared is None:  # inputs and oracle, before any clock starts
        inputs = make_inputs(seed, p, seconds)
        oracle = TenantOracle(p["n"])
        for edges in inputs["preload"] + inputs["trickles"]:
            oracle.apply("insert", edges)
    else:
        inputs, oracle = prepared
    raw = reaper.run(_run(reaper, p, inputs, seconds, traced))

    ledger = Ledger()
    for i, ack in enumerate(raw["acks"], 1):
        ledger.check(ack.get("ok") is True and ack.get("position") == i,
                     f"ingest {i} acked as {ack}")
    if inject:
        corrupt(raw["samples"])
    ledger.check(len(raw["samples"]) == len(inputs["queries"]), "lost replies")
    last = -1
    for sample in sorted(raw["samples"], key=lambda s: s.sent):
        last = check_reply(oracle, ledger, sample.request, sample.resp, last)
    for core, density in raw["finals"]:  # the restart probes
        for request, resp in (({"what": "coreness"}, core), ({"what": "density"}, density)):
            check_reply(oracle, ledger, request, resp, raw["final_epoch"])
    stats = reader_stats(raw["samples"])
    ledger.check(stats["lag_p99_ms"] <= MAX_LAG_P99_MS,
                 f"invalid run: the load generator fell behind "
                 f"(lag p99 {stats['lag_p99_ms']:.1f} ms)")

    latency = [1e3 * (s.recv - s.due) for s in raw["samples"]]
    edges = sum(len(e) for e in inputs["preload"])
    metrics = {
        "setup_s": (median(raw["setup_times"]), "s"),
        "edges_per_s": (edges / raw["preload_wall"], "edges/s"),
        "latency_p50_ms": (pct(latency, 50), "ms"),
        # p99 swings tenfold between runs on whether one gen-2 collection in
        # the server lands inside the window; p95 is the steady tail
        "latency_tail_ms": (pct(latency, 95), "ms"),
        "peak_rss_mb": (raw["rss"], "MiB"),
    }
    notes = [
        f"queries: {len(raw['samples'])} at {p['rate']:.0f}/s, trickle batches: "
        f"{len(inputs['trickles'])}, preload: {edges} edges in "
        f"{len(inputs['preload'])} batches",
        f"query_p50_ms = {pct(latency, 50):.3f} ms (latency_p50_ms), query_p95_ms = "
        f"{pct(latency, 95):.3f} ms (latency_tail_ms), query_p99_ms = "
        f"{pct(latency, 99):.3f} ms",
        f"preload ingest = {edges / raw['preload_wall']:.3f} edges/s (edges_per_s)",
        f"recover_s = {raw['recover_s']:.3f} s (graceful restart to the first answer)",
        f"loadgen lag p99 = {stats['lag_p99_ms']:.3f} ms, max outstanding = "
        f"{stats['backlog_max']:.0f}",
    ]
    service = service_rows(raw["before"], raw["after"], stats["rtt_mean_ms"], 0.0)
    notes.append("server side, read window: "
                 + ", ".join(f"{k} = {v:.3f}" for k, v in service.items()))
    extra = dict(raw=raw, oracle=oracle, reader=stats, service=service,
                 prepared=(inputs, oracle))
    return Outcome(metrics, ledger, notes, fingerprint(inputs["preload"])), extra
