"""``ingest-churn``: the whole write path of the service, then a crash.

One tenant with default parameters (mode ``both``) on ``n = 64``.  Set-up
(untimed) fills it with 64 random edges in one batch, so the timed phase
churns a graph about 20 batches large from its first batch on, rather
than a growing one whose cost depends on how fast it happened to grow.
A closed-loop writer then sends churn batches of 4 edges (about 70%
inserts, live edges capped at 80) with ``wait=True``, so each batch goes
out only after the previous one committed; an open-loop reader on a
second connection asks vertex-subset coreness and density questions at
20/s meanwhile.  After 8 untimed warm-up batches the writer sends one
round of 32 batches (the service's checkpoint cadence, so every round
pays one checkpoint) per 10 s of ``--seconds`` (a round takes 7-12 s on
the reference machine: three rounds at 30 s, so the p90 has ten samples
above it, and a faster or slower program does the same work), then a
fixed tail of 4 batches: every run's restart therefore
replays the same WAL suffix on top of a checkpoint.  After the last
commit the server is killed with SIGKILL, restarted on the same data
directory, and timed until it answers at the final epoch.  Every reply is compared, after the
clock stops, with a serial library replay at the epoch it claims.

The churn pattern is fixed; the seed picks the vertex labels and the
reader's questions, so every run does the same work up to relabelling
(with a fresh pattern per seed the seed-to-seed spread alone was about
the size of the regression bound).
"""

from __future__ import annotations

import asyncio
import random
import shutil
from typing import Any

from common import (Ledger, Outcome, TenantOracle, check_reply, corrupt, file_size,
                    fingerprint, fresh_dir, median, mono, open_loop, pct,
                    quiet_heap, reader_stats, repeated_setup, restarts)
from perlayer import service_rows

SCALES = {
    "full": dict(n=64, batch=4, preload=64, cap=80, warmup=8, round=32, round_s=10.0,
                 tail=4, rate=20.0, subset=16, setups=5, restarts=1),
    "tiny": dict(n=16, batch=2, preload=8, cap=16, warmup=1, round=4, round_s=0.5,
                 tail=1, rate=20.0, subset=4, setups=1, restarts=1),
}
TENANT = "churn"


def make_inputs(seed: int, p: dict, count: int) -> dict[str, list]:
    """Preload (one batch of fresh edges) and churn: ~70% inserts of fresh
    edges, deletes of live ones, live edges capped; relabelled by the seed."""
    rng = random.Random(0)
    n, size = p["n"], p["batch"]
    live: set[tuple[int, int]] = set()

    def fresh(k: int) -> tuple:
        batch: list[tuple[int, int]] = []
        while len(batch) < k:
            u, v = rng.randrange(n), rng.randrange(n)
            e = (min(u, v), max(u, v))
            if u != v and e not in live and e not in batch:
                batch.append(e)
        live.update(batch)
        return tuple(batch)

    preload = [fresh(p["preload"])]
    stream = []
    for _ in range(count):
        if rng.random() < 0.3 or len(live) + size > p["cap"]:
            batch = tuple(rng.sample(sorted(live), size))
            live.difference_update(batch)
            stream.append(("delete", batch))
        else:
            stream.append(("insert", fresh(size)))
    label = list(range(n))
    random.Random(seed).shuffle(label)

    def relabel(edges: tuple) -> tuple:
        return tuple((min(label[u], label[v]), max(label[u], label[v])) for u, v in edges)

    return {"preload": [relabel(e) for e in preload],
            "stream": [(kind, relabel(e)) for kind, e in stream]}


def make_queries(seed: int, p: dict, count: int) -> list[dict]:
    rng = random.Random(seed ^ 0x5EED)
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            out.append({"op": "query", "tenant": TENANT, "what": "coreness",
                        "vertices": rng.sample(range(p["n"]), p["subset"])})
        else:
            out.append({"op": "query", "tenant": TENANT, "what": "density"})
    return out


async def _run(reaper, seed: int, seconds: float, p: dict, traced: bool) -> dict[str, Any]:
    from repro.service import ServiceClient

    rounds = max(1, round(seconds / p["round_s"]))
    inputs = make_inputs(seed, p, p["warmup"] + p["round"] * rounds + p["tail"])
    stream = inputs["stream"]
    queries = make_queries(seed, p, int(p["rate"] * 600))
    dump = fresh_dir("churn-layers") / "layers.json" if traced else None
    server, setup_times = await repeated_setup(reaper, "churn", TENANT, p["n"],
                                               p["setups"], dump)
    data_dir = server.data_dir

    writer = await ServiceClient.open("127.0.0.1", server.port)
    preload_acks = [await writer.ingest(TENANT, "insert", edges, wait=True)
                    for edges in inputs["preload"]]
    commits: list[tuple[float, dict]] = []

    async def send(i: int) -> None:
        kind, edges = stream[i]
        t = mono()
        try:
            resp = await writer.ingest(TENANT, kind, edges, wait=True)
        except Exception as exc:  # refused or failed: a failed operation
            resp = {"ok": False, "error": str(exc)}
        commits.append((mono() - t, resp))

    for i in range(p["warmup"]):  # untimed
        await send(i)
    stop = asyncio.Event()
    quiet_heap()
    t0 = mono()
    reader = asyncio.create_task(open_loop(server.port, queries, p["rate"], t0, stop))
    for i in range(p["warmup"], len(stream)):
        await send(i)
    writer_wall = mono() - t0
    stop.set()
    samples = await reader
    await writer.close()

    rss = server.peak_rss_mb()
    scraped = server.scrape()
    ckpt_bytes = file_size(data_dir / TENANT / "checkpoint.json")
    wal_bytes = file_size(data_dir / TENANT / "wal.trace")
    dumps = [await server.dump()] if traced else []
    await server.kill()

    count = len(stream)
    final_epoch = len(inputs["preload"]) + count
    recover, finals, more = await restarts(reaper, data_dir, dump, TENANT,
                                           final_epoch, p["restarts"], crash=True)
    shutil.rmtree(data_dir, ignore_errors=True)

    return dict(preload=inputs["preload"], preload_acks=preload_acks,
                stream=stream, count=count, final_epoch=final_epoch,
                setup_times=setup_times, commits=commits, writer_wall=writer_wall,
                samples=samples, rss=rss, scraped=scraped, ckpt_bytes=ckpt_bytes,
                wal_bytes=wal_bytes, dumps=dumps + more, recover_s=median(recover),
                finals=finals)


def judge(run: dict[str, Any], n: int, inject: bool) -> tuple[Ledger, TenantOracle]:
    """Replay serially and judge every reply (off the timed path)."""
    oracle = TenantOracle(n, density=False)
    ledger = Ledger()
    batches = [("insert", e) for e in run["preload"]] + run["stream"]
    replies = run["preload_acks"] + [resp for _t, resp in run["commits"]]
    for epoch, ((kind, edges), resp) in enumerate(zip(batches, replies), 1):
        oracle.apply(kind, edges)
        ledger.check(resp.get("ok") is True and resp.get("epoch") == epoch,
                     f"ingest {epoch} committed as {resp}")
    if inject:
        corrupt(run["samples"])
    last = -1
    for sample in sorted(run["samples"], key=lambda s: s.sent):
        last = check_reply(oracle, ledger, sample.request, sample.resp, last)
    # the restart probes: first answers after kill -9, at the final epoch
    for core, density in run["finals"]:
        for request, resp in (({"what": "coreness"}, core), ({"what": "density"}, density)):
            check_reply(oracle, ledger, request, resp, run["final_epoch"])
    return ledger, oracle


def run(reaper, seed: int, seconds: float, scale: str, inject: bool,
        traced: bool = False) -> tuple[Outcome, dict]:
    p = SCALES[scale]
    raw = reaper.run(_run(reaper, seed, seconds, p, traced))
    ledger, oracle = judge(raw, p["n"], inject)
    commit_ms = [1e3 * t for t, _ in raw["commits"][p["warmup"]:]]
    edges = sum(len(e) for _, e in raw["stream"][p["warmup"]:])
    metrics = {
        "setup_s": (median(raw["setup_times"]), "s"),
        "edges_per_s": (edges / raw["writer_wall"], "edges/s"),
        "latency_p50_ms": (pct(commit_ms, 50), "ms"),
        "latency_tail_ms": (pct(commit_ms, 90), "ms"),
        "peak_rss_mb": (raw["rss"], "MiB"),
    }
    stats = reader_stats(raw["samples"])
    commit_mean_ms = sum(commit_ms) / len(commit_ms)
    service = service_rows(None, raw["scraped"], stats["rtt_mean_ms"], commit_mean_ms)
    notes = [
        f"batches committed: {len(commit_ms)} timed after {p['warmup']} warm-up "
        f"({edges} edge updates), "
        f"reader queries: {len(raw['samples'])}",
        f"commit_p50_ms = {pct(commit_ms, 50):.3f} ms, commit_p90_ms = "
        f"{pct(commit_ms, 90):.3f} ms (latency_p50_ms / latency_tail_ms)",
        f"ingest_edges_per_s = {edges / raw['writer_wall']:.3f} edges/s (edges_per_s)",
        f"recover_s = {raw['recover_s']:.3f} s (kill -9 restart to the first answer "
        "at the final epoch)",
        f"reader due->reply p50 = {pct([1e3 * (s.recv - s.due) for s in raw['samples']], 50):.3f} ms",
        "server side: " + ", ".join(f"{k} = {v:.3f}" for k, v in service.items()),
    ]
    extra = dict(raw=raw, oracle=oracle, reader=stats, service=service)
    return Outcome(metrics, ledger, notes, fingerprint(raw["preload"])), extra
