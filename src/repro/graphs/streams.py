"""Batch-update streams: the dynamic workloads fed to every structure.

A *stream* is an iterable of :class:`BatchOp` — either an insert batch or a
delete batch of canonical edges, always valid against the running graph
(inserts absent, deletes present).  Streams are the reproduction's stand-in
for real dynamic traces (DESIGN.md §2 item 4) and include the adversarial
patterns that separate worst-case from amortized algorithms (experiment E2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence

from ..errors import ParameterError
from ..rng import coerce_rng
from .generators import clique as make_clique
from .graph import Edge, norm_edge

Kind = Literal["insert", "delete"]


@dataclass(frozen=True)
class BatchOp:
    """One batch update."""

    kind: Kind
    edges: tuple[Edge, ...]

    @property
    def size(self) -> int:
        return len(self.edges)


def _chunks(seq: Sequence[Edge], size: int) -> Iterator[tuple[Edge, ...]]:
    if size < 1:
        raise ParameterError(f"batch size must be >= 1, got {size}")
    for i in range(0, len(seq), size):
        yield tuple(seq[i : i + size])


def insert_only(edges: Sequence[Edge], batch_size: int) -> list[BatchOp]:
    """Feed a fixed edge list as insert batches of the given size."""
    return [BatchOp("insert", chunk) for chunk in _chunks(edges, batch_size)]


def insert_then_delete(
    edges: Sequence[Edge], batch_size: int, seed: int | random.Random = 0
) -> list[BatchOp]:
    """Insert everything, then delete everything in shuffled batches."""
    rng = coerce_rng(seed)
    ops = insert_only(edges, batch_size)
    doomed = list(edges)
    rng.shuffle(doomed)
    ops.extend(BatchOp("delete", chunk) for chunk in _chunks(doomed, batch_size))
    return ops


def sliding_window(
    edges: Sequence[Edge], window: int, batch_size: int
) -> list[BatchOp]:
    """Temporal sliding window: insert batch i, delete batch i - window.

    Models the 'streaming with expiry' workloads that motivate batch-dynamic
    algorithms (e.g. interaction graphs over the last k hours).
    """
    if window < 1:
        raise ParameterError("window must be >= 1")
    chunks = list(_chunks(edges, batch_size))
    ops: list[BatchOp] = []
    for i, chunk in enumerate(chunks):
        ops.append(BatchOp("insert", chunk))
        if i >= window:
            ops.append(BatchOp("delete", chunks[i - window]))
    return ops


def churn(
    n: int,
    steps: int,
    batch_size: int,
    insert_bias: float = 0.55,
    seed: int | random.Random = 0,
) -> list[BatchOp]:
    """Random mixed workload on ``n`` vertices.

    Each step is one batch: with probability ``insert_bias`` an insert batch
    of fresh random edges, otherwise a delete batch of currently live edges.
    Always valid; degenerates to insert when nothing is live.
    """
    if n < 2 or batch_size < 1:
        raise ParameterError(
            f"churn needs n >= 2 and batch size >= 1, got {n}, {batch_size}"
        )
    rng = coerce_rng(seed)
    live: set[Edge] = set()
    ops: list[BatchOp] = []
    for _ in range(steps):
        do_insert = rng.random() < insert_bias or not live
        if do_insert:
            fresh: set[Edge] = set()
            attempts = 0
            while len(fresh) < batch_size and attempts < 50 * batch_size + 100:
                attempts += 1
                u, v = rng.randrange(n), rng.randrange(n)
                if u == v:
                    continue
                e = norm_edge(u, v)
                if e not in live and e not in fresh:
                    fresh.add(e)
            if not fresh:
                continue
            live |= fresh
            ops.append(BatchOp("insert", tuple(sorted(fresh))))
        else:
            k = min(batch_size, len(live))
            victims = tuple(sorted(rng.sample(sorted(live), k)))
            live -= set(victims)
            ops.append(BatchOp("delete", victims))
    return ops


def sawtooth_clique(
    k: int, repeats: int, small_batch: int = 1, offset: int = 0
) -> list[BatchOp]:
    """The amortization-killer (experiment E2).

    Repeatedly: build a k-clique in one large batch, then tear it down in
    many tiny batches (and rebuild...).  Amortized structures pay for the
    build during later tiny batches — their per-batch work spikes — while a
    worst-case structure keeps every tiny batch cheap.
    """
    _, edges = make_clique(k, offset)
    ops: list[BatchOp] = []
    for _ in range(repeats):
        ops.append(BatchOp("insert", tuple(edges)))
        for chunk in _chunks(edges, small_batch):
            ops.append(BatchOp("delete", chunk))
    return ops


def density_ramp(
    n: int, block: int, levels: int, per_level: int, seed: int | random.Random = 0
) -> list[BatchOp]:
    """Insert batches that progressively densify a planted block.

    Drives ρ(G) upward in known steps so the ladder structures (Thm 1.2)
    must hand over between rungs — exercises the crossover logic.
    """
    rng = coerce_rng(seed)
    if block > n:
        raise ParameterError("block must be <= n")
    all_block_edges = [
        (u, v) for u in range(block) for v in range(u + 1, block)
    ]
    rng.shuffle(all_block_edges)
    ops: list[BatchOp] = []
    idx = 0
    for _ in range(levels):
        chunk = all_block_edges[idx : idx + per_level]
        if not chunk:
            break
        idx += len(chunk)
        ops.append(BatchOp("insert", tuple(sorted(chunk))))
    return ops


def replay(ops: Iterable[BatchOp], graph) -> None:
    """Apply a stream to a :class:`~repro.graphs.graph.DynamicGraph` (or
    to any structure with ``insert_batch``/``delete_batch``)."""
    for op in ops:
        if op.kind == "insert":
            graph.insert_batch(op.edges)
        else:
            graph.delete_batch(op.edges)
