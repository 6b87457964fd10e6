"""Workload definitions and seeded input generation.

Every input the benchmark feeds the program is made here from the
workload seed alone, before any timing starts: the initial graph that
set-up bulk-loads and the fixed stream of update batches that one round
replays.  The same seed gives the same inputs, batch for batch.

The four workloads stress different layers of the program (see
README.md for the table of which per-layer metric should move which
end-to-end metric on which workload).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

import numpy as np

from repro.hypergraph.edge import Edge
from repro.workloads.adversary import RandomOrderAdversary
from repro.workloads.streams import UpdateBatch


@dataclass(frozen=True)
class Workload:
    """The make-up of one workload; sizes are per round."""

    name: str
    why: str
    rank: int
    vertices: int
    initial_edges: int
    batch: int
    #: "churn": alternate insert / uniformly random delete batches;
    #: "drain": delete every initial edge in an oblivious random order.
    shape: str
    #: churn: insert/delete pairs per round (drain: derived from sizes).
    pairs: int = 0
    #: "default" (run_stream's process-wide observer) or "bridge"
    #: (Observer(bridge=True) plus native kernel timing, as `serve` attaches).
    observer: str = "default"
    durable: bool = False
    shards: int = 0
    #: point reads timed as one group after each batch's fresh read.
    read_group: int = 256


#: Batches between checkpoints on the durable workloads (the `serve` default).
CHECKPOINT_EVERY = 16
#: Set-up bulk-loads the initial graph in batches of this many edges.
LOAD_CHUNK = 16384

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="churn-bulk",
            why="large rank-2 churn batches with no journal: the matcher's "
                "core, ledger and native kernels take almost all the time",
            rank=2, vertices=1 << 16, initial_edges=1 << 17, batch=8192,
            shape="churn", pairs=20,
        ),
        Workload(
            name="drain-rank4",
            why="delete-only drain of a rank-4 hypergraph to empty in random "
                "order: randomSettle, remove_match and cross-edge scans",
            rank=4, vertices=1 << 12, initial_edges=1 << 16, batch=1024,
            shape="drain",
        ),
        Workload(
            name="serve-observed",
            why="the serve path: fsynced journal, checkpoint every 16 "
                "batches, bridged observer, epoch publish and reads, recovery",
            rank=2, vertices=1 << 12, initial_edges=1 << 12, batch=256,
            shape="churn", pairs=160, observer="bridge", durable=True,
        ),
        Workload(
            name="sharded-churn",
            why="two inline shards with durable roots: half the updates cross "
                "shards, so the router's two-phase handoff dominates",
            rank=2, vertices=1 << 13, initial_edges=1 << 13, batch=512,
            shape="churn", pairs=40, durable=True, shards=2,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same workload at toy sizes (a few batches, every check on)."""
    return replace(
        w,
        vertices=max(64, w.vertices >> 8),
        initial_edges=max(128, w.initial_edges >> 8),
        batch=max(16, w.batch >> 6),
        pairs=min(w.pairs, 20),
        read_group=16,
    )


@dataclass
class Inputs:
    """One round's inputs: the graph set-up loads and the timed stream."""

    initial: List[Edge]
    stream: List[UpdateBatch]
    #: per batch, the vertex of the fresh read and the group's vertices.
    fresh_vertices: np.ndarray
    group_vertices: np.ndarray

    @property
    def updates(self) -> int:
        return sum(b.size for b in self.stream)


def _random_edges(rng: np.random.Generator, n: int, count: int, start: int,
                  rank: int) -> List[Edge]:
    """``count`` edges of exactly ``rank`` distinct vertices in [0, n)."""
    rows = rng.integers(0, n, size=(count, rank))
    while True:
        srt = np.sort(rows, axis=1)
        bad = np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))
        if bad.size == 0:
            break
        rows[bad] = rng.integers(0, n, size=(bad.size, rank))
    return [Edge(start + i, row) for i, row in enumerate(rows.tolist())]


def _churn(w: Workload, rng: np.random.Generator,
           initial: List[Edge]) -> List[UpdateBatch]:
    live = [e.eid for e in initial]
    next_eid = len(initial)
    stream: List[UpdateBatch] = []
    for _ in range(w.pairs):
        fresh = _random_edges(rng, w.vertices, w.batch, next_eid, w.rank)
        next_eid += w.batch
        stream.append(UpdateBatch.insert(fresh))
        live.extend(e.eid for e in fresh)
        victims = rng.choice(len(live), size=w.batch, replace=False)
        doomed = []
        for i in sorted(victims.tolist(), reverse=True):
            doomed.append(live[i])
            live[i] = live[-1]
            live.pop()
        stream.append(UpdateBatch.delete(doomed))
    return stream


def _drain(w: Workload, rng: np.random.Generator,
           initial: List[Edge]) -> List[UpdateBatch]:
    order = RandomOrderAdversary(rng=rng).deletion_order(initial)
    return [UpdateBatch.delete(order[i:i + w.batch])
            for i in range(0, len(order), w.batch)]


def make_inputs(w: Workload, seed: int) -> Inputs:
    """The inputs of workload ``w`` for ``seed`` (deterministic)."""
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    initial = _random_edges(rng, w.vertices, w.initial_edges, 0, w.rank)
    stream = _churn(w, rng, initial) if w.shape == "churn" else _drain(w, rng, initial)
    fresh = rng.integers(0, w.vertices, size=len(stream))
    group = rng.integers(0, w.vertices, size=(len(stream), w.read_group))
    return Inputs(initial, stream, fresh, group)


def load_batches(inputs: Inputs) -> List[UpdateBatch]:
    """Set-up's bulk load of the initial graph."""
    edges = inputs.initial
    return [UpdateBatch.insert(edges[i:i + LOAD_CHUNK])
            for i in range(0, len(edges), LOAD_CHUNK)]

