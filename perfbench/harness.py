"""Closed-loop rounds over the program's public entry points.

One round builds a fresh service (timed as set-up), drives the
workload's fixed stream through ``run_stream`` with a single client, and
ends with a recovery of the durable directory where there is one.  The
client is the stream iterator itself: it hands ``run_stream`` the next
batch only after the previous one is acknowledged and that batch's reads
are done, so the loop is closed with exactly one client and one thread.

Timed windows:

* acknowledgement: from ``run_stream`` taking a batch from the iterator
  until control comes back to it (journal, apply, checkpoint when due,
  epoch publish and observer all fall inside);
* fresh read: from that acknowledgement until ``QueryService.read_at``
  at the batch's epoch plus one point read return;
* read group: ``read_group`` point reads on uniformly drawn vertices,
  timed as one group, never one call at a time.

Checks run outside every timed window.  Every round of a run starts from
the same seed, so its ledger totals must repeat exactly.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.core.dynamic_matching import DynamicMatching
from repro.durability import DurabilityManager, recover
from repro.obs import Observer
from repro.obs.observer import default_observer
from repro.query import EpochNotReady, QueryService
from repro.sharding import ShardedMatching, recover_sharded
from repro.workloads.runner import run_stream

from checker import LiveEdges, check_matching, check_read, check_recovered, cover_of
from workloads import CHECKPOINT_EVERY, Inputs, Workload, load_batches

clock = time.perf_counter

#: The calibration's table: larger than the caches, like the program's
#: own dicts, so that memory contention from other tenants shows in it.
_CALIBRATION_TABLE = {k: k ^ 0x5555 for k in range(1 << 16)}


def _lookup(key: int):
    return _CALIBRATION_TABLE.get(key)


def calibrate() -> float:
    """Seconds a fixed pure-Python workload of calls and dict lookups
    takes: one sample of the host's speed, taken after each batch outside
    every timed window."""
    t0 = clock()
    x = 1
    total = 0
    for _ in range(2000):
        x = (x * 1103515245 + 12345) & 0xFFFF
        total += _lookup(x)
    return clock() - t0


#: A full maximality check runs after every SAMPLE_EVERY-th batch and
#: after the last one; every other batch gets the cheaper disjointness
#: and liveness check of the matching its reads are judged against.
SAMPLE_EVERY = 16


@dataclass
class Service:
    """One built service: the writer, its read tier and durability."""

    algo: Any
    query: QueryService
    manager: Optional[DurabilityManager]
    #: what run_stream is given as ``observer`` (None: its default one).
    run_observer: Optional[Observer]
    #: the observer run_stream publishes into, either way.
    observer: Observer
    directory: Optional[str]
    detach: List[Any] = field(default_factory=list)

    def matchers(self) -> List[DynamicMatching]:
        """The DynamicMatching instances doing the work (one per shard)."""
        if isinstance(self.algo, ShardedMatching):
            return [host.shard.dm for host in self.algo.hosts]
        return [self.algo]

    def close(self) -> None:
        for fn in self.detach:
            fn()
        self.detach.clear()
        if self.manager is not None:
            self.manager.close()
        if isinstance(self.algo, ShardedMatching):
            self.algo.close()


def build_service(w: Workload, inputs: Inputs, seed: int,
                  directory: Optional[str]) -> Service:
    """Build the service and bulk-load the initial graph (set-up)."""
    manager = None
    if w.shards:
        algo = ShardedMatching(
            shards=w.shards, rank=w.rank, seed=seed, transport="inline",
            durability_root=directory, checkpoint_every=CHECKPOINT_EVERY,
        )
    else:
        algo = DynamicMatching(rank=w.rank, seed=seed)
        if w.durable:
            manager = DurabilityManager.create(
                directory, algo, checkpoint_every=CHECKPOINT_EVERY, fsync=True
            )
    run_stream(algo, load_batches(inputs), durability=manager, observer=False)
    query = QueryService(algo)
    detach = []
    if w.observer == "bridge":
        observer = run_observer = Observer(bridge=True)
        detach.append(observer.attach_native_kernels())
    else:
        observer, run_observer = default_observer(), None
    return Service(algo, query, manager, run_observer, observer, directory, detach)


def vec_totals(svc: Service) -> dict:
    total: dict = {}
    for dm in svc.matchers():
        for k, v in dm.vec_stats.items():
            total[k] = total.get(k, 0) + v
    return total


@dataclass
class RoundResult:
    setup_s: float = 0.0
    #: (batch kind, seconds) per acknowledged batch and per fresh read.
    ack_s: List[tuple] = field(default_factory=list)
    fresh_s: List[tuple] = field(default_factory=list)
    #: calibrate() once after each batch: the host's speed during the round.
    calib_s: List[float] = field(default_factory=list)
    reads: int = 0
    read_s: float = 0.0
    updates: int = 0
    work_per_update: float = 0.0
    depth_max: float = 0.0
    recover_s: Optional[float] = None
    vec_stats: dict = field(default_factory=dict)
    batches: int = 0
    acked: int = 0
    #: batches plus reads, and how many of them failed.
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def run_round(w: Workload, inputs: Inputs, seed: int, workdir: str,
              tracer=None) -> RoundResult:
    """Set up, stream, read, check and (where durable) recover once."""
    res = RoundResult()
    stream = inputs.stream
    directory = None
    if w.durable:
        directory = os.path.join(workdir, "service")
        shutil.rmtree(directory, ignore_errors=True)
    gc.collect()

    t0 = clock()
    svc = build_service(w, inputs, seed, directory)
    res.setup_s = clock() - t0

    live = LiveEdges()
    for batch in load_batches(inputs):
        live.apply(batch)
    query, algo = svc.query, svc.algo
    vec0 = vec_totals(svc)
    acked = 0
    per_batch_reads = 1 + inputs.group_vertices.shape[1]

    def client():
        nonlocal acked
        for i, batch in enumerate(stream):
            t_take = clock()
            yield batch
            t_ack = clock()
            acked += 1
            res.ack_s.append((batch.kind, t_ack - t_take))
            epoch = i + 1
            v = int(inputs.fresh_vertices[i])
            group = inputs.group_vertices[i].tolist()
            match_of = query.match_of
            try:
                query.read_at(epoch)
                t_mid = clock()
                first = match_of(v, at_least=epoch)
                t_fresh = clock()
                answers = [match_of(u) for u in group]
                t_end = clock()
            except EpochNotReady as exc:
                res.failed += per_batch_reads
                res.problems.append(f"batch {i}: {exc}")
                live.apply(batch)
                continue
            res.fresh_s.append((batch.kind, t_fresh - t_ack))
            res.reads += len(group)
            res.read_s += t_end - t_fresh
            if tracer is not None:
                tracer.on_batch(i, batch, t_take, t_ack, t_mid, t_fresh, t_end,
                                len(group))
            # Untimed from here: sample host speed, judge the batch and its reads.
            res.calib_s.append(calibrate())
            live.apply(batch)
            matched = algo.matched_ids()
            if (i + 1) % SAMPLE_EVERY == 0 or i + 1 == len(stream):
                cover, problems = check_matching(live.edges, matched)
            else:
                cover, problems = cover_of(live.edges, matched)
            for u, ans in zip([v] + group, [first] + answers):
                msg = check_read(live.edges, cover, u, ans)
                if msg is not None:
                    problems.append(msg)
            res.problems += [f"batch {i}: {p}" for p in problems[:5]]

    if tracer is not None:
        tracer.install(svc)
    records = []
    try:
        records = run_stream(algo, client(), durability=svc.manager,
                             observer=svc.run_observer, query=query)
    except Exception as exc:  # noqa: BLE001 - count it, report it, go on
        res.problems.append(f"batch {acked} raised {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.after_stream(svc)
    res.batches, res.acked = len(stream), acked
    res.attempted = len(stream) * (1 + per_batch_reads)
    res.failed += (len(stream) - acked) * (1 + per_batch_reads)
    res.vec_stats = {k: v - vec0.get(k, 0) for k, v in vec_totals(svc).items()}
    if records:
        res.updates = sum(r.size for r in records)
        res.work_per_update = sum(r.work for r in records) / res.updates
        res.depth_max = max(r.depth for r in records)
    complete = acked == len(stream)

    if w.durable and complete:
        live_matched = list(algo.matched_ids())
        svc.close()
        with tracer.recovery() if tracer is not None else nullcontext():
            t0 = clock()
            if w.shards:
                rec = recover_sharded(directory, do_certify=False).router
                res.recover_s = clock() - t0
                rec_matched, rec_eids = rec.matched_ids(), [e.eid for e in rec.all_edges()]
                rec.close()
            else:
                rec = recover(directory, do_certify=False).dm
                res.recover_s = clock() - t0
                rec_matched = rec.matched_ids()
                rec_eids = [e.eid for e in rec.structure.all_edges()]
        res.problems += [f"recovery: {p}" for p in
                         check_recovered(live.edges, live_matched, rec_matched, rec_eids)]
    else:
        svc.close()
    if directory is not None:
        shutil.rmtree(directory, ignore_errors=True)
    return res

