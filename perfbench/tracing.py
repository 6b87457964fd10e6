"""The traced run: per-layer attribution from the benchmark's own files.

A traced round installs hooks and wrappers around the public functions
of each layer before the stream starts, and removes them after it:

* ``repro.core``: ``DynamicMatching.set_phase_hook`` for self seconds per
  phase, and the instance's ``insert_edges`` / ``delete_edges``;
* ``repro.parallel``: ``ledger.by_tag`` snapshots at the same phase
  boundaries (never ``Ledger.set_observer``, which would send every
  batch down the object path and change what is measured);
* ``repro.native``: ``native.set_timing_hook``, chained to any hook
  already installed;
* ``repro.durability``: the manager's ``log_batch`` / ``note_applied``,
  and during recovery the checkpoint loader functions;
* ``repro.query``: ``QueryService.publish`` and the client's reads;
* ``repro.obs``: ``Observer.batch_span`` (its context manager included)
  and ``finish_batch``;
* ``repro.sharding``: ``shard_stats`` and ``ledger_breakdown()``.

The phase hook goes in before ``run_stream`` attaches its observer:
the observer chains onto an installed hook, while a later
``set_phase_hook`` would replace the chain.

Spans are kept in memory as ``(round, batch, name, start, end)`` and
written out when the run ends.  End-to-end metrics never come from a
traced round.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List

from repro import native

clock = time.perf_counter

#: Phase of the segment that ends at each phase-hook event.
PHASE_ENDS = {
    "insert.registered": "register",
    "insert.settled": "insert_settle",
    "delete.detached": "detach",
    "delete.converted": "convert",
    "delete.settle_round": "random_settle",
    "delete.settled": "delete_settle",
}
PHASE_STARTS = ("insert.begin", "delete.begin")
PHASES = ("register", "insert_settle", "detach", "convert", "random_settle",
          "delete_settle")

#: The ledger tags carrying the most work on these workloads.
TAGS = ("dict_batch", "register", "free_check", "add_cross_edge", "remove_match",
        "insert_filter", "dict_rehash", "remove_cross_edge", "find_next",
        "par_init", "random_permutation", "counting_sort")

#: The repro.native kernels that fire on these workloads (group_index,
#: dedup_first_index and pack_index never do).
KERNELS = ("seg_gather_index", "first_alive", "edit_add_level0", "edit_cross_scan",
           "edit_cross_sim", "edit_remove_match", "intern_localize")


def per_layer_catalogue() -> List[tuple]:
    """Every per-layer metric as (name, unit, better)."""
    rows = [
        ("core.insert_ms_p50", "ms", "lower"),
        ("core.delete_ms_p50", "ms", "lower"),
    ]
    rows += [(f"core.phase.{p}_s", "s", "lower") for p in PHASES]
    rows.append(("core.settle_rounds", "rounds/batch", "lower"))
    rows += [(f"core.phase.{p}_ns_per_work", "ns/work", "lower") for p in PHASES]
    rows += [(f"work.{t}_per_update", "work/update", "lower") for t in TAGS]
    rows += [
        ("dispatch.vector_batches", "count", "higher"),
        ("dispatch.object_batches", "count", "lower"),
        ("dispatch.kernel_fallbacks", "count", "lower"),
    ]
    for k in KERNELS:
        rows += [(f"native.{k}.calls", "count", "lower"), (f"native.{k}_s", "s", "lower")]
    rows += [
        ("durability.journal_append_ms_p50", "ms", "lower"),
        ("durability.checkpoint_ms_p50", "ms", "lower"),
        ("durability.checkpoint_mb", "MB", "lower"),
        ("durability.journal_bytes_per_update", "bytes/update", "lower"),
        ("durability.recover_s", "s", "lower"),
        ("durability.recover_checkpoint_s", "s", "lower"),
        ("durability.recover_replay_s", "s", "lower"),
        ("query.publish_ms_p50", "ms", "lower"),
        ("query.materialize_ms_p50", "ms", "lower"),
        ("query.point_read_us_p50", "us", "lower"),
        ("query.cache_hit_ratio", "ratio", "higher"),
        ("obs.batch_ms_p50", "ms", "lower"),
        ("sharding.cross_share", "ratio", "lower"),
        ("sharding.proposals_per_cross_update", "count", "lower"),
        ("sharding.accept_ratio", "ratio", "higher"),
        ("sharding.router_work_share", "ratio", "lower"),
        ("trace.updates_per_s", "1/s", "higher"),
        ("trace.overhead", "ratio", "higher"),
    ]
    return rows


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _journal_bytes(directory) -> int:
    if directory is None:
        return 0
    total = 0
    for root, _, files in os.walk(directory):
        if "journal.jsonl" in files:
            total += os.path.getsize(os.path.join(root, "journal.jsonl"))
    return total


class _TimedContext:
    """A context manager whose enter and exit time lands in ``sink``."""

    def __init__(self, cm, sink) -> None:
        self.cm = cm
        self.sink = sink

    def __enter__(self):
        t = clock()
        out = self.cm.__enter__()
        self.sink(t, clock())
        return out

    def __exit__(self, *exc):
        t = clock()
        out = self.cm.__exit__(*exc)
        self.sink(t, clock())
        return out


class LayerTrace:
    """Accumulates per-layer measurements over the traced rounds of a run."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.round = -1
        self.batch = 0
        self.rounds = 0
        self.updates = 0
        self.lists: Dict[str, List[float]] = {}
        self.totals: Dict[str, float] = {}
        self.phase_tags: Dict[str, Dict[str, float]] = {p: {} for p in PHASES}
        self._undo: List = []
        self._obs_batch = 0.0

    # -- accumulation helpers ------------------------------------------ #
    def _add(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + value

    def _sample(self, key: str, value: float) -> None:
        self.lists.setdefault(key, []).append(value)

    def _span(self, name: str, t0: float, t1: float) -> None:
        self.spans.append((self.round, self.batch, name, t0, t1))

    def _wrap(self, obj, name: str, sink) -> None:
        """Time every call of ``obj.name``; ``sink(t0, t1, result)``."""
        orig = getattr(obj, name)

        def timed(*args, **kwargs):
            t0 = clock()
            out = orig(*args, **kwargs)
            sink(t0, clock(), out)
            return out

        setattr(obj, name, timed)
        self._undo.append(lambda: delattr(obj, name))

    # -- installation -------------------------------------------------- #
    def install(self, svc) -> None:
        self.round += 1
        self.rounds += 1
        self.batch = 0
        self._start = {
            "tags": dict(svc.algo.ledger.by_tag),
            "hits": svc.query.cache.hits,
            "misses": svc.query.cache.misses,
            "journal": _journal_bytes(svc.directory),
        }
        if hasattr(svc.algo, "shard_stats"):
            self._start["shard"] = dict(svc.algo.shard_stats)
            self._start["breakdown"] = self._work_split(svc.algo)
        managers = [svc.manager] if svc.manager is not None else []
        for dm in svc.matchers():
            self._install_matcher(dm)
        if hasattr(svc.algo, "hosts"):
            managers += [h.shard.manager for h in svc.algo.hosts if h.shard.manager]
        for mgr in managers:
            self._wrap(mgr, "log_batch", self._on_journal)
            self._wrap(mgr, "note_applied", self._on_note_applied)
        self._wrap(svc.query, "publish", self._timer("query.publish"))
        obs = svc.observer
        span_of = obs.batch_span

        def batch_span(*args, **kwargs):
            # Hand run_stream a context manager whose enter/exit are timed too.
            t0 = clock()
            cm = span_of(*args, **kwargs)
            self._on_obs(t0, clock(), None)
            return _TimedContext(cm, self._on_obs)

        obs.batch_span = batch_span
        self._undo.append(lambda: delattr(obs, "batch_span"))
        self._wrap(obs, "finish_batch", self._on_obs)
        prev = native.set_timing_hook(None)

        def on_kernel(kernel: str, dt: float) -> None:
            now = clock()
            self._add(f"native.{kernel}.calls", 1)
            self._add(f"native.{kernel}_s", dt)
            self._span(f"native.{kernel}", now - dt, now)
            if prev is not None:
                prev(kernel, dt)

        native.set_timing_hook(on_kernel)
        self._undo.append(lambda: native.set_timing_hook(prev))

    def _install_matcher(self, dm) -> None:
        ledger = dm.ledger
        state = {"t": None, "tags": None}

        def hook(name: str) -> None:
            t = clock()
            phase = PHASE_ENDS.get(name)
            if phase is not None and state["t"] is not None:
                tags = ledger.by_tag
                before = state["tags"]
                acc = self.phase_tags[phase]
                work = 0.0
                for tag, w in tags.items():
                    d = w - before.get(tag, 0.0)
                    if d:
                        acc[tag] = acc.get(tag, 0.0) + d
                        work += d
                self._add(f"phase.{phase}_s", t - state["t"])
                self._add(f"phase.{phase}_work", work)
                self._span(f"core.phase.{phase}", state["t"], t)
                if phase == "random_settle":
                    self._add("settle_rounds", 1)
            if phase is not None or name in PHASE_STARTS:
                state["tags"] = dict(ledger.by_tag)
                state["t"] = clock()

        prev = dm.phase_hook
        dm.set_phase_hook(hook)
        self._undo.append(lambda: dm.set_phase_hook(prev))
        self._wrap(dm, "insert_edges", self._timer("core.insert"))
        self._wrap(dm, "delete_edges", self._timer("core.delete"))

    def _timer(self, name: str):
        def sink(t0: float, t1: float, _out) -> None:
            self._sample(name, t1 - t0)
            self._span(name, t0, t1)
        return sink

    def _on_journal(self, t0: float, t1: float, _out) -> None:
        self._sample("durability.log_batch", t1 - t0)
        self._span("durability.log_batch", t0, t1)

    def _on_note_applied(self, t0: float, t1: float, path) -> None:
        if path is not None:
            self._sample("durability.checkpoint", t1 - t0)
            self._sample("durability.checkpoint_bytes", os.path.getsize(path))
            self._span("durability.checkpoint", t0, t1)

    def _on_obs(self, t0: float, t1: float, _out=None) -> None:
        self._obs_batch += t1 - t0

    def _work_split(self, router) -> tuple:
        b = router.ledger_breakdown()
        return b["router"][0], b["merged_work"]

    # -- per batch / per stream ---------------------------------------- #
    def on_batch(self, i, batch, t_take, t_ack, t_mid, t_fresh, t_end, n) -> None:
        self._span("batch", t_take, t_ack)
        self._span("query.read_at", t_ack, t_mid)
        self._span("query.first_read", t_mid, t_fresh)
        self._span("query.read_group", t_fresh, t_end)
        self._sample("query.materialize", t_fresh - t_mid)
        self._sample("query.point_read", (t_end - t_fresh) / n)
        # The observer's close of this batch's span ran inside the window.
        self._sample("obs.batch", self._obs_batch)
        self._obs_batch = 0.0
        self.updates += batch.size
        self.batch = i + 1

    def after_stream(self, svc) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()
        start = self._start
        tags = svc.algo.ledger.by_tag
        for tag, w in tags.items():
            self._add(f"tag.{tag}", w - start["tags"].get(tag, 0.0))
        self._add("cache.hits", svc.query.cache.hits - start["hits"])
        self._add("cache.misses", svc.query.cache.misses - start["misses"])
        self._add("journal_bytes", _journal_bytes(svc.directory) - start["journal"])
        if "shard" in start:
            for key, v in svc.algo.shard_stats.items():
                self._add(f"shard.{key}", v - start["shard"][key])
            router_w, merged_w = self._work_split(svc.algo)
            self._add("shard.router_work", router_w - start["breakdown"][0])
            self._add("shard.merged_work", merged_w - start["breakdown"][1])

    @contextmanager
    def recovery(self):
        """Time the checkpoint half of recovery inside ``recover``."""
        import repro.durability.recovery as rec

        names = ("latest_valid_checkpoint", "restore_from_checkpoint")
        saved = {n: getattr(rec, n) for n in names}

        def timed(fn):
            def call(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                self._add("recover_checkpoint_s", clock() - t0)
                return out
            return call

        for n in names:
            setattr(rec, n, timed(saved[n]))
        try:
            yield
        finally:
            for n in names:
                setattr(rec, n, saved[n])

    def on_recovered(self, recover_s: float) -> None:
        self._add("recover_s", recover_s)
        self._add("recoveries", 1)

    # -- results ------------------------------------------------------- #
    def metrics(self, updates_per_s: float, traced_updates_per_s: float,
                vec_stats: dict) -> Dict[str, float]:
        """Per-layer metrics; the two rates are the untraced and traced
        rounds' host-corrected updates_per_s of the same run."""
        t, ls = self.totals, self.lists
        rounds = max(self.rounds, 1)
        updates = max(self.updates, 1)
        out = {
            "core.insert_ms_p50": 1e3 * _p50(ls.get("core.insert")),
            "core.delete_ms_p50": 1e3 * _p50(ls.get("core.delete")),
        }
        for p in PHASES:
            out[f"core.phase.{p}_s"] = t.get(f"phase.{p}_s", 0.0) / rounds
        out["core.settle_rounds"] = _ratio(t.get("settle_rounds", 0.0),
                                           len(ls.get("core.delete", ())))
        for p in PHASES:
            out[f"core.phase.{p}_ns_per_work"] = 1e9 * _ratio(
                t.get(f"phase.{p}_s", 0.0), t.get(f"phase.{p}_work", 0.0))
        for tag in TAGS:
            out[f"work.{tag}_per_update"] = t.get(f"tag.{tag}", 0.0) / updates
        for key in ("vector_batches", "object_batches", "kernel_fallbacks"):
            out[f"dispatch.{key}"] = vec_stats.get(key, 0) / rounds
        for k in KERNELS:
            out[f"native.{k}.calls"] = t.get(f"native.{k}.calls", 0.0) / rounds
            out[f"native.{k}_s"] = t.get(f"native.{k}_s", 0.0) / rounds
        recoveries = t.get("recoveries", 0.0)
        out.update({
            "durability.journal_append_ms_p50": 1e3 * _p50(ls.get("durability.log_batch")),
            "durability.checkpoint_ms_p50": 1e3 * _p50(ls.get("durability.checkpoint")),
            "durability.checkpoint_mb": _p50(ls.get("durability.checkpoint_bytes")) / 2**20,
            "durability.journal_bytes_per_update": t.get("journal_bytes", 0.0) / updates,
            "durability.recover_s": _ratio(t.get("recover_s", 0.0), recoveries),
            "durability.recover_checkpoint_s": _ratio(t.get("recover_checkpoint_s", 0.0),
                                                      recoveries),
            "durability.recover_replay_s": _ratio(
                t.get("recover_s", 0.0) - t.get("recover_checkpoint_s", 0.0), recoveries),
            "query.publish_ms_p50": 1e3 * _p50(ls.get("query.publish")),
            "query.materialize_ms_p50": 1e3 * _p50(ls.get("query.materialize")),
            "query.point_read_us_p50": 1e6 * _p50(ls.get("query.point_read")),
            "query.cache_hit_ratio": _ratio(t.get("cache.hits", 0.0),
                                            t.get("cache.hits", 0.0) + t.get("cache.misses", 0.0)),
            "obs.batch_ms_p50": 1e3 * _p50(ls.get("obs.batch")),
            "sharding.cross_share": _ratio(
                t.get("shard.cross_updates", 0.0),
                t.get("shard.cross_updates", 0.0) + t.get("shard.local_updates", 0.0)),
            "sharding.proposals_per_cross_update": _ratio(t.get("shard.proposals", 0.0),
                                                          t.get("shard.cross_updates", 0.0)),
            "sharding.accept_ratio": _ratio(t.get("shard.accepts", 0.0),
                                            t.get("shard.proposals", 0.0)),
            "sharding.router_work_share": _ratio(t.get("shard.router_work", 0.0),
                                                 t.get("shard.merged_work", 0.0)),
        })
        out["trace.updates_per_s"] = traced_updates_per_s
        out["trace.overhead"] = _ratio(traced_updates_per_s, updates_per_s)
        return out

    def write(self, path: str) -> None:
        """Write the spans and the per-phase ledger tags as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for rnd, batch, name, t0, t1 in self.spans:
                fh.write(json.dumps({"round": rnd, "batch": batch, "name": name,
                                     "start": t0, "dur": t1 - t0}) + "\n")
            fh.write(json.dumps({"phase_work_by_tag": self.phase_tags}) + "\n")
