"""Output checks written apart from the program under test.

The checker keeps its own map of live edges, built only from the stream
the benchmark generated, and judges the program's answers against it.
It uses nothing of the program's own verification (no
``repro.core.certify``, no ``Hypergraph.is_maximal_matching``): a fault
shared by the program and its self-checks would otherwise pass.

Every function returns a list of problems (empty when the output is
correct) instead of raising, so a run can count failures and still
report.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

#: Problems listed per check before the rest are summarised.
MAX_PROBLEMS = 5


class LiveEdges:
    """The live edge set implied by the generated stream: eid -> vertices."""

    def __init__(self) -> None:
        self.edges: Dict[int, Tuple[int, ...]] = {}

    def apply(self, batch) -> None:
        if batch.kind == "insert":
            for e in batch.edges:
                self.edges[e.eid] = tuple(e.vertices)
        else:
            for eid in batch.eids:
                del self.edges[eid]

    def __len__(self) -> int:
        return len(self.edges)


def cover_of(live: Dict[int, Tuple[int, ...]],
             matched: Iterable[int]) -> Tuple[Dict[int, int], List[str]]:
    """The vertex -> matched edge map of ``matched``, plus the problems
    found building it: matched edges that are not live, and matched edges
    that share a vertex."""
    cover: Dict[int, int] = {}
    problems: List[str] = []
    for eid in matched:
        vs = live.get(eid)
        if vs is None:
            problems.append(f"matched edge {eid} is not live")
            continue
        for v in vs:
            other = cover.get(v)
            if other is not None:
                problems.append(f"matched edges {other} and {eid} share vertex {v}")
            cover[v] = eid
    return cover, problems[:MAX_PROBLEMS]


def check_matching(live: Dict[int, Tuple[int, ...]],
                   matched: Iterable[int]) -> Tuple[Dict[int, int], List[str]]:
    """Is ``matched`` a maximal matching of ``live``?

    It must use only live edges, its edges must be pairwise disjoint, and
    every live edge must touch a matched vertex.  Returns the cover map
    and the problems found."""
    cover, problems = cover_of(live, matched)
    uncovered = 0
    for eid, vs in live.items():
        for v in vs:
            if v in cover:
                break
        else:
            uncovered += 1
            if len(problems) < MAX_PROBLEMS:
                problems.append(f"live edge {eid} {vs} touches no matched vertex")
    if uncovered > 1:
        problems.append(f"{uncovered} live edges touch no matched vertex")
    return cover, problems


def check_read(live: Dict[int, Tuple[int, ...]], cover: Dict[int, int],
               v: int, answer: Optional[int]) -> Optional[str]:
    """A point read of ``v`` must return None exactly when the writer
    leaves ``v`` unmatched, else the live matched edge that contains it."""
    expected = cover.get(v)
    if answer == expected:
        return None
    if answer is not None and answer not in live:
        return f"read of vertex {v} returned edge {answer}, which is not live"
    if answer is not None and v not in live[answer]:
        return f"read of vertex {v} returned edge {answer} {live[answer]}, which misses it"
    return f"read of vertex {v} returned {answer}, the writer matches it by {expected}"


def check_recovered(live: Dict[int, Tuple[int, ...]], live_matched: List[int],
                    rec_matched: List[int], rec_eids: Iterable[int]) -> List[str]:
    """The recovered service must hold the live service's matching and
    live edge set, and pass the same maximality check."""
    problems: List[str] = []
    if sorted(rec_matched) != sorted(live_matched):
        problems.append(
            f"recovered matching differs from the live one "
            f"({len(rec_matched)} vs {len(live_matched)} edges)"
        )
    rec = set(rec_eids)
    if rec != live.keys():
        problems.append(
            f"recovered edge set differs: {len(rec - live.keys())} extra, "
            f"{len(live.keys() - rec)} missing"
        )
    problems += check_matching(live, rec_matched)[1]
    return problems
