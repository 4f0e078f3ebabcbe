"""Chunked, cost-aware dispatch planning for the parallel engine.

The executor used to submit one future per design point and consume
them in submission order, so one slow point at the head of the queue
stalled every completed result behind it, and per-point submit/pickle
overhead was paid ``len(points)`` times.  This module plans the batch
instead:

* a :class:`CostModel` estimates each point's relative wall clock --
  exact cycle counts from the run ledger when the point (or its
  workload) has history, a settings-budget proxy otherwise;
* :func:`plan_chunks` packs the points, **largest estimated cost
  first**, into a few self-scheduled chunks per worker.  The expensive
  head of the sweep runs first (so it never becomes the last straggler)
  and the cheap tail is batched so per-task overhead stops mattering.
  Workers pull chunks from the pool's shared call queue as they go
  idle -- classic self-scheduling, which behaves like work stealing
  without a per-worker deque.

Phase timings (pricing, packing, queue wait, absorb, retry tail) are
sweep spans; the ``--progress`` pool line shows the batch's workers,
chunks and busy share.

Cost estimates influence *scheduling only*: results, the ledger (rows
are digest-sorted), checkpoint marks (set semantics), and the failure
log (the retry tail replays in plan order) are identical to a serial
run no matter how wrong the estimates are.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.key import ExperimentKey
    from repro.workloads.generator import WorkloadSpec

#: Chunks planned per worker.  More chunks = better load balance when
#: estimates are wrong; fewer = less dispatch overhead.  A handful per
#: worker keeps both small.
CHUNKS_PER_WORKER = 4

#: Hard cap on points per chunk, so a mis-estimated cheap tail cannot
#: collapse into one serial mega-chunk.
CHUNK_MAX = 16

#: Relative cost of one timing-phase instruction versus one
#: functional-warmup reference (the timing loop simulates the pipeline
#: and the full hierarchy; warm-up only touches the caches).
_TIMING_WEIGHT = 8.0

#: How many recent ledger records feed the cost model.
_HISTORY_RECORDS = 50


def _budget_proxy(key: "ExperimentKey") -> float:
    """Settings-only cost proxy: weighted instructions to simulate."""
    settings = key.settings
    return float(settings.functional_warmup) + _TIMING_WEIGHT * float(
        settings.timing_warmup + settings.instructions
    )


class CostModel:
    """Relative wall-clock estimates for design points.

    Resolution order per point:

    1. exact history -- the last ledger ``cycles`` recorded for this
       digest (cycles are an excellent wall-clock proxy within one
       backend);
    2. workload history -- the workload's mean cycles-per-instruction,
       scaled by the point's settings budget;
    3. the settings budget proxy alone.

    Estimates only order and group work, so a cold ledger degrades to
    budget-proportional scheduling, never to wrong results.
    """

    def __init__(
        self,
        exact: "dict[str, float] | None" = None,
        workload_cpi: "dict[str, float] | None" = None,
    ):
        self._exact = exact or {}
        self._workload_cpi = workload_cpi or {}

    @classmethod
    def from_records(cls, records: "Iterable[dict]") -> "CostModel":
        """Build from run-ledger records (newest record wins per digest)."""
        exact: dict[str, float] = {}
        cpi_sums: dict[str, list[float]] = {}
        for record in records:
            for row in record.get("points", ()):
                digest = row.get("digest")
                cycles = row.get("cycles") or 0
                instructions = row.get("instructions") or 0
                if not digest or cycles <= 0:
                    continue
                exact[digest] = float(cycles)
                workload = row.get("workload")
                if workload and instructions > 0:
                    cpi_sums.setdefault(workload, []).append(
                        cycles / instructions
                    )
        workload_cpi = {
            workload: sum(samples) / len(samples)
            for workload, samples in cpi_sums.items()
        }
        return cls(exact, workload_cpi)

    @classmethod
    def for_engine(cls, engine) -> "CostModel":
        """The model for one batch: ledger history when a store exists."""
        if engine.store is None:
            return cls()
        try:
            records = engine.store.ledger().records()[-_HISTORY_RECORDS:]
        except Exception:  # noqa: BLE001 - scheduling must never fail a run
            return cls()
        return cls.from_records(records)

    def estimate(self, key: "ExperimentKey") -> float:
        exact = self._exact.get(key.digest[:12])
        if exact is not None:
            return exact
        proxy = _budget_proxy(key)
        cpi = self._workload_cpi.get(key.workload)
        if cpi is not None:
            return cpi * proxy
        return proxy


def plan_chunks(
    points: "list[tuple[ExperimentKey, WorkloadSpec]]",
    estimate: "Callable[[ExperimentKey], float]",
    workers: int,
) -> "list[list[tuple[ExperimentKey, WorkloadSpec]]]":
    """Pack points into cost-balanced chunks, most expensive first.

    Points are sorted by descending estimated cost (digest-tiebroken,
    so the plan is deterministic), then greedily packed until a chunk
    reaches the batch's target cost (total / (workers x
    :data:`CHUNKS_PER_WORKER`)) or :data:`CHUNK_MAX` points.  Expensive
    points therefore land in small (often singleton) head chunks while
    the cheap tail is batched -- the schedule that minimizes both
    straggler latency and per-task overhead.
    """
    if not points:
        return []
    costs = {key.digest: max(estimate(key), 1.0) for key, _ in points}
    ordered = sorted(
        points, key=lambda pair: (-costs[pair[0].digest], pair[0].digest)
    )
    target_chunks = max(workers * CHUNKS_PER_WORKER, 1)
    target_cost = sum(costs.values()) / target_chunks
    chunks: list[list[tuple]] = []
    current: list[tuple] = []
    current_cost = 0.0
    for key, spec in ordered:
        current.append((key, spec))
        current_cost += costs[key.digest]
        if current_cost >= target_cost or len(current) >= CHUNK_MAX:
            chunks.append(current)
            current = []
            current_cost = 0.0
    if current:
        chunks.append(current)
    return chunks

