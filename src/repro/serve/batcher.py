"""Micro-batching request scheduler on the simulated clock.

Serving traffic arrives one request at a time; the compiled predictor is
fastest on large batches.  The :class:`MicroBatcher` bridges the two with
the classic policy pair: a batch dispatches when it reaches
``max_batch_size`` requests **or** when its oldest request has waited
``max_delay_s``, whichever comes first.  Following the repo's simulation
discipline (computation real, coordination simulated), time is a simulated
clock driven by the trace's arrival process — by default the *service*
time of each batch is the measured wall-clock of the compiled predictor,
while tests substitute a deterministic ``service_model`` so schedules are
reproducible down to the float.

Every run is recorded in a columnar :class:`ServingReport` — one numpy
array per field: per served request its id, arrival and batch; per
batch its close, dispatch start, completion, worker and model version;
per dropped request its id, arrival, drop instant, reason, tenant and
priority — and summarized by :class:`LatencyStats` (p50/p95/p99/mean/
max latency plus throughput).  The model version of a batch is resolved
exactly once at dispatch and stored once per batch — that is what makes
a registry hot-swap atomic from the traffic's point of view: each
request is served by exactly one version, and the swap falls on a batch
boundary.
"""

from __future__ import annotations

import bisect
import time
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import (Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..ledger import percentile_summary
from .compiler import CompiledEnsemble
from .registry import ModelRegistry

#: a hot-swap scheduled on the simulated clock: ``(time_s, action)``;
#: the action receives the swap time (e.g. to stamp a deploy)
SwapEvent = Tuple[float, Callable[[float], None]]


@dataclass(frozen=True)
class BatchPolicy:
    """Dispatch a batch at ``max_batch_size`` requests or after the
    oldest request has waited ``max_delay_s``, whichever happens first.

    ``max_queue`` bounds the admission queue (0 = unbounded, the
    default).  When offered load exceeds capacity a bounded queue fills
    and the ``overload`` policy decides who pays: ``"reject"`` drops the
    *newcomer* at its arrival (drop-tail — queued requests keep their
    place, admission latency is predictable), ``"shed-oldest"`` drops
    the *head* of the queue to admit the newcomer (drop-head — the
    request most likely to already be uselessly stale is sacrificed,
    as in SEDA-style load shedding).  Dropped requests appear in the
    :class:`ServingReport` ledger and the drop rate in
    :class:`LatencyStats`.
    """

    max_batch_size: int = 64
    max_delay_s: float = 0.002
    max_queue: int = 0
    overload: str = "reject"

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if not (self.max_delay_s >= 0.0):
            raise ValueError("max_delay_s must be >= 0")
        if self.max_queue < 0:
            raise ValueError("max_queue must be >= 0 (0 = unbounded)")
        if 0 < self.max_queue < self.max_batch_size:
            raise ValueError(
                "a bounded queue must hold at least one full batch: "
                f"max_queue={self.max_queue} < "
                f"max_batch_size={self.max_batch_size}"
            )
        if self.overload not in ("reject", "shed-oldest"):
            raise ValueError(
                f"unknown overload policy: {self.overload!r} "
                "(choose 'reject' or 'shed-oldest')"
            )

    @property
    def bounded(self) -> bool:
        return self.max_queue > 0


@dataclass(frozen=True)
class RequestTrace:
    """A replayable serving workload: rows plus their arrival times.

    ``features`` is a dense ``(num_requests, num_features)`` float64
    matrix (``NaN`` marks missing values, matching the sparse-input
    convention of :class:`~repro.serve.compiler.CompiledEnsemble`);
    ``arrivals`` is finite, nondecreasing simulated seconds.  A ``NaN``
    or infinite arrival is rejected here rather than silently producing
    negative queue delays downstream (``NaN`` compares false against
    everything, so a diff-based monotonicity check alone lets it
    through).

    ``tenants`` and ``priorities`` are optional per-request ``int``
    arrays for multi-tenant traffic: ``tenants[i]`` names the fleet
    tenant that issued request ``i`` (an index into whatever tenant
    table the trace builder keeps) and ``priorities[i]`` is its
    admission priority class — **higher values are more important** and
    are shed last under overload.  Single-tenant traces leave both
    ``None``; every request then belongs to tenant 0 at priority 0.
    """

    features: np.ndarray
    arrivals: np.ndarray
    tenants: Optional[np.ndarray] = None
    priorities: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError("trace features must be 2-D")
        if self.arrivals.shape != (self.features.shape[0],):
            raise ValueError("one arrival time per request required")
        if self.arrivals.size and not np.all(np.isfinite(self.arrivals)):
            raise ValueError(
                "arrival times must be finite (a NaN or infinite "
                "arrival would corrupt every queue-delay downstream)"
            )
        if self.arrivals.size and np.any(np.diff(self.arrivals) < 0):
            raise ValueError("arrival times must be nondecreasing")
        for name in ("tenants", "priorities"):
            extra = getattr(self, name)
            if extra is None:
                continue
            if extra.shape != (self.features.shape[0],):
                raise ValueError(f"one {name[:-1]} entry per request "
                                 "required")
            if not np.issubdtype(extra.dtype, np.integer):
                raise ValueError(f"{name} must be an integer array")

    @property
    def num_requests(self) -> int:
        return self.features.shape[0]

    def tenant_of(self, request_id: int) -> int:
        """Tenant index of one request (0 for single-tenant traces)."""
        return (0 if self.tenants is None
                else int(self.tenants[request_id]))

    def priority_of(self, request_id: int) -> int:
        """Admission priority of one request (0 when unprioritized)."""
        return (0 if self.priorities is None
                else int(self.priorities[request_id]))

    def csc(self):
        """The trace rows as a :class:`~repro.data.matrix.CSCMatrix`.

        Non-``NaN`` entries become stored entries — the format
        ``TreeEnsemble.raw_scores`` consumes, used by the bench's naive
        baseline and the exactness tests.  (A dense trace cannot carry a
        *stored* exact zero; synthetic Gaussian traces never hit one.)
        """
        from ..data.matrix import CSCMatrix

        mask = ~np.isnan(self.features)
        by_col = mask.T
        cols, rows = np.nonzero(by_col)
        indptr = np.concatenate(
            ([0], np.cumsum(by_col.sum(axis=1)))
        ).astype(np.int64)
        return CSCMatrix(indptr, rows.astype(np.int64),
                         np.ascontiguousarray(self.features.T[by_col]),
                         self.features.shape[0])


def synthetic_trace(num_requests: int, num_features: int,
                    rate_rps: float, seed: int = 0,
                    missing_rate: float = 0.2) -> RequestTrace:
    """Seeded Poisson-arrival trace with Gaussian features.

    Inter-arrival gaps are exponential with mean ``1 / rate_rps``; a
    ``missing_rate`` fraction of entries is blanked to ``NaN`` so the
    default-direction paths of the served model actually get traffic.
    """
    if rate_rps <= 0.0:
        raise ValueError("rate_rps must be positive")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((num_requests, num_features))
    if missing_rate > 0.0:
        features[rng.random(features.shape) < missing_rate] = np.nan
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, num_requests))
    return RequestTrace(features=features, arrivals=arrivals)


@dataclass(frozen=True)
class RequestRecord:
    """One served request, as a row view of the ledger (all times
    simulated)."""

    request_id: int
    arrival_s: float
    batch_id: int
    start_s: float
    completion_s: float
    worker: int
    model_version: int

    @property
    def latency_s(self) -> float:
        return self.completion_s - self.arrival_s

    @property
    def queue_s(self) -> float:
        """Time spent waiting before the batch started computing."""
        return self.start_s - self.arrival_s


@dataclass(frozen=True)
class DropRecord:
    """Ledger entry for one request dropped by the overload policy.

    ``reason`` is ``"reject"`` (drop-tail: the request was turned away
    at arrival) or ``"shed-oldest"`` (drop-head: it was admitted but
    evicted at ``drop_s`` to make room for a newer arrival).

    ``tenant`` and ``priority`` attribute the drop to the tenant that
    offered the request and its admission class (both 0 on
    single-tenant, unprioritized traces) — per-tenant drop rates in the
    scenario reports are computed from exactly these fields.
    """

    request_id: int
    arrival_s: float
    drop_s: float
    reason: str
    tenant: int = 0
    priority: int = 0

    @property
    def queued_s(self) -> float:
        """Time spent queued before the drop (0 for rejects)."""
        return self.drop_s - self.arrival_s


@dataclass(frozen=True)
class BatchRecord:
    """One dispatched micro-batch, as a row view of the ledger."""

    batch_id: int
    size: int
    close_s: float
    start_s: float
    completion_s: float
    worker: int
    model_version: int


@dataclass(frozen=True)
class DispatchResult:
    """What a backend reports for one batch it executed."""

    start_s: float
    completion_s: float
    worker: int
    model_version: int
    scores: np.ndarray


@dataclass(frozen=True)
class LatencyStats:
    """Latency distribution and throughput of a finished run."""

    count: int
    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    max_s: float
    mean_queue_s: float
    throughput_rps: float
    makespan_s: float
    #: requests dropped by the overload policy (0 with an unbounded queue)
    dropped: int = 0

    @property
    def drop_rate(self) -> float:
        """Fraction of offered requests dropped by the overload policy."""
        offered = self.count + self.dropped
        return self.dropped / offered if offered else 0.0

    @classmethod
    def from_arrays(cls, latency_s: np.ndarray, queue_s: np.ndarray,
                    completion_s: np.ndarray,
                    dropped: int = 0) -> "LatencyStats":
        """Stats of the served requests from their per-request latency,
        queue wait and completion time (aligned arrays, any order)."""
        if not latency_s.size:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                       dropped=dropped)
        summary = percentile_summary(latency_s)
        count = int(latency_s.size)
        makespan = float(completion_s.max())
        return cls(
            count=count,
            p50_s=summary["p50_s"], p95_s=summary["p95_s"],
            p99_s=summary["p99_s"],
            mean_s=summary["mean_s"], max_s=summary["max_s"],
            mean_queue_s=float(queue_s.mean()),
            throughput_rps=count / makespan if makespan > 0
            else float("inf"),
            makespan_s=makespan,
            dropped=dropped,
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count, "p50_s": self.p50_s,
            "p95_s": self.p95_s, "p99_s": self.p99_s,
            "mean_s": self.mean_s, "max_s": self.max_s,
            "mean_queue_s": self.mean_queue_s,
            "throughput_rps": self.throughput_rps,
            "makespan_s": self.makespan_s,
            "dropped": self.dropped, "drop_rate": self.drop_rate,
        }


#: drop reasons of the ledger's ``drop_reason`` codes (code = index)
DROP_REASONS = ("reject", "shed-oldest")
REJECT, SHED = range(len(DROP_REASONS))

#: column name -> dtype, by ledger table; a table's columns align
_REQUEST_COLUMNS = {"request_id": np.int64, "arrival_s": np.float64,
                    "batch_id": np.int64}
_BATCH_COLUMNS = {"batch_size": np.int64, "close_s": np.float64,
                  "start_s": np.float64, "completion_s": np.float64,
                  "worker": np.int64, "model_version": np.int64}
_DROP_COLUMNS = {"drop_id": np.int64, "drop_arrival_s": np.float64,
                 "drop_s": np.float64, "drop_reason": np.int8,
                 "drop_tenant": np.int64, "drop_priority": np.int64}


@dataclass(eq=False)
class ServingReport:
    """Full outcome of one :meth:`MicroBatcher.run`: a columnar ledger.

    The columns are the source of truth, one aligned array per field in
    three tables — served requests in dispatch order (``request_id``,
    ``arrival_s``, ``batch_id``), dispatched batches indexed by batch id
    (``batch_size``, ``close_s``, ``start_s``, ``completion_s``,
    ``worker``, ``model_version``) and dropped requests in drop order
    (``drop_id``, ``drop_arrival_s``, ``drop_s``, ``drop_reason`` — a
    code into :data:`DROP_REASONS` — ``drop_tenant``,
    ``drop_priority``).  A served request's start, completion, worker
    and model version are its batch's.  Every audit is a scan or
    group-by over these columns.

    ``records``, ``batches`` and ``dropped`` are read-only row views
    (tuples of :class:`RequestRecord`, :class:`BatchRecord` and
    :class:`DropRecord`), built on first access for callers that want
    objects; no hot path reads them.
    """

    request_id: np.ndarray = ()
    arrival_s: np.ndarray = ()
    batch_id: np.ndarray = ()
    batch_size: np.ndarray = ()
    close_s: np.ndarray = ()
    start_s: np.ndarray = ()
    completion_s: np.ndarray = ()
    worker: np.ndarray = ()
    model_version: np.ndarray = ()
    drop_id: np.ndarray = ()
    drop_arrival_s: np.ndarray = ()
    drop_s: np.ndarray = ()
    drop_reason: np.ndarray = ()
    drop_tenant: np.ndarray = ()
    drop_priority: np.ndarray = ()
    #: per-request raw scores, ``(num_requests, gradient_dim)``, rows
    #: aligned with ``request_id``; ``None`` unless the run collected
    #: them
    scores: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        for table in (_REQUEST_COLUMNS, _BATCH_COLUMNS, _DROP_COLUMNS):
            for name, dtype in table.items():
                setattr(self, name,
                        np.asarray(getattr(self, name), dtype=dtype))
            lengths = {name: getattr(self, name).size for name in table}
            if len(set(lengths.values())) > 1:
                raise ValueError(f"ledger columns must align: {lengths}")

    # -- row views ---------------------------------------------------------

    @cached_property
    def records(self) -> Tuple[RequestRecord, ...]:
        """Served requests in dispatch order (``scores`` rows align)."""
        b = self.batch_id
        return tuple(map(
            RequestRecord, self.request_id.tolist(),
            self.arrival_s.tolist(), b.tolist(),
            self.start_s[b].tolist(), self.completion_s[b].tolist(),
            self.worker[b].tolist(), self.model_version[b].tolist()))

    @cached_property
    def batches(self) -> Tuple[BatchRecord, ...]:
        """Dispatched batches in batch-id order."""
        return tuple(map(
            BatchRecord, range(self.batch_size.size),
            self.batch_size.tolist(), self.close_s.tolist(),
            self.start_s.tolist(), self.completion_s.tolist(),
            self.worker.tolist(), self.model_version.tolist()))

    @cached_property
    def dropped(self) -> Tuple[DropRecord, ...]:
        """Requests dropped by the overload policy, in drop order."""
        reasons = [DROP_REASONS[code] for code in self.drop_reason.tolist()]
        return tuple(map(
            DropRecord, self.drop_id.tolist(),
            self.drop_arrival_s.tolist(), self.drop_s.tolist(), reasons,
            self.drop_tenant.tolist(), self.drop_priority.tolist()))

    # -- column views and audits --------------------------------------------

    def latency_s(self) -> np.ndarray:
        """End-to-end latency of every served request, dispatch order."""
        return self.completion_s[self.batch_id] - self.arrival_s

    def request_versions(self) -> np.ndarray:
        """Model version that served each request, dispatch order."""
        return self.model_version[self.batch_id]

    def latency_stats(self) -> LatencyStats:
        b = self.batch_id
        return LatencyStats.from_arrays(
            self.latency_s(), self.start_s[b] - self.arrival_s,
            self.completion_s[b], dropped=int(self.drop_id.size))

    def versions_served(self) -> List[int]:
        """Distinct model versions that served traffic, in first-use
        order — the hot-swap tests assert on this."""
        versions, first = np.unique(self.request_versions(),
                                    return_index=True)
        return versions[np.argsort(first)].tolist()

    def single_version_batches(self) -> bool:
        """Every served request sits in exactly one dispatched batch, so
        exactly one model version served it.

        The ledger stores the version once per batch, so a batch cannot
        straddle two versions by construction; what the layout leaves
        open is checked here in one pass: no request served twice,
        every batch id names a dispatched batch, and every batch's size
        counts its members.
        """
        ids, batch = self.request_id, self.batch_id
        num_batches = self.batch_size.size
        if not ids.size:
            return not self.batch_size.any()
        if ids.min() < 0 or batch.min() < 0 or batch.max() >= num_batches:
            return False
        return bool(np.bincount(ids).max() == 1 and np.array_equal(
            np.bincount(batch, minlength=num_batches), self.batch_size))


class _LedgerBuilder:
    """One run's ledger as it grows: one append per dispatched batch or
    dropped request, never one per served request."""

    def __init__(self, collect_scores: bool) -> None:
        self.ids: List[np.ndarray] = []
        #: (size, close, start, completion, worker, version) per batch
        self.batches: List[tuple] = []
        #: (request id, drop instant, reason code) per drop
        self.drops: List[tuple] = []
        self.scores: Optional[List[np.ndarray]] = (
            [] if collect_scores else None)

    def batch(self, ids: np.ndarray, close: float,
              result: DispatchResult) -> None:
        self.ids.append(ids)
        self.batches.append((ids.size, close, result.start_s,
                             result.completion_s, result.worker,
                             result.model_version))
        if self.scores is not None:
            self.scores.append(result.scores)

    def drop(self, request: int, drop_s: float, reason: int) -> None:
        self.drops.append((request, drop_s, reason))

    def build(self, trace: RequestTrace) -> ServingReport:
        request_id = (np.concatenate(self.ids) if self.ids
                      else np.zeros(0, dtype=np.int64))
        size, close, start, completion, worker, version = (
            zip(*self.batches) if self.batches else ((),) * 6)
        drop_id, drop_s, reason = (zip(*self.drops) if self.drops
                                   else ((),) * 3)
        drop_id = np.asarray(drop_id, dtype=np.int64)
        size = np.asarray(size, dtype=np.int64)
        scores = None
        if self.scores is not None:
            scores = (np.concatenate(self.scores, axis=0) if self.scores
                      else np.zeros((0, 0)))
        return ServingReport(
            request_id=request_id,
            arrival_s=trace.arrivals[request_id],
            batch_id=np.repeat(np.arange(size.size), size),
            batch_size=size, close_s=close, start_s=start,
            completion_s=completion, worker=worker,
            model_version=version,
            drop_id=drop_id, drop_arrival_s=trace.arrivals[drop_id],
            drop_s=drop_s, drop_reason=reason,
            drop_tenant=(np.zeros_like(drop_id) if trace.tenants is None
                         else trace.tenants[drop_id]),
            drop_priority=(np.zeros_like(drop_id)
                           if trace.priorities is None
                           else trace.priorities[drop_id]),
            scores=scores,
        )


class ModelServer:
    """Single-worker serving backend.

    Wraps either a bare :class:`CompiledEnsemble` (version 0) or a
    :class:`~repro.serve.registry.ModelRegistry`, whose *active* version
    is resolved once per dispatched batch.  ``service_model`` maps a
    batch size to simulated service seconds; when omitted, the measured
    wall-clock of the compiled predictor is used (computation-is-real).

    ``cache`` (opt-in) is a :class:`~repro.serve.cache.PredictionCache`
    consulted per dispatched row; with a deterministic ``service_model``
    only the rows that *miss* are billed, so repeats get cheaper batches.
    """

    def __init__(self, model: Union[CompiledEnsemble, ModelRegistry],
                 service_model: Optional[Callable[[int], float]] = None,
                 cache=None) -> None:
        self._registry = model if isinstance(model, ModelRegistry) else None
        self._compiled = model if isinstance(model, CompiledEnsemble) \
            else None
        if self._registry is None and self._compiled is None:
            raise TypeError(
                "model must be a CompiledEnsemble or a ModelRegistry"
            )
        self.service_model = service_model
        self.cache = cache
        self._free_s = 0.0

    def resolve(self) -> Tuple[CompiledEnsemble, int]:
        """The (compiled model, version) serving right now."""
        if self._registry is not None:
            entry = self._registry.active
            return entry.compiled, entry.version
        return self._compiled, 0

    def next_free_s(self) -> float:
        """Earliest simulated time the next batch could start."""
        return self._free_s

    def dispatch(self, features: np.ndarray,
                 close_s: float) -> DispatchResult:
        compiled, version = self.resolve()
        began = time.perf_counter()
        if self.cache is None:
            scores = compiled.raw_scores(features)
            billable = features.shape[0]
        else:
            scores, billable = self.cache.serve(
                version, features, compiled.raw_scores)
        measured = time.perf_counter() - began
        seconds = (measured if self.service_model is None
                   else float(self.service_model(billable)))
        start = max(close_s, self._free_s)
        self._free_s = start + seconds
        return DispatchResult(
            start_s=start, completion_s=self._free_s, worker=0,
            model_version=version, scores=scores,
        )


class MicroBatcher:
    """Replay a trace through a backend under a :class:`BatchPolicy`.

    The backend contract is two methods: ``next_free_s()`` (earliest
    simulated start for the next batch — used to keep collecting arrivals
    while all capacity is busy) and ``dispatch(features, close_s)``
    returning a :class:`DispatchResult`.  Both :class:`ModelServer` and
    :class:`~repro.serve.replica.ReplicaSet` satisfy it.  A backend that
    sets ``accepts_ids = True`` is additionally passed the request ids of
    each batch as ``dispatch(..., ids=...)`` — the deployment router uses
    them to join served scores with their delayed labels.
    """

    def __init__(self, backend, policy: Optional[BatchPolicy] = None
                 ) -> None:
        self.backend = backend
        self.policy = policy or BatchPolicy()
        self._pass_ids = bool(getattr(backend, "accepts_ids", False))

    def _dispatch(self, features: np.ndarray, close_s: float,
                  ids: np.ndarray) -> DispatchResult:
        if self._pass_ids:
            return self.backend.dispatch(features, close_s, ids=ids)
        return self.backend.dispatch(features, close_s)

    def run(self, trace: RequestTrace,
            swaps: Sequence[SwapEvent] = (),
            collect_scores: bool = False) -> ServingReport:
        """Serve every request of ``trace``; returns the full ledger.

        ``swaps`` schedules hot-swap actions on the simulated clock:
        each ``(time_s, action)`` fires once, just before the first batch
        that closes at or after ``time_s`` resolves its model — so a
        swap lands exactly on a batch boundary and no batch straddles
        two versions.

        With a bounded queue (``policy.max_queue > 0``) the run takes
        the admission-controlled path: overflowing requests are dropped
        per ``policy.overload`` and appear in ``report.dropped``.
        """
        if self.policy.bounded:
            return self._run_bounded(trace, swaps, collect_scores)
        policy = self.policy
        arrivals = trace.arrivals
        total = trace.num_requests
        swap_clock = _SwapClock(swaps)
        ledger = _LedgerBuilder(collect_scores)
        i = 0
        while i < total:
            first = arrivals[i]
            # the batch closes when full, when the oldest request times
            # out, or when capacity frees up — whichever is latest of
            # (earliest of the first two) and the free time, so queues
            # keep absorbing arrivals while every worker is busy
            if i + policy.max_batch_size <= total:
                full_s = arrivals[i + policy.max_batch_size - 1]
            else:
                full_s = np.inf
            close = min(first + policy.max_delay_s, full_s)
            close = max(close, first, self.backend.next_free_s())
            size = min(
                int(np.searchsorted(arrivals, close, side="right")) - i,
                policy.max_batch_size,
            )
            swap_clock.fire_until(close)
            ids = np.arange(i, i + size, dtype=np.int64)
            result = self._dispatch(trace.features[i:i + size],
                                    float(close), ids)
            ledger.batch(ids, float(close), result)
            i += size
        swap_clock.fire_rest()
        return ledger.build(trace)

    def _run_bounded(self, trace: RequestTrace,
                     swaps: Sequence[SwapEvent],
                     collect_scores: bool) -> ServingReport:
        """Admission-controlled replay: a queue of at most ``max_queue``
        requests, overflow resolved by the overload policy.

        Requests are admitted at their arrival instant.  A full queue
        either turns the newcomer away (``reject``) or evicts a queued
        victim (``shed-oldest``: the oldest request of the lowest
        priority class present, see :class:`_AdmissionQueue`); evicting
        the head restarts the delay budget from the new head, so a
        shedding queue under sustained overload keeps dispatching full,
        fresh batches.  ``report.request_id`` follows dispatch order
        (with shedding this is not request order); ``report.scores``
        rows align with it.

        The backend's ``next_free_s()`` is read once per dispatch: a
        backend's readiness changes only when it dispatches (or when a
        swap action, which fires just before a dispatch, redeploys it).
        """
        policy = self.policy
        batch_size = policy.max_batch_size
        arrivals = trace.arrivals.tolist()
        total = trace.num_requests
        shedding = policy.overload == "shed-oldest"
        queue = _AdmissionQueue(trace.priorities if shedding else None)
        queued = queue.ids
        swap_clock = _SwapClock(swaps)
        ledger = _LedgerBuilder(collect_scores)
        free = self.backend.next_free_s()
        i = 0
        while i < total or queued:
            if not queued:
                queue.push(i)
                i += 1
            if len(queued) >= batch_size:
                # a full batch closes as soon as capacity frees (its
                # fill arrival is necessarily in the past)
                close = max(arrivals[queued[batch_size - 1]], free)
            else:
                close = max(arrivals[queued[0]] + policy.max_delay_s,
                            free)
            if i < total and arrivals[i] <= close:
                # the next arrival lands before this batch dispatches:
                # an admission event — the queue absorbs it while there
                # is room, otherwise the overload policy picks a victim
                now = arrivals[i]
                if len(queued) < policy.max_queue:
                    queue.push(i)
                elif not shedding:
                    ledger.drop(i, now, REJECT)
                else:
                    victim = queue.shed_victim(i)
                    if victim is None:
                        # the newcomer is strictly the lowest admission
                        # class present — it is turned away instead of
                        # evicting anyone more important
                        ledger.drop(i, now, REJECT)
                    else:
                        ledger.drop(victim, now, SHED)
                        queue.push(i)
                i += 1
                continue
            ids = np.asarray(queue.take(batch_size), dtype=np.int64)
            swap_clock.fire_until(close)
            result = self._dispatch(trace.features[ids], float(close), ids)
            ledger.batch(ids, float(close), result)
            free = self.backend.next_free_s()
        swap_clock.fire_rest()
        return ledger.build(trace)


class _SwapClock:
    """The run's hot-swap schedule, fired in time order."""

    def __init__(self, swaps: Sequence[SwapEvent]) -> None:
        self._pending = sorted(swaps, key=lambda s: s[0])
        self._next = 0

    def fire_until(self, close: float) -> None:
        """Fire every swap due at or before ``close`` — just before the
        batch closing then resolves its model."""
        while self._next < len(self._pending) \
                and self._pending[self._next][0] <= close:
            when, action = self._pending[self._next]
            action(when)
            self._next += 1

    def fire_rest(self) -> None:
        """Late swaps (after the last close) still fire, so a scheduled
        deploy is never silently skipped."""
        for when, action in self._pending[self._next:]:
            action(when)
        self._next = len(self._pending)


class _AdmissionQueue:
    """The bounded batcher's queue: queued request ids in arrival order.

    Ids are admitted in increasing order and leave from the front (a
    dispatched batch) or as a shed victim, so ``ids`` stays sorted.
    Given priorities, one FIFO per priority class mirrors ``ids``, so
    :meth:`shed_victim` finds the oldest request of the lowest class in
    O(classes) instead of scanning the queue.
    """

    def __init__(self, priorities: Optional[np.ndarray]) -> None:
        self.ids: List[int] = []
        self._priority = (None if priorities is None
                          else priorities.tolist())
        # ascending class order: the first non-empty FIFO holds the
        # lowest class queued
        self._fifos: Dict[int, Deque[int]] = (
            {} if priorities is None
            else {int(c): deque() for c in np.unique(priorities)})

    def push(self, request: int) -> None:
        self.ids.append(request)
        if self._priority is not None:
            self._fifos[self._priority[request]].append(request)

    def take(self, size: int) -> List[int]:
        """Remove and return the ``size`` oldest queued requests."""
        batch = self.ids[:size]
        del self.ids[:size]
        if self._priority is not None:
            last = batch[-1]
            for fifo in self._fifos.values():
                while fifo and fifo[0] <= last:
                    fifo.popleft()
        return batch

    def shed_victim(self, newcomer: int) -> Optional[int]:
        """Evict and return the request the shed policy drops to admit
        ``newcomer``, or ``None`` when the newcomer itself must be
        refused (the queue is then unchanged).

        Unprioritized traces shed the queue head (plain drop-head).
        With priorities, admission is class-aware: the victim is the
        *oldest request of the lowest priority class queued* — so a
        higher-priority request is never dropped while a lower-priority
        one sits in the queue — and a newcomer below every queued class
        is refused rather than admitted over anyone's head.
        """
        if self._priority is None:
            return self.ids.pop(0)
        for cls, fifo in self._fifos.items():
            if fifo:
                if self._priority[newcomer] < cls:
                    return None
                victim = fifo.popleft()
                del self.ids[bisect.bisect_left(self.ids, victim)]
                return victim
        raise AssertionError("unreachable: shedding from an empty queue")
