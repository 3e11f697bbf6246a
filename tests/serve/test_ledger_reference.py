"""Differential tests: the columnar ledger against the per-request
algorithms it replaced.

The references below are the earlier implementations, kept as test
oracles: the append loop that built one ``RequestRecord`` per served
request, the backlog-scan shed-victim choice, and the admission audit
that rebuilt an O(n) occupancy mask once per shed.  The production code
must agree with them exactly — row views field by field, scores bit for
bit, audit verdicts — on hand-picked and on generated ledgers,
including ledgers produced by a deliberately broken shed policy.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GBDT, TrainConfig
from repro.serve import (BatchPolicy, MicroBatcher, ModelServer,
                         RequestTrace, compile_ensemble)
from repro.serve.batcher import (DROP_REASONS, BatchRecord, DropRecord,
                                 RequestRecord, ServingReport)
from repro.serve.scenarios import audit_priority_admission


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------

class Ledger(NamedTuple):
    records: List[RequestRecord]
    batches: List[BatchRecord]
    dropped: List[DropRecord]
    scores: Optional[np.ndarray]


def _tenant_of(trace: RequestTrace, request: int) -> int:
    return 0 if trace.tenants is None else int(trace.tenants[request])


def _priority_of(trace: RequestTrace, request: int) -> int:
    return 0 if trace.priorities is None else int(trace.priorities[request])


def reference_shed_victim(trace: RequestTrace, backlog: List[int],
                          newcomer: int) -> Optional[int]:
    """Backlog position to evict, or ``None`` to refuse the newcomer:
    the oldest request of the lowest priority class, by a full scan."""
    if trace.priorities is None:
        return 0
    lowest = min(_priority_of(trace, r) for r in backlog)
    if _priority_of(trace, newcomer) < lowest:
        return None
    for pos, request in enumerate(backlog):
        if _priority_of(trace, request) == lowest:
            return pos
    raise AssertionError("unreachable: lowest class vanished")


def broken_shed_victim(trace: RequestTrace, backlog: List[int],
                       newcomer: int) -> Optional[int]:
    """A shed policy that ignores priorities: always the queue head."""
    return 0


def _append_batch(ledger: Ledger, ids: List[int], close: float,
                  result, arrivals: np.ndarray) -> None:
    batch_id = len(ledger.batches)
    ledger.batches.append(BatchRecord(
        batch_id=batch_id, size=len(ids), close_s=float(close),
        start_s=result.start_s, completion_s=result.completion_s,
        worker=result.worker, model_version=result.model_version))
    for request in ids:
        ledger.records.append(RequestRecord(
            request_id=request, arrival_s=float(arrivals[request]),
            batch_id=batch_id, start_s=result.start_s,
            completion_s=result.completion_s, worker=result.worker,
            model_version=result.model_version))


def _drop(trace: RequestTrace, request: int, now: float,
          reason: str) -> DropRecord:
    return DropRecord(request, float(trace.arrivals[request]), now, reason,
                      tenant=_tenant_of(trace, request),
                      priority=_priority_of(trace, request))


def reference_run(backend, policy: BatchPolicy, trace: RequestTrace,
                  shed_victim=reference_shed_victim) -> Ledger:
    """The per-request append loop (both the unbounded and the
    admission-controlled path), scores collected."""
    arrivals = trace.arrivals
    total = trace.num_requests
    ledger = Ledger([], [], [], None)
    scores: List[np.ndarray] = []
    if not policy.bounded:
        i = 0
        while i < total:
            first = arrivals[i]
            if i + policy.max_batch_size <= total:
                full_s = arrivals[i + policy.max_batch_size - 1]
            else:
                full_s = np.inf
            close = min(first + policy.max_delay_s, full_s)
            close = max(close, first, backend.next_free_s())
            size = min(
                int(np.searchsorted(arrivals, close, side="right")) - i,
                policy.max_batch_size)
            result = backend.dispatch(trace.features[i:i + size],
                                      float(close))
            _append_batch(ledger, list(range(i, i + size)), close, result,
                          arrivals)
            scores.append(result.scores)
            i += size
    else:
        backlog: List[int] = []
        i = 0
        while i < total or backlog:
            if not backlog:
                backlog.append(i)
                i += 1
            free = backend.next_free_s()
            if len(backlog) >= policy.max_batch_size:
                close = max(
                    float(arrivals[backlog[policy.max_batch_size - 1]]),
                    free)
            else:
                close = max(
                    float(arrivals[backlog[0]]) + policy.max_delay_s,
                    free)
            if i < total and arrivals[i] <= close:
                now = float(arrivals[i])
                if len(backlog) < policy.max_queue:
                    backlog.append(i)
                elif policy.overload == "reject":
                    ledger.dropped.append(_drop(trace, i, now, "reject"))
                else:
                    pos = shed_victim(trace, backlog, i)
                    if pos is None:
                        ledger.dropped.append(
                            _drop(trace, i, now, "reject"))
                    else:
                        victim = backlog.pop(pos)
                        ledger.dropped.append(
                            _drop(trace, victim, now, "shed-oldest"))
                        backlog.append(i)
                i += 1
                continue
            size = min(len(backlog), policy.max_batch_size)
            ids = backlog[:size]
            del backlog[:size]
            result = backend.dispatch(trace.features[ids], float(close))
            _append_batch(ledger, ids, close, result, arrivals)
            scores.append(result.scores)
    return ledger._replace(scores=(np.concatenate(scores, axis=0)
                                   if scores else np.zeros((0, 0))))


def reference_audit(trace: RequestTrace, ledger: Ledger) -> bool:
    """The admission audit with one O(n) occupancy mask per shed."""
    if trace.priorities is None:
        return True
    sheds = [d for d in ledger.dropped if d.reason == "shed-oldest"]
    if not sheds:
        return True
    close_of = {b.batch_id: b.close_s for b in ledger.batches}
    departure: Dict[int, float] = {
        r.request_id: close_of[r.batch_id] for r in ledger.records
    }
    for d in ledger.dropped:
        departure[d.request_id] = d.drop_s
    ids = np.fromiter(departure, np.int64, len(departure))
    arr = trace.arrivals[ids]
    dep = np.fromiter((departure[int(r)] for r in ids), np.float64,
                      ids.size)
    pri = trace.priorities[ids]
    for drop in sheds:
        occupied = ((arr < drop.drop_s) & (dep > drop.drop_s)
                    & (pri < drop.priority) & (ids != drop.request_id))
        if occupied.any():
            return False
    return True


def columnar(ledger: Ledger) -> ServingReport:
    """The columnar ledger holding the same rows as ``ledger``."""
    records, batches, dropped = (ledger.records, ledger.batches,
                                 ledger.dropped)
    return ServingReport(
        request_id=[r.request_id for r in records],
        arrival_s=[r.arrival_s for r in records],
        batch_id=[r.batch_id for r in records],
        batch_size=[b.size for b in batches],
        close_s=[b.close_s for b in batches],
        start_s=[b.start_s for b in batches],
        completion_s=[b.completion_s for b in batches],
        worker=[b.worker for b in batches],
        model_version=[b.model_version for b in batches],
        drop_id=[d.request_id for d in dropped],
        drop_arrival_s=[d.arrival_s for d in dropped],
        drop_s=[d.drop_s for d in dropped],
        drop_reason=[DROP_REASONS.index(d.reason) for d in dropped],
        drop_tenant=[d.tenant for d in dropped],
        drop_priority=[d.priority for d in dropped],
        scores=ledger.scores,
    )


# ---------------------------------------------------------------------------
# Fixtures and generators
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def compiled(small_binary):
    config = TrainConfig(num_trees=3, num_layers=3, num_candidates=8)
    return compile_ensemble(GBDT(config).fit(small_binary).ensemble)


def server(compiled, per_batch: float, per_row: float) -> ModelServer:
    return ModelServer(compiled,
                       service_model=lambda k: per_batch + per_row * k)


def make_trace(compiled, ticks, priorities=None, tenants=None,
               tick_s: float = 0.001) -> RequestTrace:
    """Arrivals on a ``tick_s`` grid (repeated ticks are exact ties)."""
    ticks = np.asarray(ticks, dtype=np.int64)
    rng = np.random.default_rng(int(ticks.sum()) + ticks.size)
    features = rng.standard_normal((ticks.size, compiled.num_features))
    return RequestTrace(
        features=features, arrivals=ticks * tick_s,
        priorities=(None if priorities is None
                    else np.asarray(priorities, dtype=np.int32)),
        tenants=None if tenants is None
        else np.asarray(tenants, dtype=np.int32))


def assert_views_equal(report: ServingReport, ledger: Ledger) -> None:
    assert report.records == tuple(ledger.records)
    assert report.batches == tuple(ledger.batches)
    assert report.dropped == tuple(ledger.dropped)
    np.testing.assert_array_equal(report.scores, ledger.scores)


@st.composite
def workloads(draw):
    """A small overloaded workload: tied tick arrivals, 1-4 priority
    classes, and a bounded queue that must shed or reject."""
    n = draw(st.integers(1, 60))
    gaps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    classes = draw(st.integers(1, 4))
    priorities = draw(st.lists(st.integers(0, classes - 1), min_size=n,
                               max_size=n))
    batch = draw(st.integers(1, 5))
    policy = BatchPolicy(
        max_batch_size=batch,
        max_delay_s=draw(st.sampled_from([0.0, 0.001, 0.004])),
        max_queue=batch + draw(st.integers(0, 4)),
        overload=draw(st.sampled_from(["shed-oldest", "reject"])),
    )
    service = (draw(st.sampled_from([0.001, 0.003, 0.008])),
               draw(st.sampled_from([0.0, 0.0005])))
    return np.cumsum(gaps), priorities, policy, service


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestViews:
    @pytest.mark.parametrize("policy, prioritized", [
        (BatchPolicy(8, 0.002), False),
        (BatchPolicy(8, 0.002, max_queue=12, overload="reject"), True),
        (BatchPolicy(8, 0.002, max_queue=12, overload="shed-oldest"),
         False),
        (BatchPolicy(8, 0.002, max_queue=12, overload="shed-oldest"),
         True),
    ])
    def test_match_append_loop(self, compiled, policy, prioritized):
        rng = np.random.default_rng(5)
        n = 400
        ticks = np.cumsum(rng.integers(0, 2, n))
        trace = make_trace(
            compiled, ticks,
            priorities=rng.integers(0, 3, n) if prioritized else None,
            tenants=rng.integers(0, 4, n) if prioritized else None,
            tick_s=0.0002)
        report = MicroBatcher(server(compiled, 0.002, 0.0002),
                              policy).run(trace, collect_scores=True)
        ledger = reference_run(server(compiled, 0.002, 0.0002), policy,
                               trace)
        if policy.bounded:
            assert ledger.dropped, "the workload must overload the queue"
        assert_views_equal(report, ledger)
        assert audit_priority_admission(trace, report) \
            == reference_audit(trace, ledger)


class TestGenerated:
    @settings(max_examples=60, deadline=None)
    @given(workload=workloads())
    def test_batcher_and_audit_agree(self, compiled, workload):
        ticks, priorities, policy, service = workload
        trace = make_trace(compiled, ticks, priorities=priorities)
        report = MicroBatcher(server(compiled, *service),
                              policy).run(trace, collect_scores=True)
        ledger = reference_run(server(compiled, *service), policy, trace)
        assert_views_equal(report, ledger)
        assert reference_audit(trace, ledger)
        assert audit_priority_admission(trace, report)

    @settings(max_examples=60, deadline=None)
    @given(workload=workloads())
    def test_audits_agree_on_a_broken_shed_policy(self, compiled,
                                                  workload):
        ticks, priorities, policy, service = workload
        trace = make_trace(compiled, ticks, priorities=priorities)
        ledger = reference_run(server(compiled, *service), policy, trace,
                               shed_victim=broken_shed_victim)
        assert audit_priority_admission(trace, columnar(ledger)) \
            == reference_audit(trace, ledger)

    def test_broken_shed_policy_is_caught(self, compiled):
        # request 0 occupies the server for 10 s; then 1 (class 2) and
        # 2 (class 0) fill the queue and 3 (class 1) forces a shed —
        # evicting the head (1) while 2 sits queued breaks the invariant
        trace = make_trace(compiled, [0, 100, 200, 300],
                           priorities=[0, 2, 0, 1])
        policy = BatchPolicy(2, 0.0, max_queue=2, overload="shed-oldest")
        ledger = reference_run(server(compiled, 10.0, 0.0), policy, trace,
                               shed_victim=broken_shed_victim)
        assert [(d.request_id, d.reason) for d in ledger.dropped] == \
            [(1, "shed-oldest")]
        assert not reference_audit(trace, ledger)
        assert not audit_priority_admission(trace, columnar(ledger))
        # the real policy sheds request 2 instead, and passes
        report = MicroBatcher(server(compiled, 10.0, 0.0),
                              policy).run(trace)
        assert [(d.request_id, d.reason) for d in report.dropped] == \
            [(2, "shed-oldest")]
        assert audit_priority_admission(trace, report)

    def test_arrival_at_the_drop_instant_is_not_queued(self, compiled):
        # request 3 (class 0) arrives at the very instant request 2's
        # arrival sheds request 1 (class 1): by the tie rule it was not
        # yet queued, so the shed is legal
        trace = make_trace(compiled, [0, 100, 200, 200],
                           priorities=[0, 1, 1, 0])
        ledger = Ledger(
            records=[RequestRecord(0, 0.0, 0, 0.0, 10.0, 0, 0),
                     RequestRecord(2, 0.2, 1, 10.0, 20.0, 0, 0),
                     RequestRecord(3, 0.2, 1, 10.0, 20.0, 0, 0)],
            batches=[BatchRecord(0, 1, 0.0, 0.0, 10.0, 0, 0),
                     BatchRecord(1, 2, 10.0, 10.0, 20.0, 0, 0)],
            dropped=[DropRecord(1, 0.1, 0.2, "shed-oldest", priority=1)],
            scores=None)
        assert reference_audit(trace, ledger)
        assert audit_priority_admission(trace, columnar(ledger))
        # one tick later, request 3 would have been queued: a violation
        late = ledger._replace(dropped=[
            DropRecord(1, 0.1, 0.2 + 1e-9, "shed-oldest", priority=1)])
        assert not reference_audit(trace, late)
        assert not audit_priority_admission(trace, columnar(late))
