"""The serving fleet: replicated and tree-sharded serving in one backend.

A :class:`ReplicaSet` serves one :class:`~repro.serve.registry.ModelRegistry`
from ``W`` simulated workers laid out as ``R`` replica rows x ``S``
shard groups (``num_shards``, default 1); worker ``r * S + j`` holds
tree range ``j`` of its row's model.  This mirrors the paper's
replicate-vs-partition question with one knob: ``S = 1`` replicates the
whole model to every worker, ``S > 1`` partitions the ensemble by tree
so each worker stores ``~1/S`` of it.

The simulation contract is the training side's: prediction
*computation* is real (the compiled predictor runs and is wall-clocked,
unless a deterministic ``service_model`` substitutes), while model
distribution and score reduction are simulated traffic through
:class:`~repro.cluster.network.SimulatedNetwork`.  Deploys ship each
shard's canonical payload under ``deploy:model`` (``S = 1``) or
``deploy:shard`` (``S > 1``); a registry ``activate`` alone changes
nothing until a :meth:`ReplicaSet.deploy` ships it.  A deploy installs
every shard of a row in one step, so a row holds exactly one version by
construction, and a batch lands on exactly one row (picked
``round-robin`` or ``least-loaded``, ties to the lowest id) — every
request is served by exactly one version, however the fleet is split.
Subset deploys (``deploy(workers=rows, kind="deploy:canary")``) and
row *pools* on the dispatch path are what a canary rollout is built on.

Exactness
---------
Float addition is not associative, so summing independently computed
shard partials would *not* reproduce the monolithic predictor bit for
bit.  The reduction is therefore an **ordered chain fold** (the
reduce-scatter ring pass, specialized to one logical chunk): shard 0
scores with ``CompiledEnsemble.raw_scores`` and the carry hops along the
row in shard order, each later worker folding its trees into it tree by
tree (:meth:`CompiledEnsemble.add_raw_scores`) — the same float64
additions, in the same order, as the unsharded predictor, so sharded
serving is bit-identical to replicated serving for every ``S`` (with the
lossless score codec).

Accounting
----------
The carry crosses ``S - 1`` links, one full score vector each — the ring
reduce-scatter decomposition ``(S-1)/S * payload`` per worker, charged
per batch under ``serve:partial`` via
:func:`~repro.cluster.comm.record_collective`.  ``reduction="allreduce"``
also redistributes the result to every row worker (the all-gather half)
under ``serve:reduce``; together the two equal the closed-form ring
all-reduce bytes.  Carries ride the chosen codec stack's
:class:`~repro.cluster.codecs.ScoreCodec`: ``f32``/``f16`` quantize the
carry at every hop (real, opt-in error, raw-vs-wire accounted); lossless
stacks keep the exact pre-codec accounting.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import ClusterConfig
from ..cluster.codecs import (CodecStack, apply_model_delta,
                              encode_model_delta, get_codec_stack)
from ..cluster.comm import record_collective
from ..cluster.network import SimulatedNetwork
from ..core.serialize import canonical_payload_bytes, payload_checksum
from .batcher import DispatchResult
from .compiler import CompiledEnsemble
from .registry import ModelRegistry, ModelVersion

#: ledger kind of whole-model distribution (``num_shards == 1``)
DEPLOY_KIND = "deploy:model"
#: ledger kind of per-shard model distribution (``num_shards > 1``)
SHARD_DEPLOY_KIND = "deploy:shard"
#: ledger kind of the partial-score carry (the reduce half)
PARTIAL_KIND = "serve:partial"
#: ledger kind of the reduced-score redistribution (the all-gather half)
REDUCE_KIND = "serve:reduce"

_BALANCERS = ("round-robin", "least-loaded")
_REDUCTIONS = ("gather", "allreduce")


def reduce_shard_scores(shards: Sequence[CompiledEnsemble],
                        features,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Ordered carry-in fold of tree-range shard scores.

    Bit-identical to the unsharded ``CompiledEnsemble.raw_scores`` on
    the same rows, for any shard count — the fold visits shards in tree
    order and accumulates tree by tree, preserving the monolithic
    predictor's exact summation order.
    """
    if not shards:
        raise ValueError("need at least one shard")
    if out is None:
        rows = (features.shape[0] if isinstance(features, np.ndarray)
                else features.num_rows)
        out = np.zeros((rows, shards[0].gradient_dim), dtype=np.float64)
    for shard in shards:
        shard.add_raw_scores(features, out)
    return out


class ReplicaSet:
    """``R x S`` grid of simulated workers serving one registry.

    Satisfies the :class:`~repro.serve.batcher.MicroBatcher` backend
    contract (``next_free_s`` / ``dispatch``).  ``cluster.num_workers``
    must be a multiple of ``num_shards``; at the default
    ``num_shards=1`` every worker is a row holding the whole model.
    Rows are the unit of addressing: ``deploy(workers=...)``, the
    ``pool`` of :meth:`dispatch` / :meth:`occupy`,
    :meth:`deployed_versions` and :meth:`workers_serving` all speak in
    replica-row ids, and at ``num_shards=1`` a row is one worker.

    ``service_model`` maps a batch size to baseline service seconds *for
    the full model* (measured wall-clock when omitted); each shard worker
    is billed its tree fraction of that, divided by
    ``cluster.speed_of(worker)``, so stragglers configured via
    ``worker_speeds`` serve slower, exactly as they train slower.
    ``reduction`` picks the score collective (``"gather"``: chain fold,
    result on the row's last worker; ``"allreduce"``: plus
    redistribution to every row worker) and ``codec`` the partial-score
    wire format (lossless by default; ``f32``/``f16`` opt into quantized
    carries); both only matter when ``num_shards > 1``.
    """

    def __init__(self, registry: ModelRegistry,
                 cluster: Optional[ClusterConfig] = None,
                 network: Optional[SimulatedNetwork] = None,
                 balancer: str = "round-robin",
                 service_model: Optional[Callable[[int], float]] = None,
                 delta_deploys: bool = False,
                 cache=None,
                 num_shards: int = 1,
                 reduction: str = "gather",
                 codec: Union[str, CodecStack, None] = None) -> None:
        if balancer not in _BALANCERS:
            raise ValueError(
                f"unknown balancer {balancer!r}; choose from {_BALANCERS}"
            )
        if reduction not in _REDUCTIONS:
            raise ValueError(
                f"unknown reduction {reduction!r}; choose from "
                f"{_REDUCTIONS}"
            )
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.registry = registry
        self.cluster = cluster or ClusterConfig()
        if self.cluster.num_workers % num_shards != 0:
            raise ValueError(
                f"fleet of {self.cluster.num_workers} workers cannot "
                f"hold {num_shards} shard groups evenly; num_workers "
                "must be a multiple of num_shards"
            )
        if cache is not None and num_shards > 1:
            raise ValueError(
                "prediction cache and tree sharding are mutually "
                "exclusive: cache entries hold full-model scores, but "
                "a sharded row only ever computes per-shard partials"
            )
        self.network = network or SimulatedNetwork(self.cluster.network)
        self.balancer = balancer
        self.service_model = service_model
        self.delta_deploys = delta_deploys
        #: opt-in :class:`~repro.serve.cache.PredictionCache`; shared by
        #: every replica (the fleet-wide score store a real deployment
        #: would put in front of the workers), consulted per dispatch —
        #: only the rows that miss are billed to the service model
        self.cache = cache
        self.num_shards = num_shards
        self.reduction = reduction
        self.codec = (codec if isinstance(codec, CodecStack)
                      else get_codec_stack(codec or "none"))
        self.num_workers = self.cluster.num_workers
        self.num_rows = self.num_workers // num_shards
        #: ledger kind of a default (fleet-wide) rollout
        self.deploy_kind = (DEPLOY_KIND if num_shards == 1
                            else SHARD_DEPLOY_KIND)
        #: per-worker free time; a row's readiness is its slowest member
        self._free: List[float] = [0.0] * self.num_workers
        #: per-row readiness, ``max`` of the row's ``_free`` slice
        self._ready: List[float] = [0.0] * self.num_rows
        #: per-row deployed units (the version itself at S=1, its
        #: ``registry.shards`` at S>1) and each unit's tree fraction
        self._deployed: list = [None] * self.num_rows
        self._fractions: list = [(1.0 / num_shards,) * num_shards] \
            * self.num_rows
        self._rr_next = 0
        #: independent round-robin cursor per row pool, so canary and
        #: incumbent pools cycle fairly regardless of the split
        self._rr_cursors: Dict[Tuple[int, ...], int] = {}

    # -- model distribution ------------------------------------------------

    def deploy(self, version: Union[int, ModelVersion, None] = None,
               at_s: float = 0.0,
               workers: Optional[Sequence[int]] = None,
               kind: Optional[str] = None) -> ModelVersion:
        """Ship a model version to every row (or a targeted subset).

        ``version`` may be a version id, a :class:`ModelVersion`, or
        ``None`` for the registry's active version.  Worker ``r * S + j``
        receives shard ``j``'s canonical payload (the whole model at
        ``S = 1``) as one simulated transfer and is busy installing for
        its duration, so in-flight traffic queues behind the rollout.  A
        rollout ships ``R * sum_j shard_j`` ~= ``R *`` full payload,
        versus ``R * S *`` full payload for a replicated fleet of the
        same size.

        ``workers`` restricts the rollout to a subset of replica rows —
        how a canary lands on its slice — and ``kind`` labels the
        traffic (default :attr:`deploy_kind`; ``deploy:canary`` and
        ``deploy:rollback`` keep those bytes separable).

        With ``delta_deploys``, a worker that already holds another
        version receives only the tree-suffix delta against it
        (:func:`~repro.cluster.codecs.encode_model_delta`), applied and
        checksum-verified before its bytes are believed; an
        incompatible pair falls back to the full payload.  The ledger
        keeps ``raw_nbytes`` at the full size, so the ``codec:`` savings
        dimension reports what the deltas avoided shipping.
        """
        if version is None:
            entry = self.registry.active
        elif isinstance(version, ModelVersion):
            entry = version
        else:
            entry = self.registry.get(int(version))
        if self.num_shards == 1:
            units = (entry,)
            fractions = (1.0,)
        else:
            units = tuple(self.registry.shards(entry.version,
                                               self.num_shards))
            total = sum(unit.num_trees for unit in units)
            fractions = tuple(unit.num_trees / total if total
                              else 1.0 / self.num_shards
                              for unit in units)
        targets = (range(self.num_rows) if workers is None
                   else self._check_pool(workers))
        kind = kind or self.deploy_kind
        # (predecessor version, shard) -> delta wire size
        delta_nbytes: dict = {}
        for row in targets:
            previous = self._deployed[row]
            lo = row * self.num_shards
            for j, unit in enumerate(units):
                wire = unit.nbytes
                prev = None if previous is None else previous[j]
                if (self.delta_deploys and prev is not None
                        and prev.payload is not None
                        and unit.payload is not None):
                    key = (prev.version, j)
                    if key not in delta_nbytes:
                        delta_nbytes[key] = self._delta_bytes(prev, unit)
                    wire = min(delta_nbytes[key] or wire, unit.nbytes)
                seconds = self.network.transfer(kind, wire,
                                                raw_nbytes=unit.nbytes)
                self._free[lo + j] = max(self._free[lo + j], at_s) \
                    + seconds
            self._ready[row] = max(self._free[lo:lo + self.num_shards])
            self._deployed[row] = units
            self._fractions[row] = fractions
        return entry

    def _check_pool(self, pool: Sequence[int]) -> Sequence[int]:
        if len(pool) == 0:
            raise ValueError("row pool must not be empty")
        for row in pool:
            if not (0 <= row < self.num_rows):
                raise ValueError(
                    f"row {row} out of range "
                    f"(fleet has {self.num_rows} replica rows)"
                )
        return pool

    @staticmethod
    def _delta_bytes(prev, new) -> Optional[int]:
        """Wire size of the delta from ``prev`` to ``new``, verified by
        reconstructing ``new`` and checking its checksum; ``None`` when
        the pair has no usable delta."""
        delta = encode_model_delta(prev.payload, new.payload)
        if delta is None:
            return None
        rebuilt = apply_model_delta(prev.payload, delta)
        if payload_checksum(rebuilt) != new.checksum:
            return None
        return len(canonical_payload_bytes(delta))

    def deployer(self, version: Union[int, ModelVersion, None] = None
                 ) -> Callable[[float], None]:
        """A swap action for :meth:`MicroBatcher.run`: activates (when
        given a version id) and deploys at the swap's simulated time."""
        def action(at_s: float) -> None:
            if isinstance(version, int):
                self.registry.activate(version)
            self.deploy(version, at_s=at_s)
        return action

    def deployed_versions(self) -> list:
        """Per-row deployed version id (``None`` before any deploy)."""
        return [None if units is None else units[0].version
                for units in self._deployed]

    def workers_serving(self, version: int) -> list:
        """Replica rows currently holding ``version``."""
        return [row for row, units in enumerate(self._deployed)
                if units is not None and units[0].version == version]

    # -- MicroBatcher backend contract -------------------------------------

    def row_ready_s(self, row: int) -> float:
        """Instant every worker of ``row`` is free — a batch needs the
        whole row, so the row's readiness is its slowest member's."""
        return self._ready[row]

    def _pick_row(self, pool: Optional[Sequence[int]] = None) -> int:
        if pool is None:
            if self.balancer == "round-robin":
                return self._rr_next
            ready = self._ready
            return ready.index(min(ready))   # ties -> lowest id
        pool = self._check_pool(pool)
        if self.balancer == "round-robin":
            cursor = self._rr_cursors.get(tuple(pool), 0)
            return int(pool[cursor % len(pool)])
        return self._least_loaded(pool)

    def _least_loaded(self, pool: Sequence[int]) -> int:
        """The row of ``pool`` that frees earliest (ties: first listed)."""
        return int(min(pool, key=self._ready.__getitem__))

    def next_free_s(self, pool: Optional[Sequence[int]] = None) -> float:
        """Readiness of the row the *next* batch will land on."""
        return self._ready[self._pick_row(pool)]

    def _occupy_row(self, row: int, done: float) -> int:
        """Mark every worker of ``row`` busy until ``done``; returns the
        row's tail worker (where a chain fold's result lands)."""
        lo = row * self.num_shards
        self._free[lo:lo + self.num_shards] = [done] * self.num_shards
        self._ready[row] = done
        return lo + self.num_shards - 1

    def _compute_seconds(self, row: int, baseline: float) -> float:
        """Wall of a row's compute when the full model costs
        ``baseline``: each shard worker runs its tree fraction at its
        own speed, and the row waits for the slowest."""
        lo = row * self.num_shards
        return max(baseline * fraction / self.cluster.speed_of(lo + j)
                   for j, fraction in enumerate(self._fractions[row]))

    def occupy(self, pool: Sequence[int], at_s: float,
               baseline_seconds: float) -> Tuple[int, float, float]:
        """Bill ``baseline_seconds`` of compute to the least-loaded row
        of ``pool`` without serving traffic from it.

        Shadow scoring uses this: the canary rows score every batch for
        the monitor, so their clocks must advance exactly as if they
        served it — the shadow's cost is real in the ledger even though
        its answers never reach a client.  Returns ``(worker, start_s,
        completion_s)``.
        """
        row = self._least_loaded(self._check_pool(pool))
        start = max(at_s, self._ready[row])
        done = start + self._compute_seconds(row, baseline_seconds)
        return self._occupy_row(row, done), start, done

    def dispatch(self, features: np.ndarray, close_s: float,
                 pool: Optional[Sequence[int]] = None) -> DispatchResult:
        row = self._pick_row(pool)
        if self.balancer == "round-robin":
            if pool is None:
                self._rr_next = (self._rr_next + 1) % self.num_rows
            else:
                key = tuple(pool)
                self._rr_cursors[key] = (self._rr_cursors.get(key, 0)
                                         + 1) % len(pool)
        units = self._deployed[row]
        if units is None:
            raise RuntimeError(
                f"row {row} has no model; call deploy() before "
                "serving traffic"
            )
        encoded = None
        if self.cache is None:
            scores, measured, encoded = self._chain_fold(units, features)
            billable = features.shape[0]
        else:   # only ever at num_shards == 1
            began = time.perf_counter()
            scores, billable = self.cache.serve(
                units[0].version, features, units[0].compiled.raw_scores)
            measured = [time.perf_counter() - began]
        if self.service_model is None:
            lo = row * self.num_shards
            seconds = max(wall / self.cluster.speed_of(lo + j)
                          for j, wall in enumerate(measured))
        else:
            seconds = self._compute_seconds(
                row, float(self.service_model(billable)))
        start = max(close_s, self._ready[row])
        done = start + seconds
        if self.num_shards > 1:
            # every row worker participates until the collective is done
            done += self._reduce_seconds(scores, encoded)
        worker = self._occupy_row(row, done)
        return DispatchResult(
            start_s=start, completion_s=done, worker=worker,
            model_version=units[0].version, scores=scores,
        )

    def _chain_fold(self, units, features: np.ndarray
                    ) -> Tuple[np.ndarray, List[float], Optional[int]]:
        """Score ``features`` through a row's shards in order.

        Returns the scores, each shard worker's measured wall seconds,
        and the encoded size of one carried score vector (``None`` when
        the codec stack is the identity).  Shard 0 scores with
        ``raw_scores``; each later worker folds its trees into the carry
        received from its predecessor — lossy codecs quantize the carry
        at each hop, so the precision cost of narrow wire formats is
        real.
        """
        began = time.perf_counter()
        acc = units[0].compiled.raw_scores(features)
        measured = [time.perf_counter() - began]
        encoded = None
        for unit in units[1:]:
            if not self.codec.is_identity:
                enc = self.codec.scores.encode(acc)
                encoded = enc.nbytes
                if not self.codec.scores.lossless:
                    acc = self.codec.scores.decode(enc)
            began = time.perf_counter()
            unit.compiled.add_raw_scores(features, acc)
            measured.append(time.perf_counter() - began)
        return acc, measured, encoded

    def _reduce_seconds(self, scores: np.ndarray,
                        encoded: Optional[int]) -> float:
        """Charge a batch's score collective; returns its seconds."""
        payload = scores.shape[0] * scores.shape[1] * 8
        per_worker = (None if encoded is None
                      else [encoded] * self.num_shards)
        seconds = record_collective(
            self.network, PARTIAL_KIND, payload, self.num_shards,
            "reducescatter", encoded_worker_bytes=per_worker)
        if self.reduction == "allreduce":
            seconds += record_collective(
                self.network, REDUCE_KIND, payload, self.num_shards,
                "reducescatter", encoded_worker_bytes=per_worker)
        return seconds

    # -- introspection -----------------------------------------------------

    @property
    def deploy_bytes(self) -> int:
        """Wire bytes shipped under :attr:`deploy_kind` so far — only
        the fleet-wide kind: subset deploys under a caller-chosen kind
        (``deploy:canary``) stay out; :meth:`deploy_bytes_by_kind` has
        the full breakdown."""
        return self.network.snapshot().bytes_by_kind.get(
            self.deploy_kind, 0)

    @property
    def deploy_raw_bytes(self) -> int:
        """Pre-encoding bytes of every :attr:`deploy_kind` transfer —
        what full-payload rollouts would have shipped.  Like
        :attr:`deploy_bytes`, subset deploys keep their raw bytes under
        the caller's kind."""
        return self.network.snapshot().raw_bytes_by_kind.get(
            self.deploy_kind, 0)

    def deploy_bytes_by_kind(self) -> Dict[str, Tuple[int, int]]:
        """``kind -> (wire_bytes, raw_bytes)`` of every ``deploy:*``
        kind, raw being the pre-delta, pre-codec baseline."""
        snapshot = self.network.snapshot()
        return {
            kind: (nbytes, snapshot.raw_bytes_by_kind.get(kind, nbytes))
            for kind, nbytes in sorted(snapshot.bytes_by_kind.items())
            if kind.startswith("deploy:")
        }

    @property
    def partial_bytes(self) -> int:
        """Wire bytes of the partial-score carries (``serve:partial``)."""
        return self.network.snapshot().bytes_by_kind.get(PARTIAL_KIND, 0)

    @property
    def reduce_bytes(self) -> int:
        """Wire bytes of reduced-score redistribution (``serve:reduce``)."""
        return self.network.snapshot().bytes_by_kind.get(REDUCE_KIND, 0)

    def model_bytes_per_worker(self) -> int:
        """Largest deployed shard payload — the per-worker model wire
        footprint the sharded layout buys down to ``~1/S``."""
        return max((unit.nbytes for units in self._deployed
                    if units is not None for unit in units), default=0)

    def __repr__(self) -> str:
        return (f"ReplicaSet(rows={self.num_rows}, "
                f"shards={self.num_shards}, "
                f"balancer={self.balancer!r}, "
                f"deployed={self.deployed_versions()})")
