"""The four data-management quadrants, one code base (Section 5.2).

Every system is an :class:`~repro.systems.plans.ExecutionPlan` — one
strategy per axis, composed by a
:class:`~repro.systems.executor.PlanExecutor`:

========  ============  =========  ============  =================
Plan key  Partitioning  Storage    Index         Aggregation
========  ============  =========  ============  =================
qd1       horizontal    column     inst-to-node  all-reduce
qd2       horizontal    row        node-to-inst  reduce-scatter
qd2-ps    horizontal    row        node-to-inst  parameter-server
qd2-fp    replicated    row        node-to-inst  local
qd3       vertical      column     hybrid        bitmap-broadcast
qd3-pure  vertical      column     columnwise    bitmap-broadcast
vero      vertical      row        node-to-inst  bitmap-broadcast
========  ============  =========  ============  =================

The classic class names (:class:`XGBoostStyle`, :class:`LightGBMStyle`,
:class:`DimBoostStyle`, :class:`YggdrasilStyle`, :class:`Vero`,
:class:`LightGBMFeatureParallel`) survive as thin aliases over the
registry entries, defined next to the registry in
:mod:`repro.systems.plans`.

Training runs through a resumable
:class:`~repro.systems.executor.TrainingSession`, which can migrate
between plans at tree boundaries (``system.fit`` wraps one).
:func:`make_adaptive_session` builds a session with an
:class:`~repro.systems.advisor.AdaptivePolicy` attached — the
``--plan auto-adapt`` path.
"""

from __future__ import annotations

from typing import Optional

from ..config import ClusterConfig, TrainConfig
from .advisor import (AdaptDecision, AdaptivePolicy, CalibratedConstants,
                      PlanCost, QuadrantEstimate, Recommendation,
                      calibrate_constants, estimate, price_plans,
                      recommend)
from .base import (DistEvalRecord, DistributedGBDT, DistTrainResult,
                   MemoryReport, TreeReport)
from .costmodel import WorkloadShape
from .executor import (PlanExecutor, SessionCheckpoint, SessionState,
                       TrainingSession)
from .migration import MigrationRecord, PlanMigrator
from .plans import (ALIASES, PLANS, DimBoostStyle, ExecutionPlan,
                    LightGBMFeatureParallel, LightGBMStyle, Vero,
                    XGBoostStyle, YggdrasilStyle, get_plan, plan_keys)

#: names that resolve to a dedicated alias class (kwargs accepted)
_SYSTEMS = {
    "qd1": XGBoostStyle,
    "xgboost": XGBoostStyle,
    "qd2": LightGBMStyle,
    "lightgbm": LightGBMStyle,
    "qd2-ps": DimBoostStyle,
    "dimboost": DimBoostStyle,
    "qd3": YggdrasilStyle,
    "yggdrasil": YggdrasilStyle,
    "qd4": Vero,
    "vero": Vero,
    "qd2-fp": LightGBMFeatureParallel,
    "lightgbm-fp": LightGBMFeatureParallel,
}


def make_system(
    name: str, config: TrainConfig, cluster: ClusterConfig, **kwargs
) -> DistributedGBDT:
    """Factory over system names and plan registry keys (case-insensitive).

    Accepted names: qd1/xgboost, qd2/lightgbm, qd2-ps/dimboost,
    qd3/yggdrasil (``index_mode=`` kwarg), qd4/vero, qd2-fp/lightgbm-fp,
    plus any other :data:`~repro.systems.plans.PLANS` key (e.g.
    ``qd3-pure``, ``qd4-blocked``).
    """
    cls = _SYSTEMS.get(name.lower())
    if cls is not None:
        return cls(config, cluster, **kwargs)
    try:
        plan = get_plan(name)
    except KeyError:
        known = ", ".join(sorted(set(_SYSTEMS) | set(PLANS) | set(ALIASES)))
        raise KeyError(f"unknown system {name!r}; known: {known}") from None
    if kwargs:
        raise TypeError(
            f"plan {plan.key!r} takes no keyword arguments; got "
            f"{sorted(kwargs)}"
        )
    return plan.build(config, cluster)


def make_adaptive_session(
    config: TrainConfig,
    cluster: ClusterConfig,
    train,
    valid=None,
    start_plan: str = "",
    every: Optional[int] = None,
    margin: float = 1.0,
) -> TrainingSession:
    """A :class:`TrainingSession` with adaptive re-planning attached.

    ``start_plan`` (or ``config.plan``) names the opening plan; when
    neither is set the advisor's prior-cost recommendation picks it.
    The policy recalibrates every ``every`` trees (``config.adapt``, or
    4 when that is 0) and migrates whenever the projected savings over
    the remaining trees exceed the migration bill by ``margin``.
    """
    from ..data.dataset import BinnedDataset, bin_dataset

    # bin once: the opening-plan verdict, the policy's workload shape
    # and the session all read the same quantized training set
    binned = train if isinstance(train, BinnedDataset) \
        else bin_dataset(train, config.num_candidates)
    shape = WorkloadShape(
        num_instances=binned.num_instances,
        num_features=binned.num_features,
        num_workers=cluster.num_workers,
        num_layers=config.num_layers,
        num_candidates=config.num_candidates,
        num_classes=config.gradient_dim,
    )
    avg_nnz = binned.binned.nnz / max(binned.num_instances, 1)
    key = start_plan or config.plan
    if not key or key == "auto-adapt":
        # no opening plan named: let the prior cost model pick one (the
        # session migrates away later if the calibrated model disagrees)
        key = recommend(shape, avg_nnz, cluster.network,
                        codec=config.codec or "none").best.plan_key
    session = TrainingSession(get_plan(key).build(config, cluster),
                              binned, valid=valid)
    session.policy = AdaptivePolicy(
        shape, avg_nnz, cluster.network,
        every=every if every is not None else (config.adapt or 4),
        margin=margin,
        codec=config.codec or "none",
    )
    return session


__all__ = [
    "ALIASES",
    "AdaptDecision",
    "AdaptivePolicy",
    "CalibratedConstants",
    "ExecutionPlan",
    "MigrationRecord",
    "PLANS",
    "PlanCost",
    "PlanExecutor",
    "PlanMigrator",
    "QuadrantEstimate",
    "Recommendation",
    "SessionCheckpoint",
    "SessionState",
    "TrainingSession",
    "WorkloadShape",
    "calibrate_constants",
    "estimate",
    "get_plan",
    "plan_keys",
    "price_plans",
    "recommend",
    "DistEvalRecord",
    "DistTrainResult",
    "DistributedGBDT",
    "DimBoostStyle",
    "LightGBMFeatureParallel",
    "LightGBMStyle",
    "MemoryReport",
    "TreeReport",
    "Vero",
    "XGBoostStyle",
    "YggdrasilStyle",
    "make_adaptive_session",
    "make_system",
]
