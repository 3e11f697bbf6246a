"""The benchmark's workloads: what one iteration runs and how it is checked.

Each workload is driven by one caller on one thread.  An iteration is
what the matching CLI command does in one process — set-up, then the
training loop or the scenario replay, then the report — and is followed,
outside the timed region, by output checks against references built once
per run by ``prepare`` from the run's untimed first iteration (plus, for
training, the single-machine oracle).

The workload seed reaches the program only through the inputs it
generates: ``make_classification(seed=...)`` and the split seed for
training, ``dataclasses.replace(scenario, seed=...)`` for serving.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cluster import comm as cluster_comm
from repro.config import ClusterConfig, TrainConfig
from repro.core import histogram as core_histogram
from repro.core import loss as core_loss
from repro.core.gbdt import GBDT
from repro.core.serialize import ensemble_to_dict
from repro.core.tree import Tree
from repro.data import catalog, dataset as data_dataset, synthetic
from repro.ledger import (format_scenario_report, report_bytes, run_report,
                          scenario_report_bytes)
from repro.serve import scenarios as serve_scenarios
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import PredictionCache
from repro.serve.compiler import CompiledEnsemble
from repro.serve.replica import ReplicaSet
from repro.systems import base as systems_base
from repro.systems import make_system
from repro.systems import strategies as systems_strategies
from repro.systems.executor import TrainingSession

#: seed used when none is given on the command line
DEFAULT_SEED = 7
#: candidate splits per feature, as ``repro train`` defaults
NUM_CANDIDATES = 20
#: validation share and learning rate, as ``repro train`` defaults
VALID_FRACTION = 0.2
LEARNING_RATE = 0.3
#: the horizontal plans' quality contract against the oracle
AUC_TOLERANCE = 0.05


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainSpec:
    plan: str
    catalog: str
    #: instance-count multiplier on the catalog shape
    scale: float
    trees: int
    layers: int
    workers: int
    #: exact: the ensemble must equal the oracle's bit for bit;
    #: otherwise its validation AUC must be within AUC_TOLERANCE
    exact: bool


@dataclass
class TrainState:
    session: TrainingSession
    train: object
    rows: int
    result: object = None
    model_bytes: bytes = b""
    report_bytes: bytes = b""


class TrainWorkload:
    def __init__(self, spec: TrainSpec, seed: int, scale: float = 1.0):
        self.spec = spec
        self.seed = seed
        self.scale = scale
        self.oracle_payload: Optional[dict] = None
        self.oracle_auc = 0.0
        self.reference_checksum = ""

    def _config(self) -> TrainConfig:
        return TrainConfig(
            num_trees=self.spec.trees, num_layers=self.spec.layers,
            num_candidates=NUM_CANDIDATES, learning_rate=LEARNING_RATE,
            plan=self.spec.plan,
        )

    def _generate(self):
        entry = catalog.CATALOG[self.spec.catalog]
        rows = max(int(round(entry.num_instances * self.spec.scale
                             * self.scale)), 64)
        # the catalog's dense recipe (``catalog.load``) with the
        # benchmark's seed in place of the catalog's fixed one
        return synthetic.make_classification(
            num_instances=rows, num_features=entry.num_features,
            num_classes=entry.num_classes, density=entry.density,
            informative_ratio=0.2, noise=0.5, seed=self.seed,
            name=entry.name,
        )

    def setup(self, rec) -> TrainState:
        config = self._config()
        dataset = self._generate()
        with rec.span("data.split"):
            train, valid = dataset.split(1.0 - VALID_FRACTION,
                                         seed=self.seed)
        binned = data_dataset.bin_dataset(train, config.num_candidates)
        system = make_system(self.spec.plan, config,
                             ClusterConfig(num_workers=self.spec.workers))
        session = TrainingSession(system, binned, valid=valid)
        return TrainState(session, train, rows=binned.num_instances)

    def main(self, state: TrainState, rec) -> None:
        state.result = state.session.run()

    def report(self, state: TrainState, rec) -> None:
        # what ``repro train --model-out --report-out`` serializes
        system = state.session.system
        state.model_bytes = json.dumps(
            ensemble_to_dict(state.result.ensemble), indent=1).encode()
        state.report_bytes = report_bytes(run_report(
            state.result, system=system.name, dataset=self.spec.catalog))

    def prepare(self, state: TrainState) -> None:
        """Build the references from the run's untimed first iteration:
        the single-machine oracle on the same binned data, and the
        model checksum every later iteration must reproduce."""
        session = state.session
        oracle = GBDT(self._config()).fit(state.train, session.valid,
                                          binned=session.binned)
        self.oracle_payload = ensemble_to_dict(oracle.ensemble)
        self.oracle_auc = oracle.evals[-1].metric_value
        self.reference_checksum = model_checksum(state)

    def ops(self, state: TrainState) -> int:
        return self.spec.trees

    def check(self, state: TrainState) -> List[str]:
        problems = []
        ensemble = state.result.ensemble
        if len(ensemble) != self.spec.trees:
            problems.append(f"trained {len(ensemble)} trees, expected "
                            f"{self.spec.trees}")
        if self.spec.exact:
            if ensemble_to_dict(ensemble) != self.oracle_payload:
                problems.append("ensemble differs from the single-machine "
                                "oracle on the same binned data")
        else:
            auc = state.result.evals[-1].metric_value
            if not abs(auc - self.oracle_auc) < AUC_TOLERANCE:
                problems.append(f"validation auc {auc:.4f} not within "
                                f"{AUC_TOLERANCE} of the oracle's "
                                f"{self.oracle_auc:.4f}")
        if model_checksum(state) != self.reference_checksum:
            problems.append("model payload checksum differs from the "
                            "run's first model")
        return problems

    def facts(self, state: TrainState) -> Dict[str, float]:
        """``work`` (rows x trees) and the per-layer metrics read from
        the program's own result records."""
        result = state.result
        trees = len(result.ensemble)
        return {
            "work": float(state.rows * trees),
            "core.metrics.valid_auc": result.evals[-1].metric_value,
            "core.histogram.peak_mb": result.memory.histogram_bytes / 1e6,
            "cluster.network.wire_bytes": float(result.comm.total_bytes),
            "cluster.network.wire_mb_per_tree":
                result.comm.total_bytes / trees / 1e6,
            "cluster.network.transfers":
                float(len(state.session.system.net.records)),
            "cluster.network.modeled_comm_s": result.comm.total_seconds,
        }


def model_checksum(state: TrainState) -> str:
    payload = json.dumps(ensemble_to_dict(state.result.ensemble),
                         sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------

@dataclass
class ServeState:
    runner: serve_scenarios.ScenarioRunner
    report: Optional[dict] = None
    report_bytes: bytes = b""
    text: str = ""


class ServeWorkload:
    def __init__(self, scenario: str, scenario_scale: float, seed: int,
                 scale: float = 1.0):
        self.scenario = dataclasses.replace(
            serve_scenarios.get_scenario(scenario,
                                         scale=scenario_scale * scale),
            seed=seed,
        )
        self.reference_bytes = b""
        self.reference_scores: Dict[int, np.ndarray] = {}

    def setup(self, rec) -> ServeState:
        runner = serve_scenarios.ScenarioRunner(self.scenario)
        with rec.span("serve.provision"):
            # train, publish and cut the served models, as the first
            # step of ``ScenarioRunner.run`` would
            runner._provision()
        return ServeState(runner)

    def main(self, state: ServeState, rec) -> None:
        state.report = state.runner.run()

    def report(self, state: ServeState, rec) -> None:
        # what ``repro scenarios run --report-out`` writes and prints
        state.report_bytes = scenario_report_bytes(state.report)
        state.text = format_scenario_report(state.report)

    def prepare(self, state: ServeState) -> None:
        """Build the references from the run's untimed first iteration.

        The reference scores come from the uncompiled
        ``TreeEnsemble.raw_scores`` over the whole trace, so the served
        scores are checked against a path that shares neither the
        compiled scorer nor the prediction cache."""
        runner = state.runner
        features = runner.trace.csc()
        for version in runner.serving_report.versions_served():
            ensemble = runner.registry.get(version).ensemble
            self.reference_scores[version] = ensemble.raw_scores(features)
        self.reference_bytes = state.report_bytes

    def ops(self, state: ServeState) -> int:
        return int(state.report["totals"]["arrivals"])

    def check(self, state: ServeState) -> List[str]:
        problems = [f"invariant {name} failed"
                    for name, ok in state.report["invariants"].items()
                    if not ok]
        served = state.runner.serving_report
        if served.scores is None:
            problems.append("the replay collected no scores")
        else:
            ids = np.array([r.request_id for r in served.records],
                           dtype=np.int64)
            versions = np.array([r.model_version for r in served.records],
                                dtype=np.int64)
            for version in np.unique(versions):
                reference = self.reference_scores.get(int(version))
                mask = versions == version
                if reference is None or not np.array_equal(
                        served.scores[mask], reference[ids[mask]]):
                    problems.append(f"scores served by version {version} "
                                    "differ from the reference scorer")
        if state.report_bytes != self.reference_bytes:
            problems.append("scenario report bytes differ from the run's "
                            "first report")
        return problems

    def facts(self, state: ServeState) -> Dict[str, float]:
        """``work`` (arrivals x model trees: each request is one row
        through every tree) and the per-layer metrics read from the
        report and the serving stack's own ledgers."""
        totals = state.report["totals"]
        runner = state.runner
        wire = runner.replicas.network.snapshot()
        cache = runner.cache
        return {
            "work": float(totals["arrivals"] * self.scenario.model_trees),
            "serve.batcher.batches": float(totals["batches"]),
            "serve.batcher.shed": float(totals["dropped"]),
            "serve.batcher.sim_p99_ms": totals["p99_s"] * 1e3,
            "serve.batcher.drop_rate": totals["drop_rate"],
            "serve.cache.lookups": float(cache.stats.lookups if cache else 0),
            "serve.cache.hit_ratio": cache.stats.hit_rate if cache else 0.0,
            "cluster.network.wire_bytes": float(wire.total_bytes),
            "cluster.network.transfers":
                float(len(runner.replicas.network.records)),
            "cluster.network.modeled_comm_s": wire.total_seconds,
        }


# ---------------------------------------------------------------------------
# The workload table
# ---------------------------------------------------------------------------

WORKLOADS = {
    "train-vero-epsilon": lambda seed, scale: TrainWorkload(
        TrainSpec(plan="vero", catalog="epsilon", scale=0.25, trees=5,
                  layers=7, workers=4, exact=True), seed, scale),
    "train-qd1-higgs": lambda seed, scale: TrainWorkload(
        TrainSpec(plan="qd1", catalog="higgs", scale=0.25, trees=8,
                  layers=7, workers=4, exact=False), seed, scale),
    "serve-heavy-tail": lambda seed, scale: ServeWorkload(
        "heavy-tail", 2.5, seed, scale),
    "serve-diurnal": lambda seed, scale: ServeWorkload(
        "diurnal", 2.0, seed, scale),
}


def make_workload(name: str, seed: int, scale: float = 1.0):
    """Workload by name; ``scale`` shrinks it for the benchmark's tests."""
    return WORKLOADS[name](seed, scale)


# ---------------------------------------------------------------------------
# Trace targets: each layer's public entry points, patched where the
# caller looks them up
# ---------------------------------------------------------------------------

def _nodes_built(args, result) -> Dict[str, float]:
    hists = result[0]
    return {"core.histogram.nodes_built":
            float(len(hists)) if isinstance(hists, list) else 1.0}


def _entries(args, result) -> Dict[str, float]:
    return {"data.entries_binned": float(args[0].nnz)}


def _rows(args, result) -> Dict[str, float]:
    return {"serve.compiler.rows_scored": float(len(result))}


def _defining(module, attr: str) -> List[type]:
    """Every class declared in ``module`` that defines ``attr`` itself
    (overrides and mixins included, since each is looked up on its own
    class)."""
    return [value for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
            and attr in vars(value)]


def trace_targets() -> list:
    """``(owner, attr, span_name, counter)`` for :class:`tracer.Patches`."""
    B = core_histogram.HistogramBuilder
    targets = [
        (synthetic, "make_classification", "data.generate", None),
        (data_dataset, "propose_candidates_exact", "sketch.cuts", None),
        (data_dataset, "apply_cuts", "data.apply_cuts", _entries),
        (TrainingSession, "__init__", "systems.session_init", None),
        (TrainingSession, "step", "systems.step", None),
        (B, "build_rowstore", "core.histogram.rowstore", _nodes_built),
        (B, "build_colstore_layer", "core.histogram.colstore",
         _nodes_built),
        (B, "build_colstore_hybrid", "core.histogram.colstore",
         _nodes_built),
        (B, "build_colstore_columnwise", "core.histogram.colstore",
         _nodes_built),
        (B, "subtract", "core.histogram.subtract", None),
        (systems_base, "find_best_split", "core.split.find", None),
        (systems_strategies, "layer_placements_rowstore",
         "core.placement", None),
        (systems_strategies, "layer_placements_colstore",
         "core.placement", None),
        (Tree, "predict", "core.tree.predict", None),
        (serve_scenarios, "build_trace", "serve.scenarios.build_trace",
         None),
        (serve_scenarios.ScenarioRunner, "run", "serve.scenarios.run",
         None),
        (serve_scenarios, "audit_priority_admission",
         "serve.scenarios.audit", None),
        (MicroBatcher, "run", "serve.batcher.run", None),
        (ReplicaSet, "dispatch", "serve.replica.dispatch", None),
        (CompiledEnsemble, "raw_scores", "serve.compiler.score", _rows),
        (PredictionCache, "serve", "serve.cache.serve", None),
    ]
    targets += [(cls, "gradients", "core.loss.gradients", None)
                for cls in _defining(core_loss, "gradients")]
    for attr in ("build_layer", "find_splits", "apply_splits"):
        targets += [(cls, attr, f"systems.{attr}", None)
                    for cls in _defining(systems_strategies, attr)]
    targets += [(systems_strategies, fn, "cluster.comm.collective", None)
                for fn in ("allreduce_histograms",
                           "reduce_scatter_histograms",
                           "ps_push_histograms", "broadcast_bytes",
                           "exchange_split_infos", "record_collective")
                if getattr(systems_strategies, fn) is getattr(cluster_comm,
                                                              fn)]
    return targets
