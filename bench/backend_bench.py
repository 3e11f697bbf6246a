"""Kernel bench: loop-oracle bit-identity and the quantized predictor.

Proves the kernel contract — all 8 execution plans train identical
trees on the numpy kernels and on the interpreted
:class:`~repro.core.kernels.LoopKernels` oracle — then times the
serving ablation: the uint8 bin-quantized predictor against the float
compiled predictor at batch 10k on a wide model, and writes both into
``BENCH_backends.json``.

Usage::

    PYTHONPATH=src python bench/backend_bench.py            # full workload
    PYTHONPATH=src python bench/backend_bench.py --quick    # CI-sized
    PYTHONPATH=src python bench/backend_bench.py --check    # enforce targets

Targets: every plan bit-identical on both engines and the quantized
predictor bit-identical to the float path (always enforced); quantized
predictor >= 1.5x the float compiled predictor at batch 10k (full
workload only).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.config import ClusterConfig, TrainConfig
from repro.core.gbdt import GBDT
from repro.core.histogram import HistogramBuilder
from repro.core.kernels import LoopKernels, NumpyKernels
from repro.data.dataset import bin_dataset
from repro.data.synthetic import make_classification
from repro.serve.compiler import compile_ensemble, quantize_ensemble
from repro.systems.plans import get_plan, plan_keys

QUANTIZED_TARGET = 1.5


def time_ops(fn, min_seconds: float, max_reps: int = 2000,
             windows: int = 3) -> float:
    """Best-of-``windows`` ops/sec of ``fn`` (see kernel_bench)."""
    fn()  # warmup
    best = 0.0
    for _ in range(windows):
        reps = 0
        start = time.perf_counter()
        elapsed = 0.0
        while elapsed < min_seconds and reps < max_reps:
            fn()
            reps += 1
            elapsed = time.perf_counter() - start
        best = max(best, reps / elapsed)
    return best


def tree_signature(tree) -> tuple:
    items = []
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        if node.is_leaf:
            items.append((node_id, "leaf",
                          tuple(np.asarray(node.weight).ravel().tolist())))
        else:
            items.append((node_id, "split", node.split.feature,
                          node.threshold))
    return tuple(items)


def check_plan_identity(quick: bool) -> dict:
    """Bit-identical trees from numpy and the loop oracle on all 8
    registry plans."""
    dataset = make_classification(400 if quick else 800, 20, density=0.4,
                                  seed=7)
    binned = bin_dataset(dataset, 8)
    cluster = ClusterConfig(num_workers=4)
    cfg = TrainConfig(num_trees=2, num_layers=4, num_candidates=8)
    report = {}
    for plan_key in plan_keys():
        signatures = []
        for kernels in (NumpyKernels(), LoopKernels()):
            system = get_plan(plan_key).build(cfg, cluster)
            system.hist_builder = HistogramBuilder(kernels=kernels)
            res = system.fit(binned)
            signatures.append(tuple(tree_signature(t)
                                    for t in res.ensemble.trees))
        identical = signatures[0] == signatures[1]
        report[plan_key] = {"bit_identical": identical}
        print(f"  {plan_key:14s} {'ok' if identical else 'DIVERGED'}")
    return report


def bench_predictors(quick: bool) -> dict:
    """Float compiled predictor vs uint8 quantized at batch 10k."""
    if quick:
        batch_rows, num_features, trees, layers = 2_000, 60, 10, 6
    else:
        batch_rows, num_features, trees, layers = 10_000, 400, 40, 7
    train = make_classification(3_000, num_features, density=0.3, seed=11)
    binned = bin_dataset(train, 32)
    cfg = TrainConfig(num_trees=trees, num_layers=layers,
                      num_candidates=32, learning_rate=0.3)
    ensemble = GBDT(cfg).fit(train, binned=binned).ensemble
    compiled = compile_ensemble(ensemble)
    quant = quantize_ensemble(compiled, binned.cuts)

    batch = make_classification(batch_rows, num_features, density=0.3,
                                seed=12)
    dense = compiled.densify(batch.csc())
    binned_batch = quant.bin_batch(batch.csc())
    float_scores = compiled.raw_scores(dense)
    quant_scores = quant.raw_scores_binned(binned_batch)
    exact = bool(np.array_equal(float_scores, quant_scores))
    assert exact, "quantized predictor diverged from the float path"

    min_s = 0.3 if quick else 1.0
    float_ops = time_ops(lambda: compiled.raw_scores(dense), min_s)
    quant_ops = time_ops(lambda: quant.raw_scores_binned(binned_batch),
                         min_s)
    speedup = quant_ops / float_ops
    print(f"  float compiled   {float_ops:10.2f} batches/s")
    print(f"  uint8 quantized  {quant_ops:10.2f} batches/s "
          f"({speedup:5.2f}x), exact={exact}")
    return {
        "batch_rows": batch_rows,
        "model": {"trees": trees, "layers": layers,
                  "features": num_features},
        "float_ops": round(float_ops, 3),
        "quantized_ops": round(quant_ops, 3),
        "quantized_speedup": round(speedup, 3),
        "bit_identical": exact,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized workload")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if perf targets are missed")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_backends.json")
    args = parser.parse_args()

    mode = "quick" if args.quick else "full"
    print(f"kernel bench ({mode} workload)")
    print("plan bit-identity, numpy vs loop oracle (all 8 registry "
          "plans):")
    plans = check_plan_identity(args.quick)
    print(f"predictor ablation (batch "
          f"{2000 if args.quick else 10000}):")
    predictor = bench_predictors(args.quick)

    report = {
        "generated_by": "bench/backend_bench.py",
        "mode": mode,
        "numpy": np.__version__,
        "targets": {
            "quantized_predictor_min": QUANTIZED_TARGET,
            "quantized_gate_mode": "full",
        },
        "plan_bit_identity": plans,
        "predictor": predictor,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    ok = True
    for plan_key, entry in plans.items():
        if not entry["bit_identical"]:
            ok = False
            print(f"MISSED: plan {plan_key} not bit-identical to the "
                  f"loop oracle")
    if not predictor["bit_identical"]:
        ok = False
        print("MISSED: quantized predictor not bit-identical")
    if args.quick:
        # the speedup target is defined at batch 10k on the wide model;
        # the CI-sized batch is too small for the cache effect to show
        print("quick mode: quantized speed gate deferred to the full "
              "workload (bit-identity still enforced)")
    elif predictor["quantized_speedup"] < QUANTIZED_TARGET:
        ok = False
        print(f"MISSED: quantized predictor "
              f"{predictor['quantized_speedup']}x < {QUANTIZED_TARGET}x "
              f"over the float compiled path")
    if ok:
        print("all kernel targets met")
    return 0 if (ok or not args.check) else 1


if __name__ == "__main__":
    raise SystemExit(main())
