"""Whole-command benchmark of the repro package: training and scenario replay.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train-vero-epsilon --seed 7 \\
        --seconds 25 --trace 0

One process, one thread (the BLAS/OpenMP pools are pinned to one
thread before numpy loads).  The run builds its references once, then
repeats the workload's iteration — set-up, training loop or replay,
report — until ``--seconds`` have passed, checking every iteration's
outputs outside the timed region.

Times are *calibrated* seconds.  On a shared host the CPU speed drifts
by 20-60 % over seconds to minutes, which no amount of repetition
averages away, so around every iteration (outside its timed region) a
fixed reference probe that touches nothing of the package is timed, and
the iteration's wall times are divided by the probe's slowdown against
its nominal full-speed duration.  At full host speed a calibrated second
is a wall second; the raw wall time and the slowdown factor are printed
and reported by the traced run.

``--trace 0`` reports the end-to-end metrics (medians over the
iterations); ``--trace 1`` alternates untraced iterations with traced
ones, which run with span wrappers installed around each layer's public
entry points, and reports the per-layer metrics (medians over the traced
iterations) plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List

import layers
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: one reference probe's duration at full speed on the host the benchmark
#: was sized on (a 2-vCPU Intel Xeon VM at 2.0 GHz: the probe's 5th
#: percentile over 600 repetitions)
NOMINAL_PROBE_S = 0.0035
#: probe repetitions per slowdown reading (their median is used)
PROBE_REPS = 8

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("row_trees_per_s", "row-trees/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Sample:
    """One iteration: phase wall times, operations and check outcome."""

    setup_s: float
    main_s: float
    wall_s: float
    ops: int
    problems: List[str]
    facts: Dict[str, float] = field(default_factory=dict)
    iteration: int = -1
    #: host slowdown around the iteration (1.0 = full speed)
    slowdown: float = 1.0


def warm_up(workload, rec) -> float:
    """The run's untimed first iteration, as one CLI invocation runs it
    in a fresh process; builds the workload's references from its output
    and returns the process's peak resident memory at that point."""
    state = workload.setup(rec)
    workload.main(state, rec)
    workload.report(state, rec)
    rss = peak_rss_mb()
    workload.prepare(state)
    return rss


def run_iteration(workload, rec) -> Sample:
    gc.collect()
    rec.begin_iteration()
    t0 = time.perf_counter()
    with rec.span("phase.setup"):
        state = workload.setup(rec)
    t1 = time.perf_counter()
    with rec.span("phase.main"):
        workload.main(state, rec)
    t2 = time.perf_counter()
    with rec.span("phase.report"):
        workload.report(state, rec)
    t3 = time.perf_counter()
    rec.end_iteration()
    return Sample(setup_s=t1 - t0, main_s=t2 - t1, wall_s=t3 - t0,
                  ops=workload.ops(state), problems=workload.check(state),
                  facts=workload.facts(state),
                  iteration=getattr(rec, "iteration", -1))


def _probe_unit() -> None:
    """Fixed interpreter and numpy work that touches nothing of the
    package under test."""
    import numpy as np

    acc, table = 0, {}
    for i in range(30000):
        acc += i * i
        table[i & 255] = acc
    values = np.random.default_rng(0).random(30000)
    values.sort()
    np.cumsum(values)


def host_slowdown() -> float:
    """The host's current slowdown: median probe time over nominal."""
    times = []
    for _ in range(PROBE_REPS):
        start = time.perf_counter()
        _probe_unit()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / NOMINAL_PROBE_S


def measure(iterate, seconds: float, min_iterations: int) -> List[Sample]:
    """Call ``iterate(i)`` for the ``i``-th sample until ``seconds`` have
    passed, bracketing each call with host-slowdown probes."""
    samples: List[Sample] = []
    deadline = time.perf_counter() + seconds
    before = host_slowdown()
    while len(samples) < min_iterations or time.perf_counter() < deadline:
        sample = iterate(len(samples))
        after = host_slowdown()
        sample.slowdown = (before + after) / 2
        before = after
        samples.append(sample)
    return samples


def median(values) -> float:
    return float(statistics.median(list(values)))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(samples: List[Sample], rss_mb: float) -> Dict[str, tuple]:
    """``name -> (value, unit, sample_count)`` of the untraced run."""
    n = len(samples)
    values = {
        "wall_s": (median(s.wall_s / s.slowdown for s in samples), n),
        "setup_s": (median(s.setup_s / s.slowdown for s in samples), n),
        "row_trees_per_s": (
            median(s.facts["work"] * s.slowdown / s.main_s
                   for s in samples), n),
        "peak_rss_mb": (rss_mb, 1),
    }
    return {name: (values[name][0], unit, values[name][1])
            for name, unit in END_TO_END}


def per_layer(base: List[Sample], traced: List[Sample], recorder
              ) -> Dict[str, tuple]:
    """``name -> (value, unit, sample_count)`` of the traced run."""
    metrics = layers.layer_metrics(traced, recorder)
    overhead = (median(s.wall_s / s.slowdown for s in traced)
                / median(s.wall_s / s.slowdown for s in base) - 1.0)
    metrics["trace.overhead_ratio"] = (overhead, "ratio", len(traced))
    return metrics


def execute(workload, seconds: float, trace: int, label: str) -> dict:
    """Warm up, measure for ``seconds``, print the per-metric summary and
    return the result object (the JSON printed as the last line)."""
    null = tracer.NullRecorder()
    rss_mb = warm_up(workload, null)
    if trace == 0:
        samples = measure(lambda i: run_iteration(workload, null), seconds,
                          min_iterations=3)
        metrics = end_to_end(samples, rss_mb)
    else:
        from workloads import trace_targets

        recorder = tracer.Recorder()
        targets = trace_targets()

        def alternate(i: int) -> Sample:
            # untraced and traced iterations interleave, so the overhead
            # ratio compares samples taken under the same host conditions
            if i % 2 == 0:
                return run_iteration(workload, null)
            with tracer.Patches(recorder, targets):
                return run_iteration(workload, recorder)

        samples = measure(alternate, seconds, min_iterations=4)
        metrics = per_layer(samples[0::2], samples[1::2], recorder)

    attempted = sum(s.ops for s in samples)
    failed = sum(s.ops for s in samples if s.problems)
    for position, s in enumerate(samples):
        for problem in s.problems:
            print(f"FAIL iteration {position}: {problem}")
    print(f"{label} trace={trace} iterations={len(samples)} "
          f"attempted={attempted} failed={failed} "
          f"raw_wall_s={median(s.wall_s for s in samples):.4f} "
          f"host_slowdown={median(s.slowdown for s in samples):.3f}")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<12} n={count}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads."
                             "DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: error: no package source at {SRC}/repro; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    # one thread: pin the BLAS/OpenMP pools before numpy first loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    result = execute(workloads.make_workload(args.workload, seed),
                     args.seconds, args.trace,
                     f"workload={args.workload} seed={seed}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
