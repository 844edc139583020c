"""Benchmark command: one workload, one seed, a timed or a traced run.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics with tracing off: it sets
up and runs the workload body on fresh inputs for about ``--seconds``
and reports medians.  Its times are scaled to a reference host speed
measured as it goes (see ``calibrate.py``); ``peak_mb`` is
the rise of the resident high-water mark over the first run.  ``--trace 1``
alternates an untraced and a traced body on the same inputs and reports
the per-layer metrics of the traced one, plus the tracing overhead.

Both modes check every output: per-operation feasibility, whole-run
checks, and exact repeat of the deterministic outputs across runs of one
seed.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 1
when an operation raised or a check failed, and 2 when the package
cannot be imported.  A full
record (environment, workload-specific numbers, spans) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from calibrate import LAP_S, REFERENCE_S, SpeedClock, Stopwatch

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Names, units and bounds of every metric; the run reports exactly these.
SPEC = HERE.parent / "BENCHMARK.json"
#: Set-up batches per timed run (``setup_s`` is the median of their
#: per-set-up times).
SETUP_BATCHES = 3


def environment(args, workload, seeds) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": args.seed,
        "instance_seeds": seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "machine": platform.machine(),
    }


def _loop(seeds, seconds, step) -> list:
    """Call ``step(instance_seed)`` for about ``seconds``, cycling through ``seeds``.

    At least one step runs; a later step that would end more than 10% past
    ``seconds`` (judged by the longest step so far) is not started.
    Returns one failed operation per step that raised.
    """
    start = time.perf_counter()
    longest = 0.0
    errors = []
    k = 0
    while k == 0 or time.perf_counter() - start + longest <= 1.1 * seconds:
        t0 = time.perf_counter()
        try:
            step(seeds[k % len(seeds)])
        except Exception as exc:  # a raising operation counts as a failed one
            errors.append(("raised", False, f"{type(exc).__name__}: {exc}"))
        longest = max(longest, time.perf_counter() - t0)
        k += 1
    return errors


def _setup_batch(workload, seed, clock) -> float:
    """Scaled seconds per set-up, over back-to-back set-ups lasting ``LAP_S`` or more.

    One cheap set-up (15 ms on ``plan``) is too short to scale by the
    calibrations at its ends; a batch of them is not.
    """
    clock.split()  # whatever ran since the last phase is not measured
    start, count = time.perf_counter(), 0
    while count == 0 or time.perf_counter() - start < LAP_S:
        workload.setup(seed)
        count += 1
    return clock.split() / count


def _determinism_ops(results) -> list:
    """Deterministic outputs must repeat exactly within one process.

    Every body of one instance seed must give the same signature, and the
    first decision, made on the same fixed instance by every body, the same
    cost whatever the instance seed.
    """
    ops = []
    first: dict = {}
    for seed, outcome in results:
        if seed in first:
            same = outcome.signature == first[seed]
            message = f"seed {seed}: {outcome.signature} != {first[seed]}"
            ops.append(("determinism", same, "" if same else message))
        else:
            first[seed] = outcome.signature
    ratio = results[0][1].cost_ratio if results else None
    for _seed, outcome in results[1:]:
        same = outcome.cost_ratio == ratio
        ops.append(("determinism", same, "" if same else f"cost ratio {outcome.cost_ratio} != {ratio}"))
    return ops


def timed_run(workload, seeds, seconds):
    results = []
    clock = SpeedClock()
    # Peak memory is the rise of the process's resident high-water mark over
    # the first set-up and body run; reading it costs nothing, so that run is
    # timed like every other.
    baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_kb: list[int] = []

    def step(seed):
        state = workload.setup(seed)
        raw = workload.body(state, clock)
        if not peak_kb:
            peak_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - baseline)
        results.append((seed, workload.evaluate(state, raw)))

    errors = _loop(seeds, seconds, step)
    if not results:
        return None, results, results, errors, {}, None
    setups = [
        _setup_batch(workload, seeds[k % len(seeds)], clock) for k in range(SETUP_BATCHES)
    ]

    def median(attr):
        return statistics.median(getattr(outcome, attr) for _seed, outcome in results)

    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": median("solve_s"),
        "adapt_s": median("adapt_s"),
        "cost_ratio": median("cost_ratio"),
        "peak_mb": peak_kb[0] / 1024,
    }
    extra = {
        "body_runs": len(results),
        "calibrations": len(clock.calibrations),
        "host_slowdown": statistics.median(clock.calibrations) / REFERENCE_S,
    }
    return metrics, results, results, errors, extra, None


def traced_run(workload, seeds, seconds):
    from tracer import ROOT, Tracer, instrument, layer_metrics

    tracer = Tracer()
    results = []
    traced = []
    walls = {"untraced": 0.0, "traced": 0.0}
    runs = [0]

    def step(seed):
        state = workload.setup(seed)
        t0 = time.perf_counter()
        raw = workload.body(state, Stopwatch())
        walls["untraced"] += time.perf_counter() - t0
        results.append((seed, workload.evaluate(state, raw)))

        state = workload.setup(seed)
        with instrument(tracer):
            t0 = time.perf_counter()
            with tracer.span(ROOT):
                raw = workload.body(state, Stopwatch())
            walls["traced"] += time.perf_counter() - t0
        traced.append((seed, workload.evaluate(state, raw)))
        runs[0] += 1

    errors = _loop(seeds, seconds, step)
    if not runs[0]:
        return None, results, results + traced, errors, {}, None
    metrics = layer_metrics(tracer, runs[0])
    metrics["trace.overhead_frac"] = walls["traced"] / walls["untraced"] - 1.0
    extra = {
        "traced_runs": runs[0],
        "untraced_body_s": walls["untraced"] / runs[0],
        "spans": len(tracer.spans),
    }
    # Timing info comes from the untraced bodies; every body is checked.
    return metrics, results, results + traced, errors, extra, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: package source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        from workloads import WORKLOADS, instance_seeds
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    seeds = instance_seeds(args.seed, workload.instances)

    run = traced_run if args.trace else timed_run
    metrics, results, checked, errors, extra, tracer = run(workload, seeds, args.seconds)

    ops = [op for _seed, outcome in checked for op in outcome.ops]
    ops += _determinism_ops(checked) + errors
    failed = [op for op in ops if not op[1]]
    for name, _ok, message in failed[:20]:
        print(f"FAILED {name}: {message}")
    if metrics is None:
        return 1
    last = results[-1][1]
    env = environment(args, workload, seeds)
    env.update(last.sizes)
    info = dict(extra)
    for key in last.info:
        info[key] = statistics.median(o.info[key] for _s, o in results if key in o.info)
    info["fail_frac"] = len(failed) / len(ops)

    wanted = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    payload = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted
        },
    }

    print(f"env {json.dumps(env, sort_keys=True)}")
    for key, value in sorted(info.items()):
        print(f"info {key} = {value:.6g}")
    for key, entry in payload["metrics"].items():
        print(f"metric {key} = {entry['value']:.6g} {entry['unit']}")

    OUT.mkdir(exist_ok=True)
    record = {"env": env, "info": info, "result": payload}
    if tracer is not None:
        record["spans"] = tracer.dump()
    out = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, default=float))

    print(json.dumps(payload))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
