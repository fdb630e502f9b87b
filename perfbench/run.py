"""Wall-clock benchmark of the exact-diagonalization workflow.

    python3 perfbench/run.py --workload chain26_serial --seed 1 --seconds 55 --trace 0

Runs whole flows of one workload (see ``flows.py``) back to back for about
``--seconds`` seconds, checking every output, and prints as the last line
of stdout one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
ledger with ``--trace 1``.  A ``--trace 1`` run alternates untraced and
traced flows; the traced ones install the span shims of ``ledger.py`` and
the last one is written as a Chrome trace under ``perfbench/results/``.

``time_to_solution_s``, ``setup_s``, ``matvec_cold_s`` and ``solve_s``
are medians over the run's flows (cold matvecs and warm solves: over every
round of every flow), so one slow flow does not move them.  The warm and
block matvecs are the run's fastest timed batch (see :data:`FASTEST`).
``peak_rss_mb`` is the process peak after the first flow.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = [
    ("time_to_solution_s", "s"),
    ("setup_s", "s"),
    ("matvec_cold_s", "s"),
    ("matvec_warm_s", "s"),
    ("matvec_block8_col_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: Metrics reported as the fastest of the run's many short batches rather
#: than their median.  A batch takes 15-45 ms, and the other tenants of a
#: shared host slow it by up to half for stretches of several seconds (the
#: random gathers and scatters of a replay share the host's caches and
#: memory bandwidth), so a median follows the neighbours' load.  That noise
#: only ever adds time; the fastest batch is the program's own cost.
FASTEST = {"matvec_warm_s", "matvec_block8_col_s"}


def load_bench_env():
    """``benchmarks/conftest.bench_env``.

    Loading that module pins the BLAS thread pools to one thread, so it must
    happen before NumPy is first imported.
    """
    spec = importlib.util.spec_from_file_location(
        "benchmarks_conftest", ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.bench_env


def provenance(bench_env, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    env = bench_env()
    env.update(
        workload=workload,
        seed=seed,
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        why=_why(workload),
    )
    return env


def _why(workload: str) -> str | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        return None
    return next((w["why"] for w in spec["workloads"] if w["name"] == workload), None)


def run(w, seed: int, seconds: float, trace: bool, env: dict | None = None) -> dict:
    """Flows of workload ``w`` for about ``seconds``; returns the result object."""
    import flows
    import ledger

    start = time.perf_counter()
    inputs = flows.make_inputs(w, seed)
    ref = flows.prepare(w, inputs)
    tally = flows.Tally()
    plain: list = []
    traced: list = []
    layers: list[dict] = []
    last_trace = None
    first_peak_mb = None
    n_flows = 0
    longest = 0.0
    while True:
        is_traced = trace and n_flows % 2 == 1
        rec = ledger.Recorder() if is_traced else ledger.NULL
        began = time.perf_counter()
        try:
            with ledger.installed(rec) if is_traced else nullcontext():
                times = flows.run_flow(w, inputs, ref, rec, tally, n_flows)
        except flows.FlowAborted:
            times = None
        n_flows += 1
        longest = max(longest, time.perf_counter() - began)
        if first_peak_mb is None:
            # The peak of a fresh process that ran the workflow once.  Later
            # flows add heap fragmentation that grows with the flow count.
            first_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Free the flow's basis, operator and plan before the next flow.
        gc.collect()
        if times is not None:
            (traced if is_traced else plain).append(times)
            if is_traced:
                layers.append(ledger.layer_metrics(rec, times, w.dim))
                last_trace = rec
        done = n_flows >= (2 if trace else 1)
        if done and time.perf_counter() - start + longest > seconds:
            break

    metrics: dict[str, dict] = {}
    if trace:
        values = {name: [m[name] for m in layers] for name in ledger.SPAN_METRICS}
        if traced and plain:
            values["trace.overhead"] = [
                _median(traced, "time_to_solution_s") / _median(plain, "time_to_solution_s") - 1.0
            ]
        reported = ledger.LAYER_METRICS + (ledger.THREADS_METRICS if w.threads else [])
        for name, unit in reported:
            if values.get(name):
                metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
        if last_trace is not None:
            RESULTS.mkdir(exist_ok=True)
            chrome = ledger.to_trace(last_trace).to_chrome()
            chrome["otherData"] = env or {}
            path = RESULTS / f"trace-{w.name}-seed{seed}.json"
            path.write_text(json.dumps(chrome))
    elif plain:
        for name, unit in END_TO_END[:-1]:
            value = min(_samples(plain, name)) if name in FASTEST else _median(plain, name)
            metrics[name] = {"value": value, "unit": unit}
        metrics["peak_rss_mb"] = {"value": first_peak_mb, "unit": "MB"}
    for line in tally.errors:
        print(f"failed operation: {line}", file=sys.stderr)
    return {
        "correct": tally.wrong == 0 and bool(plain or traced),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _samples(flow_times: list, name: str) -> list[float]:
    samples = []
    for t in flow_times:
        value = getattr(t, name)
        samples.extend(value if isinstance(value, list) else [value])
    return samples


def _median(flow_times: list, name: str) -> float:
    return statistics.median(_samples(flow_times, name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_env = load_bench_env()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import flows

    if args.workload not in flows.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(flows.WORKLOADS)}")
    env = provenance(bench_env, args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    result = run(flows.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
