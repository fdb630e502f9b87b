"""Tests of the benchmark's own arithmetic and a smoke run of its harness.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import flows  # noqa: E402
import ledger  # noqa: E402
import run  # noqa: E402
from ledger import Span  # noqa: E402

import repro  # noqa: E402
from repro.errors import BasisError  # noqa: E402
from repro.telemetry.analysis import load_spans  # noqa: E402


# -- interval arithmetic --------------------------------------------------------


@pytest.mark.parametrize(
    "intervals, expected",
    [
        ([], 0.0),
        ([(0.0, 1.0), (2.0, 3.0)], 2.0),
        ([(0.0, 2.0), (1.0, 3.0)], 3.0),
        ([(0.0, 4.0), (1.0, 2.0)], 4.0),
        ([(2.0, 3.0), (0.0, 1.0), (0.5, 2.5)], 3.0),
        ([(1.0, 1.0), (3.0, 2.0)], 0.0),
    ],
)
def test_union_length(intervals, expected):
    assert ledger.union_length(intervals) == pytest.approx(expected)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0, parent=0),
        Span("a.child", 0, 2.0, 3.0, parent=1),
        Span("b", 0, 5.0, 6.0, parent=0),
        # another thread's work inside root's interval stays in root's self
        Span("worker", 1, 0.0, 9.0),
    ]
    selfs = ledger.self_times(spans)
    assert [selfs[id(s)] for s in spans] == pytest.approx([6.0, 2.0, 1.0, 1.0, 9.0])


def test_self_time_uses_the_union_of_overlapping_children():
    spans = [
        Span("root", 0, 0.0, 10.0),
        Span("a", 0, 1.0, 5.0, parent=0),
        Span("b", 0, 3.0, 7.0, parent=0),
        Span("c", 0, 9.0, 12.0, parent=0),  # clipped to the parent
    ]
    # covered: [1, 7] and [9, 10]
    assert ledger.self_times(spans)[id(spans[0])] == pytest.approx(3.0)


def test_executor_overhead_is_matvec_wall_minus_kernel_union():
    matvecs = [Span("distributed.matvec", 0, 0.0, 10.0), Span("distributed.matvec", 0, 20.0, 30.0)]
    workers = [
        Span("distributed.produce_chunk", 1, 1.0, 4.0),
        Span("distributed.consume", 2, 3.0, 6.0),
        Span("distributed.produce_chunk", 1, 21.0, 29.0),
        Span("distributed.consume", 2, 9.0, 12.0),  # straddles: 1 s inside
    ]
    kernels = workers + [Span("distributed.apply_diagonal", 0, 8.0, 9.0)]
    overhead, share, busy = ledger.executor_overhead(matvecs, kernels, workers)
    # union inside matvec 1: [1, 6] + [8, 10] = 7; matvec 2: [21, 29] = 8
    assert overhead == pytest.approx((10 - 7) + (10 - 8))
    assert share == pytest.approx(5 / 20)
    # busy: 3 + 3 + 1 over 2 threads x 10 s, then 8 over 1 thread x 10 s
    assert busy == pytest.approx((7 + 8) / (20 + 10))


def test_executor_overhead_without_matvecs_is_zero():
    assert ledger.executor_overhead([], [], []) == (0.0, 0.0, 0.0)


def test_coverage_counts_only_layer_self_time_on_the_calling_thread():
    spans = [
        Span("phase.tts", 0, 0.0, 10.0),
        Span("basis.build", 0, 0.0, 4.0, parent=0),
        Span("symmetry.state_info", 0, 1.0, 3.0, parent=1),
        # a constructor's own work between the layer calls: not covered
        Span("linalg.lanczos", 0, 6.0, 9.0, parent=0),
        Span("operators.matvec", 0, 7.0, 8.0, parent=3),
        # worker threads and spans outside the window do not count
        Span("distributed.consume", 1, 0.0, 10.0),
        Span("linalg.lanczos", 0, 11.0, 12.0),
    ]
    names = {"basis.build", "symmetry.state_info", "linalg.lanczos", "operators.matvec",
             "distributed.consume"}
    selfs = ledger.self_times(spans)
    assert ledger.coverage(spans, selfs, 0, (0.0, 10.0), names) == pytest.approx(0.7)
    # the same time in an unshimmed span is unattributed
    names.discard("linalg.lanczos")
    assert ledger.coverage(spans, selfs, 0, (0.0, 10.0), names) == pytest.approx(0.5)


# -- recorder -------------------------------------------------------------------


def test_recorder_keeps_threads_apart_and_counts_by_phase(tmp_path):
    rec = ledger.Recorder()

    def worker():
        with rec.span("distributed.consume"):
            rec.count("plan.hits")

    with rec.phase("warm"):
        with rec.span("distributed.matvec") as outer:
            with rec.span("distributed.apply_diagonal") as inner:
                pass
            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=10)
    assert not t.is_alive()
    assert rec.parent_of(inner) is outer
    consume = next(s for s in rec.spans() if s.name == "distributed.consume")
    assert consume.thread != outer.thread and consume.parent is None
    assert rec.counts()[("warm", "plan.hits")] == 1

    path = tmp_path / "trace.json"
    trace = ledger.to_trace(rec)
    trace.save(path)
    assert json.loads(path.read_text())["clock"] == "wall"
    loaded = load_spans(path)
    assert sorted(s.name for s in loaded) == sorted(s.name for s in rec.spans())
    by_name = {s.name: s for s in loaded}
    assert by_name["distributed.matvec"].duration == pytest.approx(outer.duration, abs=1e-6)
    assert by_name["distributed.consume"].thread != by_name["distributed.matvec"].thread


def test_shims_are_removed_after_a_traced_block():
    from repro.operators.operator import Operator

    original = Operator.matvec, repro.lanczos
    with ledger.installed(ledger.Recorder()):
        assert Operator.matvec is not original[0]
        assert repro.lanczos is not original[1]
    assert (Operator.matvec, repro.lanczos) == original


# -- failure accounting ---------------------------------------------------------


def test_tally_counts_typed_errors_and_failed_checks():
    tally = flows.Tally()
    with tally.operation("setup"):
        pass
    with pytest.raises(flows.FlowAborted):
        with tally.operation("matvec_cold"):
            raise BasisError("3 state(s) not found in the basis")
    with pytest.raises(flows.FlowAborted):
        with tally.operation("solve"):
            flows.check_energy(-1.0, -2.0)
    with pytest.raises(flows.FlowAborted):
        with tally.operation("matvec_block8"):
            flows.check_close(np.ones(3), np.ones(3) + 1e-6, "block")
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 3, 2)
    assert tally.errors[0].startswith("matvec_cold: BasisError")


def test_tally_lets_untyped_errors_through():
    tally = flows.Tally()
    with pytest.raises(ZeroDivisionError):
        with tally.operation("setup"):
            1 / 0
    assert (tally.attempted, tally.failed) == (1, 0)


def test_a_failed_operation_ends_the_flow_without_retry(monkeypatch):
    w, _ = _chain12()
    calls = []

    def broken(self, x):
        calls.append(x.ndim)
        raise BasisError("1 state(s) not found in the basis")

    monkeypatch.setattr(repro.Operator, "matvec", broken)
    tally = flows.Tally()
    with pytest.raises(flows.FlowAborted):
        flows.run_flow(w, flows.make_inputs(w, 0), None, ledger.NULL, tally)
    # set-up passed, the cold-plan solve failed at its first matvec, and
    # nothing after it ran
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 0)
    assert calls == [1]


# -- harness smoke run on a tiny chain (a test input, not a workload) -----------


def _chain12(threads: bool = False):
    basis = repro.SymmetricBasis(
        repro.chain_symmetries(12, momentum=0, parity=0, inversion=0), hamming_weight=6
    )
    energy = float(np.linalg.eigvalsh(repro.Operator(repro.heisenberg_chain(12), basis).to_dense())[0])
    return flows.chain_workload("chain12", 12, basis.dim, energy, threads=threads), basis.dim


@pytest.mark.parametrize("threads", [False, True])
def test_smoke_run_reports_every_metric(threads, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    w, dim = _chain12(threads)

    plain = run.run(w, seed=5, seconds=0.5, trace=False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 6
    assert [name for name, _ in run.END_TO_END] == list(plain["metrics"])
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.run(w, seed=5, seconds=0.5, trace=True)
    assert traced["correct"] and traced["failed"] == 0
    metrics = {k: m["value"] for k, m in traced["metrics"].items()}
    expected = ledger.LAYER_METRICS + (ledger.THREADS_METRICS if threads else [])
    assert [name for name, _ in expected] == list(metrics)
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    assert metrics["operators.plan.hit_ratio"] == 1.0
    assert metrics["operators.plan.bytes"] > 0
    assert metrics["basis.kept_ratio"] == pytest.approx(dim / 924)
    assert metrics["linalg.lanczos.iterations"] > 0
    assert all(metrics[name] > 0 for name, _ in ledger.THREADS_METRICS if threads)
    assert (metrics["operators.matvec.s"] > 0) != threads
    assert load_spans(tmp_path / "trace-chain12-seed5.json")


def test_benchmark_spec_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == ledger.LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} <= set(flows.WORKLOADS)
    for w in spec["workloads"]:
        assert repr(flows.WORKLOADS[w["name"]].energy) in w["why"]
