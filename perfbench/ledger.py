"""Span recording and the per-layer ledger arithmetic of the benchmark.

A traced flow installs shims around public functions of the ``repro``
layers (:func:`installed`).  Each shim records one span — name, start,
end, and the span that was open on the same thread when it started — into
a per-thread buffer, so the worker threads of the ``threads`` backend never
contend on a shared lock while recording.  Untraced flows run with no shim
installed: the program executes unmodified.

The rest of the module turns spans into numbers: self time (a span minus
the union of its children), interval unions, executor overhead, layer
coverage, and a wall-clock :class:`repro.telemetry.trace.TraceRecorder`
whose Chrome trace ``repro.telemetry.analysis.load_spans`` reads.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

__all__ = [
    "Span",
    "Recorder",
    "NULL",
    "installed",
    "union_length",
    "self_times",
    "executor_overhead",
    "coverage",
    "to_trace",
    "LAYER_METRICS",
    "THREADS_METRICS",
    "SPAN_METRICS",
    "layer_metrics",
]


@dataclass
class Span:
    """One recorded interval on one thread (seconds, ``perf_counter``)."""

    name: str
    thread: int
    start: float
    end: float = 0.0
    #: index of the enclosing span in the same thread's buffer
    parent: int | None = None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Buffer:
    """Spans, open-span stack and counters of one thread."""

    def __init__(self, index: int, name: str) -> None:
        self.index = index
        self.name = name
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()


class Recorder:
    """In-memory span and counter store with one buffer per thread.

    Counters are keyed by ``(phase, name)``: the calling thread names the
    workflow phase it is in (:meth:`phase`), and counts made meanwhile by
    worker threads land in that phase too.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self.current_phase = ""
        self.main_thread = self._buffer().index

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers), threading.current_thread().name)
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    @contextmanager
    def span(self, name: str):
        buf = self._buffer()
        rec = Span(name, buf.index, 0.0, parent=buf.stack[-1] if buf.stack else None)
        buf.stack.append(len(buf.spans))
        buf.spans.append(rec)
        rec.start = perf_counter()
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            buf.stack.pop()

    @contextmanager
    def phase(self, name: str):
        """A ``phase.<name>`` marker span; counts made inside go to ``name``."""
        self.current_phase = name
        try:
            with self.span(PHASE + name) as rec:
                yield rec
        finally:
            self.current_phase = ""

    def count(self, name: str, n: float = 1) -> None:
        self._buffer().counts[(self.current_phase, name)] += n

    # -- read side (call after every worker thread has joined) -------------

    @property
    def threads(self) -> list[str]:
        return [buf.name for buf in self._buffers]

    def spans(self) -> list[Span]:
        return [s for buf in self._buffers for s in buf.spans]

    def parent_of(self, span: Span) -> Span | None:
        if span.parent is None:
            return None
        return self._buffers[span.thread].spans[span.parent]

    def counts(self) -> Counter:
        total: Counter = Counter()
        for buf in self._buffers:
            total.update(buf.counts)
        return total


class _NullRecorder:
    """The recorder of untraced flows: records nothing."""

    @contextmanager
    def span(self, name: str):
        yield None

    phase = span


NULL = _NullRecorder()

#: Name prefix of the phase marker spans (not a layer: excluded from
#: self-time sums).
PHASE = "phase."


# -- shims --------------------------------------------------------------------


def _size(value) -> int:
    return int(getattr(value, "size", 0))


def _shim(recorder: Recorder, fn, name: str, note=None):
    """``fn`` wrapped in a span; ``note(span, args, result)`` adds counts."""

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        with recorder.span(name) as rec:
            out = fn(*args, **kwargs)
            if note is not None:
                note(rec, args, out)
        return out

    return shim


def _plan_get(recorder: Recorder, fn):
    @functools.wraps(fn)
    def shim(plan, key):
        entry = fn(plan, key)
        recorder.count("plan.misses" if entry is None else "plan.hits")
        return entry

    return shim


def _targets():
    """``(owner, attribute, span name, note)`` for every shimmed function.

    ``owner`` is a class for methods.  For module-level functions it is the
    defining module, and the shim replaces every binding of the function in
    the loaded ``repro`` modules, since callers import it by name.
    """
    from importlib import import_module

    # import_module, not ``import a.b as m``: ``repro.linalg.lanczos`` is
    # also the name of a function the package re-exports.
    bits_ops = import_module("repro.bits.ops")
    enumeration = import_module("repro.distributed.enumeration")
    matvec_common = import_module("repro.distributed.matvec_common")
    lanczos_mod = import_module("repro.linalg.lanczos")
    compile_mod = import_module("repro.operators.compile")
    kernels = import_module("repro.operators.kernels")
    from repro.basis.ranking import SortedRanker
    from repro.basis.symm_basis import SymmetricBasis
    from repro.distributed.operator import DistributedOperator
    from repro.distributed.vector import DistributedVectorSpace
    from repro.linalg.spaces import NumpyVectorSpace
    from repro.operators.compile import CompiledOperator
    from repro.operators.operator import Operator
    from repro.symmetry.kernels import GroupKernel

    def size(key: str, first: bool = False):
        """A note storing the size of the result (or of its first item)."""

        def note(rec, args, out):
            rec.args[key] = _size(out[0] if first else out)

        return note

    def iterations(rec, args, out):
        rec.args["iterations"] = int(out.n_iterations)

    def allreduce(rec, args, out):
        rec.args["allreduce"] = 1

    return [
        (bits_ops, "states_with_weight", "bits.states_with_weight", size("states")),
        (GroupKernel, "state_info", "symmetry.state_info", size("states", first=True)),
        (SymmetricBasis, "build", "basis.build", None),
        (SortedRanker, "rank", "basis.rank", size("queries")),
        (compile_mod, "compile_expression", "operators.compile", None),
        (CompiledOperator, "apply_off_diag", "operators.apply_off_diag", size("elements", first=True)),
        (kernels, "get_many_rows", "operators.get_many_rows", size("kept", first=True)),
        (Operator, "matvec", "operators.matvec", None),
        (lanczos_mod, "lanczos", "linalg.lanczos", iterations),
        (lanczos_mod, "eigh_tridiagonal", "linalg.tridiag", None),
        (NumpyVectorSpace, "dot", "linalg.dot", None),
        (NumpyVectorSpace, "axpy", "linalg.axpy", None),
        (DistributedVectorSpace, "dot", "linalg.dot", allreduce),
        (DistributedVectorSpace, "axpy", "linalg.axpy", None),
        (enumeration, "enumerate_states", "distributed.enumerate", None),
        (lanczos_mod, "lanczos_distributed", "distributed.lanczos", None),
        (DistributedOperator, "matvec", "distributed.matvec", None),
        (matvec_common, "produce_chunk", "distributed.produce_chunk", None),
        (matvec_common, "consume", "distributed.consume", None),
        (matvec_common, "apply_diagonal", "distributed.apply_diagonal", None),
    ]


def layer_span_names() -> set[str]:
    """Names of the spans the shims record (what ``trace.coverage`` counts)."""
    return {name for _, _, name, _ in _targets()}


def _rebind(original, replacement, undo: list) -> None:
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, value))
                setattr(module, attr, replacement)


@contextmanager
def installed(recorder: Recorder):
    """Install every shim for the duration of the block, then restore."""
    from repro.operators.plan import MatvecPlan

    undo: list = []
    try:
        for owner, attr, name, note in _targets():
            original = getattr(owner, attr)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, _shim(recorder, original, name, note))
            else:
                _rebind(original, _shim(recorder, original, name, note), undo)
        undo.append((MatvecPlan, "get", MatvecPlan.get))
        MatvecPlan.get = _plan_get(recorder, MatvecPlan.get)
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- arithmetic ---------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """``id(span) -> duration minus the union of its direct children``.

    Parents are thread-local (a span's children run on its own thread), so
    work a span hands to other threads stays in its self time.
    """
    by_thread: dict[int, list[Span]] = {}
    for s in spans:
        by_thread.setdefault(s.thread, []).append(s)
    out: dict[int, float] = {}
    for thread_spans in by_thread.values():
        children: dict[int, list[tuple[float, float]]] = {}
        for s in thread_spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        for index, s in enumerate(thread_spans):
            covered = union_length(
                (max(a, s.start), min(b, s.end))
                for a, b in children.get(index, ())
            )
            out[id(s)] = s.duration - covered
    return out


def _clip(spans: list[Span], window: Span) -> list[tuple[int, float, float]]:
    return [
        (s.thread, max(s.start, window.start), min(s.end, window.end))
        for s in spans
        if s.end > window.start and s.start < window.end
    ]


def executor_overhead(
    matvecs: list[Span], kernels: list[Span], workers: list[Span]
) -> tuple[float, float, float]:
    """``(overhead seconds, overhead share, worker busy share)``.

    ``matvecs`` are the distributed matvec spans on the calling thread.
    Their overhead is their wall time minus the union of the ``kernels``
    spans (on any thread) inside them.  The busy share is the summed
    duration of the ``workers`` spans inside each matvec over (the number
    of threads carrying them x the matvec's wall time).
    """
    wall = sum(m.duration for m in matvecs)
    if wall <= 0.0:
        return 0.0, 0.0, 0.0
    overhead = busy = capacity = 0.0
    for m in matvecs:
        inside = _clip(kernels, m)
        overhead += m.duration - union_length((a, b) for _, a, b in inside)
        worked = _clip(workers, m)
        busy += sum(b - a for _, a, b in worked)
        capacity += len({t for t, _, _ in worked}) * m.duration
    return overhead, overhead / wall, busy / capacity if capacity else 0.0


def coverage(
    spans: list[Span], selfs: dict[int, float], thread: int, window: tuple[float, float],
    names: set[str],
) -> float:
    """Self time of the ``names`` spans on ``thread`` inside ``window``,
    over the window's length.

    Time the calling thread spends outside every shimmed layer function
    (phase markers, constructors, the benchmark's own code) is not covered.
    """
    lo, hi = window
    covered = sum(
        selfs[id(s)]
        for s in spans
        if s.thread == thread and s.name in names and lo <= s.start and s.end <= hi
    )
    return _ratio(covered, hi - lo)


def to_trace(recorder: Recorder):
    """The recorded spans as a wall-clock ``TraceRecorder`` (one track per thread)."""
    from repro.telemetry.trace import TraceRecorder

    spans = recorder.spans()
    origin = min((s.start for s in spans), default=0.0)
    trace = TraceRecorder()
    trace.mark_wall()
    names = recorder.threads
    for s in spans:
        trace.complete(("perfbench", names[s.thread]), s.name, s.start - origin, s.duration, s.args)
    return trace


# -- the per-layer ledger -------------------------------------------------------

#: ``(name, unit)`` of every per-layer metric, in report order.
LAYER_METRICS = [
    ("bits.states_with_weight.s", "s"),
    ("symmetry.state_info.s", "s"),
    ("symmetry.state_info.calls", "count"),
    ("symmetry.state_info.states", "count"),
    ("symmetry.state_info.ns_per_state", "ns"),
    ("basis.build.s", "s"),
    ("basis.kept_ratio", "ratio"),
    ("basis.rank.s", "s"),
    ("basis.rank.queries", "count"),
    ("operators.compile.s", "s"),
    ("operators.apply_off_diag.s", "s"),
    ("operators.apply_off_diag.elements", "count"),
    ("operators.get_many_rows.s", "s"),
    ("operators.get_many_rows.kept_ratio", "ratio"),
    ("operators.matvec.s", "s"),
    ("operators.plan.hits", "count"),
    ("operators.plan.misses", "count"),
    ("operators.plan.hit_ratio", "ratio"),
    ("operators.plan.bytes", "B"),
    ("operators.replay.bytes", "B-computed"),
    ("operators.replay.gb_per_s", "GB/s-computed"),
    ("linalg.lanczos.iterations", "count"),
    ("linalg.lanczos.matvec.s", "s"),
    ("linalg.reorth.s", "s"),
    ("linalg.dot.calls", "count"),
    ("linalg.axpy.calls", "count"),
    ("linalg.tridiag.s", "s"),
    ("linalg.lanczos.s", "s"),
    ("trace.coverage", "ratio"),
    # measured by the run, not from spans: traced over untraced time to
    # solution
    ("trace.overhead", "ratio"),
]
#: ``(name, unit)`` of the metrics only the ``threads`` path moves; reported
#: for workloads that run on it.
THREADS_METRICS = [
    ("distributed.enumerate.s", "s"),
    ("distributed.matvec.s", "s"),
    ("distributed.produce_chunk.s", "s"),
    ("distributed.consume.s", "s"),
    ("distributed.allreduce.calls", "count"),
    ("runtime.executor_overhead.s", "s"),
    ("runtime.executor_overhead.share", "ratio"),
    ("runtime.worker_busy_share", "ratio"),
]
#: The metrics :func:`layer_metrics` computes from one traced flow.
SPAN_METRICS = [name for name, _ in LAYER_METRICS[:-1] + THREADS_METRICS]

#: Phases after the cold matvec, where every plan lookup should hit.
WARM_PHASES = ("warm", "block", "solve")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, times, dim: int) -> dict[str, float]:
    """The :data:`SPAN_METRICS` of one traced flow.

    Seconds and counts are totals over the flow.  The ``.s`` metrics of
    ``symmetry.state_info``, ``basis.build``, ``operators.get_many_rows``,
    ``operators.matvec`` and ``linalg.lanczos`` are self times (span minus
    child spans); the others are whole spans, summed over threads.
    ``times`` is the flow's :class:`flows.FlowTimes`.
    """
    spans = rec.spans()
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def total(*names):
        return sum(s.duration for s in named(*names))

    def own(name):
        return sum(selfs[id(s)] for s in named(name))

    def arg(name, key, within=None):
        return sum(
            s.args.get(key, 0)
            for s in named(name)
            if within is None or within.start <= s.start <= within.end
        )

    def under(parent: str, *names):
        return [s for s in named(*names) if getattr(rec.parent_of(s), "name", None) == parent]

    counts = rec.counts()

    def count(name, phases=None):
        return sum(
            v for (phase, n), v in counts.items()
            if n == name and (phases is None or phase in phases)
        )

    candidates = sum(
        s.args["states"]
        for s in under("basis.build", "bits.states_with_weight")
        + under("distributed.enumerate", "bits.states_with_weight")
    )
    si_states = arg("symmetry.state_info", "states")
    cold = next(iter(named(PHASE + "cold")), None)
    recorded = arg("operators.get_many_rows", "kept", within=cold) if cold else 0
    item = times.itemsize
    # One warm 1-D replay reads each recorded element's source offset and
    # row (int64) and amplitude, gathers x, and read-modify-writes y; the
    # diagonal streams diag, x and y once.
    replay_bytes = recorded * (16 + 4 * item) + dim * 3 * item
    warm_s = statistics.median(times.matvec_warm_s)
    hits_warm = count("plan.hits", WARM_PHASES)
    main = rec.main_thread
    overhead, share, busy = executor_overhead(
        [s for s in named("distributed.matvec") if s.thread == main],
        named("distributed.produce_chunk", "distributed.consume", "distributed.apply_diagonal"),
        named("distributed.produce_chunk", "distributed.consume"),
    )
    return {
        "bits.states_with_weight.s": total("bits.states_with_weight"),
        "symmetry.state_info.s": own("symmetry.state_info"),
        "symmetry.state_info.calls": len(named("symmetry.state_info")),
        "symmetry.state_info.states": si_states,
        "symmetry.state_info.ns_per_state": _ratio(own("symmetry.state_info") * 1e9, si_states),
        "basis.build.s": own("basis.build"),
        "basis.kept_ratio": _ratio(dim, candidates),
        "basis.rank.s": total("basis.rank"),
        "basis.rank.queries": arg("basis.rank", "queries"),
        "operators.compile.s": total("operators.compile"),
        "operators.apply_off_diag.s": total("operators.apply_off_diag"),
        "operators.apply_off_diag.elements": arg("operators.apply_off_diag", "elements"),
        "operators.get_many_rows.s": own("operators.get_many_rows"),
        "operators.get_many_rows.kept_ratio": _ratio(
            arg("operators.get_many_rows", "kept"), arg("operators.apply_off_diag", "elements")
        ),
        "operators.matvec.s": own("operators.matvec"),
        "operators.plan.hits": count("plan.hits"),
        "operators.plan.misses": count("plan.misses"),
        "operators.plan.hit_ratio": _ratio(
            hits_warm, hits_warm + count("plan.misses", WARM_PHASES)
        ),
        "operators.plan.bytes": times.plan_bytes,
        "operators.replay.bytes": replay_bytes,
        "operators.replay.gb_per_s": _ratio(replay_bytes / 1e9, warm_s),
        "linalg.lanczos.iterations": arg("linalg.lanczos", "iterations"),
        "linalg.lanczos.matvec.s": sum(
            s.duration for s in under("linalg.lanczos", "operators.matvec", "distributed.matvec")
        ),
        "linalg.reorth.s": sum(
            s.duration for s in under("linalg.lanczos", "linalg.dot", "linalg.axpy")
        ),
        "linalg.dot.calls": len(under("linalg.lanczos", "linalg.dot")),
        "linalg.axpy.calls": len(under("linalg.lanczos", "linalg.axpy")),
        "linalg.tridiag.s": total("linalg.tridiag"),
        "linalg.lanczos.s": own("linalg.lanczos"),
        "distributed.enumerate.s": total("distributed.enumerate"),
        "distributed.matvec.s": total("distributed.matvec"),
        "distributed.produce_chunk.s": total("distributed.produce_chunk"),
        "distributed.consume.s": total("distributed.consume"),
        "distributed.allreduce.calls": arg("linalg.dot", "allreduce"),
        "runtime.executor_overhead.s": overhead,
        "runtime.executor_overhead.share": share,
        "runtime.worker_busy_share": busy,
        "trace.coverage": coverage(spans, selfs, main, times.tts_window, layer_span_names()),
    }
