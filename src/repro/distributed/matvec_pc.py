"""The producer-consumer matrix-vector product (Sec. 5.3, Fig. 5).

This is the paper's headline algorithm, written once as generator
processes over the executor abstraction of
:mod:`repro.runtime.executor` and run on whichever backend the cluster
selects:

- ``backend="sim"`` (default): the discrete-event simulation that moves
  real data while charging modelled time;
- ``backend="threads"``: every producer/consumer is a real OS thread,
  the NumPy kernels between yields release the GIL and genuinely
  overlap, and the report carries wall-clock seconds instead of
  simulated ones.

The pipeline is backend-independent:

- on every locale, the core pool is split into *producers* and *consumers*
  (the paper uses 104/24 of 128 cores);
- each producer owns one reusable :class:`RemoteBuffer` per destination
  locale; it generates chunks of matrix elements (``getManyRows``),
  partitions them by destination in linear time, and pushes each partition
  with a remote put once the buffer may be reused;
- consumers pop filled buffers from their locale's ready queue, run
  ``stateToIndex`` (binary search in the local basis slice) and the atomic
  accumulate, then release the buffer back to its producer.

Communication therefore overlaps computation, buffers are reused (no
allocation/pinning in the steady state), and no remote tasks are ever
spawned — the three structural advantages over the naive/batched variants
and over the collective-based SPINPACK baseline.

There is one producer body and one consumer body; every step where
delivery can differ — wait-before-reuse, transmit, receive-and-release,
and termination — belongs to a *handshake* policy:

- :class:`_FlagHandshake`, the paper's deadlock-free ``isFull`` protocol:
  the producer waits for its local flag to read false, sets it, and puts;
  the consumer clears it with a remote atomic write;
- :class:`_ArqHandshake`, the self-healing protocol: every handoff
  carries a sequence number and a CRC32 over the amplitude batch,
  producers wait for explicit acknowledgements with a timeout +
  exponential-backoff retransmit, and consumers discard corrupt or
  duplicate deliveries (re-acknowledging the latter).  An exhausted retry
  budget raises a typed :class:`~repro.errors.FaultError`; a
  crash-induced stall surfaces as a :class:`~repro.errors.DeadlockError`
  (also a ``FaultError``) — the run never hangs and never returns
  silently wrong amplitudes.

The policy follows from the arguments: an armed ``faults=``
(:class:`~repro.resilience.faults.FaultPlan`) selects ARQ, and so does a
bare ``resilience=`` (:class:`~repro.resilience.faults.ResilienceConfig`)
on ``sim``, which charges the protocol's modelled checksum and
acknowledgement cost.  Fault-free on ``threads``, coherent shared memory
cannot drop, duplicate or corrupt a payload, so the flag handshake runs
there; ``report.extras["resilient"]`` still marks the run.

Under ARQ, ``sim`` draws fates from the plan's sequential RNG stream and
simulates the timers — bit-identical replays.  ``threads`` keys each fate
on the message identity (edge, buffer, attempt), so fate assignment is
deterministic under any interleaving; injected delays really postpone
deliveries, crashes really kill worker threads (supervised consumers
restart with bounded backoff, an unrecovered crash escalates as a typed
``FaultError``), and ack timeouts are wall-clock.  See
``docs/RESILIENCE.md``, "Chaos on the threads backend".

On a single locale the implementation switches to the shared-memory mode
(every core both generates and consumes), matching how the paper's
single-node reference numbers are obtained.

``work_stealing=True`` enables the paper's proposed future-work
optimization: a producer that runs out of chunks re-registers as an extra
consumer on its locale instead of idling.
"""

from __future__ import annotations

import time

import numpy as np

from repro.distributed.dist_basis import DistributedBasis
from repro.distributed.matvec_common import (
    apply_diagonal,
    check_vectors,
    consume,
    corrupted_copy,
    payload_checksum,
    produce_chunk,
    wire_bytes,
)
from repro.distributed.vector import DistributedVector
from repro.errors import ConfigError, FaultError
from repro.operators.compile import CompiledOperator
from repro.resilience.faults import ResilienceConfig
from repro.runtime.clock import CostLedger, SimReport
from repro.runtime.events import Acquire, Pop, Timeout, WaitFlag
from repro.runtime.executor import Executor, get_executor
from repro.telemetry.context import current as current_telemetry
from repro.telemetry.jobs import attribute_report

__all__ = ["matvec_producer_consumer", "split_cores"]

#: Default fraction of each locale's cores running consumer tasks
#: (24 of 128 in the paper's Sec. 6.3 accounting).
DEFAULT_CONSUMER_FRACTION = 24 / 128

#: The Python DES cannot afford hundreds of generator processes per
#: locale; it simulates at most this many "representative" workers per
#: side, whose per-element rates are scaled so each stands for
#: real_cores/sim_workers physical cores.
_MAX_SIM_WORKERS = 8

_SENTINEL = object()


def split_cores(cores: int, consumer_fraction: float) -> tuple[int, int]:
    """(producers, consumers) for a locale with ``cores`` cores.

    Both sides of the split are always at least 1.  A single-core locale
    degenerates to one shared core that both generates and consumes
    (``(1, 1)``) — the paper's shared-memory mode — instead of the old
    behaviour where ``min(..., cores - 1)`` produced zero consumers and
    a pipeline that could never drain.  Invalid inputs (``cores < 1``,
    ``consumer_fraction`` outside ``(0, 1]``) raise
    :class:`~repro.errors.ConfigError`.
    """
    if cores < 1:
        raise ConfigError(f"split_cores needs cores >= 1, got {cores}")
    if not 0.0 < consumer_fraction <= 1.0:
        raise ConfigError(
            "consumer_fraction must be in (0, 1], got "
            f"{consumer_fraction!r}"
        )
    if cores == 1:
        return 1, 1
    consumers = min(max(int(round(cores * consumer_fraction)), 1), cores - 1)
    return cores - consumers, consumers


def _worker_counts(
    cores: int,
    wall_clock: bool,
    consumer_fraction: float,
    producers: int | None,
    consumers: int | None,
) -> tuple[int, int, int, int]:
    """Per-locale ``(n_prod, n_cons, sim_prod, sim_cons)``.

    ``n_*`` is the physical split the rates are charged for: the explicit
    overrides, else :func:`split_cores`.  ``sim_*`` is how many processes
    stand for it.  On ``threads`` every worker is a real thread (default
    one producer and one consumer per locale) and both pairs agree; on
    ``sim`` each side is capped at ``_MAX_SIM_WORKERS``.  The overrides
    come together or not at all.
    """
    if (producers is None) != (consumers is None):
        raise ConfigError(
            "producers_per_locale and consumers_per_locale must be given "
            f"together, got {producers!r} and {consumers!r}"
        )
    if producers is None:
        n_prod, n_cons = split_cores(cores, consumer_fraction)
        if wall_clock:
            n_prod = n_cons = 1
    else:
        n_prod, n_cons = producers, consumers
    if wall_clock:
        return n_prod, n_cons, n_prod, n_cons
    return (
        n_prod,
        n_cons,
        min(n_prod, _MAX_SIM_WORKERS),
        min(n_cons, _MAX_SIM_WORKERS),
    )


class RemoteBuffer:
    """One producer's reusable transfer buffer towards one locale.

    ``flag`` is the handshake's per-buffer atomic: the paper's
    ``isFullLocal`` under the flag handshake, the acknowledgement flag
    under ARQ.  ``rows`` piggybacks the plan's consumer-side
    ``stateToIndex`` cache slice (or ``None`` without a plan) — it is not
    part of the simulated wire payload, which is
    :func:`~repro.distributed.matvec_common.wire_bytes` per element (16
    bytes for a single vector; the betas travel once and block columns
    add 8 bytes each).  The remaining fields are ARQ state (see
    :class:`_ArqHandshake`), at rest under the flag handshake.
    """

    __slots__ = (
        "src", "dest", "uid", "flag", "lock", "betas", "values", "rows",
        "seq", "acked_seq", "consumed_seq", "checksum", "payload", "fates",
    )

    def __init__(
        self, ex: Executor, src: int, dest: int, uid: int, flag_name=None
    ) -> None:
        self.src = src
        self.dest = dest
        #: deterministic buffer id — the salt of the keyed fate draws on
        #: the threads backend (two producers on one locale must not
        #: share a fate stream)
        self.uid = uid
        self.flag = ex.flag(False, name=flag_name)
        #: guards wire-field snapshots, consumed_seq check-and-claim,
        #: acked_seq merges and fate counters on threads (a no-op context
        #: on the simulator, where atomicity between yields is free)
        self.lock = ex.lock()
        #: wire fields — what the consumer sees (possibly corrupted)
        self.betas: np.ndarray | None = None
        self.values: np.ndarray | None = None
        self.rows: np.ndarray | None = None
        self.seq = 0
        self.acked_seq = 0
        self.consumed_seq = 0
        self.checksum = 0
        #: clean (betas, values, rows) kept for retransmits
        self.payload: tuple | None = None
        #: keyed fate draws so far, [data, ack] (threads backend: every
        #: transmit attempt / ack gets its own fate)
        self.fates = [0, 0]


def matvec_producer_consumer(
    op: CompiledOperator,
    basis: DistributedBasis,
    x: DistributedVector,
    y: DistributedVector | None = None,
    batch_size: int = 1 << 13,
    consumer_fraction: float = DEFAULT_CONSUMER_FRACTION,
    buffer_capacity: int = 4096,
    work_stealing: bool = False,
    producers_per_locale: int | None = None,
    consumers_per_locale: int | None = None,
    plan=None,
    faults=None,
    resilience=None,
) -> tuple[DistributedVector, SimReport]:
    """``y = H x`` with the producer-consumer pipeline.

    ``producers_per_locale`` / ``consumers_per_locale`` override the
    ``consumer_fraction`` split and must be given together (on ``sim``
    they are capped at sensible values for the Python simulation — what
    matters for the timing model is the *ratio* and the per-core rates,
    both of which are preserved).  On the real ``threads`` backend they
    are literal thread counts (default one producer and one consumer
    thread per locale).  ``batch_size``, ``buffer_capacity`` and the
    worker counts must be at least 1; violations raise
    :class:`~repro.errors.ConfigError`.

    ``faults`` / ``resilience`` request the self-healing protocol; see
    the module docstring for how they select the handshake (a bare
    ``resilience=ResilienceConfig()`` on ``sim`` measures the fault-free
    overhead of sequence numbers + checksums).
    """
    for name, value in (
        ("batch_size", batch_size),
        ("buffer_capacity", buffer_capacity),
        ("producers_per_locale", producers_per_locale),
        ("consumers_per_locale", consumers_per_locale),
    ):
        if value is not None and value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value!r}")
    wall_clock = getattr(basis.cluster, "backend", "sim") == "threads"
    workers = _worker_counts(
        basis.cluster.machine.cores_per_locale,
        wall_clock,
        consumer_fraction,
        producers_per_locale,
        consumers_per_locale,
    )
    y = check_vectors(basis, x, y)
    report = SimReport(ledger=CostLedger(basis.n_locales))
    tele = current_telemetry()
    tele.metrics.gauge("matvec.block_width").set(float(x.n_columns))
    trace = tele.trace if tele.trace.enabled else None

    resilient = faults is not None or resilience is not None
    if resilient and resilience is None:
        resilience = ResilienceConfig()
    if faults is not None and faults.corrupt > 0 and not resilience.checksums:
        raise ValueError(
            "corruption injection with checksums disabled would return "
            "silently wrong amplitudes; enable ResilienceConfig.checksums"
        )

    if basis.n_locales == 1:
        if faults is not None:
            crashes = faults.take_crashes()
            if crashes:
                locale = min(crashes)
                faults.record_crash(locale)
                raise FaultError(
                    f"locale {locale} crashed at t={crashes[locale]:.3g} "
                    "during the shared-memory matvec"
                )
        return _shared_memory_matvec(
            op, basis, x, y, batch_size, report, plan, wall_clock=wall_clock
        )

    ex = get_executor(
        basis.cluster, trace=trace, faults=faults, resilience=resilience
    )
    pipe = _Pipeline(
        op, basis, x, y, ex, workers,
        batch_size=batch_size,
        buffer_capacity=buffer_capacity,
        work_stealing=work_stealing,
        plan=plan,
        faults=faults,
        # ARQ whenever faults are armed, and on sim for any resilience
        # request (its modelled checksum/ack cost is baseline-pinned);
        # fault-free on threads nothing can drop, duplicate or corrupt,
        # so the flag handshake is exact there.
        arq=faults is not None or (resilient and not ex.wall_clock),
        resilience=resilience,
        report=report,
        trace=trace,
    )
    return pipe.run(resilient)


class _Pipeline:
    """The shared body of one pipelined matvec on one executor.

    Owns what both handshakes share — worker counts and rate scaling,
    the NIC / ready-queue / counter primitives, chunk lists and cursors,
    message accounting, the producer and consumer bodies, the closer and
    the diagonal + report tail — and delegates every delivery step to
    ``self.hs``.
    """

    def __init__(
        self, op, basis, x, y, ex, workers, *, batch_size, buffer_capacity,
        work_stealing, plan, faults, arq, resilience, report, trace,
    ) -> None:
        self.op, self.basis, self.x, self.y, self.ex = op, basis, x, y, ex
        self.buffer_capacity = buffer_capacity
        self.work_stealing = work_stealing
        self.plan = plan
        self.report = report
        self.ledger = report.ledger
        self.metrics = current_telemetry().metrics
        self.trace = trace
        machine = self.machine = basis.cluster.machine
        self.net = machine.network
        n = self.n = basis.n_locales
        k = self.k = x.n_columns
        n_prod, n_cons, sim_prod, sim_cons = workers
        self.n_prod, self.n_cons = n_prod, n_cons
        self.sim_prod, self.sim_cons = sim_prod, sim_cons
        # Each simulated producer stands for n_prod/sim_prod physical
        # cores, so its per-element time shrinks accordingly (same for
        # consumers).  Extra block columns only pay streaming
        # gather/scatter work, not generation, partition, or the binary
        # search (zero for k = 1).
        self.t_generate = machine.t_generate * sim_prod / n_prod
        self.t_route = (
            (machine.t_partition + machine.t_hash) * sim_prod / n_prod
            + machine.t_axpy * (k - 1) * sim_prod / n_prod
        )
        self.t_consume = (
            machine.t_search_accum * sim_cons / n_cons
            + machine.t_axpy * (k - 1) * sim_cons / n_cons
        )
        self.slowdown = [
            faults.slowdown(locale) if faults is not None else 1.0
            for locale in range(n)
        ]

        self.nic = [ex.resource(1, name=f"nic{locale}") for locale in range(n)]
        self.ready = [ex.queue(name=f"ready{locale}") for locale in range(n)]
        self.producers_remaining = ex.counter(n * sim_prod)
        self.stall_total = ex.counter(0.0)
        self.producers_done = ex.flag(False, name="producers_done")
        self.consumer_counts = [ex.counter(sim_cons) for _ in range(n)]
        # One lock per destination locale guards the shared scatter-add
        # into y.parts[dest] on the threads backend (no-op contexts on
        # sim); the name keys the executor.lock_* contention histograms.
        self.consume_locks = [
            ex.lock(f"consume{locale}") for locale in range(n)
        ]
        # Chunk lists per locale; the cursor counters hand out chunk
        # indices atomically on both backends.
        self.chunk_lists = []
        self.chunk_cursor = []
        for locale in range(n):
            count = int(basis.counts[locale])
            self.chunk_lists.append(
                [(s, min(s + batch_size, count))
                 for s in range(0, count, batch_size)]
            )
            self.chunk_cursor.append(ex.counter(0))
        self.hs = (
            _ArqHandshake(self, faults, resilience) if arq
            else _FlagHandshake(self)
        )

    # -- shared steps ---------------------------------------------------------

    def consume(self, locale: int, betas, values, rows) -> None:
        """``stateToIndex`` + scatter-add into the local part of ``y``."""
        with self.consume_locks[locale]:
            consume(
                self.basis, locale, self.y.parts[locale], betas, values, rows
            )

    def deliver(self, fn, fate=None) -> None:
        """Run ``fn`` — the arrival of an active message — after the
        remote-atomic latency; an injected ``fate`` drops, delays or
        duplicates it."""
        extra = 0.0
        if fate is not None:
            if fate.drop:
                return
            extra = fate.extra_delay
        ex = self.ex
        for _ in range(2 if fate is not None and fate.duplicate else 1):
            # The base latency is modelled (zero wall-clock on threads),
            # but an *injected* delay must genuinely postpone the
            # delivery on every backend.
            if ex.wall_clock and extra > 0.0:
                ex.call_after(extra, fn)
            else:
                ex.call_later(self.net.remote_atomic_latency + extra, fn)

    def ship(self, rb: RemoteBuffer, size: int, fate=None, retransmit=False):
        """Account one handoff of ``size`` elements and move ``rb`` to its
        destination's ready queue: a memcpy on the own locale, otherwise
        a NIC put followed by the "buffer is full" active message handled
        by the runtime (``fastOn``)."""
        ex, src, dest = self.ex, rb.src, rb.dest
        nbytes = wire_bytes(size, self.k)
        metrics = self.metrics
        with ex.mutex:
            self.report.messages += 1
            self.report.bytes_sent += nbytes
            if retransmit:
                metrics.counter(
                    "recovery.retransmits", src=src, dst=dest
                ).inc()
            else:
                metrics.counter("matvec.messages", src=src, dst=dest).inc()
                metrics.counter("matvec.bytes", src=src, dst=dest).inc(nbytes)
                metrics.histogram("matvec.buffer_elements").observe(size)
        comm_args = (
            {"src": src, "dst": dest, "bytes": nbytes, "msgs": 1}
            if self.trace is not None
            else None
        )
        if dest == src:
            yield Timeout(
                self.machine.memcpy_time(nbytes, 1), "memcpy", comm_args
            )
            self.ready[dest].push(rb)
        else:
            yield Acquire(self.nic[src])
            yield Timeout(self.net.transfer_time(nbytes), "send", comm_args)
            self.nic[src].release()
            self.deliver(lambda q=self.ready[dest], b=rb: q.push(b), fate)

    def reclaim(self, rb: RemoteBuffer, acct: dict):
        """Wait until ``rb`` may be refilled; the wait is stall time."""
        ex = self.ex
        before = ex.now
        yield from self.hs.wait(rb, acct)
        stalled = ex.now - before
        if stalled > 0.0:
            acct["stall"] += stalled
            with ex.mutex:
                self.metrics.histogram("matvec.stall_seconds").observe(stalled)

    # -- processes ------------------------------------------------------------

    def consumer(self, locale: int):
        acct = {"search+accum": 0.0}
        ready = self.ready[locale]
        while True:
            rb = yield Pop(ready)
            if rb is _SENTINEL:
                break
            yield from self.hs.receive(rb, locale, acct)
        with self.ex.mutex:
            self.ledger.add("search+accum", locale, acct["search+accum"])

    def producer(self, locale: int, producer_id: int):
        ex, hs, n = self.ex, self.hs, self.n
        buffers = [
            RemoteBuffer(
                ex, locale, d,
                uid=(locale * self.sim_prod + producer_id) * n + d,
                flag_name=hs.flag_name and hs.flag_name.format(locale, d),
            )
            for d in range(n)
        ]
        acct = {"generate": 0.0, "stall": 0.0}
        slow = self.slowdown[locale]
        chunks, cursor = self.chunk_lists[locale], self.chunk_cursor[locale]
        cap = self.buffer_capacity
        while True:
            c = cursor.add(1) - 1
            if c >= len(chunks):
                break
            start, stop = chunks[c]
            gen_start = ex.now
            chunk = produce_chunk(
                self.op, self.basis, locale, start, stop,
                self.x.parts[locale], self.plan,
            )
            dt = (
                self.t_generate * chunk.n_emitted
                + self.t_route * chunk.betas.size
            )
            acct["generate"] += (
                (ex.now - gen_start) if ex.wall_clock else dt * slow
            )
            with ex.mutex:
                self.metrics.histogram("matvec.chunk_elements").observe(
                    chunk.betas.size
                )
            yield Timeout(dt, "generate")
            # Round-robin the destinations starting after ourselves so all
            # producers do not hammer locale 0 first.
            for shift in range(n):
                dest = (locale + 1 + shift) % n
                betas_all, values_all = chunk.slice_for(dest)
                rows_all = chunk.rows_for(dest)
                rb = buffers[dest]
                for lo in range(0, betas_all.size, cap):
                    yield from self.reclaim(rb, acct)
                    yield from hs.send(
                        rb,
                        betas_all[lo : lo + cap],
                        values_all[lo : lo + cap],
                        None if rows_all is None else rows_all[lo : lo + cap],
                        acct,
                    )
        yield from hs.retire(buffers, acct)
        with ex.mutex:
            self.ledger.add("generate", locale, acct["generate"])
            self.ledger.add("stall", locale, acct["stall"])
        self.stall_total.add(acct["stall"])
        if self.work_stealing:
            self.consumer_counts[locale].add(1)
        if self.producers_remaining.add(-1) == 0:
            self.producers_done.set(True)
        if self.work_stealing:
            yield from self.consumer(locale)

    def closer(self):
        yield WaitFlag(self.producers_done, True)
        yield from self.hs.quiesce()
        for locale in range(self.n):
            for _ in range(int(self.consumer_counts[locale].get())):
                self.ready[locale].push(_SENTINEL)

    def run(self, resilient: bool) -> tuple[DistributedVector, SimReport]:
        ex, n = self.ex, self.n
        for locale in range(n):
            for p in range(self.sim_prod):
                ex.spawn(
                    self.producer(locale, p),
                    name=f"prod-{locale}-{p}",
                    track=(f"locale{locale}", f"producer{p}"),
                    locale=locale,
                )
            for c in range(self.sim_cons):
                ex.spawn(
                    self.consumer(locale),
                    name=f"cons-{locale}-{c}",
                    track=(f"locale{locale}", f"consumer{c}"),
                    locale=locale,
                    # Only an armed fault plan crashes workers, and it
                    # always selects ARQ, where consumers are safely
                    # restartable: consumption state lives in the shared
                    # buffers and consumed_seq makes reprocessing
                    # idempotent.  Producers are NOT restartable — a lost
                    # in-flight chunk cursor would corrupt the result, so
                    # producer loss escalates to the operator-level
                    # restart/fallback.
                    factory=(lambda locale=locale: self.consumer(locale)),
                )
        ex.spawn(self.closer(), name="closer")
        elapsed = ex.run()

        # Diagonal: local streaming work, overlapped here as a separate
        # phase.
        op, basis, x, y = self.op, self.basis, self.x, self.y
        machine, trace, report = self.machine, self.trace, self.report
        k = self.k
        diag_start = time.perf_counter()
        n_diag = apply_diagonal(op, basis, x, y)
        if ex.wall_clock:
            diag_elapsed = time.perf_counter() - diag_start
            if trace is not None:
                trace.complete(
                    ("diagonal", "main"), "diagonal", elapsed, diag_elapsed
                )
                trace.advance(elapsed + diag_elapsed)
        else:
            diag_elapsed = max(
                machine.compute_time(machine.t_axpy, int(c) * k)
                for c in basis.counts
            )
            if trace is not None:
                for locale in range(self.n):
                    trace.complete(
                        (f"locale{locale}", "diagonal"),
                        "diagonal",
                        elapsed,
                        machine.compute_time(
                            machine.t_axpy, int(basis.counts[locale]) * k
                        ),
                    )
                trace.advance(elapsed + diag_elapsed)
        report.elapsed = elapsed + diag_elapsed
        report.merge_phase("pipeline", elapsed)
        report.merge_phase("diagonal", diag_elapsed)
        report.extras["stall_time"] = float(self.stall_total.get())
        report.extras["n_diag"] = float(n_diag)
        report.extras["producers"] = float(self.n_prod)
        report.extras["consumers"] = float(self.n_cons)
        report.extras["block_width"] = float(k)
        report.extras["seconds_per_column"] = report.elapsed / k
        if resilient:
            report.extras["resilient"] = 1.0
        return _close_report(report, x, y, ex.wall_clock)


class _FlagHandshake:
    """The paper's ``isFull`` protocol (Sec. 5.3).

    The producer reuses a buffer only after its local flag reads false,
    sets it, then puts; the consumer clears it with a remote atomic
    write.  Waiting always happens on local atomics, which is the
    paper's deadlock-freedom argument.  Termination counts buffers in flight: once every producer
    has retired and nothing is in flight, the closer releases the
    consumers.
    """

    #: buffer flags stay unnamed (no per-edge metric labels)
    flag_name = None

    def __init__(self, pipe: _Pipeline) -> None:
        self.p = pipe
        self.inflight = pipe.ex.counter(0)
        self.drained = pipe.ex.flag(False)

    def check_drained(self) -> None:
        if self.p.producers_remaining.get() == 0 and self.inflight.get() == 0:
            self.drained.set(True)

    def wait(self, rb: RemoteBuffer, acct: dict):
        yield WaitFlag(rb.flag, False)

    def send(self, rb: RemoteBuffer, betas, values, rows, acct: dict):
        rb.flag.set(True)
        rb.betas, rb.values, rb.rows = betas, values, rows
        self.inflight.add(1)
        yield from self.p.ship(rb, betas.size)

    def receive(self, rb: RemoteBuffer, locale: int, acct: dict):
        p = self.p
        ex = p.ex
        betas = rb.betas
        dt = p.t_consume * betas.size
        before = ex.now
        p.consume(locale, betas, rb.values, rb.rows)
        acct["search+accum"] += (ex.now - before) if ex.wall_clock else dt
        yield Timeout(dt, "search+accum")
        self.inflight.add(-1)
        # Clear the producer's local flag with a remote atomic write.
        if rb.src == locale:
            rb.flag.set(False)
        else:
            p.deliver(lambda flag=rb.flag: flag.set(False))
        self.check_drained()

    def retire(self, buffers: list, acct: dict):
        yield from ()

    def quiesce(self):
        # The last buffer may have drained before the last producer
        # retired, in which case no consumer saw the final condition.
        self.check_drained()
        yield WaitFlag(self.drained, True)


class _ArqHandshake:
    """Stop-and-wait ARQ: seq + CRC32 + ack / timeout / backoff retransmit.

    Per (producer, destination) buffer: the producer keeps the clean
    ``payload``, bumps ``seq`` and transmits; the consumer verifies the
    checksum, consumes exactly once (``consumed_seq`` guards against
    duplicated deliveries) and acknowledges by merging the seq into
    ``acked_seq`` and raising the buffer's flag.  The producer reuses the
    buffer only once ``acked_seq`` catches up with ``seq`` — a timed
    wait, so a lost payload or lost ack triggers a retransmit instead of
    the silent hang of the flag handshake.  Producers retire only once
    every payload is acknowledged, so "all producers done" implies "all
    payloads consumed".  How fates and timers differ per backend: see the
    module docstring.
    """

    #: per-edge ack flag names, for deadlock reports and wait metrics
    flag_name = "ack[{}->{}]"

    def __init__(
        self, pipe: _Pipeline, faults, resilience: ResilienceConfig
    ) -> None:
        self.p = pipe
        self.faults = faults
        self.resilience = resilience
        self.checksums = resilience.checksums
        # Representative-worker scaling applies to the checksum kernel too.
        self.crc_prod_scale = pipe.sim_prod / pipe.n_prod
        self.crc_cons_scale = pipe.sim_cons / pipe.n_cons

    def fate(self, rb: RemoteBuffer, ack: bool = False):
        """The injected fate of ``rb``'s next data message or ack."""
        faults = self.faults
        if faults is None:
            return None
        src, dst = (rb.dest, rb.src) if ack else (rb.src, rb.dest)
        if not self.p.ex.wall_clock:
            return faults.message_fate(src, dst)
        # Threads: fates are a pure function of message identity, so any
        # interleaving of real workers sees the same fault assignment.
        with rb.lock:
            attempt = rb.fates[ack]
            rb.fates[ack] += 1
        return faults.message_fate_keyed(src, dst, attempt, salt=rb.uid)

    def transmit(self, rb: RemoteBuffer, acct: dict, retransmit=False):
        p = self.p
        ex = p.ex
        betas, values, rows = rb.payload
        fate = self.fate(rb) if rb.dest != rb.src else None
        if fate is not None and fate.corrupt:
            values_on_wire = corrupted_copy(values)
        else:
            values_on_wire = values
        if self.checksums:
            dt = (
                p.machine.checksum_time(wire_bytes(betas.size, p.k))
                * self.crc_prod_scale
            )
            crc_start = ex.now
            crc = payload_checksum(betas, values)
            if ex.wall_clock:
                acct["generate"] += ex.now - crc_start
            else:
                # The simulator stamps the new checksum at once, so a
                # stale delivery popped during the checksum time fails
                # verification (baseline-pinned event semantics).
                rb.checksum = crc
                acct["generate"] += dt * p.slowdown[rb.src]
            yield Timeout(dt, "checksum")
        # Publish seq, checksum and payload in one step: a consumer
        # snapshot never pairs a new seq with an old payload.
        with rb.lock:
            if not retransmit:
                rb.seq += 1
            if self.checksums:
                rb.checksum = crc
            rb.betas, rb.values, rb.rows = betas, values_on_wire, rows
        yield from p.ship(rb, betas.size, fate, retransmit)

    def wait(self, rb: RemoteBuffer, acct: dict):
        res = self.resilience
        timeout = res.ack_timeout
        retries = 0
        while rb.acked_seq < rb.seq:
            ok = yield WaitFlag(rb.flag, True, timeout=timeout)
            rb.flag.set(False)
            if ok:
                # Either the awaited ack (loop exits) or a stale
                # duplicate ack for an older seq (loop waits again).
                continue
            retries += 1
            with self.p.ex.mutex:
                self.p.metrics.counter(
                    "fault.timeouts", src=rb.src, dst=rb.dest
                ).inc()
            if retries > res.max_retries:
                raise FaultError(
                    f"RemoteBuffer handoff {rb.src}->{rb.dest} seq "
                    f"{rb.seq} unacknowledged after {retries - 1} "
                    f"retransmits (retry budget {res.max_retries} exhausted)"
                )
            timeout *= res.backoff
            yield from self.transmit(rb, acct, retransmit=True)

    def send(self, rb: RemoteBuffer, betas, values, rows, acct: dict):
        rb.payload = (betas, values, rows)
        yield from self.transmit(rb, acct)

    def receive(self, rb: RemoteBuffer, locale: int, acct: dict):
        p = self.p
        ex = p.ex
        slow = p.slowdown[locale]
        # Snapshot the wire fields up front: a retransmit may overwrite
        # them while this consumer is inside a Timeout (on threads, while
        # it runs at all — hence the lock).
        with rb.lock:
            betas, values, rows = rb.betas, rb.values, rb.rows
            seq, expected_crc = rb.seq, rb.checksum
        if self.checksums:
            dt = (
                p.machine.checksum_time(wire_bytes(betas.size, p.k))
                * self.crc_cons_scale
            )
            before = ex.now
            crc_ok = payload_checksum(betas, values) == expected_crc
            acct["search+accum"] += (
                (ex.now - before) if ex.wall_clock else dt * slow
            )
            yield Timeout(dt, "verify")
            if not crc_ok:
                # Corrupt on the wire: drop without acknowledging; the
                # producer's timeout will retransmit.
                with ex.mutex:
                    p.metrics.counter(
                        "recovery.checksum_rejects", src=rb.src, dst=locale
                    ).inc()
                return
        dt = p.t_consume * betas.size
        if ex.wall_clock:
            # Threads: consume and claim atomically under the buffer lock,
            # so an injected crash (which can only land on a yield) never
            # separates them — a killed-and-restarted consumer either
            # never claimed the payload (retransmit delivers it again) or
            # fully consumed it (the duplicate is discarded and
            # re-acknowledged).
            before = ex.now
            with rb.lock:
                duplicate = seq <= rb.consumed_seq
                if not duplicate:
                    p.consume(locale, betas, values, rows)
                    rb.consumed_seq = seq
            acct["search+accum"] += ex.now - before
            if duplicate:
                with ex.mutex:
                    p.metrics.counter("recovery.duplicates_discarded").inc()
            else:
                yield Timeout(dt, "search+accum")
        elif seq <= rb.consumed_seq:
            p.metrics.counter("recovery.duplicates_discarded").inc()
        else:
            # Claim the seq BEFORE yielding: a second consumer popping a
            # duplicated delivery of the same payload mid-Timeout must
            # see it as already consumed (the check-and-claim is atomic
            # between yields in the discrete-event simulation).
            rb.consumed_seq = seq
            acct["search+accum"] += dt * slow
            yield Timeout(dt, "search+accum")
            p.consume(locale, betas, values, rows)

        # Acknowledge (re-acknowledge duplicates: the original ack may
        # have been the dropped message).
        def ack(b=rb, s=seq):
            with b.lock:
                b.acked_seq = max(b.acked_seq, s)
            b.flag.set(True)

        if rb.src == locale:
            ack()
        else:
            p.deliver(ack, self.fate(rb, ack=True))

    def retire(self, buffers: list, acct: dict):
        # Every outstanding payload must be acknowledged before the
        # producer retires, so the closer can release the consumers.
        for rb in buffers:
            yield from self.p.reclaim(rb, acct)

    def quiesce(self):
        yield from ()


def _shared_memory_matvec(
    op: CompiledOperator,
    basis: DistributedBasis,
    x: DistributedVector,
    y: DistributedVector,
    batch_size: int,
    report: SimReport,
    plan=None,
    wall_clock: bool = False,
) -> tuple[DistributedVector, SimReport]:
    """Single-locale mode: all cores generate and consume (no pipeline).

    ``wall_clock=True`` (the ``threads`` backend) reports the measured
    wall-clock seconds of this — genuinely serial — execution instead of
    the machine model's estimate; the model figure is kept under
    ``extras["model_seconds"]``.  This is the serial reference the
    multi-worker speedup bench compares against.
    """
    machine = basis.cluster.machine
    k = x.n_columns
    tele = current_telemetry()
    metrics = tele.metrics
    trace = tele.trace if tele.trace.enabled else None
    wall_start = time.perf_counter()
    apply_diagonal(op, basis, x, y)
    count = int(basis.counts[0])
    gen_work = 0.0
    search_work = 0.0
    for start in range(0, count, batch_size):
        stop = min(start + batch_size, count)
        chunk = produce_chunk(op, basis, 0, start, stop, x.parts[0], plan)
        betas, values = chunk.slice_for(0)
        consume(basis, 0, y.parts[0], betas, values, chunk.rows_for(0))
        metrics.histogram("matvec.chunk_elements").observe(chunk.betas.size)
        gen_work += machine.t_generate * chunk.n_emitted
        search_work += (
            machine.t_search_accum + machine.t_axpy * (k - 1)
        ) * chunk.betas.size
    cores = machine.cores_per_locale
    diag_work = machine.t_axpy * count * k
    model_elapsed = (gen_work + search_work + diag_work) / cores
    if wall_clock:
        elapsed = time.perf_counter() - wall_start
        report.elapsed = elapsed
        report.merge_phase("matvec", elapsed)
        report.extras["model_seconds"] = model_elapsed
        if trace is not None:
            trace.mark_wall()
            trace.complete(("locale0", "worker0"), "matvec", 0.0, elapsed)
            trace.advance(elapsed)
    else:
        elapsed = model_elapsed
        report.elapsed = elapsed
        report.merge_phase("generate", gen_work / cores)
        report.merge_phase("search+accum", search_work / cores)
        report.merge_phase("diagonal", diag_work / cores)
        if trace is not None:
            # Sequential shared-memory phases on one worker track; the
            # offset still advances by the full elapsed time so successive
            # operations (e.g. warm plan replays that record few events)
            # stay monotone on the global timeline.
            track = ("locale0", "worker0")
            t = 0.0
            for name, work in (
                ("generate", gen_work),
                ("search+accum", search_work),
                ("diagonal", diag_work),
            ):
                if work > 0.0:
                    trace.complete(track, name, t, work / cores)
                    t += work / cores
            trace.advance(elapsed)
    report.ledger.add("generate", 0, gen_work)
    report.ledger.add("search+accum", 0, search_work)
    report.extras["producers"] = float(cores)
    report.extras["consumers"] = float(cores)
    report.extras["block_width"] = float(k)
    report.extras["seconds_per_column"] = elapsed / k
    return _close_report(report, x, y, wall_clock)


def _close_report(report: SimReport, x, y, wall_clock: bool):
    """Clock-domain seconds counter, job attribution, metrics snapshot."""
    metrics = current_telemetry().metrics
    metrics.counter(
        "wall.seconds" if wall_clock else "sim.seconds", phase="matvec"
    ).inc(report.elapsed)
    attribute_report(report, "matvec.pc", x, y)
    if metrics.enabled:
        report.metrics = metrics.snapshot()
    return y, report
