"""The benchmark's workloads: one user workflow each, run against ``repro``.

A *flow* is the whole workflow once, in a fresh set of objects:

1. set-up and a Lanczos solve on a cold plan, timed as one interval
   (``time_to_solution_s``; its set-up part is ``setup_s``);
then :data:`ROUNDS` times:

2. one cold matvec right after the plan is dropped;
3. batches of warm single-vector matvecs alternating with batches of warm
   ``(dim, 8)`` block matvecs, each batch timed as one interval;
4. a Lanczos solve on the warm plan.

Every step is an attempted operation (:class:`Tally`).  A typed ``repro``
error or a failed output check fails the operation and ends the flow; the
benchmark never retries it.  The program sees only the inputs made from the
seed (:class:`Inputs`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

import repro
from repro.errors import ReproError
from repro.symmetry.symmetries import rectangle_translation

__all__ = [
    "Workload",
    "WORKLOADS",
    "chain_workload",
    "Tally",
    "FlowAborted",
    "Inputs",
    "make_inputs",
    "prepare",
    "run_flow",
]

#: Lanczos settings of every solve (the solver defaults, spelled out).
SOLVE = {"k": 1, "tol": 1e-10}
#: Eigenvalue agreement with the pinned reference energy.
ENERGY_TOL = 1e-9
#: Agreement of a matvec result with its reference, relative to its size.
MATVEC_TOL = 1e-12
BLOCK_WIDTH = 8
#: Rounds of (cold matvec, warm and block batches, warm solve) per flow.
ROUNDS = 2
#: Warm matvecs per round: :data:`BATCHES` single-vector batches of
#: :data:`WARM_REPEATS` matvecs, each followed by a block batch of
#: :data:`BLOCK_REPEATS` ``(dim, 8)`` matvecs; each batch is timed as one
#: interval.  Many short batches spread over the run give it many chances
#: to time a batch that the host's other tenants left alone.
BATCHES = 16
WARM_REPEATS = 4
BLOCK_REPEATS = 1


@dataclass(frozen=True)
class Workload:
    """A Heisenberg model in one symmetry sector, and how to run it."""

    name: str
    n_sites: int
    #: sector dimension (checked after every set-up)
    dim: int
    #: lowest eigenvalue in the sector
    energy: float
    group: Callable[[], repro.SymmetryGroup]
    hamiltonian: Callable[[], repro.Expression]
    complex_vectors: bool = False
    #: run on the ``threads`` backend instead of the serial ``Operator``
    threads: bool = False

    @property
    def hamming_weight(self) -> int:
        return self.n_sites // 2


def chain_workload(name: str, n_sites: int, dim: int, energy: float, **kw) -> Workload:
    """Heisenberg chain at half filling, sector k=0, parity +, inversion +."""
    return Workload(
        name=name,
        n_sites=n_sites,
        dim=dim,
        energy=energy,
        group=lambda: repro.chain_symmetries(n_sites, momentum=0, parity=0, inversion=0),
        hamiltonian=lambda: repro.heisenberg_chain(n_sites),
        **kw,
    )


def _square6x4_group() -> repro.SymmetryGroup:
    return repro.SymmetryGroup.from_generators(
        [
            rectangle_translation(6, 4, 0, 1),
            rectangle_translation(6, 4, 1, 0),
            repro.spin_inversion(24, 0),
        ]
    )


CHAIN26_E0 = -11.384556427952631
SQUARE6X4_K1_E0 = -13.97532231528917

WORKLOADS = {
    w.name: w
    for w in (
        chain_workload("chain26_serial", 26, 101_340, CHAIN26_E0),
        Workload(
            name="square6x4_k1",
            n_sites=24,
            dim=56_231,
            energy=SQUARE6X4_K1_E0,
            group=_square6x4_group,
            hamiltonian=lambda: repro.heisenberg_square(6, 4),
            complex_vectors=True,
        ),
        chain_workload("chain26_threads2", 26, 101_340, CHAIN26_E0, threads=True),
    )
}

#: Locales of the ``threads`` workload: one per CPU of the 2-CPU host the
#: benchmark was written on, each modelled with one core.
THREAD_LOCALES = 2
THREAD_BATCH = 2048


# -- failure accounting -----------------------------------------------------


class CheckFailed(Exception):
    """An output of the program disagreed with its reference."""


class FlowAborted(Exception):
    """An operation of the flow failed; the rest of the flow is skipped."""


@dataclass
class Tally:
    """Attempted and failed operations over a run."""

    attempted: int = 0
    failed: int = 0
    #: failures that were wrong outputs (failed checks), not typed errors
    wrong: int = 0
    errors: list[str] = field(default_factory=list)

    @contextmanager
    def operation(self, name: str):
        self.attempted += 1
        try:
            yield
        except CheckFailed as exc:
            self.failed += 1
            self.wrong += 1
            self.errors.append(f"{name}: check failed: {exc}")
            raise FlowAborted(name) from exc
        except ReproError as exc:
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise FlowAborted(name) from exc


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_close(got: np.ndarray, want: np.ndarray, what: str) -> None:
    err = float(np.max(np.abs(got - want)))
    scale = max(1.0, float(np.max(np.abs(want))))
    check(err <= MATVEC_TOL * scale, f"{what}: max deviation {err:.3g} (scale {scale:.3g})")


def check_energy(energy: float, want: float) -> None:
    check(
        abs(energy - want) <= ENERGY_TOL,
        f"lowest eigenvalue {energy!r} differs from the reference {want!r}",
    )


# -- inputs -----------------------------------------------------------------


#: Run seed ``s`` draws its ``j``-th Lanczos start vector from seed
#: ``s * V0_STRIDE + j``.
V0_STRIDE = 1000


@dataclass
class Inputs:
    """Everything the program receives, drawn from the run's seed.

    Each solve of a run starts from its own vector, so a run's solve times
    are a median over many start vectors rather than hostage to the
    iteration count of one.
    """

    seed: int
    x: np.ndarray
    block: np.ndarray
    complex_vectors: bool

    def v0_seed(self, j: int) -> int:
        return self.seed * V0_STRIDE + j

    def v0(self, j: int) -> np.ndarray:
        return _draw(np.random.default_rng(self.v0_seed(j)), self.x.shape, self.complex_vectors)


def _draw(rng, shape, complex_vectors: bool) -> np.ndarray:
    values = rng.standard_normal(shape)
    if complex_vectors:
        values = values + 1j * rng.standard_normal(shape)
    return values


def make_inputs(w: Workload, seed: int) -> Inputs:
    """Matvec input and ``(dim, 8)`` block from ``seed``; start vectors on demand."""
    rng = np.random.default_rng(seed)
    x = _draw(rng, w.dim, w.complex_vectors)
    block = _draw(rng, (w.dim, BLOCK_WIDTH), w.complex_vectors)
    return Inputs(seed, x, block, w.complex_vectors)


@dataclass
class Reference:
    """Serial results the ``threads`` flow is checked against."""

    basis: repro.SymmetricBasis
    y: np.ndarray
    block: np.ndarray


def prepare(w: Workload, inputs: Inputs) -> Reference | None:
    """Untimed per-run set-up: the serial reference of a ``threads`` flow."""
    if not w.threads:
        return None
    basis = repro.SymmetricBasis(w.group(), hamming_weight=w.hamming_weight)
    op = repro.Operator(w.hamiltonian(), basis)
    y = op.matvec(inputs.x)
    block = np.stack([op.matvec(c) for c in inputs.block.T], axis=1)
    return Reference(basis, y, block)


# -- the flow ---------------------------------------------------------------


@dataclass
class FlowTimes:
    """Wall-clock seconds of one flow (lists hold one sample per round or
    per batch)."""

    setup_s: float = 0.0
    time_to_solution_s: float = 0.0
    matvec_cold_s: list[float] = field(default_factory=list)
    matvec_warm_s: list[float] = field(default_factory=list)
    matvec_block8_col_s: list[float] = field(default_factory=list)
    solve_s: list[float] = field(default_factory=list)
    #: the flow's tts interval (for the trace ledger)
    tts_window: tuple[float, float] = (0.0, 0.0)
    #: bytes per vector element (and per amplitude) of the operator dtype
    itemsize: int = 8
    #: bytes held by the operator's matvec plan at the end of the flow
    plan_bytes: int = 0


class _Serial:
    """The serial ``Operator`` path."""

    def __init__(self, w: Workload, inputs: Inputs, ref) -> None:
        self.w = w
        self.inputs = inputs
        #: per-column matvecs of the block, made at the first block check
        self._columns = None

    def setup(self):
        w = self.w
        basis = repro.SymmetricBasis(w.group(), hamming_weight=w.hamming_weight)
        self.op = repro.Operator(w.hamiltonian(), basis)
        return basis.dim

    def start(self, j: int) -> np.ndarray:
        return self.inputs.v0(j)

    def solve(self, v0) -> float:
        return float(repro.lanczos(self.op, v0, **SOLVE).eigenvalues[0])

    def invalidate(self) -> None:
        self.op.invalidate_plan()

    def vector(self):
        return self.inputs.x

    def block(self):
        return self.inputs.block

    def matvec(self, x):
        return self.op.matvec(x)

    def check_vector(self, y, cold) -> None:
        if cold is None:
            return
        check(np.array_equal(y, cold), "warm 1-D replay is not bit-identical to the cold pass")

    def check_block(self, y_block) -> None:
        if self._columns is None:
            self._columns = np.stack([self.op.matvec(c) for c in self.inputs.block.T], axis=1)
        check_close(y_block, self._columns, "block matvec vs per-column matvecs")


class _Threads:
    """The ``threads`` backend path: distributed enumeration, operator and
    Lanczos, checked against the serial reference."""

    def __init__(self, w: Workload, inputs: Inputs, ref: Reference) -> None:
        self.w = w
        self.inputs = inputs
        self.ref = ref

    def setup(self):
        w = self.w
        template = repro.SymmetricBasis(w.group(), hamming_weight=w.hamming_weight, build=False)
        cluster = repro.Cluster(
            THREAD_LOCALES, machine=repro.laptop_machine(cores=1), backend="threads"
        )
        basis, _ = repro.enumerate_states(cluster, template, use_weight_shortcut=True)
        self.op = repro.DistributedOperator(
            w.hamiltonian(), basis, method="pc", batch_size=THREAD_BATCH
        )
        self.basis = basis
        self._x = self._block = None
        return basis.dim

    def start(self, j: int) -> int:
        # lanczos_distributed draws its start vector from an integer seed
        return self.inputs.v0_seed(j)

    def solve(self, v0) -> float:
        result, _ = repro.lanczos_distributed(self.op, seed=v0, **SOLVE)
        return float(result.eigenvalues[0])

    def invalidate(self) -> None:
        self.op.invalidate_plan()

    def vector(self):
        if self._x is None:
            self._x = repro.DistributedVector.from_serial(
                self.basis, self.ref.basis, self.inputs.x
            )
        return self._x

    def block(self):
        if self._block is None:
            self._block = repro.DistributedVector.from_serial(
                self.basis, self.ref.basis, self.inputs.block
            )
        return self._block

    def matvec(self, x):
        return self.op.matvec(x)

    def check_vector(self, y, cold) -> None:
        check_close(y.to_serial(self.ref.basis), self.ref.y, "matvec vs serial Operator")

    def check_block(self, y_block) -> None:
        check_close(
            y_block.to_serial(self.ref.basis), self.ref.block,
            "block matvec vs per-column serial matvecs",
        )


def run_flow(
    w: Workload, inputs: Inputs, ref, rec, tally: Tally, index: int = 0
) -> FlowTimes:
    """The run's ``index``-th workflow; raises :class:`FlowAborted` on a
    failed operation.

    ``rec`` receives the phase marker spans (the ledger's recorder in a
    traced flow, :data:`ledger.NULL` otherwise).  A warm batch is one
    interval less the time spent checking each of its outputs.
    """
    path = (_Threads if w.threads else _Serial)(w, inputs, ref)
    starts = [path.start(index * (1 + ROUNDS) + j) for j in range(1 + ROUNDS)]
    t = FlowTimes()
    with rec.phase("tts"):
        start = perf_counter()
        with tally.operation("setup"):
            dim = path.setup()
            t.setup_s = perf_counter() - start
            check(dim == w.dim, f"sector dimension {dim}, expected {w.dim}")
        with tally.operation("solve_cold"):
            energy = path.solve(starts[0])
            end = perf_counter()
            check_energy(energy, w.energy)
    t.time_to_solution_s = end - start
    t.tts_window = (start, end)
    t.itemsize = np.dtype(path.op.dtype).itemsize

    x = path.vector()
    block = path.block()
    for v0 in starts[1:]:
        with rec.phase("cold"), tally.operation("matvec_cold"):
            path.invalidate()
            start = perf_counter()
            cold = path.matvec(x)
            t.matvec_cold_s.append(perf_counter() - start)
            path.check_vector(cold, None)
        with rec.phase("block"), tally.operation("matvec_block8"):
            # The first block matvec on a fresh plan builds the plan's CSR
            # scatter matrices; the timed batches replay them.
            path.check_block(path.matvec(block))
        for _ in range(BATCHES):
            with rec.phase("warm"), tally.operation("matvec_warm"):
                checking = 0.0
                start = perf_counter()
                for _ in range(WARM_REPEATS):
                    y = path.matvec(x)
                    began = perf_counter()
                    path.check_vector(y, cold)
                    checking += perf_counter() - began
                t.matvec_warm_s.append((perf_counter() - start - checking) / WARM_REPEATS)
            with rec.phase("block"), tally.operation("matvec_block8"):
                start = perf_counter()
                for _ in range(BLOCK_REPEATS):
                    y_block = path.matvec(block)
                t.matvec_block8_col_s.append(
                    (perf_counter() - start) / (BLOCK_REPEATS * BLOCK_WIDTH)
                )
                path.check_block(y_block)
        with rec.phase("solve"), tally.operation("solve"):
            start = perf_counter()
            energy = path.solve(v0)
            t.solve_s.append(perf_counter() - start)
            check_energy(energy, w.energy)
    t.plan_bytes = path.op.plan.nbytes
    return t
