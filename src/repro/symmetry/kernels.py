"""The fused, allocation-free ``state_info`` group-action kernel and the
early-rejecting representative filter.

``state_info`` — representative / character / stabilizer sum for a batch of
states — is one of the two kernels the paper's matvec spends its time in
(Sec. 2.1, 5.3), and the one every layer above calls: basis construction,
the symmetry projection inside ``getManyRows``, the distributed
enumeration's membership filter.  The straightforward implementation (kept
as :meth:`~repro.symmetry.group.SymmetryGroup.state_info_reference`) loops
over all |G| elements re-deriving each permutation's mask decomposition and
allocating fresh temporaries; this module replaces it with a
batch-compiled loop that

- applies each *distinct permutation* exactly once and derives its
  spin-flipped companion elements with a single in-place XOR (lattice
  groups with spin inversion halve their permutation work this way);
- classifies each permutation once at kernel build time into a strategy:
  identity (reuse the input), rotation (four in-place shift/or/and ops),
  rotation-of-reversal (one shared reversed batch, then a rotation — this
  covers *every* element of a dihedral chain group, eliminating generic
  gathers entirely), or a precompiled mask/shift network / byte-gather
  table for irregular permutations;
- tracks the phase as a ``uint16`` element index (one cheap masked scalar
  write per improving element) and materializes the character array once
  at the end — the loop never touches a wide float/complex phase array,
  and a real-characters sector never materializes complex phases at all;
- reuses one set of scratch buffers per thread across calls — the
  steady-state loop performs zero allocations beyond the result arrays,
  and threads sharing one group never share a buffer.

Basis construction only needs to know which candidates are orbit minima,
and only about one in |G| is.  :meth:`GroupKernel.representative_mask`
walks the same jobs but drops a state as soon as one element maps it below
itself, so the full ``state_info`` runs only on the survivors (the
early-rejection scheme of lattice-symmetries, arXiv:2104.04011).

Results match the reference element-for-element: representatives exactly,
stabilizer sums up to float summation order, and phases exactly on every
state that survives the sector (see ``tests/test_state_info_fast.py``).
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

from repro.bits.ops import as_states, bit_mask
from repro.bits.permutations import compile_permutation
from repro.symmetry.permutation import Permutation
from repro.telemetry.context import current as current_telemetry

__all__ = ["GroupKernel"]

#: Characters with |imag| below this are treated as real (matches
#: ``repro.symmetry.group.CHARACTER_TOL``).
_REAL_TOL = 1e-9


class _Scratch:
    """Reusable work arrays for one batch shape."""

    __slots__ = ("shape", "y", "yf", "net", "rev", "less", "fixed")

    def __init__(self, shape) -> None:
        self.shape = shape
        self.y = np.empty(shape, dtype=np.uint64)
        self.yf = np.empty(shape, dtype=np.uint64)
        self.net = np.empty(shape, dtype=np.uint64)
        self.rev = np.empty(shape, dtype=np.uint64)
        self.less = np.empty(shape, dtype=bool)
        self.fixed = np.empty(shape, dtype=bool)


class GroupKernel:
    """Batch-compiled group action for one symmetry group.

    Built lazily by :class:`~repro.symmetry.group.SymmetryGroup` (one per
    group) from its element list; the constructor groups elements by
    permutation so flip-companions reuse each permuted batch, and assigns
    each distinct permutation its cheapest application strategy.
    """

    def __init__(
        self,
        permutations: list[Permutation],
        flips: np.ndarray,
        characters: np.ndarray,
        n_sites: int,
    ) -> None:
        self.n_sites = n_sites
        self.size = len(permutations)
        self.is_real = bool(
            np.all(np.abs(np.imag(characters)) < _REAL_TOL)
        )
        self._flip_mask = bit_mask(n_sites)
        # Group the elements by permutation (Permutation hashes by its site
        # mapping, so equal-but-distinct instances coalesce here even if the
        # group did not intern them).  Insertion order is preserved so the
        # element visit order stays deterministic.
        grouped: dict[Permutation, list[tuple[bool, complex]]] = {}
        for perm, flip, char in zip(permutations, flips, characters):
            chi_conj = np.conj(complex(char))
            grouped.setdefault(perm, []).append((bool(flip), chi_conj))

        # Variant index 0 is reserved for "never improved" — the identity
        # element's unit character — so the phase lookup table has one
        # leading slot.
        phase_chars: list[complex] = [1.0 + 0.0j]
        needs_reversal = False
        jobs: list[tuple[str, object, list[tuple[bool, object, np.uint16]]]] = []
        for perm, variants in grouped.items():
            if perm.is_identity:
                tag, payload = "id", None
            elif perm.rotation_amount is not None:
                tag, payload = "rot", (
                    np.uint64(perm.rotation_amount),
                    np.uint64(n_sites - perm.rotation_amount),
                )
            elif perm.reversed_rotation_amount is not None:
                k = perm.reversed_rotation_amount
                tag = "revrot"
                payload = (
                    (np.uint64(k), np.uint64(n_sites - k)) if k else None
                )
                needs_reversal = True
            else:
                tag, payload = "net", perm
            tagged = []
            for flip, chi_conj in variants:
                phase_chars.append(chi_conj)
                chi = chi_conj.real if self.is_real else chi_conj
                tagged.append((flip, chi, np.uint16(len(phase_chars) - 1)))
            jobs.append((tag, payload, tagged))
        self._jobs = jobs
        self.n_distinct_permutations = len(jobs)
        #: distinct permutations per application strategy (telemetry:
        #: ``kernel.state_info_strategy{strategy=...}`` counts one per
        #: strategy per call, so ``repro-inspect`` can show which dispatch
        #: paths actually run)
        _names = {
            "id": "identity",
            "rot": "rotation",
            "revrot": "reversed-rotation",
            "net": "network",
        }
        self.strategy_counts: dict[str, int] = {}
        for tag, _, _ in jobs:
            label = _names[tag]
            self.strategy_counts[label] = self.strategy_counts.get(label, 0) + 1
        table = np.asarray(phase_chars, dtype=np.complex128)
        self._phase_table = table.real.copy() if self.is_real else table
        # The shared reversed batch is produced by the reversal permutation's
        # own compiled applier (a byte-gather table), once per call.
        self._reversal = (
            compile_permutation(np.arange(n_sites - 1, -1, -1))
            if needs_reversal
            else None
        )
        self._local = threading.local()

    # -- scratch management -------------------------------------------------

    @property
    def _scratch(self) -> _Scratch | None:
        """The calling thread's scratch (``None`` before its first call)."""
        return getattr(self._local, "scratch", None)

    def _buffers(self, shape) -> _Scratch:
        scratch = self._scratch
        if scratch is None or scratch.shape != shape:
            scratch = _Scratch(shape)
            self._local.scratch = scratch
        return scratch

    # -- the kernels --------------------------------------------------------

    def _permute(self, tag, payload, s, rev, out, tmp) -> np.ndarray:
        """One job's permuted batch ``p(s)``, written to ``out`` unless the
        strategy can return ``s`` or the reversed batch ``rev`` as is.

        ``rev`` (``reversal(s)``) is read by reversed-rotation jobs only;
        ``tmp`` is clobbered.
        """
        if tag == "id":
            return s
        if tag == "net":
            return payload.apply_into(s, out, tmp)
        if tag == "revrot":
            if payload is None:  # pure reversal
                return rev
            s = rev
        kk, nk = payload
        np.left_shift(s, kk, out=out)
        np.right_shift(s, nk, out=tmp)
        np.bitwise_or(out, tmp, out=out)
        np.bitwise_and(out, self._flip_mask, out=out)
        return out

    def representative_mask(self, states) -> np.ndarray:
        """Mask of the states that no group element maps to a smaller state.

        These are the orbit minima, the states with ``rep == s`` in
        :meth:`state_info`.  The filter visits the same distinct
        permutations with the same strategies and flip companions, but
        after each permutation it compacts the batch to the states still
        alive.  Any non-identity element maps about half of a batch below
        itself, so the work drops from |G| full-width passes to a few.
        Its buffers are local to the call.
        """
        s = as_states(states)
        alive = s.ravel()
        positions = np.arange(alive.size)
        y = np.empty_like(alive)
        tmp = np.empty_like(alive)
        keep = np.empty(alive.shape, dtype=bool)
        ok = np.empty(alive.shape, dtype=bool)
        rev = None
        for tag, payload, variants in self._jobs:
            m = alive.size
            if m == 0:
                break
            if tag == "revrot" and rev is None:
                rev = self._reversal.apply(alive, scratch=tmp[:m])
            z0 = self._permute(tag, payload, alive, rev, y[:m], tmp[:m])
            k = keep[:m]
            k.fill(True)
            for flip, _, _ in variants:
                if tag == "id" and not flip:
                    continue
                z = np.bitwise_xor(z0, self._flip_mask, out=tmp[:m]) if flip else z0
                np.greater_equal(z, alive, out=ok[:m])
                k &= ok[:m]
            if k.all():
                continue
            alive = alive[k]
            positions = positions[k]
            if rev is not None:
                rev = rev[k]
        mask = np.zeros(s.size, dtype=bool)
        mask[positions] = True
        return mask.reshape(s.shape)

    def state_info(
        self, states
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused representative / phase / stabilizer-sum computation.

        Semantics are those of
        :meth:`repro.symmetry.group.SymmetryGroup.state_info`; ``phase``
        comes back ``float64`` instead of ``complex128`` when every
        character is real.
        """
        s = as_states(states)
        metrics = current_telemetry().metrics
        t0 = perf_counter() if metrics.enabled else 0.0

        dtype = np.float64 if self.is_real else np.complex128
        rep = s.copy()
        phase_idx = np.zeros(s.shape, dtype=np.uint16)
        stab = np.zeros(s.shape, dtype=dtype)
        sc = self._buffers(s.shape)

        rev = None
        for tag, payload, variants in self._jobs:
            if tag == "revrot" and rev is None:
                rev = self._reversal.apply(s, out=sc.rev, scratch=sc.net)
            z0 = self._permute(tag, payload, s, rev, sc.y, sc.net)
            for flip, chi_conj, vidx in variants:
                if tag == "id" and not flip:
                    # g(s) == s for every state: pure stabilizer credit.
                    np.add(stab, chi_conj, out=stab)
                    continue
                if flip:
                    np.bitwise_xor(z0, self._flip_mask, out=sc.yf)
                    z = sc.yf
                else:
                    z = z0
                np.less(z, rep, out=sc.less)
                if np.count_nonzero(sc.less):
                    np.copyto(rep, z, where=sc.less)
                    np.copyto(phase_idx, vidx, where=sc.less)
                np.equal(z, s, out=sc.fixed)
                # Non-trivial stabilizer elements are rare (most states sit
                # in full-size orbits), so a counted guard plus a masked add
                # on the few hits beats a full-width multiply-accumulate.
                if np.count_nonzero(sc.fixed):
                    stab[sc.fixed] += chi_conj

        phase = self._phase_table.take(phase_idx)
        if not self.is_real:
            stab = stab.real
        if metrics.enabled:
            metrics.histogram("kernel.state_info_seconds").observe(
                perf_counter() - t0
            )
            metrics.counter("kernel.state_info_states").inc(s.size)
            for strategy, count in self.strategy_counts.items():
                metrics.counter(
                    "kernel.state_info_strategy", strategy=strategy
                ).inc(count)
        return rep, phase, stab
