"""Property tests: the fused ``state_info`` kernel matches the reference.

The fused :class:`~repro.symmetry.kernels.GroupKernel` reorders the group
loop (elements grouped by permutation, flip companions derived by XOR) and
uses different application strategies per permutation, so these tests pin
the exact contract against
:meth:`~repro.symmetry.group.SymmetryGroup.state_info_reference`:

- representatives are *identical* (integer minimum, order-independent);
- stabilizer sums agree to float-summation tolerance;
- phases agree exactly on every state that survives the sector (for
  non-surviving states the phase is order-dependent and unused — any
  element reaching the minimum is a valid witness);
- the early-rejecting ``representative_mask`` marks exactly the states the
  reference maps to themselves.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.symmetry import (
    Permutation,
    Symmetry,
    SymmetryGroup,
    chain_symmetries,
    rectangle_translation,
)

STAB_TOL = 1e-6


def random_states(n_sites: int, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**n_sites, size=size, dtype=np.uint64)


def assert_matches_reference(group: SymmetryGroup, states: np.ndarray) -> None:
    rep_ref, phase_ref, stab_ref = group.state_info_reference(states)
    rep, phase, stab = group.state_info(states)
    np.testing.assert_array_equal(rep, rep_ref)
    np.testing.assert_allclose(stab, stab_ref, atol=1e-12)
    surviving = stab > STAB_TOL
    np.testing.assert_allclose(
        np.asarray(phase, dtype=np.complex128)[surviving],
        phase_ref[surviving],
        atol=1e-12,
    )
    if group.is_real:
        assert phase.dtype == np.float64, "real sector must avoid complex phases"
    np.testing.assert_array_equal(
        group.kernel.representative_mask(states), rep_ref == states
    )


chain_cases = st.integers(4, 20).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.one_of(st.none(), st.integers(0, n - 1)),  # momentum
        st.one_of(st.none(), st.integers(0, 1)),  # parity
        st.one_of(st.none(), st.integers(0, 1)),  # inversion
    )
)


class TestChainGroups:
    @settings(max_examples=40, deadline=None)
    @given(case=chain_cases, seed=st.integers(0, 2**32 - 1))
    def test_random_chain_sectors(self, case, seed):
        n, momentum, parity, inversion = case
        if momentum is None and parity is None and inversion is None:
            momentum = 0
        # Parity/inversion sectors only combine consistently with momentum
        # 0 or n/2; skip inconsistent sectors (group closure raises).
        try:
            group = chain_symmetries(n, momentum, parity, inversion)
        except Exception:
            return
        assert_matches_reference(group, random_states(n, 500, seed))

    def test_full_paper_group_large_batch(self):
        group = chain_symmetries(20, 0, 0, 0)
        assert_matches_reference(group, random_states(20, 5000, 7))

    def test_complex_momentum_sector(self):
        group = chain_symmetries(12, 3, None, None)
        assert not group.is_real
        assert_matches_reference(group, random_states(12, 2000, 11))


class TestRectangleGroups:
    @settings(max_examples=20, deadline=None)
    @given(
        nx=st.integers(2, 5),
        ny=st.integers(2, 5),
        kx=st.integers(0, 4),
        ky=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_2d_translations(self, nx, ny, kx, ky, seed):
        group = SymmetryGroup.from_generators(
            [
                rectangle_translation(nx, ny, 0, sector=kx % nx),
                rectangle_translation(nx, ny, 1, sector=ky % ny),
            ]
        )
        assert len(group) == nx * ny
        assert_matches_reference(group, random_states(nx * ny, 500, seed))


class TestRandomPermutationGroups:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(3, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_generator_sector_zero(self, n, seed):
        """Groups closed from an arbitrary random permutation (trivial
        sector, so closure always succeeds) exercise the generic
        byte-gather strategy."""
        rng = np.random.default_rng(seed)
        perm = Permutation(rng.permutation(n))
        flip = bool(rng.integers(0, 2))
        group = SymmetryGroup.from_generators(
            [Symmetry(perm, sector=0, flip=flip)]
        )
        assert_matches_reference(group, random_states(n, 400, seed))

    def test_trivial_group(self):
        group = SymmetryGroup.trivial(10)
        states = random_states(10, 100, 3)
        rep, phase, stab = group.state_info(states)
        np.testing.assert_array_equal(rep, states)
        np.testing.assert_allclose(stab, 1.0)
        np.testing.assert_allclose(np.asarray(phase, dtype=np.complex128), 1.0)


class TestStrategyClassification:
    """The kernel's per-permutation strategies must cover the chain group."""

    def test_reversed_rotation_detection(self):
        n = 12
        reversal = Permutation(np.arange(n - 1, -1, -1))
        rotation = Permutation((np.arange(n) + 1) % n)
        assert reversal.reversed_rotation_amount == 0
        assert rotation.reversed_rotation_amount is None
        composite = rotation @ reversal
        k = composite.reversed_rotation_amount
        assert k is not None
        states = random_states(n, 64, 0)
        from repro.bits.ops import reverse_bits, rotate_left

        np.testing.assert_array_equal(
            composite(states), rotate_left(reverse_bits(states, n), k, n)
        )

    def test_chain_group_uses_no_generic_networks(self):
        group = chain_symmetries(16, 0, 0, 0)
        tags = {tag for tag, _, _ in group.kernel._jobs}
        assert "net" not in tags, (
            "every dihedral-chain element should classify as identity, "
            "rotation, or rotation-of-reversal"
        )

    def test_scratch_reused_across_calls(self):
        group = chain_symmetries(10, 0, 0, 0)
        states = random_states(10, 256, 1)
        group.state_info(states)
        scratch_first = group.kernel._scratch
        group.state_info(states)
        assert group.kernel._scratch is scratch_first


class TestThreadSafety:
    @pytest.mark.parametrize("method", ["state_info", "representative_mask"])
    def test_threads_share_one_group(self, method):
        """Threads calling one group's kernel concurrently get the serial
        results: neither the kernel's scratch nor a permutation's gather
        buffers are shared between threads.  Equal batch shapes make a
        shared buffer collide."""
        group = chain_symmetries(20, 0, 0, 0)
        kernel_call = getattr(group.kernel, method)

        def call(states):
            out = kernel_call(states)
            return out if isinstance(out, tuple) else (out,)

        batches = [random_states(20, 40_000, seed) for seed in range(4)]
        expected = [call(b) for b in batches]
        start = threading.Barrier(len(batches))
        failures: list[str] = []

        def work(i: int) -> None:
            start.wait()
            try:
                for _ in range(10):
                    got = call(batches[i])
                    if not all(
                        np.array_equal(a, b) for a, b in zip(got, expected[i])
                    ):
                        failures.append(f"thread {i}: result differs")
            except Exception as exc:  # a race can also raise
                failures.append(f"thread {i}: {exc!r}")

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(len(batches))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[:5]
