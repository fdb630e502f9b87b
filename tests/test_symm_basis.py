"""Tests for the symmetry-adapted basis, validated against an explicit
group-projector construction."""

import numpy as np
import pytest

from repro import telemetry
from repro.basis import SpinBasis, SymmetricBasis
from repro.bits.ops import states_with_weight
from repro.errors import BasisError, InvalidSectorError
from repro.symmetry import (
    SymmetryGroup,
    chain_symmetries,
    rectangle_translation,
    sector_dimension,
    spin_inversion,
)
from repro.telemetry import Telemetry


def projector_matrix(group, u1_basis):
    """The explicit sector projector in a U(1) subspace."""
    dim = u1_basis.dim
    p = np.zeros((dim, dim), dtype=complex)
    for i in range(len(group)):
        permuted = group.apply_element(i, u1_basis.states)
        rows = u1_basis.index(permuted)
        u = np.zeros((dim, dim), dtype=complex)
        u[rows, np.arange(dim)] = 1.0
        p += np.conj(group.characters[i]) * u
    return p / len(group)


SECTORS = [
    (0, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (0, 1, 1),
    (0, None, None),
    (1, None, None),
    (2, None, None),
    (3, None, None),
]


class TestDimensions:
    @pytest.mark.parametrize("momentum,parity,inversion", SECTORS)
    def test_dim_matches_projector_rank(self, momentum, parity, inversion):
        n, w = 8, 4
        group = chain_symmetries(n, momentum, parity, inversion)
        basis = SymmetricBasis(group, hamming_weight=w)
        u1 = SpinBasis(n, hamming_weight=w)
        p = projector_matrix(group, u1)
        rank = int(np.sum(np.linalg.eigvalsh(p) > 0.5))
        assert basis.dim == rank

    @pytest.mark.parametrize("momentum,parity,inversion", SECTORS)
    def test_dim_matches_burnside(self, momentum, parity, inversion):
        n, w = 10, 5
        group = chain_symmetries(n, momentum, parity, inversion)
        basis = SymmetricBasis(group, hamming_weight=w)
        assert basis.dim == sector_dimension(group, w)

    def test_full_space_no_weight(self):
        group = chain_symmetries(6, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group)
        assert basis.dim == sector_dimension(group, None)


class TestRepresentatives:
    @pytest.fixture
    def basis(self):
        group = chain_symmetries(10, momentum=0, parity=0, inversion=0)
        return SymmetricBasis(group, hamming_weight=5)

    def test_states_sorted(self, basis):
        assert np.all(np.diff(basis.states.astype(np.int64)) > 0)

    def test_states_are_orbit_minima(self, basis):
        rep, _, _ = basis.group.state_info(basis.states)
        assert np.array_equal(rep, basis.states)

    def test_index_roundtrip(self, basis):
        assert np.array_equal(
            basis.index(basis.states), np.arange(basis.dim, dtype=np.int64)
        )

    def test_check_agrees_with_membership(self, basis):
        candidates = np.arange(1 << 10, dtype=np.uint64)
        mask = basis.check(candidates)
        assert np.array_equal(candidates[mask], basis.states)

    def test_stabilizer_sums_positive_integers(self, basis):
        stab = basis.stabilizer_sums
        assert np.all(stab > 0.5)
        assert np.allclose(stab, np.round(stab))

    def test_norms_formula(self, basis):
        assert np.allclose(
            basis.norms, np.sqrt(basis.stabilizer_sums / len(basis.group))
        )

    def test_source_scale(self, basis):
        assert np.allclose(
            basis.source_scale, 1.0 / np.sqrt(basis.stabilizer_sums)
        )


class TestProjection:
    def test_project_diagonal_factor_is_one(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group, hamming_weight=4)
        members, factors, valid = basis.project(basis.states)
        assert np.array_equal(members, basis.states)
        assert np.all(valid)
        # factor * source_scale == 1 for representatives mapped to themselves
        assert np.allclose(factors * basis.source_scale, 1.0)

    def test_project_invalid_states_flagged(self):
        group = chain_symmetries(4, momentum=1, parity=None, inversion=None)
        basis = SymmetricBasis(group, hamming_weight=2)
        # The Neel orbit {0101, 1010} has stabilizer {e, t^2} with
        # chi(t^2) = -1 at k=1, so its character sum vanishes.
        _, _, valid = basis.project(np.array([0b0101], dtype=np.uint64))
        assert not valid[0]

    def test_project_real_sector_returns_real(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group, hamming_weight=4)
        _, factors, _ = basis.project(basis.states)
        assert factors.dtype == np.float64

    def test_project_complex_sector_returns_complex(self):
        group = chain_symmetries(8, momentum=1, parity=None, inversion=None)
        basis = SymmetricBasis(group, hamming_weight=4)
        _, factors, _ = basis.project(basis.states)
        assert factors.dtype == np.complex128


class TestConstruction:
    def test_unbuilt_basis_raises_on_access(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group, hamming_weight=4, build=False)
        with pytest.raises(BasisError):
            _ = basis.dim
        with pytest.raises(BasisError):
            basis.index(np.array([0], dtype=np.uint64))

    def test_unbuilt_basis_can_check_and_project(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group, hamming_weight=4, build=False)
        assert basis.check(np.array([0b00001111], dtype=np.uint64)).shape == (1,)
        basis.project(np.array([0b00001111], dtype=np.uint64))

    def test_from_representatives(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        reference = SymmetricBasis(group, hamming_weight=4)
        rebuilt = SymmetricBasis.from_representatives(
            group, reference.states, hamming_weight=4
        )
        assert np.array_equal(rebuilt.states, reference.states)
        assert np.allclose(rebuilt.norms, reference.norms)

    def test_from_representatives_rejects_outsiders(self):
        group = chain_symmetries(4, momentum=1, parity=None, inversion=None)
        with pytest.raises(BasisError):
            SymmetricBasis.from_representatives(
                group, np.array([0b0101], dtype=np.uint64), hamming_weight=2
            )

    def test_inversion_requires_half_filling(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        with pytest.raises(InvalidSectorError):
            SymmetricBasis(group, hamming_weight=3)

    def test_build_idempotent(self):
        group = chain_symmetries(8, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group, hamming_weight=4)
        states = basis.states
        basis.build()
        assert basis.states is states


def reference_sector(group, hamming_weight):
    """Oracle: surviving representatives and their stabilizer sums from a
    full ``state_info_reference`` pass over every candidate."""
    n = group.n_sites
    if hamming_weight is None:
        candidates = np.arange(1 << n, dtype=np.uint64)
    else:
        candidates = states_with_weight(n, hamming_weight)
    rep, _, stab = group.state_info_reference(candidates)
    keep = (rep == candidates) & (stab > 1e-6)
    return candidates, keep, stab[keep]


def _square4x4(kx, ky, z):
    return SymmetryGroup.from_generators(
        [
            rectangle_translation(4, 4, 0, kx),
            rectangle_translation(4, 4, 1, ky),
            spin_inversion(16, z),
        ]
    )


FILTER_SECTORS = (
    # every momentum of a 12-site chain, complex ones included
    [
        pytest.param(lambda k=k: chain_symmetries(12, k, None, None), w, id=f"chain12-k{k}-w{w}")
        for k in range(12)
        for w in (6, None)
    ]
    # parity +/- at the real momenta, spin inversion +/-
    + [
        pytest.param(lambda k=k, p=p, z=z: chain_symmetries(12, k, p, z), w, id=f"chain12-k{k}-p{p}-z{z}-w{w}")
        for k in (0, 6)
        for p, z in ((0, None), (1, None), (None, 0), (None, 1), (0, 0), (1, 1))
        for w in (6, None)
    ]
    + [
        pytest.param(lambda kx=kx, ky=ky, z=z: _square4x4(kx, ky, z), 8, id=f"square4x4-k{kx}{ky}-z{z}")
        for kx, ky, z in ((0, 0, 0), (1, 0, 1), (2, 2, 0), (1, 3, 1))
    ]
    + [
        pytest.param(lambda: SymmetryGroup.trivial(10), 5, id="trivial-w5"),
        pytest.param(lambda: SymmetryGroup.trivial(8), None, id="trivial"),
        # the all-down state's full stabilizer has a nontrivial character at
        # k=1, so the sector is empty
        pytest.param(lambda: chain_symmetries(4, 1, None, None), 0, id="empty"),
    ]
)


class TestRepresentativeFilter:
    """The early-rejecting build and ``check`` equal a full reference pass."""

    @pytest.mark.parametrize("make_group,weight", FILTER_SECTORS)
    def test_build_and_check_match_reference(self, make_group, weight):
        group = make_group()
        candidates, keep, stab = reference_sector(group, weight)
        basis = SymmetricBasis(group, hamming_weight=weight)
        np.testing.assert_array_equal(basis.states, candidates[keep])
        np.testing.assert_allclose(basis.stabilizer_sums, stab, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(basis.check(candidates), keep)
        np.testing.assert_array_equal(group.is_representative(candidates), keep)

    def test_empty_sector_is_empty(self):
        basis = SymmetricBasis(chain_symmetries(4, 1, None, None), hamming_weight=0)
        assert basis.dim == 0

    def test_full_state_info_runs_on_survivors_only(self):
        tele = Telemetry.enabled()
        with telemetry.use(tele):
            basis = SymmetricBasis(
                chain_symmetries(20, 0, 0, 0), hamming_weight=10
            )
        full_passes = tele.metrics.counter_total("kernel.state_info_states")
        assert basis.dim <= full_passes <= 2 * basis.dim
