"""Tests for hash-distributed bases and the distributed enumeration."""

import numpy as np
import pytest

import repro
from repro.basis import SpinBasis, SymmetricBasis
from repro.distributed import DistributedBasis, enumerate_states, locale_of
from repro.errors import BasisError, DistributionError
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries


def make_cluster(n, cores=4):
    return Cluster(n, laptop_machine(cores=cores))


SECTORS = [
    dict(momentum=0, parity=0, inversion=0),
    dict(momentum=0, parity=1, inversion=None),
    dict(momentum=3, parity=None, inversion=None),
]


class TestEnumeration:
    @pytest.mark.parametrize("n_locales", [1, 2, 4])
    @pytest.mark.parametrize("sector", SECTORS)
    def test_matches_serial_build(self, n_locales, sector):
        n, w = 12, 6
        group = chain_symmetries(n, **sector)
        serial = SymmetricBasis(group, hamming_weight=w)
        cluster = make_cluster(n_locales)
        template = SymmetricBasis(group, hamming_weight=w, build=False)
        dbasis, report = enumerate_states(cluster, template, chunks_per_core=3)
        assert dbasis.dim == serial.dim
        assert np.array_equal(dbasis.global_states(), serial.states)
        assert report.elapsed > 0

    def test_u1_basis(self):
        n, w = 12, 4
        serial = SpinBasis(n, hamming_weight=w)
        cluster = make_cluster(3)
        dbasis, _ = enumerate_states(cluster, SpinBasis(n, hamming_weight=w))
        assert dbasis.dim == serial.dim
        assert np.array_equal(dbasis.global_states(), serial.states)

    def test_full_basis(self):
        n = 10
        cluster = make_cluster(3)
        dbasis, _ = enumerate_states(cluster, SpinBasis(n))
        assert dbasis.dim == 1 << n

    def test_weight_shortcut_equivalent(self):
        n, w = 14, 7
        group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
        cluster = make_cluster(2)
        template = SymmetricBasis(group, hamming_weight=w, build=False)
        slow, _ = enumerate_states(cluster, template, chunks_per_core=2)
        fast, _ = enumerate_states(
            cluster, template, chunks_per_core=2, use_weight_shortcut=True
        )
        for a, b in zip(slow.parts, fast.parts):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [16, 20])
    def test_weight_shortcut_keeps_basis_and_report(self, n):
        """The shortcut's vectorized chunk search selects exactly the raw
        range's weight-passing states, so the parts and every simulated
        timing equal the faithful raw-range enumeration."""
        group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
        template = SymmetricBasis(group, hamming_weight=n // 2, build=False)
        cluster = make_cluster(3)
        raw, raw_report = enumerate_states(cluster, template)
        fast, fast_report = enumerate_states(
            cluster, template, use_weight_shortcut=True
        )
        assert fast.dim == SymmetricBasis(group, hamming_weight=n // 2).dim
        for a, b in zip(raw.parts, fast.parts):
            assert np.array_equal(a, b)
        assert fast_report.elapsed == raw_report.elapsed
        assert fast_report.phase_elapsed == raw_report.phase_elapsed
        assert fast_report.messages == raw_report.messages
        assert fast_report.bytes_sent == raw_report.bytes_sent
        assert fast_report.extras == raw_report.extras

    def test_parts_hash_correctly(self):
        cluster = make_cluster(4)
        dbasis, _ = enumerate_states(cluster, SpinBasis(10, hamming_weight=5))
        for locale, part in enumerate(dbasis.parts):
            assert np.all(locale_of(part, 4) == locale)

    def test_parts_sorted(self):
        cluster = make_cluster(4)
        dbasis, _ = enumerate_states(cluster, SpinBasis(12, hamming_weight=6))
        for part in dbasis.parts:
            assert np.all(np.diff(part.astype(np.int64)) > 0)

    def test_report_extras(self):
        cluster = make_cluster(2)
        dbasis, report = enumerate_states(cluster, SpinBasis(10, hamming_weight=5))
        assert "load_imbalance" in report.extras
        assert report.extras["load_imbalance"] >= 1.0
        assert "mean_put_bytes" in report.extras

    def test_chunks_per_core_does_not_change_result(self):
        n, w = 12, 6
        cluster = make_cluster(3)
        results = []
        for cpc in [1, 2, 10]:
            dbasis, _ = enumerate_states(
                cluster, SpinBasis(n, hamming_weight=w), chunks_per_core=cpc
            )
            results.append(dbasis.global_states())
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[1], results[2])


class TestDistributedBasis:
    @pytest.fixture
    def dbasis(self):
        group = chain_symmetries(12, momentum=0, parity=0, inversion=0)
        cluster = make_cluster(3)
        template = SymmetricBasis(group, hamming_weight=6, build=False)
        return DistributedBasis.from_template(cluster, template, chunks_per_core=3)

    def test_index_local_roundtrip(self, dbasis):
        for locale, part in enumerate(dbasis.parts):
            idx = dbasis.index_local(locale, part)
            assert np.array_equal(idx, np.arange(part.size))

    def test_index_local_missing_raises(self, dbasis):
        # find a state not on locale 0
        foreign = dbasis.parts[1][:1]
        with pytest.raises(BasisError):
            dbasis.index_local(0, foreign)

    def test_scales_match_serial_source_scale(self, dbasis):
        group = dbasis.template.group
        serial = SymmetricBasis(group, hamming_weight=6)
        for part, scale in zip(dbasis.parts, dbasis.scales):
            idx = serial.index(part)
            assert np.allclose(scale, serial.source_scale[idx])

    def test_plain_basis_has_no_scales(self):
        cluster = make_cluster(2)
        dbasis, _ = enumerate_states(cluster, SpinBasis(10, hamming_weight=5))
        assert dbasis.scales is None

    def test_counts_and_dim(self, dbasis):
        assert dbasis.counts.sum() == dbasis.dim
        assert dbasis.load_imbalance >= 1.0

    def test_rejects_misplaced_states(self):
        cluster = make_cluster(2)
        template = SpinBasis(8, hamming_weight=4)
        states = template.states
        # put everything on locale 0 regardless of hash
        with pytest.raises(DistributionError):
            DistributedBasis(
                cluster, template, [states, np.empty(0, dtype=np.uint64)]
            )

    def test_rejects_wrong_part_count(self):
        cluster = make_cluster(2)
        with pytest.raises(DistributionError):
            DistributedBasis(cluster, SpinBasis(4), [np.empty(0, dtype=np.uint64)])

    def test_properties(self, dbasis):
        assert dbasis.n_sites == 12
        assert dbasis.is_real
        assert dbasis.scalar_dtype == np.float64
        assert dbasis.n_locales == 3
