"""Hash-distributed bases.

Each locale holds the (sorted) slice of basis states that
``localeIdxOf`` assigns to it, together with the per-state symmetry data
(stabilizer sums / norm scales) the matrix-vector product needs.  The
``stateToIndex`` of the paper becomes a binary search in the local slice.
"""

from __future__ import annotations

import numpy as np

from repro.basis.ranking import SortedRanker
from repro.basis.spin_basis import Basis
from repro.distributed.hashing import locale_of
from repro.errors import DistributionError
from repro.runtime.cluster import Cluster
from repro.symmetry.group import STAB_TOL

__all__ = ["DistributedBasis"]


class DistributedBasis:
    """A basis whose states are hash-distributed over a cluster.

    Parameters
    ----------
    cluster:
        The simulated cluster.
    template:
        The underlying :class:`~repro.basis.Basis` describing the physics
        (symmetry group, U(1) sector).  It does not need to be built — all
        global state lives in ``parts``.
    parts:
        Per-locale sorted arrays of basis states, as produced by
        :func:`~repro.distributed.enumeration.enumerate_states`.
    """

    def __init__(
        self, cluster: Cluster, template: Basis, parts: list[np.ndarray]
    ) -> None:
        if len(parts) != cluster.n_locales:
            raise DistributionError(
                f"expected {cluster.n_locales} parts, got {len(parts)}"
            )
        for locale, part in enumerate(parts):
            owners = locale_of(part, cluster.n_locales)
            if part.size and not np.all(owners == locale):
                raise DistributionError(
                    f"part {locale} contains states hashed to other locales"
                )
        self.cluster = cluster
        self.template = template
        self.parts = parts
        self.rankers = [SortedRanker(p) for p in parts]
        self.counts = np.array([p.size for p in parts], dtype=np.int64)
        self._scales = self._compute_scales()

    def _compute_scales(self) -> list[np.ndarray] | None:
        """Per-locale ``1/sqrt(N_r)`` source scales for symmetric bases."""
        group = getattr(self.template, "group", None)
        if group is None:
            return None
        scales = []
        for part in self.parts:
            _, _, stab = group.state_info(part)
            if np.any(stab <= STAB_TOL):
                raise DistributionError(
                    "a distributed part contains states outside the sector"
                )
            scales.append(1.0 / np.sqrt(stab))
        return scales

    # -- inspection -----------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return self.template.n_sites

    @property
    def dim(self) -> int:
        return int(self.counts.sum())

    @property
    def n_locales(self) -> int:
        return self.cluster.n_locales

    @property
    def scales(self) -> list[np.ndarray] | None:
        return self._scales

    @property
    def is_real(self) -> bool:
        return self.template.is_real

    @property
    def scalar_dtype(self) -> np.dtype:
        return self.template.scalar_dtype

    @property
    def load_imbalance(self) -> float:
        """Max over mean of the per-locale state counts (1.0 is perfect —
        the hashed distribution typically sits within a fraction of a
        percent of it, the point of Sec. 5.1)."""
        mean = self.counts.mean()
        return float(self.counts.max() / mean) if mean > 0 else 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedBasis(dim={self.dim}, locales={self.n_locales}, "
            f"imbalance={self.load_imbalance:.4f})"
        )

    # -- lookups ------------------------------------------------------------

    def locale_of(self, states) -> np.ndarray:
        return locale_of(states, self.n_locales)

    def index_local(self, locale: int, states) -> np.ndarray:
        """Local indices of ``states`` in locale ``locale``'s slice — the
        distributed ``stateToIndex`` (binary search in the local part)."""
        return self.rankers[locale].rank(states)

    def global_states(self) -> np.ndarray:
        """All basis states, globally sorted (gathers; small scale only)."""
        merged = (
            np.concatenate(self.parts)
            if self.parts
            else np.empty(0, dtype=np.uint64)
        )
        return np.sort(merged)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_template(
        cls, cluster: Cluster, template: Basis, **kwargs
    ) -> "DistributedBasis":
        """Enumerate the basis on the cluster (Fig. 4 of the paper).

        Convenience wrapper around
        :func:`repro.distributed.enumeration.enumerate_states`, discarding
        the timing report.
        """
        from repro.distributed.enumeration import enumerate_states

        basis, _ = enumerate_states(cluster, template, **kwargs)
        return basis
