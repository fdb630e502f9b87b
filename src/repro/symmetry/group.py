"""Symmetry generators, characters, and group closure.

A symmetry element is a pair ``(permutation, flip)`` where ``flip`` marks
composition with global spin inversion (which commutes with every site
permutation, so elements compose component-wise).  Each element carries the
character :math:`\\chi(g)` of the requested one-dimensional irreducible
representation; a basis restricted to that representation block-diagonalizes
any Hamiltonian commuting with the group (Sec. 2.1 of the paper).

The convention for the symmetry-adapted basis vector built from a
representative ``r`` (the smallest state of its orbit) is

.. math::  |\\tilde r\\rangle = \\frac{1}{\\sqrt{|G| N_r}}
           \\sum_{g \\in G} \\chi(g)^* \\, |g \\cdot r\\rangle,
           \\qquad N_r = \\sum_{g \\in \\mathrm{Stab}(r)} \\chi(g)^*,

which vanishes unless :math:`\\chi` is trivial on the stabilizer of ``r``
(then :math:`N_r = |\\mathrm{Stab}(r)|`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from repro.bits.ops import as_states, flip_all, reverse_bits, rotate_left
from repro.bits.permutations import apply_permutation_to_states
from repro.errors import InvalidSectorError
from repro.symmetry.kernels import GroupKernel
from repro.symmetry.permutation import Permutation

__all__ = ["Symmetry", "SymmetryGroup"]

#: Two characters closer than this are considered equal during closure.
CHARACTER_TOL = 1e-9

#: Stabilizer sums below this are treated as zero (state absent from sector).
STAB_TOL = 1e-6


@dataclass(frozen=True)
class Symmetry:
    """A symmetry generator: a site permutation, an optional spin flip, and
    the symmetry sector.

    The generator's character is ``exp(-2j * pi * sector / order)`` where
    ``order`` is the order of the ``(permutation, flip)`` element, so
    ``sector`` is the usual momentum / parity quantum number (``0`` for the
    trivial representation, ``order // 2`` for the sign representation of an
    order-2 element, etc.).
    """

    permutation: Permutation
    sector: int = 0
    flip: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.permutation, Permutation):
            object.__setattr__(self, "permutation", Permutation(self.permutation))

    @property
    def n_sites(self) -> int:
        return self.permutation.n_sites

    @property
    def order(self) -> int:
        """Order of the group element (permutation order, doubled for an
        odd-order permutation combined with a flip)."""
        base = self.permutation.order
        return lcm(base, 2) if self.flip else base

    @property
    def character(self) -> complex:
        return complex(np.exp(-2j * np.pi * (self.sector % self.order) / self.order))

    def __call__(self, states) -> np.ndarray:
        """Apply the generator to a batch of basis states."""
        out = self.permutation(states)
        if self.flip:
            out = flip_all(out, self.n_sites)
        return out


class SymmetryGroup:
    """The closure of a set of :class:`Symmetry` generators.

    Raises :class:`~repro.errors.InvalidSectorError` when the closure assigns
    inconsistent characters to the same element (the requested sector does
    not exist for this group).
    """

    def __init__(
        self,
        permutations: list[Permutation],
        flips: np.ndarray,
        characters: np.ndarray,
        n_sites: int,
    ) -> None:
        # Intern equal permutations so elements differing only by the flip
        # bit share one Permutation instance — and therefore one compiled
        # mask/shift network and one set of fast-path flags.
        interned: dict[Permutation, Permutation] = {}
        self._permutations = [interned.setdefault(p, p) for p in permutations]
        self._flips = np.asarray(flips, dtype=bool)
        self._characters = np.asarray(characters, dtype=np.complex128)
        self._n_sites = n_sites
        self._kernel: GroupKernel | None = None

    # -- construction -------------------------------------------------------

    @classmethod
    def trivial(cls, n_sites: int) -> "SymmetryGroup":
        """The group containing only the identity (no symmetries)."""
        return cls(
            [Permutation.identity(n_sites)],
            np.array([False]),
            np.array([1.0 + 0.0j]),
            n_sites,
        )

    @classmethod
    def from_generators(cls, generators: list[Symmetry]) -> "SymmetryGroup":
        if not generators:
            raise ValueError("need at least one generator; use trivial() instead")
        n = generators[0].n_sites
        if any(g.n_sites != n for g in generators):
            raise ValueError("all generators must act on the same number of sites")

        def key(perm: Permutation, flip: bool):
            return (perm, flip)

        identity = Permutation.identity(n)
        elements: dict[tuple, tuple[Permutation, bool, complex]] = {
            key(identity, False): (identity, False, 1.0 + 0.0j)
        }
        gens = [(g.permutation, g.flip, g.character) for g in generators]
        frontier = list(elements.values())
        while frontier:
            new_frontier = []
            for perm, flip, char in frontier:
                for gp, gf, gc in gens:
                    # apply generator after the current element:
                    # (gp, gf) o (perm, flip)
                    nperm = gp @ perm
                    nflip = gf ^ flip
                    nchar = gc * char
                    k = key(nperm, nflip)
                    existing = elements.get(k)
                    if existing is None:
                        elements[k] = (nperm, nflip, nchar)
                        new_frontier.append(elements[k])
                    elif abs(existing[2] - nchar) > CHARACTER_TOL:
                        raise InvalidSectorError(
                            "inconsistent characters for the same group element: "
                            f"{existing[2]:.6f} vs {nchar:.6f}; the requested "
                            "sector does not exist for this symmetry group"
                        )
            frontier = new_frontier

        perms = [v[0] for v in elements.values()]
        flips = np.array([v[1] for v in elements.values()])
        chars = np.array([v[2] for v in elements.values()])
        return cls(perms, flips, chars, n)

    # -- basic protocol -------------------------------------------------------

    @property
    def n_sites(self) -> int:
        return self._n_sites

    @property
    def size(self) -> int:
        return len(self._permutations)

    def __len__(self) -> int:
        return self.size

    @property
    def permutations(self) -> list[Permutation]:
        return list(self._permutations)

    @property
    def flips(self) -> np.ndarray:
        return self._flips

    @property
    def characters(self) -> np.ndarray:
        return self._characters

    @property
    def is_real(self) -> bool:
        """True when every character is real (the sector supports a real
        Hamiltonian matrix and real vectors)."""
        return bool(np.all(np.abs(self._characters.imag) < CHARACTER_TOL))

    def __repr__(self) -> str:
        return f"SymmetryGroup(size={self.size}, n_sites={self.n_sites})"

    def apply_element(self, index: int, states) -> np.ndarray:
        """Apply group element ``index`` to a batch of basis states."""
        perm = self._permutations[index]
        if self._flips[index]:
            # Flip-composed elements of identity-permutation pairs skip the
            # (interned) permutation entirely — flip commutes with it.
            if perm.is_identity:
                return flip_all(as_states(states), self._n_sites)
            return flip_all(perm(states), self._n_sites)
        return perm(states)

    # -- the state_info kernel -------------------------------------------------

    @property
    def kernel(self) -> GroupKernel:
        """The fused batch kernel for this group (built once, lazily)."""
        if self._kernel is None:
            self._kernel = GroupKernel(
                self._permutations,
                self._flips,
                self._characters,
                self._n_sites,
            )
        return self._kernel

    def state_info(self, states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Representative, transformation character, and stabilizer sum.

        For each input state ``s`` returns:

        - ``rep``: the orbit representative ``min_g g(s)``;
        - ``phase``: ``conj(chi(h))`` for (one of) the ``h`` with
          ``h(s) == rep``; this is the factor relating the symmetrized
          vectors built from ``s`` and from ``rep``;
        - ``stab``: :math:`N_s = \\sum_{g(s) = s} \\chi(g)^*`, which is real
          and equals ``|Stab(s)|`` when the state survives in this sector and
          (numerically) zero otherwise.  ``N_s`` is invariant along the orbit,
          so ``stab`` also equals :math:`N_{rep}`.

        The norm of the symmetrized vector is
        ``sqrt(stab * (orbit size) / |G|) = sqrt(stab**2 / |G| ... )`` — the
        quantity needed for matrix elements is only the ratio
        ``sqrt(stab[rep'] / stab[rep])`` (see
        :meth:`repro.basis.SymmetricBasis`), so ``stab`` is returned raw.

        This dispatches to the fused :class:`~repro.symmetry.kernels.GroupKernel`
        (precompiled permutations, reused scratch, real-characters fast
        path).  When every character is real, ``phase`` comes back as
        ``float64`` instead of ``complex128``.  The straightforward
        per-element implementation is kept as :meth:`state_info_reference`
        and the two are property-tested against each other.
        """
        return self.kernel.state_info(states)

    def _apply_element_reference(self, index: int, s: np.ndarray) -> np.ndarray:
        """Pre-compilation element application: rotation/reversal fast paths,
        and the uncached mask re-deriving path for generic permutations."""
        perm = self._permutations[index]
        k = perm.rotation_amount
        if k is not None:
            y = rotate_left(s, k, self._n_sites)
        elif perm.is_reversal:
            y = reverse_bits(s, self._n_sites)
        else:
            y = apply_permutation_to_states(perm.sites, s)
        if self._flips[index]:
            y = flip_all(y, self._n_sites)
        return y

    def state_info_reference(
        self, states
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reference ``state_info``: one allocating pass per group element.

        Semantics documented on :meth:`state_info`.  Kept (and exercised in
        the tests and benchmarks) as the correctness oracle for the fused
        kernel and as the honest baseline for its speedup measurements:
        permutations are applied through the uncached
        :func:`~repro.bits.permutations.apply_permutation_to_states` path
        that re-derives the mask decomposition on every call, exactly as the
        code did before the compiled-network kernels existed.
        """
        s = as_states(states)
        rep = s.copy()
        phase = np.ones(s.shape, dtype=np.complex128)
        stab = np.zeros(s.shape, dtype=np.complex128)
        for i in range(self.size):
            y = self._apply_element_reference(i, s)
            chi_conj = np.conj(self._characters[i])
            smaller = y < rep
            if np.any(smaller):
                rep[smaller] = y[smaller]
                phase[smaller] = chi_conj
            fixed = y == s
            if np.any(fixed):
                stab[fixed] += chi_conj
        return rep, phase, stab.real

    def sector_representatives(self, states) -> tuple[np.ndarray, np.ndarray]:
        """The sector membership predicate.

        Returns the mask of the states that are surviving orbit
        representatives (orbit minima with ``stab > STAB_TOL``) and the
        stabilizer sums of the selected states, in order.  The kernel's
        early-rejecting :meth:`~repro.symmetry.kernels.GroupKernel.representative_mask`
        finds the orbit minima; the full :meth:`state_info` runs only on
        those, which are about one in |G| of a random batch.
        """
        s = as_states(states)
        mask = self.kernel.representative_mask(s)
        _, _, stab = self.state_info(s[mask])
        survives = stab > STAB_TOL
        mask[mask] = survives
        return mask, stab[survives]

    def is_representative(self, states) -> np.ndarray:
        """Boolean mask: which states are surviving orbit representatives."""
        return self.sector_representatives(states)[0]

    def full_orbit(self, state: int) -> np.ndarray:
        """All distinct states in the orbit of a single state (sorted)."""
        orbit = np.empty(self.size, dtype=np.uint64)
        for i in range(self.size):
            orbit[i] = self.apply_element(i, np.asarray(state, dtype=np.uint64))
        return np.unique(orbit)
