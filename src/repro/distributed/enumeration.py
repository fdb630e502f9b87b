"""Distributed enumeration of basis states (Sec. 5.2 / Fig. 4).

The iteration space ``0 .. 2**n - 1`` is split into many chunks which are
dealt to locales *cyclically* — the surviving representatives are highly
non-uniform across the raw range, so a block deal would be badly imbalanced
(ablated in ``benchmarks/bench_ablations.py``).  Each chunk is filtered with
the basis membership predicate, destination locales are computed with the
mixing hash, and the kept states are pushed to their owners with the same
histogram / offsets / remote-put plan as the block-to-hashed conversion
(Fig. 2 (b)-(e)), which preserves global order — so every locale's slice
comes out sorted and binary-searchable.
"""

from __future__ import annotations

import numpy as np

from repro.basis.spin_basis import Basis
from repro.bits.ops import popcount, states_with_weight
from repro.distributed.convert import stable_partition
from repro.distributed.dist_basis import DistributedBasis
from repro.distributed.hashing import locale_of
from repro.runtime.clock import BSPTimer, SimReport
from repro.runtime.cluster import Cluster
from repro.telemetry.context import current as current_telemetry

__all__ = ["enumerate_states"]


def enumerate_states(
    cluster: Cluster,
    template: Basis,
    chunks_per_core: int = 25,
    use_weight_shortcut: bool = False,
) -> tuple[DistributedBasis, SimReport]:
    """Build the hash-distributed basis on the cluster.

    Parameters
    ----------
    cluster, template:
        Where and what to enumerate.  The template is not modified.
    chunks_per_core:
        The paper tunes the chunk count so every core handles ~25 chunks.
    use_weight_shortcut:
        Iterate only over states of the correct Hamming weight instead of
        the raw ``2**n`` range.  Faithful to the paper when False (default);
        True makes large laptop-scale runs cheaper.  Simulated costs always
        follow the faithful raw-range iteration.

    Returns the :class:`DistributedBasis` and the timing report (whose
    ``extras['mean_put_bytes']`` is the average remote-put payload — the
    quantity behind the paper's Fig. 7 saturation analysis).
    """
    machine = cluster.machine
    n_locales = cluster.n_locales
    n_sites = template.n_sites
    timer = BSPTimer(machine, n_locales, name="enumeration")
    metrics = current_telemetry().metrics

    total = 1 << n_sites
    n_chunks = max(n_locales * machine.cores_per_locale * chunks_per_core, 1)
    n_chunks = min(n_chunks, total)
    raw_chunk = -(-total // n_chunks)  # ceil division

    shortcut = use_weight_shortcut and template.hamming_weight is not None
    if shortcut:
        candidates_sorted = states_with_weight(n_sites, template.hamming_weight)
        # Where every chunk's raw range starts in the sorted candidates: one
        # vectorized search with ``uint64`` keys (a Python-int key makes
        # each search convert the whole candidate array).
        cuts = np.searchsorted(
            candidates_sorted,
            np.arange(n_chunks + 1, dtype=np.uint64) * np.uint64(raw_chunk),
        )

    # --- filter phase: cyclic deal of chunks to locales -------------------
    kept_chunks: list[np.ndarray] = []
    chunk_owners: list[int] = []
    counts_rows: list[np.ndarray] = []
    for chunk_index in range(n_chunks):
        lo = chunk_index * raw_chunk
        hi = min(lo + raw_chunk, total)
        if lo >= hi:
            continue
        owner = chunk_index % n_locales  # cyclic distribution
        chunk_owners.append(owner)
        if shortcut:
            span = candidates_sorted[cuts[chunk_index] : cuts[chunk_index + 1]]
            weight_passing = span.size
            kept = span[template.check(span)] if span.size else span
        else:
            candidates = np.arange(lo, hi, dtype=np.uint64)
            if template.hamming_weight is not None:
                weight_mask = popcount(candidates) == np.uint64(
                    template.hamming_weight
                )
                weight_passing = int(weight_mask.sum())
            else:
                weight_passing = candidates.size
            kept = candidates[template.check(candidates)]
        kept_chunks.append(kept)
        counts_rows.append(
            np.bincount(locale_of(kept, n_locales), minlength=n_locales).astype(
                np.int64
            )
        )
        timer.add_compute(
            owner,
            machine.compute_time(machine.t_weight_check, hi - lo)
            + machine.compute_time(machine.t_rep_check, weight_passing)
            + machine.compute_time(machine.t_hash, kept.size),
        )
    timer.end_phase("filter")

    # --- offsets: column-wise cumulative sum in global chunk order --------
    counts = (
        np.stack(counts_rows)
        if counts_rows
        else np.zeros((0, n_locales), dtype=np.int64)
    )
    offsets = np.zeros_like(counts)
    if counts.shape[0]:
        offsets[1:] = np.cumsum(counts, axis=0)[:-1]
    totals = (
        counts.sum(axis=0) if counts.size else np.zeros(n_locales, dtype=np.int64)
    )
    timer.end_phase("offsets")

    # --- distribute: partition each chunk, one remote put per destination -
    parts = [
        np.empty(int(totals[dest]), dtype=np.uint64) for dest in range(n_locales)
    ]
    put_bytes: list[int] = []
    for row, kept in enumerate(kept_chunks):
        owner = chunk_owners[row]
        if kept.size == 0:
            continue
        dests = locale_of(kept, n_locales)
        partitioned, chunk_counts = stable_partition(kept, dests, n_locales)
        timer.add_compute(
            owner, machine.compute_time(machine.t_partition, kept.size)
        )
        start = 0
        for dest in range(n_locales):
            count = int(chunk_counts[dest])
            if count == 0:
                continue
            off = int(offsets[row, dest])
            parts[dest][off : off + count] = partitioned[start : start + count]
            timer.add_message(owner, dest, count * 8)
            put_bytes.append(count * 8)
            metrics.histogram("enumeration.put_bytes").observe(count * 8)
            start += count
    timer.end_phase("distribute")

    basis = DistributedBasis(cluster, template, parts)

    # --- norms: each locale computes its states' stabilizer data ----------
    group = getattr(template, "group", None)
    if group is not None:
        for locale in range(n_locales):
            timer.add_compute(
                locale,
                machine.compute_time(
                    machine.t_rep_check, int(basis.counts[locale]) * len(group)
                ),
            )
        timer.end_phase("norms")

    report = timer.report
    if put_bytes:
        report.extras["mean_put_bytes"] = float(np.mean(put_bytes))
    report.extras["load_imbalance"] = basis.load_imbalance
    if metrics.enabled:
        for locale in range(n_locales):
            metrics.counter(
                "enumeration.states_kept", locale=locale
            ).inc(int(basis.counts[locale]))
        metrics.gauge("enumeration.load_imbalance").set(basis.load_imbalance)
        report.metrics = metrics.snapshot()
    return basis, report
