"""The vectorized GUM kernel: bulk gathers, cached codes, reference streams.

Restructures the reference per-cell loops into whole-step numpy operations —
pre-gathered marginal cell codes, fused free/refill passes, no per-record
Python dispatch — while consuming the random stream *exactly* like
:mod:`~repro.synthesis.kernels.reference` (see the RNG order contract in
:mod:`~repro.synthesis.kernels.base`), so its output is bit-identical.

What gets eliminated relative to the reference:

- the per-step ``ravel_multi_index`` + ``bincount`` recompute — each
  marginal's cell codes and counts are cached across iterations and patched
  only for the rows a step actually rewrites (integer deltas on float64
  counts are exact, so the cached counts equal a fresh ``bincount``);
- the per-cell ``searchsorted`` calls — the cached counts equal a fresh
  ``bincount`` of the codes, so a cell's rows in the stable grouping start
  at ``cumsum(counts) - counts`` and span ``counts`` rows; grouping only
  has to produce the row order;
- the per-cell free/refill slicing — one ``repeat``/``arange`` segment
  gather per pass;
- the per-cell attribute writes — one fancy-indexed write per pass.

The only surviving Python loop is the per-cell duplication draw
(``rng.integers(0, match, size=n_dup)``), which cannot be fused without
changing the stream; it runs over refilled cells, not records.

The free/refill writes commute with the reference's sequential per-cell
writes: freed rows come from over-full cells and duplication sources from
under-full cells, the two cell sets are disjoint (``excess > 0`` vs
``deficit > 0``), so no source row is ever written within a step and the
freed slots partition exactly.
"""

from __future__ import annotations

import numpy as np

from repro.synthesis.kernels.base import GumKernel, _segment_gather


class VectorizedKernel(GumKernel):
    """Whole-step numpy passes over cached per-marginal codes and counts."""

    name = "vectorized"
    uses_cache = True

    def prepare(self, data, states):
        for state in states:
            state.init_cache(data)

    def step(self, data, states, k, alpha, config, rng):
        state = states[k]
        n = data.shape[0]
        counts = state.counts
        diff = state.target - counts
        pre_error = float(np.abs(diff).sum()) / (2.0 * n)

        excess = np.clip(-diff, 0.0, None)
        deficit = np.clip(diff, 0.0, None)
        excess_total = excess.sum()
        deficit_total = deficit.sum()
        moves = int(round(alpha * min(excess_total, deficit_total)))
        if moves <= 0:
            return pre_error

        perm = rng.permutation(n)
        rows_by_cell = self._group_rows(state.codes, perm, state.target.size)
        cell_len = counts.astype(np.int64)
        cell_start = np.cumsum(cell_len) - cell_len

        # --- free rows from over-represented cells (one pass) --------------
        over_cells = np.nonzero(excess > 0)[0]
        over_excess = excess[over_cells]
        over_quota = rng.multinomial(moves, over_excess / excess_total)
        cap = np.where(
            over_excess >= 1.0,
            np.minimum(over_quota, np.floor(over_excess).astype(np.int64)),
            over_quota,
        )
        take = np.minimum(cap, cell_len[over_cells])
        if int(take.sum()) <= 0:
            return pre_error
        freed = rows_by_cell.take(_segment_gather(cell_start[over_cells], take))
        rng.shuffle(freed)

        # --- refill freed rows for under-represented cells (one pass) ------
        under_cells = np.nonzero(deficit > 0)[0]
        fill_quota = rng.multinomial(len(freed), deficit[under_cells] / deficit_total)
        nz = fill_quota > 0
        cells_nz = under_cells[nz]
        quota_nz = fill_quota[nz].astype(np.int64)
        match = cell_len[cells_nz]
        # round() and np.rint both round half to even, so the per-cell split
        # equals the reference's int(round(quota * fraction)).
        n_dup = np.where(
            match > 0,
            np.minimum(
                np.rint(quota_nz * config.duplicate_fraction).astype(np.int64), quota_nz
            ),
            0,
        )
        seg_start = np.cumsum(quota_nz) - quota_nz

        dup_slots = _segment_gather(seg_start, n_dup)
        if len(dup_slots):
            dup_idx = np.nonzero(n_dup > 0)[0]
            offsets = self._dup_offsets(rng, match, n_dup, dup_idx)
            sources = rows_by_cell.take(np.repeat(cell_start[cells_nz], n_dup) + offsets)
            data[freed[dup_slots]] = data.take(sources, axis=0)

        repl_slots = _segment_gather(seg_start + n_dup, quota_nz - n_dup)
        if len(repl_slots):
            cell_per = np.repeat(cells_nz, quota_nz - n_dup)
            coords = np.unravel_index(cell_per, state.shape)
            rows_repl = freed[repl_slots]
            for axis, values in zip(state.axes, coords):
                data[rows_repl, axis] = values

        # --- incremental count/code maintenance for every marginal ----------
        self._apply_updates(data, states, freed)
        return pre_error

    def _dup_offsets(self, rng, match, n_dup, dup_idx):
        """Within-cell source offsets for every duplication slot, in cell order.

        The draw bound varies per cell, so each cell's offsets come from its
        own ``rng.integers(0, bound, size=count)`` call (same calls, same
        order as the reference); the surrounding gathers and the write stay
        bulk.  ``tolist()`` feeds the draws plain Python ints — measurably
        less per-call overhead than numpy scalars in ``Generator.integers``.
        The fused kernel overrides this with a single bounds-broadcast draw
        that consumes the stream identically.
        """
        draw = rng.integers
        return np.concatenate(
            [
                draw(0, bound, size=count)
                for bound, count in zip(
                    match[dup_idx].tolist(), n_dup[dup_idx].tolist()
                )
            ]
        )

    def _group_rows(self, codes, perm, size):
        """``perm`` grouped by cell, stable in ``perm`` order.

        Any stable grouping is bit-equivalent to the reference's
        ``argsort(codes[perm], kind="stable")``; the numba kernel overrides
        this with a compiled O(n) counting sort.
        """
        return perm.take(np.argsort(codes.take(perm), kind="stable"))

    def _apply_updates(self, data, states, freed):
        """Patch every marginal's cached codes/counts for the rewritten rows.

        Split out as the numba kernel's override point: the orchestration
        above is RNG-consuming (must stay byte-for-byte shared), this pass is
        pure deterministic maintenance and free to be compiled.
        """
        new_rows = data[freed]
        for other in states:
            other.apply_row_updates(freed, new_rows)
