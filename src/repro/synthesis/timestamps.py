"""Timestamp reconstruction from the auxiliary tsdiff attribute (paper §3.4).

Synthesized rows are clustered by their flow identifier; within each group
the first (earliest-window) record anchors the group and subsequent records
are placed at ``previous_ts + tsdiff``.  tsdiff values are re-sampled inside
their bin under a (truncated) Gaussian, per the paper, rather than reusing
the uniform decode.
"""

from __future__ import annotations

import numpy as np

from repro.binning.base import AttributeCodec
from repro.data.table import TraceTable
from repro.utils.rng import ensure_rng

TSDIFF = "tsdiff"


def _gaussian_in_bin(
    codes: np.ndarray, codec: AttributeCodec, rng: np.random.Generator
) -> np.ndarray:
    """Sample one value per code, Gaussian within the bin's [lo, hi) range."""
    bounds = codec.bin_bounds()
    if bounds is None:
        raise ValueError("tsdiff codec must expose numeric bin bounds")
    lo_all, hi_all = bounds
    codes = np.asarray(codes, dtype=np.int64)
    lo = lo_all[codes]
    hi = hi_all[codes]
    mid = (lo + hi) / 2.0
    sd = np.maximum((hi - lo) / 4.0, 1e-12)
    samples = rng.normal(mid, sd)
    return np.clip(samples, lo, np.nextafter(hi, lo))


def reconstruct_timestamps(
    table: TraceTable,
    tsdiff_codes: np.ndarray | None = None,
    tsdiff_codec: AttributeCodec | None = None,
    flow_key=None,
    rng: np.random.Generator | int | None = None,
) -> TraceTable:
    """Rebuild ``ts`` from group anchors plus accumulated ``tsdiff``.

    Parameters
    ----------
    table:
        Decoded synthetic trace containing ``ts`` and ``tsdiff`` columns.
    tsdiff_codes, tsdiff_codec:
        When provided, tsdiff values are re-sampled Gaussian-within-bin from
        the encoded codes; otherwise the decoded tsdiff column is used as-is.
    flow_key:
        Grouping key; defaults to the schema's effective flow key.

    Returns the table with ``ts`` replaced and ``tsdiff`` dropped.
    """
    rng = ensure_rng(rng)
    if TSDIFF not in table.schema or "ts" not in table.schema:
        return table
    if flow_key is None:
        flow_key = table.schema.effective_flow_key()
    if not flow_key:
        return table.without_column(TSDIFF)

    ts = np.asarray(table.column("ts"), dtype=np.float64)
    if tsdiff_codes is not None and tsdiff_codec is not None:
        tsdiff = _gaussian_in_bin(tsdiff_codes, tsdiff_codec, rng)
    else:
        tsdiff = np.asarray(table.column(TSDIFF), dtype=np.float64)
    tsdiff = np.clip(tsdiff, 0.0, None)

    groups = table.group_ids(flow_key)
    order = np.lexsort((ts, groups))
    g_sorted = groups[order]
    ts_sorted = ts[order]
    tsd_sorted = tsdiff[order]

    heads = np.empty(len(order), dtype=bool)
    heads[:1] = True  # an empty shard has no head
    heads[1:] = g_sorted[1:] != g_sorted[:-1]
    head_idx = np.nonzero(heads)[0]

    # Cumulative tsdiff within each group, zeroed at the group head.
    cum = np.cumsum(tsd_sorted)
    cum_at_head = np.repeat(cum[head_idx], np.diff(np.append(head_idx, len(order))))
    head_ts = np.repeat(ts_sorted[head_idx], np.diff(np.append(head_idx, len(order))))
    new_sorted = head_ts + (cum - cum_at_head)

    new_ts = np.empty_like(ts)
    new_ts[order] = new_sorted
    return table.with_column("ts", new_ts).without_column(TSDIFF)
