"""Dataset encoder: orchestrates type- and frequency-dependent binning.

``DatasetEncoder.fit_encode`` implements lines 1–4 of the paper's Algorithm 1
and returns the fitted trace encoded, in one pass over the data:

1. build a type-dependent codec per attribute;
2. add the auxiliary ``tsdiff`` attribute (group-wise inter-arrival deltas);
3. publish noisy 1-way marginals with the binning budget (0.1·rho);
4. merge low-noisy-count bins (frequency-dependent binning).

``encode`` maps further traces to an integer matrix over the merged domain and
``decode`` samples raw values back out of bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.binning.base import AttributeCodec
from repro.binning.categorical import CategoricalCodec
from repro.binning.frequency import aggregate_counts, merge_codec
from repro.binning.ip import IpCodec
from repro.binning.numeric import LogNumericCodec
from repro.binning.port import PortCodec
from repro.binning.timestamp import TimestampCodec
from repro.data.domain import Domain
from repro.data.schema import FieldKind, FieldSpec, Schema
from repro.data.table import TraceTable
from repro.dp.mechanisms import gaussian_mechanism, gaussian_sigma
from repro.utils.rng import ensure_rng

TSDIFF = "tsdiff"


@dataclass
class EncoderConfig:
    """Knobs of the binning stage; defaults follow the paper."""

    ip_prefix_len: int = 30
    port_common_max: int = 1024
    port_bin_width: int = 10
    port_coarse_width: int = 640
    log_bin_width: float = 0.5
    ts_windows: int = 128
    freq_threshold_sigmas: float = 3.0
    add_tsdiff: bool = True
    #: Attributes never merged below their full category set (labels).
    protect_labels: bool = True


@dataclass
class EncodedDataset:
    """An encoded trace: integer matrix + the codecs that produced it."""

    data: np.ndarray  # (n, d) int32
    attrs: tuple
    domain: Domain
    codecs: dict
    schema: Schema  # schema *including* auxiliary attributes

    @property
    def n_records(self) -> int:
        return self.data.shape[0]

    def column(self, attr: str) -> np.ndarray:
        """One encoded column."""
        return self.data[:, self.attrs.index(attr)]

    def project(self, attrs) -> np.ndarray:
        """Sub-matrix over ``attrs`` in the given order."""
        idx = [self.attrs.index(a) for a in attrs]
        return self.data[:, idx]

    def replace_data(self, data: np.ndarray) -> "EncodedDataset":
        """Same codecs/domain, different rows (used by the synthesizers)."""
        data = np.asarray(data, dtype=np.int32)
        if data.ndim != 2 or data.shape[1] != len(self.attrs):
            raise ValueError("data shape does not match attrs")
        return EncodedDataset(data, self.attrs, self.domain, self.codecs, self.schema)


class DatasetEncoder:
    """Fits per-attribute codecs and encodes/decodes traces."""

    def __init__(self, config: EncoderConfig | None = None) -> None:
        self.config = config or EncoderConfig()
        self.codecs: dict[str, AttributeCodec] = {}
        self.schema: Schema | None = None
        self.noisy_one_way: dict[str, np.ndarray] = {}
        self.rho_spent: float = 0.0

    # ------------------------------------------------------------------- fit
    def fit(
        self,
        table: TraceTable,
        rho: float | None,
        rng: np.random.Generator | int | None = None,
    ) -> "DatasetEncoder":
        """Fit codecs on ``table``; ``rho`` is the binning budget (0.1·total).

        ``rho=None`` runs without noise (exact counts, no privacy) — used by
        ablations and tests only.  Callers that also need ``table`` encoded
        should call :meth:`fit_encode`, which returns it from the same pass.
        """
        self.fit_encode(table, rho, rng)
        return self

    def fit_encode(
        self,
        table: TraceTable,
        rho: float | None,
        rng: np.random.Generator | int | None = None,
    ) -> EncodedDataset:
        """Fit codecs on ``table`` and return it encoded, in one pass.

        tsdiff is computed once and every base codec encodes its column once:
        the base codes feed the noisy 1-way count, then go through the merged
        codec's ``base_to_merged`` map straight into the ``(n, d)`` int32
        matrix.  The result is byte-identical to ``fit(...).encode(table)``.
        """
        rng = ensure_rng(rng)
        cfg = self.config
        work = self._augment(table)
        self.schema = work.schema
        attrs = tuple(work.schema.names)
        data = np.empty((work.n_records, len(attrs)), dtype=np.int32)

        # Publish noisy 1-way marginals over the base bins, then merge.
        rho_per_attr = None if rho is None else rho / len(attrs)
        self.rho_spent = 0.0 if rho is None else rho
        self.codecs = {}
        self.noisy_one_way = {}
        for j, name in enumerate(attrs):
            spec = work.schema[name]
            values = work.column(name)
            base = self._build_codec(spec, values)
            codes = base.encode(values)
            exact = np.bincount(codes, minlength=base.domain_size).astype(np.float64)
            if rho_per_attr is None:
                noisy = exact
                threshold = 1.0
            else:
                noisy = gaussian_mechanism(exact, 1.0, rho_per_attr, rng)
                sigma = gaussian_sigma(1.0, rho_per_attr)
                threshold = cfg.freq_threshold_sigmas * sigma
            min_bins = base.domain_size if (spec.is_label and cfg.protect_labels) else 1
            if spec.kind is FieldKind.CATEGORICAL and base.domain_size <= 16:
                # Small categorical domains are not binned (paper type 3).
                min_bins = base.domain_size
            merged = merge_codec(base, noisy, threshold, min_bins=min_bins)
            self.codecs[name] = merged
            self.noisy_one_way[name] = aggregate_counts(merged, noisy)
            data[:, j] = merged.base_to_merged.astype(np.int32)[codes]
        return self._encoded(data)

    def _augment(self, table: TraceTable) -> TraceTable:
        """Append the tsdiff auxiliary attribute when configured and possible."""
        if not self.config.add_tsdiff or "ts" not in table.schema:
            return table
        key = table.schema.effective_flow_key()
        if not key:
            return table
        tsdiff = compute_tsdiff(table, key)
        # Inter-arrival gaps are binned in milliseconds (paper App. E: "ts
        # and td are in milliseconds"); seconds would crush them into bin 0.
        spec = FieldSpec(TSDIFF, FieldKind.NUMERIC, integral=False, unit_scale=1000.0)
        return table.with_column(TSDIFF, tsdiff, spec)

    def _build_codec(self, spec: FieldSpec, values: np.ndarray) -> AttributeCodec:
        cfg = self.config
        if spec.kind is FieldKind.IP:
            return IpCodec.fit(spec.name, values, prefix_len=cfg.ip_prefix_len)
        if spec.kind is FieldKind.PORT:
            return PortCodec(
                spec.name,
                common_max=cfg.port_common_max,
                bin_width=cfg.port_bin_width,
                coarse_width=cfg.port_coarse_width,
            )
        if spec.kind is FieldKind.CATEGORICAL:
            return CategoricalCodec(spec.name, spec.categories)
        if spec.kind is FieldKind.TIMESTAMP:
            return TimestampCodec.fit(spec.name, values, n_windows=cfg.ts_windows)
        if spec.kind is FieldKind.NUMERIC:
            return LogNumericCodec.fit(
                spec.name,
                values,
                bin_width=cfg.log_bin_width,
                integral=spec.integral,
                scale=spec.unit_scale,
            )
        raise ValueError(f"unsupported field kind: {spec.kind}")

    # ---------------------------------------------------------------- encode
    def encode(self, table: TraceTable) -> EncodedDataset:
        """Encode a trace (augmenting with tsdiff) into the merged domain."""
        if self.schema is None:
            raise RuntimeError("encoder not fitted")
        work = self._augment(table) if TSDIFF not in table.schema else table
        attrs = tuple(self.schema.names)
        data = np.empty((work.n_records, len(attrs)), dtype=np.int32)
        for j, name in enumerate(attrs):
            data[:, j] = self.codecs[name].encode(work.column(name))
        return self._encoded(data)

    def _encoded(self, data: np.ndarray) -> EncodedDataset:
        attrs = tuple(self.schema.names)
        sizes = {name: self.codecs[name].domain_size for name in attrs}
        return EncodedDataset(data, attrs, Domain(sizes), dict(self.codecs), self.schema)

    # ---------------------------------------------------------------- decode
    def decode(
        self,
        encoded: EncodedDataset,
        rng: np.random.Generator | int | None = None,
    ) -> TraceTable:
        """Sample raw values for every encoded record (paper's in-bin sampling).

        Timestamp reconstruction from tsdiff is handled separately by
        :mod:`repro.synthesis.timestamps`; here ``ts`` decodes uniformly
        within its window.
        """
        if self.schema is None:
            raise RuntimeError("encoder not fitted")
        columns = decode_columns(encoded.data, encoded.attrs, self.codecs, rng)
        return TraceTable(self.schema, columns)


def decode_columns(
    data: np.ndarray,
    attrs: tuple,
    codecs: dict,
    rng: np.random.Generator | int | None = None,
) -> dict:
    """In-bin sample raw values for every attribute, in attribute order.

    The single implementation of the decode loop: both
    :meth:`DatasetEncoder.decode` and the engine's plan decoding go through
    it, so the random-stream consumption (one ``decode_bins`` call per
    attribute) can never drift between the two paths.
    """
    rng = ensure_rng(rng)
    columns = {}
    for j, name in enumerate(attrs):
        columns[name] = codecs[name].decode_bins(data[:, j], rng)
    return columns


def compute_tsdiff(table: TraceTable, key) -> np.ndarray:
    """Group-wise inter-arrival deltas (paper §3.2 'Capturing temporal pattern').

    Records are grouped by the flow identifier ``key``; within each group the
    time-ordered difference to the previous record is computed.  The first
    record of each group gets 0.
    """
    ts = np.asarray(table.column("ts"), dtype=np.float64)
    if len(ts) == 0:
        return np.empty(0, dtype=np.float64)
    groups = table.group_ids(key)
    order = np.lexsort((ts, groups))
    sorted_groups = groups[order]
    sorted_ts = ts[order]
    diffs = np.empty(len(ts))
    diffs[0] = 0.0
    diffs[1:] = sorted_ts[1:] - sorted_ts[:-1]
    diffs[1:][sorted_groups[1:] != sorted_groups[:-1]] = 0.0
    out = np.empty(len(ts))
    out[order] = np.clip(diffs, 0.0, None)
    return out
