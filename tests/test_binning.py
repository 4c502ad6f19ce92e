"""Unit and property tests for the binning codecs and the encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.binning.encoder as encoder_module
from repro import NetDPSyn, SynthesisConfig
from repro.binning import (
    CategoricalCodec,
    DatasetEncoder,
    EncoderConfig,
    IpCodec,
    LogNumericCodec,
    PortCodec,
    TimestampCodec,
    aggregate_counts,
    merge_codec,
)
from repro.binning.encoder import TSDIFF, compute_tsdiff
from repro.data.schema import FieldKind, FieldSpec, Schema
from repro.data.table import TraceTable
from repro.datasets import load_dataset

RNG = np.random.default_rng(0)


class TestCategoricalCodec:
    def test_roundtrip(self):
        codec = CategoricalCodec("proto", ("TCP", "UDP", "ICMP"))
        values = np.array(["UDP", "TCP", "ICMP", "TCP"], dtype=object)
        codes = codec.encode(values)
        assert codec.domain_size == 3
        decoded = codec.decode_bins(codes, RNG)
        assert list(decoded) == list(values)

    def test_unknown_category_rejected(self):
        codec = CategoricalCodec("proto", ("TCP",))
        with pytest.raises(ValueError):
            codec.encode(np.array(["GRE"], dtype=object))

    def test_encode_empty_and_numeric_values(self):
        codec = CategoricalCodec("label", (0, 1, 2))
        empty = codec.encode(np.array([], dtype=np.int64))
        assert empty.dtype == np.int32 and len(empty) == 0
        assert list(codec.encode(np.array([2, 0, 1, 2]))) == [2, 0, 1, 2]

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValueError):
            CategoricalCodec("x", ("a", "a"))

    def test_numeric_categories_bounds(self):
        codec = CategoricalCodec("tos", (0, 8, 16))
        lo, hi = codec.bin_bounds()
        assert list(lo) == [0.0, 8.0, 16.0]


class TestIpCodec:
    def test_encode_decode_identity(self):
        observed = np.array([100, 200, 300, 100])
        codec = IpCodec.fit("srcip", observed)
        codes = codec.encode(observed)
        assert np.array_equal(codec.decode_bins(codes, RNG), observed)

    def test_unseen_address_snaps_to_nearest(self):
        codec = IpCodec.fit("srcip", np.array([10, 20]))
        codes = codec.encode(np.array([11, 19, 30]))
        assert np.array_equal(codec.decode_bins(codes, RNG), [10, 20, 20])

    def test_coarse_keys_are_slash30(self):
        codec = IpCodec.fit("srcip", np.array([100, 101, 102, 103, 104]))
        keys = codec.coarse_keys()
        # 100..103 share a /30 block (100 >> 2 == 25); 104 starts the next.
        assert len(np.unique(keys[:4])) == 1
        assert keys[4] != keys[0]

    def test_decode_group_within_block(self):
        codec = IpCodec.fit("srcip", np.array([100, 101]))
        samples = codec.decode_group(25, np.array([0, 1]), 100, RNG)
        assert ((samples >= 100) & (samples < 104)).all()


class TestPortCodec:
    def test_wellknown_ports_are_singletons(self):
        codec = PortCodec("dstport")
        codes = codec.encode(np.array([22, 80, 443]))
        assert np.array_equal(codec.decode_bins(codes, RNG), [22, 80, 443])

    def test_high_ports_binned_by_width(self):
        # High bins are width-10 ranges aligned to common_max (1024).
        codec = PortCodec("dstport", bin_width=10)
        codes = codec.encode(np.array([2004, 2013, 2014]))
        assert codes[0] == codes[1]
        assert codes[1] != codes[2]

    def test_decode_never_exceeds_max_port(self):
        codec = PortCodec("dstport")
        codes = codec.encode(np.array([65535] * 100))
        decoded = codec.decode_bins(codes, RNG)
        assert (decoded < 65536).all()

    def test_out_of_range_rejected(self):
        codec = PortCodec("dstport")
        with pytest.raises(ValueError):
            codec.encode(np.array([70000]))

    @given(st.lists(st.integers(min_value=0, max_value=65535), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_decode_stays_in_bin_property(self, ports):
        codec = PortCodec("p")
        ports = np.array(ports)
        codes = codec.encode(ports)
        decoded = codec.decode_bins(codes, np.random.default_rng(1))
        lo, hi = codec.bin_bounds()
        assert (decoded >= lo[codes]).all()
        assert (decoded < hi[codes]).all()


class TestLogNumericCodec:
    def test_monotone_binning(self):
        codec = LogNumericCodec.fit("byt", np.array([1.0, 10.0, 1e6]))
        codes = codec.encode(np.array([1, 100, 10000, 1000000]))
        assert list(codes) == sorted(codes)

    def test_far_fewer_bins_than_linear(self):
        codec = LogNumericCodec.fit("byt", np.array([1e9]))
        assert codec.domain_size < 50

    def test_integral_decode_in_bin(self):
        codec = LogNumericCodec("pkt", max_value=1e4, integral=True)
        values = np.array([1, 7, 300, 9999])
        codes = codec.encode(values)
        decoded = codec.decode_bins(codes, RNG)
        assert np.array_equal(codec.encode(decoded), codes)

    def test_float_decode_in_bin(self):
        codec = LogNumericCodec("td", max_value=100.0, integral=False)
        codes = codec.encode(np.array([0.5, 3.3, 42.0]))
        decoded = codec.decode_bins(codes, RNG)
        assert np.array_equal(codec.encode(decoded), codes)

    def test_negative_values_clamped(self):
        codec = LogNumericCodec("td", max_value=10.0)
        assert codec.encode(np.array([-5.0]))[0] == 0

    @given(st.lists(st.floats(min_value=0, max_value=1e8), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_roundtrip_bin_containment_property(self, values):
        codec = LogNumericCodec("x", max_value=1e8, integral=False)
        arr = np.array(values)
        codes = codec.encode(arr)
        decoded = codec.decode_bins(codes, np.random.default_rng(2))
        assert np.array_equal(codec.encode(decoded), codes)


class TestTimestampCodec:
    def test_fit_covers_span(self):
        values = np.array([100.0, 200.0, 1000.0])
        codec = TimestampCodec.fit("ts", values, n_windows=16)
        codes = codec.encode(values)
        assert codes.min() >= 0
        assert codes.max() < codec.domain_size

    def test_decode_within_window(self):
        codec = TimestampCodec("ts", origin=0.0, window=10.0, n_bins=10)
        codes = np.array([0, 5, 9])
        decoded = codec.decode_bins(codes, RNG)
        assert np.array_equal(codec.encode(decoded), codes)

    def test_constant_column(self):
        codec = TimestampCodec.fit("ts", np.full(5, 42.0))
        assert codec.domain_size == 1

    def test_bin_starts(self):
        codec = TimestampCodec("ts", origin=5.0, window=2.0, n_bins=4)
        assert np.allclose(codec.bin_starts(np.array([0, 2])), [5.0, 9.0])


class TestFrequencyMerging:
    def _base(self):
        return PortCodec("p", common_max=16, bin_width=10, coarse_width=100)

    def test_high_count_bins_survive(self):
        base = self._base()
        counts = np.zeros(base.domain_size)
        counts[5] = 1000.0
        merged = merge_codec(base, counts, threshold=10.0)
        codes = merged.encode(np.array([5]))
        assert len(merged.member_lists[codes[0]]) == 1

    def test_low_count_bins_merge(self):
        base = self._base()
        counts = np.full(base.domain_size, 1.0)
        merged = merge_codec(base, counts, threshold=50.0)
        assert merged.domain_size < base.domain_size

    def test_min_bins_respected(self):
        base = CategoricalCodec("label", tuple("abcdef"))
        counts = np.ones(6)
        merged = merge_codec(base, counts, threshold=100.0, min_bins=6)
        assert merged.domain_size == 6

    def test_encode_consistent_with_base(self):
        base = self._base()
        rng = np.random.default_rng(3)
        values = rng.integers(0, 65536, 200)
        counts = np.bincount(base.encode(values), minlength=base.domain_size)
        merged = merge_codec(base, counts.astype(float), threshold=3.0)
        codes = merged.encode(values)
        assert (codes >= 0).all() and (codes < merged.domain_size).all()

    def test_aggregate_counts_preserves_total(self):
        base = self._base()
        counts = np.arange(base.domain_size, dtype=float)
        merged = merge_codec(base, counts, threshold=100.0)
        assert aggregate_counts(merged, counts).sum() == pytest.approx(counts.sum())

    def test_decode_covers_all_merged_bins(self):
        base = self._base()
        counts = np.ones(base.domain_size)
        merged = merge_codec(base, counts, threshold=1000.0)
        codes = np.arange(merged.domain_size)
        decoded = merged.decode_bins(codes, RNG)
        assert len(decoded) == merged.domain_size


class TestComputeTsdiff:
    def _table(self):
        schema = Schema(
            fields=(
                FieldSpec("srcip", FieldKind.IP),
                FieldSpec("ts", FieldKind.TIMESTAMP),
            ),
            flow_key=("srcip",),
        )
        return TraceTable(
            schema,
            {
                "srcip": np.array([1, 1, 2, 1, 2]),
                "ts": np.array([10.0, 5.0, 0.0, 20.0, 100.0]),
            },
        )

    def test_groupwise_diffs(self):
        table = self._table()
        diffs = compute_tsdiff(table, ("srcip",))
        # group 1 time-ordered: 5, 10, 20 -> diffs 0, 5, 10
        assert diffs[1] == 0.0  # first of group 1
        assert diffs[0] == 5.0
        assert diffs[3] == 10.0
        # group 2: 0, 100 -> diffs 0, 100
        assert diffs[2] == 0.0
        assert diffs[4] == 100.0

    def test_non_negative(self):
        diffs = compute_tsdiff(self._table(), ("srcip",))
        assert (diffs >= 0).all()

    def test_empty_table(self):
        diffs = compute_tsdiff(self._table().head(0), ("srcip",))
        assert diffs.dtype == np.float64 and diffs.shape == (0,)

    def test_single_record(self):
        diffs = compute_tsdiff(self._table().head(1), ("srcip",))
        assert list(diffs) == [0.0]


class TestDatasetEncoder:
    def test_fit_encode_decode_roundtrip_bins(self):
        table = load_dataset("ton", n_records=800, seed=5)
        encoder = DatasetEncoder(EncoderConfig()).fit(table, rho=0.05, rng=7)
        encoded = encoder.encode(table)
        assert encoded.data.shape[0] == 800
        assert TSDIFF in encoded.attrs
        decoded = encoder.decode(encoded, rng=7)
        # Re-encoding the decoded table must reproduce the same bin codes.
        re_encoded = encoder.encode(decoded)
        assert np.array_equal(re_encoded.data, encoded.data)

    def test_label_domain_protected(self):
        table = load_dataset("ton", n_records=500, seed=5)
        encoder = DatasetEncoder(EncoderConfig()).fit(table, rho=0.001, rng=7)
        assert encoder.codecs["type"].domain_size == 10

    def test_noise_free_mode(self):
        table = load_dataset("ugr16", n_records=400, seed=5)
        encoder = DatasetEncoder(EncoderConfig()).fit(table, rho=None, rng=7)
        counts = encoder.noisy_one_way["proto"]
        # Without noise the 1-way counts are exact.
        assert counts.sum() == pytest.approx(400)

    def test_encode_requires_fit(self):
        table = load_dataset("ugr16", n_records=100, seed=5)
        with pytest.raises(RuntimeError):
            DatasetEncoder().encode(table)

    def test_domain_sizes_match_codecs(self):
        table = load_dataset("cidds", n_records=600, seed=5)
        encoder = DatasetEncoder(EncoderConfig()).fit(table, rho=0.05, rng=7)
        encoded = encoder.encode(table)
        for attr in encoded.attrs:
            assert encoded.domain.size(attr) == encoder.codecs[attr].domain_size
            assert encoded.column(attr).max() < encoded.domain.size(attr)

    def test_encode_empty_table(self):
        table = load_dataset("ton", n_records=300, seed=5)
        encoder = DatasetEncoder(EncoderConfig()).fit(table, rho=0.05, rng=7)
        encoded = encoder.encode(table.head(0))
        assert encoded.data.shape == (0, len(encoder.schema.names))
        assert encoded.data.dtype == np.int32


BASE_CODECS = (CategoricalCodec, IpCodec, LogNumericCodec, PortCodec, TimestampCodec)


class TestOnePassBinning:
    """The fit computes tsdiff and every base encoding exactly once."""

    def test_fit_runs_tsdiff_and_each_base_encode_once(self, monkeypatch):
        tsdiff_calls = []
        real_tsdiff = encoder_module.compute_tsdiff

        def counting_tsdiff(table, key):
            tsdiff_calls.append(key)
            return real_tsdiff(table, key)

        monkeypatch.setattr(encoder_module, "compute_tsdiff", counting_tsdiff)
        encoded_attrs = []
        for cls in BASE_CODECS:
            def counting_encode(self, values, _encode=cls.encode):
                encoded_attrs.append(self.name)
                return _encode(self, values)

            monkeypatch.setattr(cls, "encode", counting_encode)

        table = load_dataset("ton", n_records=1500, seed=3)
        config = SynthesisConfig(epsilon=2.0)
        config.gum.iterations = 2
        synth = NetDPSyn(config, rng=7).fit(table)
        assert len(tsdiff_calls) == 1
        assert sorted(encoded_attrs) == sorted(synth.encoder.schema.names)
        assert TSDIFF in encoded_attrs

    @pytest.mark.parametrize("drop_ts", [False, True])
    def test_fit_encode_matches_fit_then_encode(self, drop_ts):
        table = load_dataset("ton", n_records=1200, seed=4)
        if drop_ts:
            table = table.without_column("ts")
        one_pass = DatasetEncoder(EncoderConfig())
        encoded = one_pass.fit_encode(table, 0.05, 11)
        fitted = DatasetEncoder(EncoderConfig()).fit(table, 0.05, 11)
        expected = fitted.encode(table)
        assert (TSDIFF in encoded.attrs) is not drop_ts
        assert encoded.attrs == expected.attrs
        assert encoded.data.dtype == expected.data.dtype == np.int32
        assert encoded.data.flags["C_CONTIGUOUS"]
        assert encoded.data.tobytes() == expected.data.tobytes()
        assert encoded.domain == expected.domain
        for attr in encoded.attrs:
            assert np.array_equal(
                one_pass.noisy_one_way[attr], fitted.noisy_one_way[attr]
            )

