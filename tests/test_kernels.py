"""Tests for the pluggable GUM kernel subsystem.

Three contracts are enforced here:

1. **Parity** — every accepted kernel name (``auto``, ``fused``, the legacy
   aliases ``vectorized`` and ``numba``, and ``reference``), on every
   backend, for every shard count, produces a trace digest identical to the
   reference kernel's (the hypothesis sweep).
2. **Resolution** — ``auto`` and both aliases resolve to ``fused`` whether
   or not numba imports, and unknown names are rejected everywhere
   (registry, ``EngineConfig``, ``run_gum``).
3. **Persistence** — ``EngineConfig.override`` and model ``save``/``load``
   round-trip the ``kernel`` field, and models saved under a legacy kernel
   name (or with the retired ``GumConfig.update_mode``) sample the reference
   bytes on the fused kernel, without a warning.
"""

import contextlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import NetDPSyn, SynthesisConfig, load_dataset
from repro.engine import BACKENDS, EngineConfig
from repro.synthesis.gum import GumConfig, run_gum
from repro.synthesis.kernels import (
    FusedKernel,
    GumKernel,
    ReferenceKernel,
    _MarginalState,
    get_kernel,
    kernel_names,
    resolve_kernel_name,
    valid_kernel_names,
)
from repro.synthesis.kernels import fused as fused_mod
from repro.synthesis.kernels.base import cell_codes
from repro.synthesis.kernels.fused import (
    _group_rows_py,
    _patch_rows_py,
    _strides_for,
    code_dtype,
)

#: Every name ``EngineConfig(kernel=...)`` accepts.
KERNEL_NAMES = ["auto", "fused", "vectorized", "numba", "reference"]


@contextlib.contextmanager
def _twins_as_jit(jit):
    """Drive ``FusedKernel``'s njit path through the twins' pure-Python
    sources (``jit=True``), or pin its numpy path (``jit=False``), whether
    or not numba is installed.  Applies to kernels prepared inside."""
    with mock.patch.object(fused_mod, "numba_available", lambda: jit), mock.patch.object(
        fused_mod, "_compiled", lambda name, fn: fn
    ):
        yield


@pytest.fixture(scope="module")
def fitted():
    table = load_dataset("ton", n_records=1200, seed=17)
    config = SynthesisConfig(epsilon=2.0)
    config.gum.iterations = 8
    return NetDPSyn(config, rng=5).fit(table)


@pytest.fixture(scope="module")
def reference_digests(fitted):
    """Golden digests per shard count, captured on the reference kernel."""
    return {
        shards: fitted.sample(400, rng=9, shards=shards, kernel="reference")
        .content_digest()
        for shards in (1, 2, 3)
    }


class TestKernelParity:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        kernel=st.sampled_from(KERNEL_NAMES),
        backend=st.sampled_from(BACKENDS),
        shards=st.sampled_from([1, 2, 3]),
    )
    def test_kernel_backend_shards_mode_digest_equality(
        self, fitted, reference_digests, kernel, backend, shards
    ):
        """Kernel name and backend choice may never change a single byte."""
        digest = fitted.sample(
            400, rng=9, shards=shards, backend=backend, kernel=kernel
        ).content_digest()
        assert digest == reference_digests[shards]

    def test_gum_result_records_kernel(self, fitted):
        fitted.sample(200, rng=3, kernel="reference")
        assert fitted.gum_result.kernel == "reference"
        fitted.sample(200, rng=3, kernel="vectorized")
        assert fitted.gum_result.kernel == "fused"
        fitted.sample(200, rng=3)  # auto resolves to a concrete name
        assert fitted.gum_result.kernel == "fused"

    def test_streaming_paths_record_kernel(self, fitted):
        parts = list(fitted.sample_stream(300, chunk=100, rng=4, shards=3))
        assert sum(p.n_records for p in parts) == 300
        assert fitted.gum_result.kernel == "fused"


class TestRegistry:
    def test_always_available_kernels(self):
        """Two kernels, both pure numpy; every accepted name maps onto one."""
        assert kernel_names() == ("reference", "fused")
        assert sorted(valid_kernel_names()) == sorted(KERNEL_NAMES)
        for name in valid_kernel_names():
            assert resolve_kernel_name(name) in kernel_names()

    def test_auto_resolves_to_fused(self):
        for name in ("auto", "fused", "vectorized", "numba"):
            assert resolve_kernel_name(name) == "fused"
        assert resolve_kernel_name("reference") == "reference"

    def test_numba_unavailability_does_not_change_auto(self, monkeypatch):
        """Resolution never probes numba, so it never warns or falls back."""
        monkeypatch.setattr(fused_mod, "numba_available", lambda: False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernel_name("auto") == "fused"
            assert resolve_kernel_name("numba") == "fused"
        assert "numba" in valid_kernel_names()

    def test_unknown_kernel_rejected_everywhere(self):
        with pytest.raises(ValueError, match="kernel"):
            resolve_kernel_name("magic")
        with pytest.raises(ValueError, match="kernel"):
            get_kernel("magic")
        with pytest.raises(ValueError, match="kernel"):
            EngineConfig(kernel="magic")

    def test_get_kernel_returns_fresh_instances(self):
        a, b = get_kernel("vectorized"), get_kernel("vectorized")
        assert isinstance(a, FusedKernel) and a is not b

    def test_registered_classes(self):
        assert type(get_kernel("reference")) is ReferenceKernel
        for name in ("auto", "fused", "vectorized", "numba"):
            assert type(get_kernel(name)) is FusedKernel


class TestRunGumKernelSelection:
    def _workload(self, n=600, seed=2):
        from repro.data.domain import Domain
        from repro.marginals.marginal import Marginal

        rng = np.random.default_rng(seed)
        domain = Domain({"a": 5, "b": 4, "c": 3})
        data = np.stack(
            [rng.integers(0, 5, n), rng.integers(0, 4, n), rng.integers(0, 3, n)],
            axis=1,
        ).astype(np.int32)
        target_ab = Marginal(("a", "b"), rng.random((5, 4)) * n)
        target_bc = Marginal(("b", "c"), rng.random((4, 3)) * n)
        return data, [target_ab, target_bc], ("a", "b", "c"), domain

    def test_explicit_kernel_equals_reference(self):
        data, targets, attrs, domain = self._workload()
        config = GumConfig(iterations=10)
        out = {}
        for kernel in ("reference", "fused"):
            out[kernel] = run_gum(
                data.copy(), targets, attrs, domain, config, rng=7, kernel=kernel
            )
        assert np.array_equal(out["reference"].data, out["fused"].data)
        assert out["reference"].errors == out["fused"].errors
        assert out["reference"].kernel == "reference"
        assert out["fused"].kernel == "fused"

    def test_kernel_instance_accepted(self):
        data, targets, attrs, domain = self._workload()
        config = GumConfig(iterations=5)
        a = run_gum(
            data.copy(), targets, attrs, domain, config, rng=3, kernel=FusedKernel()
        )
        b = run_gum(data.copy(), targets, attrs, domain, config, rng=3, kernel="auto")
        assert np.array_equal(a.data, b.data)

    def test_invalid_kernel_name_raises(self):
        data, targets, attrs, domain = self._workload(n=50)
        with pytest.raises(ValueError, match="kernel"):
            run_gum(data, targets, attrs, domain, GumConfig(), rng=1, kernel="magic")

    @pytest.mark.parametrize("fraction", [-0.5, 1.5, float("nan")])
    def test_out_of_range_duplicate_fraction_rejected(self, fraction):
        """A fraction outside [0, 1] has no meaning, and ``fused`` would hit a
        negative repeat count where ``reference`` silently runs: both must
        refuse it at construction."""
        with pytest.raises(ValueError, match="duplicate_fraction"):
            GumConfig(duplicate_fraction=fraction)


class TestNumbaTwins:
    """The njit sources are plain Python: parity is provable without numba."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_group_rows_matches_stable_argsort(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 500))
        size = int(rng.integers(1, 60))
        codes = rng.integers(0, size, size=n)
        perm = rng.permutation(n)
        cp = codes[perm]
        order = np.argsort(cp, kind="stable")
        rows = _group_rows_py(codes, perm, size)
        assert np.array_equal(rows, perm[order])
        assert np.array_equal(codes[rows], cp[order])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_patch_rows_matches_marginal_state(self, seed):
        """The patched codes and counts == a fresh ``cell_codes``/``bincount``."""
        rng = np.random.default_rng(seed)
        n, k = 300, 4
        shape = (5, 3)
        axes = np.array([0, 2], dtype=np.int64)
        data = rng.integers(0, 3, size=(n, k)).astype(np.int32)
        data[:, 0] = rng.integers(0, 5, size=n)
        codes = cell_codes(data[:, axes], shape)
        counts = np.bincount(codes, minlength=15).astype(np.float64)

        rows = rng.choice(n, size=40, replace=False).astype(np.int64)
        new_vals = np.column_stack(
            [rng.integers(0, 5, 40), rng.integers(0, 3, 40), rng.integers(0, 3, 40),
             rng.integers(0, 3, 40)]
        ).astype(np.int32)
        data[rows] = new_vals

        _patch_rows_py(data, rows, axes, _strides_for(shape), codes, counts)
        fresh = cell_codes(data[:, axes], shape)
        assert np.array_equal(codes, fresh)
        assert np.array_equal(counts, np.bincount(fresh, minlength=15))

    def test_strides_match_ravel(self):
        shape = (7, 3, 5)
        strides = _strides_for(shape)
        idx = np.array([[6, 2, 4], [0, 0, 0], [3, 1, 2]])
        expected = np.ravel_multi_index(tuple(idx.T), shape)
        assert np.array_equal(idx @ strides, expected)


class TestFusedKernel:
    """The fused kernel's three single-pass tricks, each pinned to its twin.

    Bit-identity of the full kernel is already covered by the parity sweep;
    these tests pin the *individual* stream/ordering contracts the fusion
    relies on, so a regression points at the exact trick that broke.
    """

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_broadcast_dup_draw_matches_sequential(self, seed):
        """One bounds-broadcast ``integers`` call == per-cell calls: same
        values AND same post-call generator state."""
        rng = np.random.default_rng(seed)
        n_cells = int(rng.integers(1, 24))
        match = rng.integers(1, 2**40, size=n_cells)
        n_dup = rng.integers(0, 6, size=n_cells)
        n_dup[int(rng.integers(0, n_cells))] = max(1, int(n_dup[0]))
        dup_idx = np.nonzero(n_dup > 0)[0]
        rng_a = np.random.default_rng(seed ^ 0x5EED)
        rng_b = np.random.default_rng(seed ^ 0x5EED)
        # The reference's per-cell calls, in ascending cell order.
        seq = np.concatenate(
            [
                rng_a.integers(0, bound, size=count)
                for bound, count in zip(match[dup_idx].tolist(), n_dup[dup_idx].tolist())
            ]
        )
        # The fused step's single call over the per-slot bounds.
        fused = rng_b.integers(0, np.repeat(match, n_dup))
        assert np.array_equal(seq, fused)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @staticmethod
    def _grouping_kernel(codes, size):
        """A prepared fused kernel whose only marginal has cell codes ``codes``."""
        state = _MarginalState(np.array([0]), (size,), np.zeros(size))
        kernel = FusedKernel()
        kernel.prepare(codes.astype(np.int32)[:, None], [state])
        kernel._jit = False  # pin the numpy grouping even on numba hosts
        return kernel, state

    @staticmethod
    def _assert_stable_grouping(kernel, state, codes, perm):
        """Rows grouped stably in ``perm`` order, each cell's run starting at
        ``cumsum(counts) - counts`` of the cached counts."""
        assert state.codes.dtype == kernel._codes.dtype
        assert np.shares_memory(state.codes, kernel._codes)
        rows = kernel._group_rows(state.codes, perm, state.target.size)
        order = np.argsort(codes[perm], kind="stable")
        assert np.array_equal(rows, perm[order])
        cell_len = state.counts.astype(np.int64)
        starts = np.cumsum(cell_len) - cell_len
        sorted_codes = codes[perm][order]
        assert np.array_equal(sorted_codes, np.repeat(np.arange(cell_len.size), cell_len))
        present = np.unique(codes)
        assert np.array_equal(starts[present], np.searchsorted(sorted_codes, present))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_radix_grouping_matches_stable_argsort(self, seed):
        """The cached uint16 column sorts like the int64 codes it encodes."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 500))
        size = int(rng.integers(1, 3000))
        codes = rng.integers(0, size, size=n)
        perm = rng.permutation(n)
        kernel, state = self._grouping_kernel(codes, size)
        assert kernel._codes.dtype == code_dtype(size)
        assert kernel._codes.dtype.itemsize <= 2  # numpy's radix-sort path
        assert kernel._codes.shape == (n, 1)
        self._assert_stable_grouping(kernel, state, codes, perm)

    def test_grouping_beyond_radix_range_still_stable(self):
        size = 70_000  # > uint16 range: a wider code dtype, same grouping
        rng = np.random.default_rng(3)
        codes = rng.integers(0, size, size=400)
        perm = rng.permutation(400)
        kernel, state = self._grouping_kernel(codes, size)
        assert kernel._codes.dtype == np.uint32
        self._assert_stable_grouping(kernel, state, codes, perm)

    def test_code_dtype_is_narrowest_unsigned(self):
        assert code_dtype(1) == np.uint8
        assert code_dtype(256) == np.uint8
        assert code_dtype(257) == np.uint16
        assert code_dtype(65_536) == np.uint16
        assert code_dtype(65_537) == np.uint32

    @staticmethod
    def _states():
        specs = [
            (np.array([0, 2], dtype=np.int64), (5, 3)),
            (np.array([1], dtype=np.int64), (4,)),
            (np.array([0, 1, 3], dtype=np.int64), (5, 4, 3)),
        ]
        states = []
        for axes, shape in specs:
            size = int(np.prod(shape))
            state = _MarginalState(axes, shape, np.zeros(size))
            state.target = np.zeros(size)
            states.append(state)
        return states

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1), jit=st.booleans())
    def test_fused_apply_updates_matches_marginal_state(self, seed, jit):
        """One matmul + one bincount + one row scatter (or the njit twins
        over the row-major matrix) == a fresh per-marginal recount."""
        rng = np.random.default_rng(seed)
        n, k = 300, 4
        data = np.column_stack(
            [
                rng.integers(0, 5, n),
                rng.integers(0, 4, n),
                rng.integers(0, 3, n),
                rng.integers(0, 3, n),
            ]
        ).astype(np.int32)
        states = self._states()

        def assert_fresh():
            for j, state in enumerate(states):
                codes = cell_codes(data[:, state.axes], state.shape)
                assert np.shares_memory(state.codes, kernel._codes)
                assert np.array_equal(kernel._codes[:, j], codes)
                assert np.array_equal(
                    state.counts, np.bincount(codes, minlength=state.target.size)
                )

        with _twins_as_jit(jit):
            kernel = FusedKernel()
            kernel.prepare(data, states)
            assert kernel._jit is jit  # pins numpy on numba hosts, twins without
            assert kernel._codes.shape == (n, len(states))
            assert_fresh()

            rows = rng.choice(n, size=40, replace=False).astype(np.int64)
            data[rows, 0] = rng.integers(0, 5, 40)
            data[rows, 1] = rng.integers(0, 4, 40)
            data[rows, 2] = rng.integers(0, 3, 40)
            data[rows, 3] = rng.integers(0, 3, 40)

            kernel._apply_updates(data, states, rows)
        assert_fresh()

    @staticmethod
    def _gum_workload(seed, n=300):
        from repro.data.domain import Domain
        from repro.marginals.marginal import Marginal

        rng = np.random.default_rng(seed)
        domain = Domain({"a": 5, "b": 4, "c": 3, "d": 6})
        attrs = domain.names
        data = np.stack(
            [rng.integers(0, domain.size(a), n) for a in attrs], axis=1
        ).astype(np.int32)
        targets = [
            Marginal(("a", "b"), rng.random((5, 4)) ** 3 * n),
            Marginal(("b", "c", "d"), rng.random((4, 3, 6)) ** 3 * n),
            Marginal(("d",), rng.random(6) * n),
            Marginal(("a", "c"), rng.random((5, 3)) ** 3 * n),
        ]
        return data, targets, attrs, domain

    @staticmethod
    def _assert_cache_matches(kernel, data, targets, attrs, domain):
        """Every marginal's cached codes and counts == a fresh recount."""
        for j, marginal in enumerate(targets):
            axes = [attrs.index(a) for a in marginal.attrs]
            codes = cell_codes(data[:, axes], domain.shape(marginal.attrs))
            size = domain.cells(marginal.attrs)
            lo = kernel._offsets[j]
            assert np.array_equal(kernel._codes[:, j], codes)
            assert np.array_equal(
                kernel._counts[lo : lo + size], np.bincount(codes, minlength=size)
            )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1), jit=st.booleans())
    def test_cache_invariant_after_run_gum(self, seed, jit):
        """After many iterations the row-major cache still equals a fresh
        ``cell_codes``/``bincount`` of the final data — on the numpy path
        and on the njit twins' pure-Python sources — and the output is
        the reference kernel's, byte for byte."""
        data, targets, attrs, domain = self._gum_workload(seed)
        config = GumConfig(iterations=25, patience=26)
        expected = run_gum(
            data.copy(), targets, attrs, domain, config, rng=seed, kernel="reference"
        )
        with _twins_as_jit(jit):
            kernel = FusedKernel()
            result = run_gum(
                data.copy(), targets, attrs, domain, config, rng=seed, kernel=kernel
            )
        assert kernel._jit is jit
        assert result.iterations_run == 25
        assert result.data.tobytes() == expected.data.tobytes()
        assert result.errors == expected.errors
        self._assert_cache_matches(kernel, result.data, targets, attrs, domain)

    def test_wide_marginal_runs_end_to_end_like_reference(self):
        """A > 65535-cell marginal takes a uint32 code matrix (and numpy's
        comparison sort) with output byte-identical to the reference."""
        from repro.data.domain import Domain
        from repro.marginals.marginal import Marginal

        rng = np.random.default_rng(11)
        n = 400
        domain = Domain({"a": 300, "b": 250, "c": 3})
        attrs = domain.names
        data = np.stack(
            [rng.integers(0, domain.size(a), n) for a in attrs], axis=1
        ).astype(np.int32)
        targets = [
            Marginal(("a", "b"), rng.random((300, 250)) ** 12 * n),
            Marginal(("b", "c"), rng.random((250, 3)) * n),
        ]
        assert domain.cells(("a", "b")) > 65_535
        config = GumConfig(iterations=10, patience=11)
        expected = run_gum(
            data.copy(), targets, attrs, domain, config, rng=4, kernel="reference"
        )
        with _twins_as_jit(False):
            kernel = FusedKernel()
            result = run_gum(data.copy(), targets, attrs, domain, config, rng=4, kernel=kernel)
        assert kernel._codes.dtype == np.uint32
        assert result.data.tobytes() == expected.data.tobytes()
        assert result.errors == expected.errors
        self._assert_cache_matches(kernel, result.data, targets, attrs, domain)

    def test_fused_digest_equality(self, fitted, reference_digests):
        """``fused`` and both legacy aliases, deterministically on every host."""
        for kernel in ("fused", "vectorized", "numba"):
            for shards in (1, 2, 3):
                digest = fitted.sample(400, rng=9, shards=shards, kernel=kernel)
                assert digest.content_digest() == reference_digests[shards]


class TestKernelConfigPersistence:
    def test_override_round_trips_kernel(self):
        config = EngineConfig(kernel="vectorized", shards=2)
        assert config.override().kernel == "vectorized"
        assert config.override(kernel="reference").kernel == "reference"
        assert config.override(shards=4).kernel == "vectorized"
        assert config.kernel == "vectorized"  # original untouched

    def test_save_load_round_trips_kernel(self, fitted, tmp_path):
        fitted.config.engine = fitted.config.engine.override(kernel="vectorized")
        fitted._plan = None  # rebuild the plan with the pinned kernel
        path = tmp_path / "model.ndpsyn"
        fitted.save(path)
        loaded = NetDPSyn.load(path)
        assert loaded.plan().kernel == "vectorized"
        assert loaded.config.engine.kernel == "vectorized"
        assert (
            loaded.sample(300, rng=11).content_digest()
            == fitted.sample(300, rng=11).content_digest()
        )

    def test_model_pinned_to_unavailable_kernel_still_samples(
        self, fitted, tmp_path, monkeypatch
    ):
        """A numba-host model samples identically, and silently, on a
        numpy-only host."""
        expected = fitted.sample(250, rng=13).content_digest()
        engine = fitted.config.engine
        fitted.config.engine = engine.override(kernel="numba")
        fitted._plan = None
        try:
            path = fitted.save(tmp_path / "numba-model.ndpsyn")
        finally:
            fitted.config.engine = engine
            fitted._plan = None
        loaded = NetDPSyn.load(path)
        assert loaded.plan().kernel == "numba"
        monkeypatch.setattr(fused_mod, "numba_available", lambda: False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            digest = loaded.sample(250, rng=13).content_digest()
        assert digest == expected
        assert loaded.gum_result.kernel == "fused"

    def test_legacy_model_with_update_mode_samples_like_reference(self, fitted, tmp_path):
        """A model file from before ``GumConfig.update_mode`` was retired:
        engine kernel ``"numba"``, and a pickled ``GumConfig`` still carrying
        ``update_mode="reference"``.  The stray attribute is inert."""
        expected = fitted.sample(250, rng=13, kernel="reference").content_digest()
        engine = fitted.config.engine
        fitted.config.engine = engine.override(kernel="numba")
        fitted.config.gum.update_mode = "reference"  # as old pickles carry it
        fitted._plan = None
        try:
            path = fitted.save(tmp_path / "legacy-model.ndpsyn")
        finally:
            del fitted.config.gum.update_mode
            fitted.config.engine = engine
            fitted._plan = None
        loaded = NetDPSyn.load(path)
        assert loaded.plan().kernel == "numba"
        assert loaded.plan().gum.update_mode == "reference"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            digest = loaded.sample(250, rng=13).content_digest()
        assert digest == expected
        assert loaded.gum_result.kernel == "fused"

    def test_plan_without_kernel_field_defaults_to_auto(self, fitted):
        """Plans unpickled from pre-kernel model files keep working."""
        plan = fitted.plan()
        delattr(plan, "kernel")
        try:
            assert plan.resolved_kernel() == "auto"
            shard = plan.run_shard(50, rng=1)
            assert shard.n_records == 50
        finally:
            plan.kernel = "auto"
            fitted._plan = None


def test_kernel_protocol_is_abstract():
    with pytest.raises(TypeError):
        GumKernel()
