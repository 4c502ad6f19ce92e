"""The GUM kernel protocol and the state shared by every implementation.

A *kernel* is the record-update hot path of the GUM loop: one call applies a
single marginal's free/refill step to the encoded matrix (PrivSyn §6, paper
§3.4).  Kernels are interchangeable compute strategies, not semantic
variants — the fast kernel must consume the caller's random stream
identically to :class:`~repro.synthesis.kernels.reference.ReferenceKernel`
and write identical bytes, so the engine's reproducibility contract (the
pinned ``PRE_REFACTOR_GOLDEN`` digests, backend interchangeability, stream /
in-memory equality) holds no matter which kernel executes.  The parity
tests in ``tests/test_kernels.py`` enforce this bit for bit.

The RNG consumption order every kernel must reproduce per step:

1. ``rng.permutation(n)`` — the within-cell row order;
2. ``rng.multinomial(moves, p_over)`` — free quotas for over-full cells;
3. ``rng.shuffle(freed)`` — mix freed rows across source cells;
4. ``rng.multinomial(len(freed), p_under)`` — refill quotas;
5. one ``rng.integers(0, match, size=n_dup)`` per refilled cell that
   duplicates (ascending cell order, only when ``n_dup > 0``).

Steps 1-4 are single bulk draws, so kernels are free to restructure the
surrounding compute.  Step 5 draws one bounded word per element in element
order, so a single ``rng.integers(0, highs)`` over the per-cell bounds
repeated per slot consumes the identical stream.
"""

from __future__ import annotations

import abc

import numpy as np


def cell_codes(data: np.ndarray, shape: tuple) -> np.ndarray:
    """Flat cell index of every row (``ravel_multi_index`` over a row block).

    Local twin of :func:`repro.marginals.compute.cell_codes` — kernels must
    stay importable from :mod:`repro.engine.config` without dragging in the
    marginals package (whose init imports the engine backends back).
    """
    if data.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return np.ravel_multi_index(tuple(data.T), shape)


class _MarginalState:
    """One target marginal plus its incrementally maintained current state."""

    __slots__ = ("axes", "shape", "target", "codes", "counts")

    def __init__(self, axes: np.ndarray, shape: tuple, target: np.ndarray) -> None:
        self.axes = axes
        self.shape = shape
        self.target = target
        self.codes: np.ndarray | None = None
        self.counts: np.ndarray | None = None


def _segment_gather(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i] + lengths[i])`` ranges, vectorized.

    The bulk equivalent of ``np.concatenate([arange(s, s + l) ...])`` built
    from ``np.repeat`` + one ``arange`` — the gather primitive behind the
    vectorized free/refill steps.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    seg_offsets = np.cumsum(lengths) - lengths
    base = np.repeat(np.asarray(starts, dtype=np.int64) - seg_offsets, lengths)
    return base + np.arange(total, dtype=np.int64)


class GumKernel(abc.ABC):
    """A compute strategy for the per-marginal GUM update step.

    Instances are created per run (:func:`~repro.synthesis.kernels.get_kernel`
    returns a fresh one), so per-run scratch built by :meth:`prepare` never
    leaks between concurrent shards.  Subclasses set :attr:`name` and
    implement :meth:`step`; :func:`~repro.synthesis.gum.run_gum` calls
    :meth:`prepare` once before the iteration loop.
    """

    #: Registry key; also the value accepted by ``EngineConfig(kernel=...)``.
    name: str = "abstract"

    def prepare(self, data: np.ndarray, states: list) -> None:
        """Build per-run caches before the iteration loop (default: none)."""

    @abc.abstractmethod
    def step(
        self,
        data: np.ndarray,
        states: list,
        k: int,
        alpha: float,
        config,
        rng: np.random.Generator,
    ) -> float:
        """Apply one update against marginal ``k``; return its pre-step error.

        ``data`` is modified in place.  ``config`` supplies
        ``duplicate_fraction``; ``states[k]`` the marginal being matched.
        """
