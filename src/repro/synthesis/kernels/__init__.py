"""GUM compute kernels: one update semantics, two speeds.

The GUM record-update hot path is expressed as a :class:`GumKernel` with
two implementations:

- ``reference`` — the original per-cell Python loop, kept verbatim as the
  golden oracle (:mod:`~repro.synthesis.kernels.reference`);
- ``fused`` — whole-step numpy passes over a row-major (records x marginals)
  code matrix in the narrowest unsigned dtype: radix-sorted grouping of one
  code column, cell offsets read off the cached counts, a single
  bounds-broadcast duplication draw, and a one-``bincount`` cache patch for
  every marginal at once, with ``@njit(nogil=True)`` twins of the grouping
  and the patch when numba imports (:mod:`~repro.synthesis.kernels.fused`).

Both kernels consume the random stream identically and produce
bit-identical output (the parity suite proves it against the pinned golden
digests), so kernel choice — ``EngineConfig(kernel=...)``, where ``auto``
and the legacy names ``vectorized`` and ``numba`` resolve to ``fused`` — is
purely a speed decision.
"""

from repro.synthesis.kernels.base import GumKernel, _MarginalState
from repro.synthesis.kernels.fused import FusedKernel
from repro.synthesis.kernels.reference import ReferenceKernel
from repro.synthesis.kernels.registry import (
    KERNEL_AUTO,
    get_kernel,
    kernel_names,
    resolve_kernel_name,
    valid_kernel_names,
)

__all__ = [
    "KERNEL_AUTO",
    "FusedKernel",
    "GumKernel",
    "ReferenceKernel",
    "get_kernel",
    "kernel_names",
    "resolve_kernel_name",
    "valid_kernel_names",
    "_MarginalState",
]
