"""Pluggable GUM compute kernels: one update semantics, many speeds.

The GUM record-update hot path is expressed as a :class:`GumKernel` with
four registered implementations:

- ``reference`` — the original per-cell Python loop, kept verbatim as the
  golden oracle (:mod:`~repro.synthesis.kernels.reference`);
- ``vectorized`` — whole-step numpy passes over cached per-marginal codes
  and counts, cell offsets read off the cached counts
  (:mod:`~repro.synthesis.kernels.vectorized`);
- ``numba`` — the vectorized kernel with an ``@njit(nogil=True)`` cache
  patch, registered as *available* only when numba imports
  (:mod:`~repro.synthesis.kernels.numba_kernel`);
- ``fused`` — the vectorized step over a row-major (records x marginals)
  code matrix in the narrowest unsigned dtype: radix-sorted grouping of
  one code column, a single bounds-broadcast duplication
  draw, and a one-``bincount`` cache patch for every marginal at once, with
  compiled twins when numba is present
  (:mod:`~repro.synthesis.kernels.fused`).

All kernels consume the random stream identically and produce bit-identical
output (the parity suite proves it against the pinned golden digests), so
kernel choice — ``EngineConfig(kernel=...)``, resolved ``auto`` →
fused → numba → vectorized → reference — is purely a speed decision.
"""

from repro.synthesis.kernels.base import GumKernel, _MarginalState, _segment_gather
from repro.synthesis.kernels.fused import FusedKernel
from repro.synthesis.kernels.numba_kernel import NumbaKernel, numba_available
from repro.synthesis.kernels.reference import ReferenceKernel
from repro.synthesis.kernels.registry import (
    AUTO_ORDER,
    KERNEL_AUTO,
    available_kernels,
    get_kernel,
    kernel_names,
    register_kernel,
    resolve_kernel_name,
    valid_kernel_names,
)
from repro.synthesis.kernels.vectorized import VectorizedKernel

register_kernel(ReferenceKernel)
register_kernel(VectorizedKernel)
register_kernel(NumbaKernel)
register_kernel(FusedKernel)

__all__ = [
    "AUTO_ORDER",
    "KERNEL_AUTO",
    "FusedKernel",
    "GumKernel",
    "NumbaKernel",
    "ReferenceKernel",
    "VectorizedKernel",
    "available_kernels",
    "get_kernel",
    "kernel_names",
    "numba_available",
    "register_kernel",
    "resolve_kernel_name",
    "valid_kernel_names",
    "_MarginalState",
    "_segment_gather",
]
