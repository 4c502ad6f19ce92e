"""The GUM kernel registry: two kernels, two legacy aliases, ``auto``.

:func:`get_kernel` instantiates per call so the per-run scratch a kernel
keeps (the fused kernel's code matrix) never leaks between concurrent
shards.  ``"auto"`` and the retired names ``"vectorized"`` and ``"numba"``
all resolve to ``"fused"``: those kernels were folded into it, so models
and configs persisted with them keep loading and sample the same bytes.
"""

from __future__ import annotations

from repro.synthesis.kernels.base import GumKernel
from repro.synthesis.kernels.fused import FusedKernel
from repro.synthesis.kernels.reference import ReferenceKernel

#: The wildcard name: resolves to the fast kernel.
KERNEL_AUTO = "auto"

_KERNELS: dict[str, type[GumKernel]] = {
    ReferenceKernel.name: ReferenceKernel,
    FusedKernel.name: FusedKernel,
}

#: Accepted names that are not kernel classes, and the kernel each runs.
_ALIASES = {KERNEL_AUTO: "fused", "vectorized": "fused", "numba": "fused"}


def kernel_names() -> tuple:
    """The concrete kernel names (every alias resolves to one of these)."""
    return tuple(_KERNELS)


def valid_kernel_names() -> tuple:
    """The names ``EngineConfig(kernel=...)`` accepts: kernels plus aliases."""
    return (KERNEL_AUTO,) + kernel_names() + tuple(
        name for name in _ALIASES if name != KERNEL_AUTO
    )


def resolve_kernel_name(name: str = KERNEL_AUTO) -> str:
    """Map a requested kernel name to the concrete one that will run.

    Raises ``ValueError`` for a name that is neither a kernel nor an alias.
    """
    resolved = _ALIASES.get(name, name)
    if resolved not in _KERNELS:
        raise ValueError(f"kernel must be one of {valid_kernel_names()}, got {name!r}")
    return resolved


def get_kernel(name: str = KERNEL_AUTO) -> GumKernel:
    """A fresh instance of the kernel ``name`` resolves to."""
    return _KERNELS[resolve_kernel_name(name)]()
