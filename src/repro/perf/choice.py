"""Which kernel runs a pass: the ``kernel=`` switch, resolved before any lookup.

Every driver resolves its ``kernel=`` argument here first, because the
resolved kernel is part of each result's cache key.  A run that finds
every answer in its store or the result cache therefore needs only this
module, not the array kernels of :mod:`repro.perf.kernels` (or numpy).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

#: Kernel selector values accepted by every ``kernel=`` parameter.
KERNEL_SCALAR = "scalar"
KERNEL_VECTOR = "vector"
KERNEL_SAMPLED = "sampled"
KERNEL_AUTO = "auto"

_KERNELS = (KERNEL_SCALAR, KERNEL_VECTOR, KERNEL_SAMPLED, KERNEL_AUTO)


class KernelFallbackWarning(UserWarning):
    """Emitted when ``kernel="auto"`` resolved to a scalar walk that runs.

    The scalar per-reference loop is 4-25x slower than the array
    kernels, so a sweep that silently leaks onto it is a performance
    bug, not a correctness one — loud by policy.  The warning message
    carries the reason so audits of large sweeps can attribute every
    slow-path cell.
    """


@dataclass(frozen=True)
class KernelChoice:
    """A resolved kernel plus the reason if ``auto`` fell back to scalar."""

    kernel: str
    fallback_reason: Optional[str] = None

    def announce_fallback(self) -> None:
        """Warn if ``auto`` fell back; called where the scalar walk runs.

        A choice is resolved before the result-cache lookup, so the
        warning waits for a walk that actually runs: a call that only
        replays cached entries stays quiet (its results still carry
        ``fallback_reason``).
        """
        if self.fallback_reason is not None:
            warnings.warn(
                f"kernel='auto' fell back to the scalar walk: "
                f"{self.fallback_reason}",
                KernelFallbackWarning,
                stacklevel=2,
            )


def choose_kernel(
    kernel: str,
    *,
    vector_supported: bool = True,
    sampled_supported: bool = False,
    reason: str = "configuration not supported by an array kernel",
) -> KernelChoice:
    """Resolve a ``kernel=`` argument to a concrete kernel.

    ``"auto"`` prefers the exact vector kernel, then the sampled-set
    kernel (statistical, for FIFO/random replacement), and only then
    the scalar walk — in which case the choice carries ``reason``, and
    :meth:`KernelChoice.announce_fallback` emits a
    :class:`KernelFallbackWarning` when the walk runs, so no sweep
    silently runs 4-25x slower than it should.  Requesting ``"vector"``
    or ``"sampled"`` explicitly when unsupported is an error, so a
    benchmark or test never silently measures the wrong kernel.
    """
    if kernel not in _KERNELS:
        raise ConfigurationError(
            f"unknown kernel {kernel!r}; choose from {', '.join(_KERNELS)}"
        )
    if kernel == KERNEL_AUTO:
        if vector_supported:
            return KernelChoice(KERNEL_VECTOR)
        if sampled_supported:
            return KernelChoice(KERNEL_SAMPLED)
        return KernelChoice(KERNEL_SCALAR, fallback_reason=reason)
    if kernel == KERNEL_VECTOR and not vector_supported:
        raise ConfigurationError(
            "the vector kernel does not support this configuration "
            f"({reason}); use kernel='scalar' or kernel='auto'"
        )
    if kernel == KERNEL_SAMPLED and not sampled_supported:
        raise ConfigurationError(
            "the sampled-set kernel does not support this configuration "
            f"({reason}); use kernel='scalar' or kernel='auto'"
        )
    return KernelChoice(kernel)


__all__ = [
    "KERNEL_AUTO",
    "KERNEL_SAMPLED",
    "KERNEL_SCALAR",
    "KERNEL_VECTOR",
    "KernelChoice",
    "KernelFallbackWarning",
    "choose_kernel",
]
