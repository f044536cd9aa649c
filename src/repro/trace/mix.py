"""Multiprogramming trace mixer (beyond-paper extension).

The paper repeatedly notes (Sections 3.1 and 6) that its uniprogrammed
traces understate TLB pressure because they omit multiprogramming.  This
module provides the obvious experiment the authors could not run: a
round-robin mixer that interleaves several uniprogrammed traces with a
fixed scheduling quantum, placing each program in a disjoint slice of the
virtual address space (as distinct address-space contexts would).

Results from mixed traces are reported in the ablation benchmarks and are
clearly labelled as beyond the paper's own evaluation.

Both mixers follow one schedule, :func:`_round_robin_segments`, and
build the mixed trace by joining byte slices of the inputs' columns
(:meth:`~repro.trace.record.Trace.to_bytes`), so mixing traces read
from disk imports no numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.errors import TraceError
from repro.trace.record import Trace
from repro.types import VIRTUAL_ADDRESS_LIMIT, is_power_of_two

if TYPE_CHECKING:
    import numpy as np

#: One turn of the schedule: (trace index, first reference, stop).
Segment = Tuple[int, int, int]


def _round_robin_segments(lengths: Sequence[int], quantum: int) -> List[Segment]:
    """The round-robin schedule as segments, in the order they play.

    Round-major, trace-minor: each round grants every unexhausted trace
    up to ``quantum`` references; exhausted traces (including empty
    ones) are skipped, so shorter traces simply stop being scheduled.
    """
    longest = max(lengths, default=0)
    return [
        (index, start, min(start + quantum, length))
        for start in range(0, longest, quantum)
        for index, length in enumerate(lengths)
        if start < length
    ]


def _join(columns: Sequence[bytes], segments: List[Segment], width: int) -> bytes:
    """The segments' slices of ``columns`` (``width`` bytes an item), joined."""
    views = [memoryview(column) for column in columns]
    return b"".join(
        views[index][start * width : stop * width] for index, start, stop in segments
    )


def _byte_columns(value: int) -> List[Tuple[int, int]]:
    """``(column, byte)`` of each nonzero byte of little-endian uint32 ``value``."""
    columns = [(column, (value >> (8 * column)) & 0xFF) for column in range(4)]
    return [(column, bits) for column, bits in columns if bits]


def _any_bit_of(addresses: bytes, mask: int) -> bool:
    """Whether any little-endian uint32 in ``addresses`` has a bit of ``mask``."""
    for column, bits in _byte_columns(mask):
        clear = bytes(byte for byte in range(256) if not byte & bits)
        if addresses[column::4].translate(None, clear):
            return True
    return False


def _or_each(addresses: bytes, value: int) -> bytes:
    """``addresses`` (little-endian uint32s) with ``value`` OR-ed into each."""
    if not value:
        return addresses
    out = bytearray(addresses)
    for column, bits in _byte_columns(value):
        table = bytes(byte | bits for byte in range(256))
        out[column::4] = out[column::4].translate(table)
    return bytes(out)


def _mix_name(traces: Sequence[Trace]) -> str:
    return "mix(" + ",".join(trace.name for trace in traces) + ")"


def _check_mix(traces: Sequence[Trace], quantum: int) -> None:
    if not traces:
        raise TraceError("cannot mix zero traces")
    if quantum <= 0:
        raise TraceError("quantum must be positive")


def _interleave(
    traces: Sequence[Trace],
    quantum: int,
    columns: Sequence[Tuple[bytes, bytes]],
) -> Tuple[Trace, List[Segment]]:
    """Join ``columns`` (each trace's address and kind bytes) round-robin."""
    segments = _round_robin_segments([len(trace) for trace in traces], quantum)
    total = sum(stop - start for _, start, stop in segments)
    instructions = sum(trace.instruction_count for trace in traces)
    mixed = Trace.from_bytes(
        _join([addresses for addresses, _ in columns], segments, 4),
        _join([kinds for _, kinds in columns], segments, 1),
        name=_mix_name(traces),
        refs_per_instruction=total / instructions if instructions else 1.0,
    )
    return mixed, segments


def round_robin_mix(
    traces: Sequence[Trace],
    *,
    quantum: int = 50_000,
    context_stride: int = 1 << 28,
) -> Trace:
    """Interleave ``traces`` round-robin with ``quantum`` references per turn.

    Each trace ``i`` has its addresses offset by ``i * context_stride`` so
    distinct programs never share pages (modelling per-process address
    spaces without ASIDs, i.e. a TLB flushed conceptually by distinct
    mappings rather than literally).  The mix ends when every trace is
    exhausted; shorter traces simply stop being scheduled, and an input
    of entirely empty traces yields an empty mix.

    Every address lies below the power-of-two stride and every offset is
    a multiple of it, so ``address + offset == address | offset``: the
    offset goes into each byte column of a trace with one
    ``bytes.translate``.

    Args:
        traces: the uniprogrammed traces to interleave.
        quantum: scheduling quantum in references (paper-scale would be
            the OS time slice times references per cycle).
        context_stride: address-space offset between programs; must be a
            power of two larger than any program's footprint.
    """
    _check_mix(traces, quantum)
    if not is_power_of_two(context_stride):
        raise TraceError("context_stride must be a power of two")
    if len(traces) * context_stride > VIRTUAL_ADDRESS_LIMIT:
        raise TraceError(
            f"{len(traces)} contexts of stride {context_stride:#x} do not "
            f"fit the 32-bit address space"
        )
    columns = [trace.to_bytes() for trace in traces]
    above_stride = (VIRTUAL_ADDRESS_LIMIT - 1) & ~(context_stride - 1)
    for index, (trace, (addresses, _)) in enumerate(zip(traces, columns)):
        if _any_bit_of(addresses, above_stride):
            raise TraceError(
                f"trace {trace.name!r} (index {index}) exceeds the "
                f"context stride {context_stride:#x}"
            )
    shifted = [
        (_or_each(addresses, index * context_stride), kinds)
        for index, (addresses, kinds) in enumerate(columns)
    ]
    mixed, _ = _interleave(traces, quantum, shifted)
    return mixed


def interleave_with_contexts(
    traces: Sequence[Trace],
    *,
    quantum: int = 50_000,
) -> Tuple[Trace, np.ndarray]:
    """Round-robin interleave preserving addresses, tagging contexts.

    Unlike :func:`round_robin_mix`, addresses are *not* offset into
    disjoint slices; instead each reference carries the index of the
    trace (address space) it came from, for consumption by
    :class:`repro.tlb.context.MultiprogrammedTLB` — programs may then
    genuinely alias each other's virtual pages, which is the point of
    ASIDs.

    Returns:
        ``(mixed_trace, contexts)`` where ``contexts[i]`` is the address
        space of reference ``i`` (int32).  An input of entirely empty
        traces yields an empty mix and an empty context array.
    """
    import numpy as np

    _check_mix(traces, quantum)
    mixed, segments = _interleave(
        traces, quantum, [trace.to_bytes() for trace in traces]
    )
    contexts = np.repeat(
        np.array([index for index, _, _ in segments], dtype=np.int32),
        [stop - start for _, start, stop in segments],
    )
    return mixed, contexts
