"""One lookup rule for every answer: the run's store, the result cache, compute.

The experiments of one ``repro-experiments`` run ask the same traces the
same questions: the sliding-window events behind every dynamic decision
stream, a policy's decision stream, a TLB geometry's two-size counts, a
set family's miss curve, a working-set average, a driver's result.
:func:`answers` (and :func:`answer`, for one value) finds each of them
the same way:

1. in the open run's store, when a :func:`run` block is open;
2. in the on-disk result cache (:mod:`repro.parallel.cache`), when the
   caller gives a ``cache`` and a ``decode``; the run keeps each hit;
3. by calling ``compute`` for the missing items only, whose answers go
   into both tiers.

Outside a run and without a cache every call computes directly and
encodes nothing, so library callers, the tests and ``repro-bench``'s
timed repeats see no memo at all.  This module is the only one that
reads or writes the result cache.

* **Keys** are content, never object identity.  Both tiers address an
  answer by :func:`repro.parallel.cache.key` of its kind and parts,
  after one encoding: a :class:`~repro.trace.record.Trace` stands for
  its fingerprint, an array for :func:`digest` of its bytes, a NumPy
  integer for its ``int`` and a configuration for its
  ``cache_parts()``.  Callers include the parameters and the resolved
  kernel, so a scalar request never reads a vector answer.  A part
  that is None (an uncacheable policy's token) marks the answer as
  not storable: it is computed directly.
* **Values** kept by a run are compact answers only — packed bits,
  transition indices, counters, miss curves, averages, results —
  never the per-reference working arrays a pass builds on the way
  (family depth arrays, event plans, dense decision arrays).  A run
  also holds each trace it read (kind ``"trace"``, asked by
  :meth:`~repro.experiments.scale.ExperimentScale.trace`), so every
  trace is read, checksummed and fingerprinted once per run, at 5
  bytes per reference.
* **Lifetime** is the ``with run():`` block.  The store is
  process-local: pool workers forked inside the block start from the
  parent's store and each fills its own.  A store hit on a cached kind
  counts as a hit in the cache's :class:`~repro.parallel.cache.CacheStats`,
  so a study unit answered from memory still reads as replayed.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    TypeVar,
)

from repro.parallel.cache import SimulationCache, key
from repro.trace.record import Trace

if TYPE_CHECKING:
    import numpy as np

T = TypeVar("T")
Item = TypeVar("Item")

#: The open run's answers by key; None outside a run.
_entries: Optional[Dict[str, Any]] = None


@contextlib.contextmanager
def run() -> Iterator[None]:
    """Keep derived answers for the duration of the block.

    A nested ``run()`` shares the enclosing store.
    """
    global _entries
    if _entries is not None:
        yield
        return
    _entries = {}
    try:
        yield
    finally:
        _entries = None


def digest(array: np.ndarray) -> str:
    """SHA-256 of an array's dtype, shape and bytes."""
    import numpy as np

    array = np.ascontiguousarray(array)
    hasher = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode("ascii"))
    hasher.update(array.data)
    return hasher.hexdigest()


def _encode(part: Any) -> Any:
    """``part`` in the plain JSON form both tiers hash."""
    if isinstance(part, Trace):
        return part.fingerprint
    # An array or NumPy integer part exists only once numpy is loaded.
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(part, np.ndarray):
            return digest(part)
        if isinstance(part, np.integer):
            return int(part)
    if isinstance(part, (list, tuple)):
        return [_encode(each) for each in part]
    if hasattr(part, "cache_parts"):
        return part.cache_parts()
    return part


def answers(
    compute: Callable[[List[Item]], Sequence[T]],
    items: Sequence[Item],
    kind: str,
    *,
    item: str,
    cache: Optional[SimulationCache] = None,
    decode: Optional[Callable[[Any, Item], T]] = None,
    **parts: Any,
) -> List[T]:
    """One answer per item: the run's, else the cache's, else computed.

    Item ``i`` is addressed by ``kind``, ``parts`` and the part named
    ``item`` set to ``items[i]``.  With a ``cache`` and a ``decode``, a
    hit's payload is rebuilt as ``decode(payload, items[i])`` and each
    computed answer is stored as its ``to_payload()``.
    ``compute(missing)`` answers the items neither tier holds, in order.
    """
    items = list(items)
    return _answers(
        compute, items, kind, parts, [{item: each} for each in items], cache, decode
    )


def answer(
    compute: Callable[[], T],
    kind: str,
    *,
    cache: Optional[SimulationCache] = None,
    decode: Optional[Callable[[Any], T]] = None,
    **parts: Any,
) -> T:
    """The one answer under ``kind`` and ``parts``; see :func:`answers`."""
    (value,) = _answers(
        lambda missing: [compute()],
        [None],
        kind,
        parts,
        [{}],
        cache,
        None if decode is None else lambda payload, _: decode(payload),
    )
    return value


def _answers(
    compute: Callable[[List[Item]], Sequence[T]],
    items: List[Item],
    kind: str,
    parts: Dict[str, Any],
    own_parts: List[Dict[str, Any]],
    cache: Optional[SimulationCache],
    decode: Optional[Callable[[Any, Item], T]],
) -> List[T]:
    if decode is None:
        cache = None
    if (_entries is None and cache is None) or any(
        part is None for part in parts.values()
    ):
        return list(compute(items))
    shared = {name: _encode(part) for name, part in parts.items()}
    keys = [
        key(kind, **shared, **{name: _encode(part) for name, part in own.items()})
        for own in own_parts
    ]
    found: List[Optional[T]] = [
        None if _entries is None else _entries.get(entry) for entry in keys
    ]
    if cache is not None:
        for i, entry in enumerate(keys):
            if found[i] is not None:
                cache.stats.hits += 1
                continue
            payload = cache.get(entry)
            if payload is not None:
                found[i] = decode(payload, items[i])
                if _entries is not None:
                    _entries[entry] = found[i]
    missing = [i for i, value in enumerate(found) if value is None]
    if missing:
        for i, value in zip(missing, compute([items[i] for i in missing])):
            found[i] = value
            if cache is not None:
                cache.put(keys[i], value.to_payload())
            if _entries is not None:
                _entries[keys[i]] = value
    return found


__all__ = ["answer", "answers", "digest", "run"]
