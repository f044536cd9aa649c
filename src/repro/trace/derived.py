"""Run-scoped derivation store: each trace's derived answers, once per run.

The experiments of one ``repro-experiments`` run ask the same traces the
same questions: the sliding-window events behind every dynamic decision
stream, a policy's decision stream, a TLB geometry's two-size counts, a
set family's miss curve, a working-set average.  Inside :func:`run`
each answer is computed once and served from memory afterwards; outside
a run every call computes directly, so library callers, the tests and
``repro-bench``'s timed repeats see no memo at all.

* **Keys** are content, never object identity.  A key is the JSON of
  its parts, where a :class:`~repro.trace.record.Trace` stands for its
  fingerprint, an array for :func:`digest` of its bytes, a NumPy
  integer for its ``int`` and a configuration for its
  ``cache_parts()``.  Callers include the parameters and the resolved
  kernel, so a scalar request never reads a vector answer.  A part
  that is None (an uncacheable policy's token) marks the answer as
  not storable: it is computed directly.
* **Values** are compact answers only — packed bits, transition
  indices, counters, miss curves, averages — never the per-reference
  working arrays a pass builds on the way (family depth arrays, event
  plans, dense decision arrays), so a run holds a small fraction of
  its traces' size.
* **Lifetime** is the ``with run():`` block.  The store is
  process-local: pool workers forked inside the block start from the
  parent's store and each fills its own.
* **Disk** comes after the store: where an answer is also a
  result-cache kind (the single-size and dynamic working sets), the
  compute callback reads and fills the cache, so a run reads each entry
  once.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, TypeVar

import numpy as np

from repro.trace.record import Trace

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
    array = np.ascontiguousarray(array)
    hasher = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode("ascii"))
    hasher.update(array.data)
    return hasher.hexdigest()


def _encode(part: Any) -> Any:
    if isinstance(part, Trace):
        return part.fingerprint
    if isinstance(part, np.integer):
        return int(part)
    if isinstance(part, np.ndarray):
        return digest(part)
    if hasattr(part, "cache_parts"):
        return part.cache_parts()
    raise TypeError(f"cannot key a derived answer by {type(part).__name__}")


def _key(parts: Sequence[Any]) -> Optional[str]:
    """The store key of ``parts``; None when no store is open or a part is None."""
    if _entries is None or any(part is None for part in parts):
        return None
    return json.dumps(parts, default=_encode, sort_keys=True, separators=(",", ":"))


def lookup(*parts: Any) -> Optional[Any]:
    """The answer stored under ``parts`` in the open run, or None."""
    key = _key(parts)
    return None if key is None else _entries.get(key)


def store(value: Any, *parts: Any) -> None:
    """Keep ``value`` under ``parts`` for the rest of the open run."""
    key = _key(parts)
    if key is not None:
        _entries[key] = value


def derive(compute: Callable[[], T], *parts: Any) -> T:
    """The answer under ``parts``, computed on first request in a run."""
    key = _key(parts)
    if key is None:
        return compute()
    value = _entries.get(key)
    if value is None:
        value = _entries[key] = compute()
    return value


def derive_each(
    compute: Callable[[List[Item]], Sequence[T]], items: Sequence[Item], *parts: Any
) -> List[T]:
    """One answer per item, keyed ``(*parts, item)``; computes only the missing.

    ``compute(missing)`` answers the items the run lacks, in order.
    """
    keys = [_key((*parts, item)) for item in items]
    answers = [None if key is None else _entries.get(key) for key in keys]
    missing = [i for i, answer in enumerate(answers) if answer is None]
    if missing:
        computed = compute([items[i] for i in missing])
        for i, answer in zip(missing, computed):
            answers[i] = answer
            if keys[i] is not None:
                _entries[keys[i]] = answer
    return answers


__all__ = ["derive", "derive_each", "digest", "lookup", "run", "store"]
