"""The result-cache format of every simulation kind, in one place.

Each cached simulation addresses its entries here and stores its results
through the codec here; no other module builds a key or a payload:

* **Keys.**  :func:`key` hashes ``{"version": CACHE_KEY_VERSION,
  "kind": kind, **parts}`` with
  :func:`~repro.parallel.cache.canonical_key`.  The kinds are
  ``single``, ``policy``, ``split`` and ``twolevel``
  (:mod:`repro.sim.driver`), ``sweep`` (:mod:`repro.sim.sweep`),
  ``multiprog`` and ``multiprog2`` (:mod:`repro.sim.multiprog`) and
  ``study`` (the run IDs of :mod:`repro.studies.engine`); see
  ``docs/performance.md`` for the parts of each.
* **Payloads.**  Result dataclasses derive from :class:`CachedResult`,
  whose codec follows the declared field types: ints and floats are
  cast to their type, enums are stored by value, sequences as lists and
  configurations as their ``cache_parts()``.  A configuration is part
  of the key, so on decode the caller hands the objects back instead
  of rebuilding them.
* **Lookup rules.**  The drivers use :func:`lookup_all`: the keys
  that hit are replayed, and one pass simulates and stores only the
  missing ones (the vector two-size path builds only the families
  those configurations need).  The sweep and the multiprogrammed
  grids group their misses themselves, so they look up each entry
  with :func:`lookup`.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import functools
import typing
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.metrics.cpi import TLBPerformance
from repro.parallel.cache import CACHE_KEY_VERSION, SimulationCache, canonical_key

R = TypeVar("R")
Payload = Dict[str, Any]


def key(kind: str, **parts: Any) -> str:
    """Content address of one ``kind`` entry described by ``parts``."""
    return canonical_key({"version": CACHE_KEY_VERSION, "kind": kind, **parts})


def _same(value: Any) -> Any:
    return value


def _value(member: enum.Enum) -> Any:
    return member.value


def _cache_parts(config: Any) -> Dict[str, Any]:
    return config.cache_parts()


def _field_codec(hint: Any) -> Tuple[Callable, Optional[Callable]]:
    """(encode, decode) for one declared type; decode None: handed back."""
    if hint is int or hint is float:
        return hint, hint
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return _value, hint
    if hasattr(hint, "cache_parts"):
        return _cache_parts, None
    if typing.get_origin(hint) is collections.abc.Sequence:
        return list, tuple
    return _same, _same


@functools.lru_cache(maxsize=None)
def _codec(cls: type) -> Tuple[Tuple[str, Callable, Optional[Callable]], ...]:
    """Per field of ``cls``: (name, encode, decode), resolved once."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, *_field_codec(hints[f.name])) for f in dataclasses.fields(cls)
    )


class CachedResult:
    """Base of the cached result dataclasses: payload codec and metrics.

    Subclasses declare ``misses``, ``references``,
    ``refs_per_instruction`` and ``miss_penalty_cycles``; one that
    charges cycles beyond miss handling overrides :attr:`extra_cycles`.
    """

    #: Cycles charged on top of ``misses * miss_penalty_cycles``.
    extra_cycles = 0.0

    @property
    def performance(self) -> TLBPerformance:
        """This run's metrics in the paper's units."""
        return TLBPerformance(
            misses=self.misses,
            references=self.references,
            refs_per_instruction=self.refs_per_instruction,
            miss_penalty_cycles=self.miss_penalty_cycles,
            extra_cycles=self.extra_cycles,
        )

    @property
    def cpi_tlb(self) -> float:
        """Shorthand for ``performance.cpi_tlb``."""
        return self.performance.cpi_tlb

    @property
    def miss_ratio(self) -> float:
        """Shorthand for ``performance.miss_ratio``."""
        return self.performance.miss_ratio

    def to_payload(self) -> Payload:
        """JSON-serializable form, for the result cache."""
        return {
            name: encode(getattr(self, name))
            for name, encode, _ in _codec(type(self))
        }

    @classmethod
    def from_payload(cls, payload: Payload, *configs: Any):
        """Rebuild a result stored by :meth:`to_payload`.

        ``configs`` are the configuration objects the entry was keyed
        with, in field order.
        """
        handed_back = iter(configs)
        return cls(
            **{
                name: next(handed_back) if decode is None else decode(payload[name])
                for name, _, decode in _codec(cls)
            }
        )


def lookup(
    cache: SimulationCache,
    entry_key: str,
    decode: Callable[..., R],
    *configs: Any,
) -> Optional[R]:
    """Per-entry rule: the decoded entry under ``entry_key``, or None."""
    payload = cache.get(entry_key)
    return None if payload is None else decode(payload, *configs)


def lookup_all(
    cache: Optional[SimulationCache],
    keys: Optional[Sequence[str]],
    decode: Callable[..., R],
    configs: Sequence[Tuple[Any, ...]],
    run: Callable[[List[int]], List[R]],
) -> List[R]:
    """Replay the keys that hit; simulate and store only the rest.

    ``keys`` is None when the run is not cacheable (no cache, or a
    policy without a cache token): ``run`` then simulates every entry.
    Otherwise a hit ``i`` is decoded with ``configs[i]`` handed back,
    and ``run(missing)`` simulates the missing indices, in order.
    """
    if keys is None:
        return run(list(range(len(configs))))
    payloads = [cache.get(entry_key) for entry_key in keys]
    results = [
        None if payload is None else decode(payload, *given)
        for payload, given in zip(payloads, configs)
    ]
    missing = [i for i, payload in enumerate(payloads) if payload is None]
    if missing:
        for i, result in zip(missing, run(missing)):
            results[i] = result
            cache.put(keys[i], result.to_payload())
    return results


__all__ = ["CachedResult", "key", "lookup", "lookup_all"]
