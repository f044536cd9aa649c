"""Content-addressed on-disk cache of simulation results.

Cross-artifact duplicate work — fig 5.1, fig 5.2 and table 5.1 all
simulate several identical (trace, config) pairs — is computed once per
machine and replayed from disk afterwards.  Entries are addressed by the
SHA-256 of a canonical-JSON *key part* mapping that covers everything
able to change a result:

* the **trace fingerprint** (:attr:`repro.trace.record.Trace.fingerprint`
  — contents, not file name, so a regenerated trace misses cleanly);
* the **configuration** (TLB shape, page size or pair, index shift,
  policy parameters);
* the **kernel** requested (``scalar``/``vector``/``auto``);
* the **penalty model** (base penalty, two-size penalty factor);
* a ``version`` counter bumped whenever simulation semantics change.

Values are JSON documents wrapping the result payload with a CRC32.  A
corrupt, truncated or mismatched entry is **never trusted**: it is
deleted best-effort and the caller recomputes — the cache can only make
runs faster, never wrong.  Only an unusable cache *root* raises
(:class:`~repro.errors.CacheError`); see :meth:`SimulationCache.open`.

Every cached operation addresses its entries and stores its results
through the format here; no other module builds a key or a payload.  It
sits below every layer that caches, so the working sets, the paging
curves and the TLB drivers all share it without an upward import:

* **Keys.**  :func:`key` hashes ``{"version": CACHE_KEY_VERSION,
  "kind": kind, **parts}`` with :func:`canonical_key`.  The ten kinds
  are ``single``, ``policy``, ``split`` and ``twolevel``
  (:mod:`repro.sim.driver`), ``sweep`` (:mod:`repro.sim.sweep`),
  ``multiprog`` and ``multiprog2`` (:mod:`repro.sim.multiprog`),
  ``working_set`` (:mod:`repro.stacksim.working_set`), ``dynamic_ws``
  (:mod:`repro.policy.dynamic_ws`) and ``paging``
  (:mod:`repro.mem.pageout`); see ``docs/performance.md`` for the
  parts of each.  A study (:mod:`repro.studies`) keeps no entries of
  its own: its units call the drivers with the cache.
* **Payloads.**  Cached dataclasses derive from :class:`CachedValue`,
  whose codec follows the declared field types: ints and floats are
  cast to their type, enums are stored by value, sequences as lists and
  configurations as their ``cache_parts()``.  A configuration is part
  of the key, so on decode the caller hands the objects back instead
  of rebuilding them.  TLB results derive from
  :class:`repro.sim.kinds.CachedResult`, which adds the paper's
  metrics.
* **Lookup rules.**  The drivers, the working sets and the paging
  curves use :func:`lookup_all`: the keys that hit are replayed, and
  one pass simulates and stores only the missing ones (the vector
  two-size path builds only the families those configurations need; a
  paging curve runs only the missing budgets).  The sweep and the
  multiprogrammed grids group their misses themselves, so they look up
  each entry with :func:`lookup`.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import functools
import hashlib
import json
import os
import typing
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.errors import CacheError

R = TypeVar("R")
Payload = Dict[str, Any]


class CacheIntegrityWarning(UserWarning):
    """A corrupt cache entry was discarded and will be recomputed.

    Self-healing must be observable: silent discard-and-recompute makes
    a rotting disk look like a slow machine.  The warning names the
    entry; the per-process counter (:func:`corrupt_discarded_total`)
    feeds the suite report's ``cache_corrupt_discarded`` line.
    """


#: Process-wide count of corrupt entries discarded, across all cache
#: instances (a pool worker returns its share with each unit's outcome).
_CORRUPT_DISCARDED = 0


def corrupt_discarded_total() -> int:
    """Corrupt cache entries discarded by this process so far."""
    return _CORRUPT_DISCARDED


def _note_corrupt_entry(path: Path) -> None:
    global _CORRUPT_DISCARDED
    _CORRUPT_DISCARDED += 1
    warnings.warn(
        f"discarding corrupt result-cache entry {path} (recomputing)",
        CacheIntegrityWarning,
        stacklevel=3,
    )


#: Entry-file schema; bump on layout changes.
CACHE_SCHEMA = "repro-cache/1"
#: Simulation-semantics counter folded into every key.  ``2``: keys now
#: store the *resolved* kernel ("scalar"/"vector", never "auto") and the
#: two-size vector path moved to the epoch-segmented kernel.  ``3``: the
#: multiprogrammed path gained the ``"multiprog"`` kind (grid cells and
#: single runs share entries) and its mixes are built by the vectorized
#: round-robin mixer.  ``4``: FIFO/random replacement moved to the
#: sampled-set kernel (keys record ``"sampled"`` plus the ``exact``
#: flag), replacement RNGs are seeded from the configuration, and the
#: ``"twolevel"`` and ``"multiprog2"`` kinds joined the namespace.
CACHE_KEY_VERSION = 4


def canonical_key(parts: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of ``parts`` in canonical JSON form.

    ``parts`` must be JSON-serializable with only sortable string keys;
    the encoding is key-sorted and whitespace-free so logically equal
    mappings always hash identically.
    """
    encoded = json.dumps(
        dict(parts), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


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


class CachedValue:
    """Base of the cached dataclasses: the payload codec."""

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


def _payload_crc(payload: Any) -> int:
    encoded = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return zlib.crc32(encoded.encode("utf-8")) & 0xFFFFFFFF


def default_cache_root() -> Path:
    """The cache directory honouring ``REPRO_CACHE_DIR`` and XDG."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "results"


@dataclass
class CacheStats:
    """Counters for one cache instance (reset per process)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    discards: int = 0
    errors: int = 0


#: Memoized :meth:`SimulationCache.from_environment` instances, keyed by
#: stringified root.  One instance per root means hit/miss stats
#: accumulate across callers instead of resetting per lookup.
_ENV_CACHES: Dict[str, "SimulationCache"] = {}


@dataclass
class SimulationCache:
    """A content-addressed result store rooted at ``root``."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    @classmethod
    def open(cls, root: Union[str, os.PathLike]) -> "SimulationCache":
        """Create (mkdir -p) and return a cache at ``root``.

        Raises :class:`~repro.errors.CacheError` when the root cannot be
        created — a misconfigured cache should fail loudly up front, not
        as a per-unit failure mid-suite.
        """
        path = Path(root)
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise CacheError(
                f"cannot create result cache at {path}: {error}"
            ) from error
        return cls(path)

    @classmethod
    def from_environment(cls) -> Optional["SimulationCache"]:
        """The process-default cache, or None when disabled.

        ``REPRO_CACHE=0`` (or ``off``/``no``/``false``) disables caching;
        ``REPRO_CACHE_DIR`` relocates it.  Instances are memoized per
        root: hot paths (a sweep per bench repeat, a unit per
        experiment) call this freely without re-running ``mkdir -p``
        and losing the running hit/miss stats every time.  The memo is
        keyed on the *resolved* root, so flipping ``REPRO_CACHE_DIR``
        mid-process still yields the right cache.
        """
        flag = os.environ.get("REPRO_CACHE", "1").strip().lower()
        if flag in ("0", "off", "no", "false"):
            return None
        root = default_cache_root()
        key = str(root)
        cached = _ENV_CACHES.get(key)
        if cached is None:
            cached = cls.open(root)
            _ENV_CACHES[key] = cached
        return cached

    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the payload stored under ``key``, or None.

        Every failure mode — missing file, bad JSON, wrong schema, key
        mismatch, CRC mismatch — is a miss; corrupt entries are deleted
        so they are recomputed exactly once.
        """
        path = self._entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            document = json.loads(raw)
            if (
                not isinstance(document, dict)
                or document.get("schema") != CACHE_SCHEMA
                or document.get("key") != key
            ):
                raise ValueError("bad cache document")
            payload = document["payload"]
            if _payload_crc(payload) != int(document["crc"]):
                raise ValueError("payload checksum mismatch")
        except (ValueError, KeyError, TypeError):
            # Never trust a damaged entry: drop it and recompute.
            self.stats.discards += 1
            self.stats.misses += 1
            _note_corrupt_entry(path)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` (atomic; best effort).

        Write failures (read-only disk, quota) are counted but swallowed
        — a simulation that just produced a correct result must not fail
        because its cache write did.
        """
        path = self._entry_path(key)
        document = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "crc": _payload_crc(payload),
            "payload": payload,
        }
        temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            temporary.write_text(json.dumps(document, sort_keys=True))
            os.replace(temporary, path)
        except OSError:
            self.stats.errors += 1
            try:
                temporary.unlink()
            except OSError:
                pass
            return
        self.stats.stores += 1


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


__all__ = [
    "CACHE_KEY_VERSION",
    "CACHE_SCHEMA",
    "CacheIntegrityWarning",
    "CacheStats",
    "CachedValue",
    "SimulationCache",
    "canonical_key",
    "corrupt_discarded_total",
    "default_cache_root",
    "key",
    "lookup",
    "lookup_all",
]
