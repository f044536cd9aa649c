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

Values are JSON documents wrapping the result payload with a CRC32,
appended as records to segment files.  A corrupt, truncated or
mismatched record is **never trusted**: it is discarded and the caller
recomputes, appending a record that supersedes it — the cache can only
make runs faster, never wrong.  Only an unusable cache *root* raises
(:class:`~repro.errors.CacheError`); see :meth:`SimulationCache.open`.

The layout is known to this module alone:

* **Segments.**  The root holds append-only files named
  ``<time_ns>-<pid>.seg``, one per writing process; a forked worker
  opens its own and never appends to its parent's.  Each record is one
  line, ``<key> <document>\\n``, written with one ``write()``; the
  document is the sorted-key JSON of ``{schema, key, crc, payload}``.
* **The latest record wins.**  Segments are read in name (creation)
  order and a later record of a key supersedes an earlier one; a
  process whose segment sorts before a record it discards starts a new
  segment, so the recomputed record always comes later.
* **Torn lines.**  A line without its newline (a writer still writing,
  or killed) is never indexed.  After a failed write the process starts
  a new segment, so no record is glued to a torn one.
* **Lookups.**  Each instance indexes record *locations*, not payloads:
  a hit reads and checks the bytes on disk.  On a miss it indexes what
  live writers (the pid in a segment's name) appended since its last
  look, and lists the root again only when the root's mtime moved, so a
  miss never re-reads a finished writer's segment and costs the same
  however long the cache's history.

Files of the earlier one-file-per-entry layout (``<key[:2]>/<key>.json``)
are neither read nor deleted; those directories can be removed.
:func:`records` lists the records under a root, for tests and tooling.

Every cached answer is addressed and stored through the format here,
and only :mod:`repro.trace.derived` reads or writes it: its
:func:`~repro.trace.derived.answers` is the one lookup rule (the open
run's store, then this cache, then a pass for the missing answers
only), so no other module builds a key or calls :meth:`SimulationCache.get`
or :meth:`SimulationCache.put`.  The format sits below every layer that
caches, so the working sets, the paging curves and the TLB drivers all
share it without an upward import:

* **Keys.**  :func:`key` hashes ``{"version": CACHE_KEY_VERSION,
  "kind": kind, **parts}`` with :func:`canonical_key`.  The nine kinds
  are ``single``, ``policy``, ``split`` and ``twolevel``
  (:mod:`repro.sim.driver`), ``sweep`` (:mod:`repro.sim.sweep`),
  ``multiprog`` (:mod:`repro.sim.multiprog`), ``working_set``
  (:mod:`repro.stacksim.working_set`), ``dynamic_ws``
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
"""

from __future__ import annotations

import collections.abc
import dataclasses
import enum
import functools
import hashlib
import json
import os
import re
import time
import typing
import warnings
import weakref
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.errors import CacheError

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


def _note_corrupt_entry(key: str, path: str) -> None:
    global _CORRUPT_DISCARDED
    _CORRUPT_DISCARDED += 1
    warnings.warn(
        f"discarding corrupt result-cache entry {key} in {path} (recomputing)",
        CacheIntegrityWarning,
        stacklevel=3,
    )


#: Record-document schema; bump on layout changes.  ``2``: records
#: appended to per-process segment files replaced one file per entry.
CACHE_SCHEMA = "repro-cache/2"
#: Simulation-semantics counter folded into every key.  ``2``: keys now
#: store the *resolved* kernel ("scalar"/"vector", never "auto") and the
#: two-size vector path moved to the epoch-segmented kernel.  ``3``: the
#: multiprogrammed path gained the ``"multiprog"`` kind (grid cells and
#: single runs share entries) and its mixes are built by the vectorized
#: round-robin mixer.  ``4``: FIFO/random replacement moved to the
#: sampled-set kernel (keys record ``"sampled"`` plus the ``exact``
#: flag), replacement RNGs are seeded from the configuration, and the
#: ``"twolevel"`` kind joined the namespace (with a multiprogrammed
#: two-size kind, since deleted).
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


#: A segment file's name: ``<time_ns>-<pid>.seg``, which sorts by
#: creation time.
_SEGMENT_NAME = re.compile(r"\d+-([1-9]\d*)\.seg")
#: The root's mtime shows every segment created since it was read only
#: once it is this old: two changes within one timestamp tick leave the
#: directory one mtime.
_SETTLED_NS = 100_000_000
#: Segments are bytes (no newline translation where that exists).
_BINARY = getattr(os, "O_BINARY", 0)


@dataclass(eq=False)
class _Segment:
    """One segment file, as far as this instance has indexed it."""

    name: str
    path: str
    pid: int
    #: Bytes indexed so far; always just past a newline.
    indexed: int = 0


class _Writer(NamedTuple):
    """The segment one process appends to, and how to close it."""

    fd: int
    segment: _Segment
    close: Callable[[], Any]


@dataclass(frozen=True)
class Record:
    """One complete record of a segment file (see :func:`records`)."""

    path: Path
    #: Offset of the document in the segment.
    offset: int
    key: str
    document: bytes


def _segment_names(root: Union[str, os.PathLike]) -> List[str]:
    """The segment file names under ``root``, in name order."""
    return sorted(name for name in os.listdir(root) if _SEGMENT_NAME.fullmatch(name))


def _lines(data: bytes, base: int) -> Iterator[Tuple[str, int, int]]:
    """(key, document offset, document length) of each complete line.

    ``data`` holds the bytes of a segment from offset ``base``; a line
    without its newline is not a record yet.
    """
    start, last = 0, data.rfind(b"\n")
    while start <= last:
        end = data.find(b"\n", start)
        space = data.find(b" ", start, end)
        if space > start:
            key = data[start:space].decode("latin-1")
            yield key, base + space + 1, end - space - 1
        start = end + 1


def records(root: Union[str, os.PathLike]) -> List[Record]:
    """Every complete record under ``root``, segment by segment in name order.

    A key may have several records; a lookup reads its last one.
    """
    found = []
    for name in _segment_names(root):
        path = Path(root) / name
        data = path.read_bytes()
        for key, offset, length in _lines(data, 0):
            found.append(Record(path, offset, key, data[offset : offset + length]))
    return found


def _alive(pid: int) -> bool:
    """Whether process ``pid`` may still append to its segment."""
    if os.name != "posix":
        return True
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:
        pass
    return True


@dataclass
class CacheStats:
    """Counters for one cache instance (reset per process).

    ``hits`` also counts answers the open derivation run already held
    (:mod:`repro.trace.derived`), so a lookup served from memory reads
    as replayed, as one served from disk does.
    """

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

    def __post_init__(self) -> None:
        #: key -> (segment, offset, length) of its latest record's document.
        self._index: Dict[str, Tuple[_Segment, int, int]] = {}
        #: Names of the segments seen, and those whose writer may append.
        self._seen: Set[str] = set()
        self._growing: List[_Segment] = []
        #: The root's mtime at its last settled listing.
        self._listed: Optional[int] = None
        self._writer: Optional[_Writer] = None

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

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the payload stored under ``key``, or None.

        Every failure mode — no record, bad JSON, wrong schema, key
        mismatch, CRC mismatch — is a miss; a corrupt record is
        discarded, so it is recomputed exactly once.
        """
        location = self._index.get(key)
        if location is None:
            self._catch_up()
            location = self._index.get(key)
            if location is None:
                self.stats.misses += 1
                return None
        segment, offset, length = location
        try:
            fd = os.open(segment.path, os.O_RDONLY | _BINARY)
            try:
                os.lseek(fd, offset, os.SEEK_SET)
                raw = os.read(fd, length)
            finally:
                os.close(fd)
        except OSError:
            del self._index[key]  # the segment was removed
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
            # Never trust a damaged record: drop it and recompute.
            del self._index[key]
            self.stats.discards += 1
            self.stats.misses += 1
            _note_corrupt_entry(key, segment.path)
            writer = self._writer
            if writer is not None and writer.segment.name < segment.name:
                self._drop_writer()  # the recomputed record must sort later
            return None
        self.stats.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Append ``payload`` under ``key`` to this process's segment.

        Write failures (read-only disk, quota) are counted but swallowed
        — a simulation that just produced a correct result must not fail
        because its cache write did.  The next put starts a new segment.
        """
        document = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "crc": _payload_crc(payload),
            "payload": payload,
        }
        head = f"{key} ".encode("utf-8")
        line = head + json.dumps(document, sort_keys=True).encode("utf-8") + b"\n"
        try:
            writer = self._writer_here()
            if os.write(writer.fd, line) != len(line):
                raise OSError("short write to a result-cache segment")
        except OSError:
            self.stats.errors += 1
            self._drop_writer()
            return
        segment = writer.segment
        document_length = len(line) - len(head) - 1
        self._index[key] = (segment, segment.indexed + len(head), document_length)
        segment.indexed += len(line)
        self.stats.stores += 1

    def _writer_here(self) -> _Writer:
        """This process's segment, created with the first record."""
        pid = os.getpid()
        if self._writer is not None and self._writer.segment.pid == pid:
            return self._writer
        self._drop_writer()
        os.makedirs(self.root, exist_ok=True)
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_EXCL | _BINARY
        while True:
            name = f"{time.time_ns():020d}-{pid}.seg"
            path = os.path.join(self.root, name)
            try:
                fd = os.open(path, flags, 0o666)
                break
            except FileExistsError:
                continue
        segment = _Segment(name, path, pid)
        self._seen.add(name)
        self._growing.append(segment)
        self._writer = _Writer(fd, segment, weakref.finalize(self, os.close, fd))
        return self._writer

    def _drop_writer(self) -> None:
        """Stop appending to the current segment; the next put opens one."""
        writer, self._writer = self._writer, None
        if writer is None:
            return
        writer.close()
        if writer.segment.pid == os.getpid():
            self._growing.remove(writer.segment)  # it no longer grows

    def _catch_up(self) -> None:
        """Index what writers appended since this instance last looked."""
        try:
            mtime = os.stat(self.root).st_mtime_ns
            if mtime != self._listed:
                for name in _segment_names(self.root):
                    if name not in self._seen:
                        self._seen.add(name)
                        pid = int(_SEGMENT_NAME.fullmatch(name).group(1))
                        path = os.path.join(self.root, name)
                        self._growing.append(_Segment(name, path, pid))
                settled = time.time_ns() - mtime > _SETTLED_NS
                self._listed = mtime if settled else None
        except OSError:
            return  # no root yet: nothing was written
        self._growing = [segment for segment in self._growing if self._read(segment)]

    def _read(self, segment: _Segment) -> bool:
        """Index a segment's new complete lines; False once it is final."""
        own = self._writer is not None and segment is self._writer.segment
        if own and segment.pid == os.getpid():
            return True  # this process's segment: indexed as written
        growing = _alive(segment.pid)  # before reading: no append after
        try:
            if os.stat(segment.path).st_size > segment.indexed:
                with open(segment.path, "rb") as stream:
                    stream.seek(segment.indexed)
                    data = stream.read()
                index = self._index
                for key, offset, length in _lines(data, segment.indexed):
                    latest = index.get(key)
                    if (
                        latest is None
                        or latest[0] is segment
                        or latest[0].name < segment.name
                    ):
                        index[key] = (segment, offset, length)
                segment.indexed += data.rfind(b"\n") + 1
        except OSError:
            return False  # the segment was removed
        return growing


__all__ = [
    "CACHE_KEY_VERSION",
    "CACHE_SCHEMA",
    "CacheIntegrityWarning",
    "CacheStats",
    "CachedValue",
    "Record",
    "SimulationCache",
    "canonical_key",
    "corrupt_discarded_total",
    "default_cache_root",
    "key",
    "records",
]
