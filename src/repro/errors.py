"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` and
friends) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A simulation or hardware configuration is internally inconsistent.

    Examples: a page size that is not a power of two, a TLB with zero
    entries, or an associativity that does not divide the entry count.
    """


class PageSizeError(ConfigurationError):
    """A page size (or page-size pair) violates the paper's constraints.

    The paper requires page sizes to be powers of two and pages to be
    aligned on their own size; a two-page-size pair additionally requires
    the large size to be a multiple of the small size.
    """


class TraceError(ReproError):
    """A trace file or trace buffer is malformed or inconsistent."""


class TraceFormatError(TraceError):
    """A serialized trace does not conform to the on-disk format."""


class TraceIntegrityError(TraceError):
    """A trace file's payload checksum does not match its contents.

    Raised when an ``RPT2`` file parses structurally but its stored CRC32
    disagrees with the bytes actually read — bit rot, torn writes, or
    deliberate corruption (see :mod:`repro.robustness.faultinject`).
    """


class WorkloadError(ReproError):
    """A workload specification is invalid or an unknown workload was named."""


class SimulationError(ReproError):
    """A simulation was driven incorrectly (e.g. results read before run)."""


class AllocationError(ReproError):
    """The physical memory allocator could not satisfy a request."""


class ExperimentError(ReproError):
    """An experiment suite was driven incorrectly or could not proceed."""


class StudyError(ExperimentError):
    """A declarative study is malformed or could not be executed.

    Raised by :mod:`repro.studies` for schema violations (unknown unit
    kind, a factor naming no parameter, an unconsumed fixed parameter),
    for unreadable study declaration files, and — in strict runs — when
    any compiled unit fails after retries.
    """


class BenchmarkError(ReproError):
    """A benchmark run or baseline comparison could not proceed.

    Raised by ``repro-bench`` when a baseline file is missing, corrupt,
    or from an incompatible suite — conditions distinct from a measured
    regression, which is reported through the comparison result (and a
    different exit code) rather than an exception.
    """


class DeadlineExceededError(ExperimentError):
    """A per-experiment wall-clock deadline expired before completion."""


class ParallelError(ReproError):
    """Process fan-out was driven incorrectly (e.g. a negative ``jobs``)."""


class WorkerCrashError(ParallelError):
    """A worker process died without reporting a result.

    Recorded as a unit failure when a forked worker disappears mid-unit
    — segfault, OOM kill, ``os._exit`` — rather than failing with a
    Python exception it could report back.
    """


class CacheError(ReproError):
    """A result-cache directory could not be created or written.

    Corrupt cache *entries* never raise — they are discarded and
    recomputed — but an unusable cache root is a configuration problem
    worth surfacing.
    """


class JournalError(ReproError):
    """A run journal is unreadable, corrupt, or from an incompatible run.

    Raised when a checkpoint journal's meta line is missing or its
    fingerprint (scale, seed, generator version) does not match the run
    being resumed, or when a non-final journal line is corrupt.  A torn
    *final* line — the signature of a crash mid-write — is tolerated and
    dropped, since re-running that one unit is exactly what resume is for.
    """
