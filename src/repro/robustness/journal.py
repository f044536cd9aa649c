"""Checkpoint/resume journal for long-running experiment suites.

The paper's economics (Hill–Smith all-associativity simulation) make one
trace pass expensive and its results precious; this journal is the
software analogue of not throwing a pass away.  Each completed unit of
work — one (experiment, trace, config) — is appended as one JSON line to
an append-only journal, and a resumed run skips every unit already
recorded as successful.

Journal layout (one JSON object per line)::

    {"type": "meta", "version": 1, "fingerprint": {...}}     # first line
    {"type": "unit", "unit": "...", "status": "ok", ...}      # one per unit
    {"type": "unit", "unit": "...", "status": "failed", ...}

Every line carries a ``"crc"`` field: the CRC32 of the line's canonical
JSON with the ``crc`` key removed.  On load, a corrupt *final* line (the
signature of a crash mid-append) is dropped — and truncated from the
file, so later appends start on a clean line — and its unit simply
re-runs; a corrupt line anywhere earlier raises
:class:`~repro.errors.JournalError`, because silently skipping completed
work in the middle of the record could double-run side-effecting units.

The ``fingerprint`` pins the run parameters (scale, seed, generator
version).  Resuming against a journal whose fingerprint differs raises
:class:`~repro.errors.JournalError` — results recorded at one scale must
never satisfy a run at another.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.errors import JournalError

PathLike = Union[str, os.PathLike]

JOURNAL_VERSION = 1

STATUS_OK = "ok"
STATUS_FAILED = "failed"


def _line_crc(record: Dict[str, Any]) -> int:
    """CRC32 of the record's canonical JSON without its ``crc`` field."""
    stripped = {key: value for key, value in record.items() if key != "crc"}
    canonical = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF


def _encode_line(record: Dict[str, Any]) -> str:
    record = dict(record)
    record["crc"] = _line_crc(record)
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class UnitRecord:
    """One journaled unit of work."""

    unit: str
    status: str
    elapsed: float = 0.0
    attempts: int = 1
    error: Optional[str] = None
    traceback: Optional[str] = None
    payload: Optional[Dict[str, Any]] = None

    @property
    def succeeded(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class RunJournal:
    """Append-only JSONL checkpoint journal.

    Opening a path that does not exist creates it (writing the meta
    line); opening an existing journal replays its units into memory.
    ``fingerprint`` is compared against the stored one when replaying —
    pass ``None`` to skip the check (read-only inspection).
    """

    path: PathLike
    fingerprint: Optional[Dict[str, Any]] = None
    _records: Dict[str, UnitRecord] = field(default_factory=dict, repr=False)
    _dropped_torn_line: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if os.path.exists(self.path):
            self._replay()
        else:
            self._write_line(
                {
                    "type": "meta",
                    "version": JOURNAL_VERSION,
                    "fingerprint": self.fingerprint or {},
                }
            )

    # -- loading ---------------------------------------------------------

    def _replay(self) -> None:
        with open(self.path, "rb") as stream:
            blob = stream.read()
        raw_lines = blob.split(b"\n")
        if raw_lines and raw_lines[-1] == b"":
            raw_lines.pop()
        if not raw_lines:
            raise JournalError(f"{self.path}: journal is empty (no meta line)")
        parsed: List[Dict[str, Any]] = []
        valid_end = 0  # byte offset just past the last valid line
        for index, raw_bytes in enumerate(raw_lines):
            try:
                record = self._decode_line(raw_bytes.decode("utf-8"))
            except UnicodeDecodeError:
                record = None
            if record is None:
                if index == len(raw_lines) - 1:
                    # Torn final line from a crash mid-append: drop it —
                    # its unit re-runs, which is what resume is for.
                    # Physically truncate the fragment so the next append
                    # starts on a clean line instead of merging with it.
                    self._dropped_torn_line = True
                    os.truncate(self.path, valid_end)
                    continue
                raise JournalError(
                    f"{self.path}:{index + 1}: corrupt journal line "
                    f"(not torn-tail; refusing to guess which work is done)"
                )
            parsed.append(record)
            valid_end = min(valid_end + len(raw_bytes) + 1, len(blob))
        if not parsed or parsed[0].get("type") != "meta":
            raise JournalError(f"{self.path}: missing meta line")
        meta = parsed[0]
        if meta.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"{self.path}: journal version {meta.get('version')!r} "
                f"!= supported {JOURNAL_VERSION}"
            )
        stored = meta.get("fingerprint") or {}
        if self.fingerprint is not None and stored != self.fingerprint:
            raise JournalError(
                f"{self.path}: journal fingerprint {stored} does not match "
                f"this run {self.fingerprint}; delete the journal or rerun "
                f"at the recorded scale"
            )
        for record in parsed[1:]:
            if record.get("type") != "unit":
                continue
            self._records[record["unit"]] = UnitRecord(
                unit=record["unit"],
                status=record.get("status", STATUS_FAILED),
                elapsed=float(record.get("elapsed", 0.0)),
                attempts=int(record.get("attempts", 1)),
                error=record.get("error"),
                traceback=record.get("traceback"),
                payload=record.get("payload"),
            )

    @staticmethod
    def _decode_line(raw: str) -> Optional[Dict[str, Any]]:
        """Parse and CRC-check one line; None when unusable."""
        raw = raw.strip()
        if not raw:
            return None
        try:
            record = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(record, dict) or "crc" not in record:
            return None
        if _line_crc(record) != record["crc"]:
            return None
        return record

    # -- recording -------------------------------------------------------

    def _write_line(self, record: Dict[str, Any]) -> None:
        # A crash can leave the file without a trailing newline (e.g. a
        # partial append that happens to end exactly at the JSON's last
        # byte, which CRC-checks as valid).  Never append onto such a
        # tail: the two records would merge into one corrupt line.
        needs_newline = False
        try:
            with open(self.path, "rb") as stream:
                stream.seek(-1, os.SEEK_END)
                needs_newline = stream.read(1) != b"\n"
        except OSError:
            pass  # missing or empty file: nothing to terminate
        with open(self.path, "a", encoding="utf-8") as stream:
            if needs_newline:
                stream.write("\n")
            stream.write(_encode_line(record) + "\n")
            stream.flush()
            os.fsync(stream.fileno())

    def record_success(
        self,
        unit: str,
        *,
        elapsed: float = 0.0,
        attempts: int = 1,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Journal ``unit`` as completed (latest record for a unit wins)."""
        record = UnitRecord(
            unit=unit,
            status=STATUS_OK,
            elapsed=elapsed,
            attempts=attempts,
            payload=payload,
        )
        self._write_line(self._to_json(record))
        self._records[unit] = record

    def record_failure(
        self,
        unit: str,
        *,
        error: str,
        traceback: Optional[str] = None,
        elapsed: float = 0.0,
        attempts: int = 1,
    ) -> None:
        """Journal ``unit`` as FAILED with its error for the report."""
        record = UnitRecord(
            unit=unit,
            status=STATUS_FAILED,
            elapsed=elapsed,
            attempts=attempts,
            error=error,
            traceback=traceback,
        )
        self._write_line(self._to_json(record))
        self._records[unit] = record

    @staticmethod
    def _to_json(record: UnitRecord) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "type": "unit",
            "unit": record.unit,
            "status": record.status,
            "elapsed": round(record.elapsed, 6),
            "attempts": record.attempts,
        }
        if record.error is not None:
            data["error"] = record.error
        if record.traceback is not None:
            data["traceback"] = record.traceback
        if record.payload is not None:
            data["payload"] = record.payload
        return data

    # -- queries ---------------------------------------------------------

    def completed(self, unit: str) -> bool:
        """True when ``unit``'s latest record is a success."""
        record = self._records.get(unit)
        return record is not None and record.succeeded

    def get(self, unit: str) -> Optional[UnitRecord]:
        return self._records.get(unit)

    @property
    def units(self) -> Dict[str, UnitRecord]:
        """Latest record per unit, in insertion order."""
        return dict(self._records)

    @property
    def failures(self) -> List[UnitRecord]:
        return [r for r in self._records.values() if not r.succeeded]

    @property
    def dropped_torn_line(self) -> bool:
        """True when loading dropped a torn (partially written) final line."""
        return self._dropped_torn_line


__all__ = [
    "JOURNAL_VERSION",
    "RunJournal",
    "STATUS_FAILED",
    "STATUS_OK",
    "UnitRecord",
]
