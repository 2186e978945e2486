"""Resumable on-disk result store for campaign runs.

A campaign spends real compute per point, so an interrupted or re-run
campaign must not re-sample what it already estimated.  The store is a
JSON-lines file: one self-describing record per *completed* point,
appended (and flushed) the moment the point finalises, keyed by a
content fingerprint of everything that determines the point's tally —
the campaign spec (budget included), the point's position, its
code/noise/decoder/precision parameters and its seed material.  Two
consequences:

* **Resume is bit-identical.**  A record's tally is re-rendered into
  table rows through the same pure function a cold run uses
  (:func:`repro.core.sweep.tally_point_fields`), so a fully resumed
  campaign reproduces the cold run's tables exactly — with zero shots
  sampled.
* **Stale records are inert.**  Any change to the spec changes the
  campaign fingerprint embedded in every key, so old records simply
  stop matching; the file is append-only and never rewritten.

The format is deliberately tolerant of interruption: the bytes after
the last newline (the process died mid-append) are a torn tail, never a
record even when they parse, skipped on load and counted in
:attr:`ResultStore.skipped_lines`, never an error.  Every reader of the
file (load, ``repro store merge``, ``verify`` and ``repair``) frames,
classifies and folds it through the same three functions:
:func:`_split_lines`, :func:`_classify` and :func:`_fold_lease`.
Appends are crash-safe: each record is serialised to a single buffer
and written with one ``write`` + flush, so a crash tears at most the
final line — it never interleaves two records.
``REPRO_STORE_FSYNC=1`` adds an ``os.fsync`` per append for callers
who need the record durable against power loss, not just process
death.

Multi-writer coordination
-------------------------
The same file doubles as the lease log for multi-host campaigns
(``repro campaign --join``).  Lease events — ``claim``, ``renew``,
``release``, ``abandon`` — are ordinary JSONL records distinguished by
a ``type`` field, folded into per-key :class:`Lease` state strictly in
file order.  Because every append is a single ``write(2)`` on a file
opened in append mode (``O_APPEND``), records from concurrent writers
land whole at EOF and the file order is a total order every reader
agrees on — which is the entire race-resolution mechanism: the first
``claim`` in the file at a given epoch wins, full stop.  Lease events
appended by *this* process are deliberately **not** applied to local
state; the owner must :meth:`ResultStore.refresh` and read back the
folded state, so a rival's earlier claim is never shadowed by local
optimism.

Result records may carry a lease ``epoch``; resolution is epoch-aware
last-wins: a record at a lower epoch never supersedes one at a higher
epoch (a usurped worker's stale final cannot clobber the usurper's),
while records at equal epochs keep plain file-order last-wins.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.parallel.faults import InjectedFault, active_plan

__all__ = ["Lease", "LEASE_TYPES", "ResultStore", "fingerprint"]

#: Bump when the record layout changes incompatibly; loads ignore
#: records from other versions (they re-run rather than misread).
STORE_VERSION = 1

#: Record ``type`` values that are lease events, not results.
LEASE_TYPES = ("claim", "renew", "release", "abandon")

#: The :func:`_classify` kinds of a damaged line: :class:`ResultStore`
#: skips them, ``repro store verify`` reports them and
#: ``repro store repair`` drops them.
DAMAGED_KINDS = ("corrupt", "keyless", "malformed lease")


def fingerprint(payload: dict) -> str:
    """Stable content fingerprint of a JSON-serialisable payload.

    Canonical JSON (sorted keys, tight separators) through sha256 —
    the same dict always fingerprints identically across processes and
    sessions, and any changed value changes the digest.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class Lease:
    """Folded per-key lease state (the result of replaying the log).

    ``epoch`` is monotonic per key: every reclaim bumps it, so stale
    owners are recognisable by epoch alone even if their clock lies.
    ``renewed_at`` starts at the claim timestamp and advances with
    each accepted ``renew``; liveness is always judged against it.
    """

    key: str
    worker: str
    epoch: int
    ttl: float
    acquired_at: float
    renewed_at: float
    released: bool = False
    abandoned: bool = False

    def live(self, now: float) -> bool:
        """Whether the lease still excludes rival claims at ``now``."""
        return not self.released and now < self.renewed_at + self.ttl


def _parse_lease(record: dict
                 ) -> "tuple[str, str, int, float, float] | None":
    """A well-formed lease event's ``(key, worker, epoch, ts, ttl)``,
    or ``None`` when a field is missing or does not parse (which
    :func:`_classify` calls a ``"malformed lease"``).  ``ttl`` is a
    claim's (default 0); other events report 0.
    """
    try:
        worker = str(record["worker"])
        epoch = int(record["epoch"])
        ts = float(record["ts"])
        ttl = (float(record.get("ttl", 0.0))
               if record.get("type") == "claim" else 0.0)
    except (KeyError, TypeError, ValueError):
        return None
    return record["key"], worker, epoch, ts, ttl


def _split_lines(chunk: bytes) -> "tuple[list[bytes], bytes]":
    """Frame store bytes into ``(complete_lines, torn_tail)``, stripped.

    The one framing rule every reader shares: a line exists once its
    newline is on disk.  The bytes after the last newline are a torn
    tail (a writer died, or is still writing, mid-append) and never a
    record, whatever they hold; a blank tail comes back as ``b""``.
    """
    *lines, tail = chunk.split(b"\n")
    return [line.strip() for line in lines], tail.strip()


def _classify(line: bytes) -> "tuple[str, object]":
    """One verdict per complete line: ``(kind, record)``.

    ``kind`` is ``"blank"``, ``"corrupt"`` (not JSON), ``"keyless"``
    (not an object with a string ``key``), ``"foreign"`` (another
    :data:`STORE_VERSION`), ``"malformed lease"`` (:func:`_parse_lease`
    fails), ``"lease"`` or ``"result"``; ``record`` is the parsed JSON
    (``None`` for blank and corrupt lines).
    """
    if not line:
        return "blank", None
    try:
        record = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return "corrupt", None
    if not isinstance(record, dict) or not isinstance(record.get("key"), str):
        return "keyless", record
    if record.get("version") != STORE_VERSION:
        return "foreign", record
    if record.get("type") not in LEASE_TYPES:
        return "result", record
    if _parse_lease(record) is None:
        return "malformed lease", record
    return "lease", record


def _fold_lease(leases: "dict[str, Lease]", record: dict) -> str:
    """Apply one ``"lease"`` line to ``leases`` in file order; return
    what it did.

    ``"claimed"``; ``"overlap"`` (claimed over a lease that was neither
    released nor expired by its own timestamps); ``"lost"`` (a claim
    below the current epoch, or at it while that lease is unreleased);
    ``"renewed"``; ``"stale"`` (a renew after release); ``"released"``
    (release or abandon); ``"unmatched"`` (a renew, release or abandon
    whose worker and epoch are not the current lease's).
    """
    key, worker, epoch, ts, ttl = _parse_lease(record)
    rtype = record["type"]
    current = leases.get(key)
    if rtype == "claim":
        # First claim in file order wins at a given epoch; a higher
        # epoch (reclaim after expiry) always supersedes.
        if current is not None and (
                epoch < current.epoch
                or (epoch == current.epoch and not current.released)):
            return "lost"
        leases[key] = Lease(key=key, worker=worker, epoch=epoch, ttl=ttl,
                            acquired_at=ts, renewed_at=ts)
        if current is not None and current.live(ts):
            return "overlap"
        return "claimed"
    # Only the current owner at the current epoch can extend liveness
    # or let go; stale heartbeats from usurped workers are inert.
    if current is None or current.worker != worker or current.epoch != epoch:
        return "unmatched"
    if rtype == "renew":
        if current.released:
            return "stale"
        current.renewed_at = max(current.renewed_at, ts)
        return "renewed"
    current.released = True
    current.abandoned = rtype == "abandon"
    return "released"


def _epoch_of(record: dict) -> int:
    try:
        return int(record.get("epoch", 0))
    except (TypeError, ValueError):
        return 0


class ResultStore:
    """Append-only JSON-lines store of finalised campaign points.

    Records are dicts with at least ``key`` (the point fingerprint),
    ``failures`` and ``shots``; the campaign also records the point's
    parameters for human inspection.  ``get``/``__contains__`` address
    the winning record per key (epoch-aware last-wins), so a re-run
    that legitimately recomputes a point supersedes the old record
    without rewriting the file.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.skipped_lines = 0
        self.fsync = os.environ.get("REPRO_STORE_FSYNC") == "1"
        self._records: dict[str, dict] = {}
        #: Winner per key among *final* records only — a final landed
        #: by another process stays visible to mid-run adoption even
        #: after this run's own later partial checkpoints supersede it
        #: in the plain last-wins view.
        self._finals: dict[str, dict] = {}
        self._leases: dict[str, Lease] = {}
        self._appends = 0
        self._lease_appends = 0
        #: Byte offset of the first unconsumed byte: everything before
        #: it is complete lines already folded into memory.
        self._offset = 0
        #: File size at the last read — lets ``refresh`` no-op cheaply.
        self._size_seen = 0
        #: Whether the trailing torn fragment (bytes past ``_offset``)
        #: has already been counted in ``skipped_lines``.
        self._frag_counted = False
        self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        self._records.clear()
        self._finals.clear()
        self._leases.clear()
        self.skipped_lines = 0
        self._offset = 0
        self._size_seen = 0
        self._frag_counted = False
        self._read_new()

    def refresh(self) -> int:
        """Fold in records other processes appended since the last read.

        Returns the number of newly applied records (results + lease
        events).  Cheap when nothing changed: one ``stat``.  A file
        that shrank underneath us (truncated or replaced) triggers a
        full reload.
        """
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            size = 0
        if size < self._offset:
            self._load()
            return len(self._records)
        if size == self._size_seen:
            return 0
        return self._read_new()

    def _read_new(self) -> int:
        """Consume complete lines from ``_offset`` to EOF."""
        if not self.path.exists():
            return 0
        with self.path.open("rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        self._size_seen = self._offset + len(chunk)
        if not chunk:
            return 0
        if self._frag_counted:
            # The fragment's bytes are re-read below; un-count it so a
            # fragment later terminated by a rival's leading newline is
            # counted once as a (corrupt) complete line, not twice.
            self.skipped_lines -= 1
            self._frag_counted = False
        lines, tail = _split_lines(chunk)
        self._offset += chunk.rfind(b"\n") + 1
        applied = 0
        for line in lines:
            kind, record = _classify(line)
            if kind == "result":
                self._install(record)
                applied += 1
            elif kind == "lease":
                _fold_lease(self._leases, record)
                applied += 1
            elif kind != "blank":  # damaged, or another store version
                self.skipped_lines += 1
        if tail:
            # A torn tail (some writer died mid-append).  Count it now;
            # re-counted correctly if more bytes ever complete it.
            self.skipped_lines += 1
            self._frag_counted = True
        return applied

    def _install(self, record: dict) -> None:
        # Epoch-aware last-wins: equal epochs keep file-order
        # last-wins; a stale lower-epoch record never supersedes.
        current = self._records.get(record["key"])
        if current is None or _epoch_of(record) >= _epoch_of(current):
            self._records[record["key"]] = record
        if not record.get("partial"):
            final = self._finals.get(record["key"])
            if final is None or _epoch_of(record) >= _epoch_of(final):
                self._finals[record["key"]] = record

    # ------------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The winning record stored under ``key``, or ``None``."""
        return self._records.get(key)

    def final_for(self, key: str) -> dict | None:
        """The winning *final* (non-partial) record under ``key``.

        Unlike :meth:`get` this is not shadowed by a later partial
        checkpoint: mid-run adoption asks "has anyone, ever, finalised
        this point?" — our own in-flight stage log under the same key
        must not hide a rival's completed answer.
        """
        return self._finals.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[dict]:
        """All live result records (winner per key), in insertion order."""
        return list(self._records.values())

    def stats(self) -> dict:
        """JSON-safe inspection summary of the folded store state.

        What ``repro serve`` reports at ``GET /healthz``: live record
        counts (finals vs partial checkpoints), lease keys ever seen,
        skipped (torn/foreign) lines and the on-disk bytes as of the
        last read — enough to watch a shared store converge without
        parsing the file.
        """
        finals = sum(1 for record in self._records.values()
                     if not record.get("partial"))
        return {
            "path": str(self.path),
            "records": len(self._records),
            "final_records": finals,
            "partial_records": len(self._records) - finals,
            "lease_keys": len(self._leases),
            "skipped_lines": self.skipped_lines,
            "bytes_read": self._size_seen,
            "version": STORE_VERSION,
        }

    def lease_for(self, key: str) -> Lease | None:
        """Folded lease state for ``key`` as of the last read."""
        return self._leases.get(key)

    def leases(self) -> dict[str, Lease]:
        """Folded lease state for every key ever claimed."""
        return dict(self._leases)

    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Persist one finalised point (flushed before returning).

        The record is stamped with the store version; ``key`` is
        required.  Appending never rewrites existing lines, so a crash
        mid-append costs at most the one record being written.
        """
        if "key" not in record:
            raise ValueError("a store record needs a 'key'")
        record = dict(record, version=STORE_VERSION)
        self._write_line(record, lease=False)
        self._appends += 1
        self._install(record)

    def append_lease(self, record: dict) -> None:
        """Persist one lease event (claim/renew/release/abandon).

        The event is **not** applied to local state: race resolution is
        file order, so the caller must :meth:`refresh` and read back
        the folded state to learn whether its claim actually won.
        """
        for name in ("type", "key", "worker", "epoch", "ts"):
            if name not in record:
                raise ValueError(f"a lease record needs {name!r}")
        if record["type"] not in LEASE_TYPES:
            raise ValueError(f"unknown lease type {record['type']!r}")
        record = dict(record, version=STORE_VERSION)
        self._write_line(record, lease=True)
        self._lease_appends += 1

    def _write_line(self, record: dict, *, lease: bool) -> None:
        # One buffer, one write on an O_APPEND handle: a crash can tear
        # the tail of this line but never interleave it with another
        # record, even with concurrent writers on other hosts.  Probe
        # the file's actual last byte (not a cached flag — a *rival*
        # writer may have torn or repaired the tail since we last
        # looked) and lead with a newline if the tail is torn, so the
        # fragment stays isolated (and skippable) instead of corrupting
        # this append by concatenation.
        encoded = (json.dumps(record, sort_keys=True) + "\n").encode()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        plan = active_plan()
        with self.path.open("ab+") as handle:
            end = handle.seek(0, os.SEEK_END)
            lead = b""
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    lead = b"\n"
            data = lead + encoded
            torn = plan is not None and (
                plan.take_lease_tear(self._lease_appends) if lease
                else plan.take_store_tear(self._appends))
            if torn:
                # Simulated crash mid-write: persist only part of the
                # line (no newline) and die the way a real crash would.
                handle.write(data[:max(1, len(data) // 2)])
                handle.flush()
                kind = "lease" if lease else "store"
                count = self._lease_appends if lease else self._appends
                raise InjectedFault(
                    f"{kind} append torn after {count} records")
            handle.write(data)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
