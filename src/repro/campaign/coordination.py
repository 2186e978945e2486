"""Multi-host campaign coordination: leases, liveness, merge, verify.

N campaign processes on N hosts sharing one store directory partition
one global shot budget by *claiming* points — no coordinator process,
no RPCs, no lock files.  Every coordination primitive is a single
flushed JSONL append to the shared :class:`~repro.campaign.store.ResultStore`
(claim / renew / release / abandon), so the coordination path stays as
thin as the result path and the race arbiter is the filesystem itself:
appends on an ``O_APPEND`` handle land whole at EOF, file order is a
total order every reader agrees on, and **the first claim in the file
at a given epoch wins** — a worker learns whether it won by refreshing
and reading back the folded lease state, never by trusting its own
append.

Liveness is heartbeat renewals: a worker renews its held leases every
``ttl / 3`` while sampling.  A lease whose ``renewed_at + ttl`` passed
is *reclaimable*: any worker may claim it at ``epoch + 1``, which
supersedes the stale owner deterministically (epochs are monotonic per
key).  The usurped owner — alive but slow, or partitioned — discovers
the loss at its next heartbeat, raises :class:`LeaseLost`, forfeits
the point's un-flushed work, and moves on; the usurper resumes from
the per-stage checkpoints already in the store, so the crash/usurp
cost is bounded by one un-checkpointed stage.

This module also owns the store *tooling* behind ``repro store``:

* :func:`merge_stores` — fold per-host stores into one canonical file,
  bit-identically under any input order, reporting conflicts;
* :func:`verify_store` — offline consistency check (torn tail, corrupt
  lines, lease-log violations), the thing to run before trusting a
  store that survived a crash;
* :func:`repair_store` — drop what :func:`verify_store` flagged,
  keeping every healthy record.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from secrets import token_hex

from repro.campaign.store import (
    DAMAGED_KINDS,
    Lease,
    ResultStore,
    _classify,
    _epoch_of,
    _fold_lease,
    _parse_lease,
    _split_lines,
)
from repro.parallel.faults import InjectedFault, active_plan

__all__ = [
    "LeaseLost",
    "LeaseManager",
    "WorkerIdentity",
    "merge_stores",
    "repair_store",
    "verify_store",
]


class LeaseLost(RuntimeError):
    """This worker's lease on a key was usurped (or expired unrenewed).

    Raised from :meth:`LeaseManager.heartbeat` between sampling stages;
    the orchestrator catches it, forfeits the point's un-flushed work
    and leaves the point to whoever holds the lease now."""

    def __init__(self, key: str) -> None:
        super().__init__(f"lease lost on {key[:16]}...")
        self.key = key


@dataclass(frozen=True)
class WorkerIdentity:
    """Who holds a lease: host, pid and a random token.

    The token disambiguates pid reuse (a rebooted host can hand the
    same pid to a new campaign process) — equality of the full triple
    is the ownership test, never host+pid alone."""

    host: str
    pid: int
    token: str

    def __str__(self) -> str:
        return f"{self.host}:{self.pid}:{self.token}"

    @classmethod
    def generate(cls, label: str | None = None) -> "WorkerIdentity":
        """A fresh identity for this process; ``label`` overrides the
        hostname (the CLI's ``--worker-id`` for readable CI logs)."""
        host = label if label else socket.gethostname()
        return cls(host=str(host), pid=os.getpid(), token=token_hex(4))

    @classmethod
    def parse(cls, value: str) -> "WorkerIdentity":
        """Parse ``host:pid:token``; anything else becomes a label for
        a freshly generated identity (so ``--worker-id blue`` works)."""
        parts = value.split(":")
        if len(parts) == 3:
            try:
                return cls(host=parts[0], pid=int(parts[1]), token=parts[2])
            except ValueError:
                pass
        return cls.generate(label=value)


class LeaseManager:
    """Claim, renew and release leases for one worker on one store.

    All decisions are made against the store's *folded* lease state
    (file order), never against local optimism: :meth:`claim` appends
    claim records, refreshes, and reports only the keys whose folded
    lease actually names this worker at the claimed epoch.  ``clock``
    is injectable for deterministic expiry tests.
    """

    def __init__(self, store: ResultStore, worker: WorkerIdentity,
                 ttl: float, clock=time.time) -> None:
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.store = store
        self.worker = worker
        self.ttl = float(ttl)
        self.clock = clock
        #: key -> epoch we hold it at.
        self.held: dict[str, int] = {}
        self.reclaims = 0
        self._claims_appended = 0
        self._last_renew = clock()

    # ------------------------------------------------------------------
    def claimable(self, key: str, now: float | None = None) -> bool:
        """Whether ``key`` is up for grabs as of the last refresh."""
        lease = self.store.lease_for(key)
        return lease is None or not lease.live(
            self.clock() if now is None else now)

    def claim(self, keys: list[str]) -> list[str]:
        """Try to claim ``keys``; return those actually won.

        Expired leases are reclaimed at ``epoch + 1``.  The append →
        refresh → read-back dance resolves races by file order: if a
        rival's claim for the same key and epoch landed first, the
        folded lease names the rival and the key is simply not in the
        returned list."""
        plan = active_plan()
        attempted: list[tuple[str, int]] = []
        for key in keys:
            now = self.clock()
            lease = self.store.lease_for(key)
            if lease is not None and lease.live(now):
                continue  # live with someone else (or already ours)
            epoch = lease.epoch + 1 if lease is not None else 0
            if lease is not None and not lease.released:
                self.reclaims += 1
            if plan is not None and plan.take_duplicate_claim(
                    self._claims_appended):
                # Injected duplicate-claim race: a phantom rival's claim
                # for the same key and epoch lands first in the file,
                # so this worker must lose the race by file order.
                self.store.append_lease({
                    "type": "claim", "key": key,
                    "worker": "phantom:0:deadbeef",
                    "epoch": epoch, "ttl": self.ttl, "ts": now,
                })
            self.store.append_lease({
                "type": "claim", "key": key, "worker": str(self.worker),
                "epoch": epoch, "ttl": self.ttl, "ts": now,
            })
            self._claims_appended += 1
            attempted.append((key, epoch))
            if plan is not None and plan.take_lease_kill(
                    self._claims_appended):
                # Injected mid-lease death: claims are in the file but
                # this process dies before winning/working them, so the
                # leases sit live-but-orphaned until TTL expiry.
                raise InjectedFault(
                    f"joined worker {self.worker} killed after "
                    f"{self._claims_appended} claims")
        if not attempted:
            return []
        self.store.refresh()
        won = []
        for key, epoch in attempted:
            if self._owns(key, epoch):
                self.held[key] = epoch
                won.append(key)
        if won:
            self._last_renew = self.clock()
        return won

    # ------------------------------------------------------------------
    def _owns(self, key: str, epoch: int) -> bool:
        lease = self.store.lease_for(key)
        return (lease is not None and lease.worker == str(self.worker)
                and lease.epoch == epoch and not lease.released)

    def renew(self) -> list[str]:
        """Heartbeat every held lease; return the keys found lost.

        Under an injected ``suppress_heartbeats`` plan no renewals are
        appended — but the refresh and ownership check still run, which
        is exactly how a silenced worker discovers its leases expired
        and were usurped."""
        plan = active_plan()
        now = self.clock()
        suppressed = plan is not None and plan.heartbeats_suppressed()
        if self.held and not suppressed:
            for key, epoch in self.held.items():
                self.store.append_lease({
                    "type": "renew", "key": key,
                    "worker": str(self.worker), "epoch": epoch, "ts": now,
                })
        self._last_renew = now
        self.store.refresh()
        lost = [key for key, epoch in self.held.items()
                if not self._owns(key, epoch)]
        for key in lost:
            self.held.pop(key, None)
        return lost

    def maybe_renew(self) -> list[str]:
        """Renew if a third of the TTL elapsed since the last renewal
        (frequent enough that one missed beat never expires a lease)."""
        if self.clock() - self._last_renew >= self.ttl / 3.0:
            return self.renew()
        return []

    def heartbeat(self, key: str) -> None:
        """Liveness check between sampling stages of a held point.

        Renews (when due), refreshes, and raises :class:`LeaseLost` if
        the folded lease no longer names this worker — the signal to
        forfeit the point."""
        self.maybe_renew()
        self.store.refresh()
        epoch = self.held.get(key)
        if epoch is None or not self._owns(key, epoch):
            self.held.pop(key, None)
            raise LeaseLost(key)

    # ------------------------------------------------------------------
    def release(self, key: str) -> None:
        """Release a finished point's lease (the happy path)."""
        epoch = self.held.pop(key, None)
        if epoch is None:
            return
        self.store.append_lease({
            "type": "release", "key": key, "worker": str(self.worker),
            "epoch": epoch, "ts": self.clock(),
        })

    def abandon_all(self) -> None:
        """Give up every held lease (graceful shutdown): abandoned
        leases are immediately claimable, no TTL wait."""
        now = self.clock()
        for key, epoch in list(self.held.items()):
            self.store.append_lease({
                "type": "abandon", "key": key, "worker": str(self.worker),
                "epoch": epoch, "ts": now,
            })
        self.held.clear()


# ----------------------------------------------------------------------
# Store tooling: merge / verify / repair (the ``repro store`` CLI).

def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def _result_records(path: Path) -> tuple[list[dict], int]:
    """All result records in ``path`` (file order), plus a count of the
    lines skipped: corrupt, keyless and foreign-version lines and a
    torn tail.  Lease events, malformed or not, never survive a merge
    and are not counted."""
    raw = path.read_bytes() if path.exists() else b""
    lines, tail = _split_lines(raw)
    records: list[dict] = []
    skipped = 1 if tail else 0
    for line in lines:
        kind, record = _classify(line)
        if kind == "result":
            records.append(record)
        elif kind in ("corrupt", "keyless", "foreign"):
            skipped += 1
    return records, skipped


_PROVENANCE_KEYS = ("worker", "epoch")


def _payload(record: dict) -> str:
    """Canonical JSON of a record minus its provenance — the fields
    that legitimately differ when independent workers (or independent
    runs) finalise the same point with identical tallies."""
    return _canonical({k: v for k, v in record.items()
                       if k not in _PROVENANCE_KEYS})


def _resolve(a: dict, b: dict) -> tuple[dict, bool]:
    """Pick the winner of two records for one key; ``True`` flags a
    genuine conflict (two finals whose *payloads* differ at the same
    epoch).

    Resolution order: final beats partial; higher epoch beats lower;
    among equal partials, more logged stages win; identical canonical
    JSON is no conflict at all.  Finals that differ only in provenance
    (``worker``, ``epoch``) are the expected outcome of merging
    independently-executed stores — deterministic sampling made their
    tallies identical — so they resolve silently; only differing
    *payloads* (the impossible-with-honest-seeds case) are reported.
    Every tie-break is *deterministic and symmetric*, which is what
    keeps the merged file bit-identical under any input order."""
    if _canonical(a) == _canonical(b):
        return a, False
    a_final = not a.get("partial")
    b_final = not b.get("partial")
    if a_final != b_final:
        return (a if a_final else b), False
    ea, eb = _epoch_of(a), _epoch_of(b)
    if ea != eb:
        return (a if ea > eb else b), False
    if not a_final:  # both partial, same epoch: longer stage log wins
        sa, sb = len(a.get("stages") or ()), len(b.get("stages") or ())
        if sa != sb:
            return (a if sa > sb else b), False
        return max(a, b, key=_canonical), False
    return max(a, b, key=_canonical), _payload(a) != _payload(b)


def merge_stores(inputs: "list[str | Path]",
                 output: "str | Path") -> dict:
    """Fold per-host stores into one canonical store, bit-identically.

    Lease events are dropped (they are per-run coordination state, not
    results); result records are resolved per key by :func:`_resolve`
    and written in a canonical order — sorted by the point's position
    (``sweep_index``, ``point_index``) then key — as canonical JSON
    lines, so **any permutation of the same inputs produces a
    byte-identical output file**.  Returns a report dict with the
    record counts and the conflicting keys (if any)."""
    inputs = [Path(p) for p in inputs]
    output = Path(output)
    resolved: dict[str, dict] = {}
    conflicts: set[str] = set()
    read = 0
    skipped = 0
    for path in inputs:
        records, bad = _result_records(path)
        skipped += bad
        for record in records:
            read += 1
            key = record["key"]
            current = resolved.get(key)
            if current is None:
                resolved[key] = record
                continue
            winner, conflicted = _resolve(current, record)
            resolved[key] = winner
            if conflicted:
                conflicts.add(key)

    def sort_key(item: "tuple[str, dict]") -> tuple:
        key, record = item
        params = record.get("params") or {}
        try:
            position = (0, int(params.get("sweep_index", 1 << 30)),
                        int(params.get("point_index", 1 << 30)))
        except (TypeError, ValueError):
            position = (1, 0, 0)
        return (*position, key)

    lines = [_canonical(record) + "\n"
             for _, record in sorted(resolved.items(), key=sort_key)]
    output.parent.mkdir(parents=True, exist_ok=True)
    tmp = output.with_name(output.name + ".tmp")
    tmp.write_text("".join(lines))
    os.replace(tmp, output)
    return {
        "inputs": [str(p) for p in inputs],
        "output": str(output),
        "records_read": read,
        "records_written": len(resolved),
        "lines_skipped": skipped,
        "conflicts": sorted(conflicts),
    }


def verify_store(path: "str | Path") -> dict:
    """Offline consistency check of one store file.

    Flags (``problems`` — corruption worth exit 1):

    * the damaged lines (:data:`~repro.campaign.store.DAMAGED_KINDS`):
      unparseable lines, records that are not a JSON object with a
      string ``key``, and malformed lease events;
    * lease-log violations: a ``renew``/``release``/``abandon`` with no
      matching claim at that (worker, epoch), and two *overlapping
      live* claims for one key — a claim at a new epoch appended while
      the previous lease was neither released nor expired by its own
      timestamps (clock skew or a broken reclaim).

    ``info`` collects benign oddities: a torn tail (the bytes after the
    last newline — crash residue, never counted as a record, even when
    they parse), foreign-version records, lost claim races (a claim
    below the current epoch, or at it later in file — exactly what an
    injected duplicate-claim race leaves behind) and renews after
    release.  Returns a report dict; ``ok`` is ``False`` iff
    ``problems`` is non-empty."""
    path = Path(path)
    problems: list[str] = []
    info: list[str] = []
    if not path.exists():
        return {"path": str(path), "ok": False,
                "problems": [f"{path}: no such file"], "info": [],
                "records": 0, "leases": 0}
    n_results = 0
    n_leases = 0
    leases: dict[str, Lease] = {}
    lines, tail = _split_lines(path.read_bytes())
    for index, line in enumerate(lines, start=1):
        kind, record = _classify(line)
        if kind == "corrupt":
            problems.append(f"line {index}: unparseable JSON in the "
                            "interior of the file")
        elif kind == "keyless":
            problems.append(f"line {index}: record without a string 'key'")
        elif kind == "foreign":
            info.append(f"line {index}: foreign store version "
                        f"{record.get('version')!r} (ignored on load)")
        elif kind == "result":
            n_results += 1
        elif kind == "malformed lease":
            n_leases += 1
            problems.append(f"line {index}: malformed lease record "
                            f"({record['type']})")
        elif kind == "lease":
            n_leases += 1
            key, worker, epoch, _, _ = _parse_lease(record)
            previous = leases.get(key)
            outcome = _fold_lease(leases, record)
            if outcome == "overlap":
                problems.append(
                    f"line {index}: overlapping live leases on "
                    f"{key[:16]}...: claim at epoch {epoch} while "
                    f"epoch {previous.epoch} (worker {previous.worker}) "
                    f"was neither released nor expired")
            elif outcome == "lost":
                info.append(f"line {index}: claim on {key[:16]}... lost "
                            f"the race at epoch {epoch} (file order)")
            elif outcome == "stale":
                info.append(f"line {index}: renew on {key[:16]}... after "
                            "release (stale heartbeat; ignored on load)")
            elif outcome == "unmatched":
                problems.append(
                    f"line {index}: {record['type']} on {key[:16]}... by "
                    f"{worker} at epoch {epoch} without a matching claim")
    if tail:
        info.append(f"line {len(lines) + 1}: torn tail (crash mid-append; "
                    "skipped on load, repair removes it)")
    return {
        "path": str(path),
        "ok": not problems,
        "problems": problems,
        "info": info,
        "records": n_results,
        "leases": n_leases,
    }


def repair_store(path: "str | Path") -> dict:
    """Rewrite the store keeping only healthy lines.

    Drops the torn tail and every line :func:`verify_store` calls
    damaged (:data:`~repro.campaign.store.DAMAGED_KINDS`) — all of
    which :class:`ResultStore` already skips, so the folded state is
    unchanged — and blank lines, which count as neither.  Every other
    line is kept: results *and* lease events (epoch folding needs the
    full lease history), foreign versions too.  Atomic: written to a
    sibling temp file and ``os.replace``d in.  Returns
    ``{"path", "kept", "dropped"}``."""
    path = Path(path)
    lines, tail = _split_lines(path.read_bytes() if path.exists() else b"")
    kept: list[bytes] = []
    dropped = 1 if tail else 0
    for line in lines:
        kind, _ = _classify(line)
        if kind in DAMAGED_KINDS:
            dropped += 1
        elif kind != "blank":
            kept.append(line + b"\n")
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(b"".join(kept))
    os.replace(tmp, path)
    return {"path": str(path), "kept": len(kept), "dropped": dropped}
