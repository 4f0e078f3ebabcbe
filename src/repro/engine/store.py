"""Persistent on-disk result store: ``.repro-cache/`` JSON files.

Results are content-addressed by the :class:`ExperimentKey` digest and
stamped with a schema version, so a second ``python -m repro all`` run
resolves every already-simulated design point from disk instead of
re-simulating it.  Layout::

    <root>/v<SCHEMA>/<digest[:2]>/<digest>.json

Each entry records the schema stamp, the digest, the *full* key dict
(collision/corruption guard: a load verifies the stored key matches the
requested one before trusting the result), and the serialized
:class:`~repro.cpu.result.SimulationResult`.  What a run observed is
part of its key (``settings.observe``), so an observed result -- with
counters or ``attribution.*`` metrics -- never answers a plain load,
and a plain one never answers an observed load.

Robustness rules: unreadable/garbled/mis-versioned entries are treated
as misses, never errors; writes are atomic (tempfile + rename) so
concurrent runs sharing a cache directory cannot observe torn files;
``failed`` sentinel results are never persisted -- a gap should be
retried by the next run, not remembered forever.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.cpu.result import SimulationResult
from repro.engine.key import ExperimentKey
from repro.engine.serialize import from_plain, to_plain

#: Bump whenever key or result serialization changes shape (or whenever
#: a simulator change invalidates previously stored numbers).
#: v3: ``metrics`` may carry ``attribution.*`` (per-load critical-path
#: components, latency histogram buckets, float percentiles) and
#: ``trace.dropped_events`` (no longer written); v2 entries predate
#: those semantics.
#: v4: results gain a ``counters`` field -- the interval-sampled
#: counter series (or None when sampling was off); v3 entries would
#: silently read back as counter-less, so they are retired instead.
#: v5: the ``memory.bus.*`` metrics cover the measured region only;
#: v4 entries counted timing warm-up transfers too.  Results keep
#: ``backend``: provenance a backend-agreement audit needs.
#: v6: DRAM-mode results gain ``memory.dram.writebacks_out`` (dirty
#: DRAM rows written to memory); v5 entries lack the key.
SCHEMA_VERSION = 6

#: Environment override for the store location used by the CLI.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default store directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_root() -> Path:
    """Store root from ``REPRO_CACHE_DIR``, else ``./.repro-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


class ResultStore:
    """Content-addressed JSON store for simulation results."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_root()
        #: Loads served from disk this process (``runs resume`` reports
        #: how many of its points the store answered).
        self.hits = 0

    @property
    def version_dir(self) -> Path:
        return self.root / f"v{SCHEMA_VERSION}"

    def path_for(self, key: ExperimentKey) -> Path:
        digest = key.digest
        return self.version_dir / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------
    # Load / save
    # ------------------------------------------------------------------

    def load(self, key: ExperimentKey) -> SimulationResult | None:
        """The stored result for ``key``, or None on any kind of miss."""
        result = self._load(key)
        if result is not None:
            self.hits += 1
        return result

    def _load(self, key: ExperimentKey) -> SimulationResult | None:
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("schema") != SCHEMA_VERSION:
            return None
        if entry.get("key") != key.to_dict():
            return None  # digest collision or stale/foreign entry
        try:
            return from_plain(SimulationResult, entry["result"])
        except (KeyError, TypeError, ValueError):
            return None

    def save(self, key: ExperimentKey, result: SimulationResult) -> bool:
        """Persist ``result`` under ``key``; returns False when skipped.

        Failed sentinel results are skipped on purpose, and any I/O
        problem turns into a skip rather than an error -- the store is
        an accelerator, never a correctness dependency.
        """
        if result.failed:
            return False
        path = self.path_for(key)
        entry = {
            "schema": SCHEMA_VERSION,
            "digest": key.digest,
            "key": key.to_dict(),
            "result": to_plain(result),
        }
        try:
            payload = json.dumps(entry, allow_nan=False, separators=(",", ":"))
        except ValueError:
            return False  # non-finite number crept in; refuse to persist
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        return True

    # ------------------------------------------------------------------
    # Run ledger
    # ------------------------------------------------------------------

    def ledger(self):
        """The run ledger living alongside the store entries.

        Kept at the store root (``runs.jsonl``), outside the ``v*/??/``
        shard layout, so ``info()`` entry counts and ``clear()`` never
        confuse run history with result entries.
        """
        from repro.engine.ledger import LEDGER_NAME, RunLedger

        return RunLedger(self.root / LEDGER_NAME)

    # ------------------------------------------------------------------
    # Maintenance: python -m repro cache {info,clear,verify}
    # ------------------------------------------------------------------

    def _entry_paths(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("v*/??/*.json"))

    @property
    def quarantine_dir(self) -> Path:
        """Where ``verify`` moves damaged entries (outside ``v*/??/``,
        so entry counts and loads never see quarantined files)."""
        return self.root / "quarantine"

    def _entry_problem(self, path: Path) -> str | None:
        """What is wrong with one on-disk entry, or ``None`` if healthy.

        The checks mirror what ``_load`` silently treats as a miss --
        including decoding the key and result through the codec -- so
        ``verify`` surfaces exactly the entries loads are quietly paying
        a re-simulation for.
        """
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return "unreadable (truncated or garbled JSON)"
        if not isinstance(entry, dict):
            return "not a JSON object"
        try:
            expected_schema = int(path.parent.parent.name[1:])
        except (ValueError, IndexError):
            expected_schema = None
        if entry.get("schema") != expected_schema:
            return (
                f"schema stamp {entry.get('schema')!r} does not match "
                f"its v{expected_schema} directory"
            )
        if entry.get("digest") != path.stem:
            return "digest does not match the file name"
        if "key" not in entry or "result" not in entry:
            return "missing key/result fields"
        try:
            key = ExperimentKey.from_dict(entry["key"])
            from_plain(SimulationResult, entry["result"])
        except (TypeError, ValueError) as error:
            return f"undecodable key or result ({error})"
        if key.digest != path.stem or key.to_dict() != entry["key"]:
            return "key does not hash to its digest"
        return None

    def _quarantine(self, path: Path) -> Path | None:
        """Move a damaged entry aside; returns its new home, or None."""
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            target = self.quarantine_dir / path.name
            suffix = 0
            while target.exists():
                suffix += 1
                target = self.quarantine_dir / f"{path.name}.{suffix}"
            os.replace(path, target)
        except OSError:
            return None
        return target

    def verify(self, heal: bool = True) -> dict:
        """Scan every entry and the ledger for damage; optionally heal.

        Damaged entries (torn writes, garbage bytes, wrong schema stamp,
        digest/filename mismatch, a key or result the codec rejects, a
        key that no longer hashes to its digest) are quarantined under
        ``quarantine/`` rather than deleted -- the evidence survives for
        debugging, and the next sweep simply re-simulates the affected
        points.  With ``heal=False`` the scan only reports.
        """
        report: dict = {
            "scanned": 0,
            "ok": 0,
            "quarantined": [],
            "ledger": {},
        }
        for path in self._entry_paths():
            report["scanned"] += 1
            problem = self._entry_problem(path)
            if problem is None:
                report["ok"] += 1
                continue
            moved = self._quarantine(path) if heal else None
            report["quarantined"].append(
                {
                    "path": str(path),
                    "problem": problem,
                    "moved_to": str(moved) if moved is not None else None,
                }
            )
        report["ledger"] = self.ledger().heal(
            self.quarantine_dir if heal else None
        )
        return report

    def info(self) -> dict:
        """Summary of what is on disk (all schema versions)."""
        entries = self._entry_paths()
        current = [p for p in entries if p.is_relative_to(self.version_dir)]
        total_bytes = 0
        for path in entries:
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
        from repro.engine.checkpoint import list_checkpoints

        return {
            "root": str(self.root),
            "schema": SCHEMA_VERSION,
            "entries": len(entries),
            "current_schema_entries": len(current),
            "bytes": total_bytes,
            "checkpoints": len(list_checkpoints(self.root)),
            "ledger": self.ledger().info(),
        }

    def clear(self) -> int:
        """Delete every stored entry (all schema versions); returns count.

        Checkpoints go with the entries -- they describe progress against
        results that no longer exist -- but the run ledger survives: it
        is history, not cache.
        """
        entries = self._entry_paths()
        removed = 0
        for path in entries:
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        for checkpoint_path in self.root.glob("checkpoints/*.jsonl"):
            try:
                checkpoint_path.unlink()
            except OSError:
                continue
        try:
            (self.root / "checkpoints").rmdir()
        except OSError:
            pass
        # Prune now-empty shard/version directories, then the root if bare.
        for directory in sorted(
            (p for p in self.root.glob("v*/*") if p.is_dir()), reverse=True
        ):
            try:
                directory.rmdir()
            except OSError:
                pass
        for directory in self.root.glob("v*"):
            try:
                directory.rmdir()
            except OSError:
                pass
        return removed
