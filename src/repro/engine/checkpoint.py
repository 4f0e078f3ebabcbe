"""Crash-safe sweep checkpoints: a durable record of what finished.

The content-addressed store makes re-execution cheap -- any point a dead
run completed is a store hit next time -- but the store cannot say
*which sweep* was running or *what remains* of it.  A checkpoint can:
``ExecutionPlan.execute`` keeps one JSONL file per plan under
``<store-root>/checkpoints/<plan_digest>.jsonl`` while the batch runs.

Layout: the first line is a ``sweep`` header carrying the plan digest
and every planned point's full key dict (enough to rebuild the plan in
a fresh process -- ``repro runs resume``); each completed point then
appends one single-line ``point`` mark via ``O_APPEND``, so a crash at
any instant loses at most the mark being written, never tears an
earlier one.  Reads skip torn or corrupt lines for the same reason the
store treats damaged entries as misses: a checkpoint is protection,
never a prerequisite.

The checkpoint never steers execution -- skipping already-done work is
the store's job, which is what keeps resumed output bit-identical to an
uninterrupted run.  It exists to *report*: how much of an interrupted
sweep survives, and which keys to re-plan.  A cleanly completed sweep
deletes its checkpoint; one that ends with gaps or an interrupt keeps
it, so ``repro runs resume`` has something to read.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable

from repro.engine.key import ExperimentKey
from repro.engine.ledger import plan_digest

#: Checkpoint directory name, directly under the store root (outside
#: the ``v*/??/`` shard layout, like the run ledger).
CHECKPOINT_DIR = "checkpoints"

#: Outcomes that mean "this point needs no re-execution": its result
#: is in the store.  A ``recovered`` point is not -- its reduced-budget
#: result is never stored, so every rerun simulates it again.
COMPLETED_OUTCOMES = frozenset({"memo", "store", "simulated"})


class SweepCheckpoint:
    """One plan's checkpoint file: header plus append-only point marks."""

    def __init__(self, path: Path | str, digest: str):
        self.path = Path(path)
        self.digest = digest

    @classmethod
    def for_plan(
        cls, root: Path | str, keys: Iterable[ExperimentKey]
    ) -> "SweepCheckpoint":
        digest = plan_digest(keys)
        path = Path(root) / CHECKPOINT_DIR / f"{digest}.jsonl"
        return cls(path, digest)

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------

    def read(self) -> tuple[dict | None, dict[str, str]]:
        """``(header, {point digest: last recorded outcome})``.

        Torn or corrupt lines are skipped -- the mark a crash tore is
        simply lost, which only means that one point re-executes.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return None, {}
        header: dict | None = None
        marks: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if not isinstance(entry, dict):
                continue
            if entry.get("type") == "sweep" and header is None:
                header = entry
            elif entry.get("type") == "point" and "digest" in entry:
                marks[entry["digest"]] = entry.get("outcome", "")
        return header, marks

    def completed(self) -> set[str]:
        """Digests of points an earlier run finished successfully."""
        _, marks = self.read()
        return {
            digest
            for digest, outcome in marks.items()
            if outcome in COMPLETED_OUTCOMES
        }

    def keys(self) -> list[ExperimentKey]:
        """The planned keys, rebuilt from the header's stored key dicts.

        Settings inside a key dict are already scaled -- callers must
        plan them through :meth:`ExecutionPlan.add_key`, which does not
        re-apply ``REPRO_SCALE``.
        """
        header, _ = self.read()
        if header is None:
            return []
        keys = []
        for row in header.get("points", []):
            try:
                keys.append(ExperimentKey.from_dict(row["key"]))
            except Exception:  # noqa: BLE001 - a rotted row loses one point
                continue
        return keys

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------

    def begin(self, keys: Iterable[ExperimentKey]) -> None:
        """Start (or continue) the checkpoint for this plan.

        A file from an earlier run of the same plan is kept as-is, marks
        and all; otherwise a fresh header is written atomically.  I/O
        failures disable checkpointing silently, never the sweep.
        """
        header, _ = self.read()
        if header is not None and header.get("plan_digest") == self.digest:
            return
        entry = {
            "type": "sweep",
            "plan_digest": self.digest,
            "points": [
                {
                    "digest": key.digest,
                    "label": key.label,
                    "workload": key.workload,
                    "key": key.to_dict(),
                }
                for key in sorted(keys, key=lambda k: k.digest)
            ],
        }
        try:
            payload = json.dumps(entry, separators=(",", ":")) + "\n"
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError:
            pass

    def mark(self, key: ExperimentKey, outcome: str) -> None:
        """Append one completion mark: a single ``O_APPEND`` line."""
        line = json.dumps(
            {"type": "point", "digest": key.digest, "outcome": outcome},
            separators=(",", ":"),
        )
        try:
            fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(fd, (line + "\n").encode("utf-8"))
            finally:
                os.close(fd)
        except OSError:
            pass

    def remove(self) -> None:
        """Delete the checkpoint (a cleanly completed sweep needs none)."""
        try:
            self.path.unlink(missing_ok=True)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """Progress summary for the CLI: planned / completed / remaining."""
        header, marks = self.read()
        planned = (
            [row.get("digest", "") for row in header.get("points", [])]
            if header is not None
            else []
        )
        done = {
            digest
            for digest, outcome in marks.items()
            if outcome in COMPLETED_OUTCOMES
        }
        return {
            "path": str(self.path),
            "plan_digest": self.digest,
            "planned": len(planned),
            "completed": sum(1 for digest in planned if digest in done),
            "remaining": sum(1 for digest in planned if digest not in done),
        }


# ---------------------------------------------------------------------------
# Discovery: repro runs resume <ref>
# ---------------------------------------------------------------------------


def list_checkpoints(root: Path | str) -> list[SweepCheckpoint]:
    """Every checkpoint under ``root``, most recently touched first."""
    directory = Path(root) / CHECKPOINT_DIR
    if not directory.is_dir():
        return []
    paths = []
    for path in directory.glob("*.jsonl"):
        try:
            paths.append((path.stat().st_mtime, path))
        except OSError:
            continue
    paths.sort(key=lambda item: item[0], reverse=True)
    return [SweepCheckpoint(path, path.stem) for _, path in paths]


def resolve_checkpoint(root: Path | str, ref: str) -> "SweepCheckpoint | None":
    """A checkpoint by reference: ``last`` or a plan-digest prefix."""
    checkpoints = list_checkpoints(root)
    if not checkpoints:
        return None
    if ref == "last":
        return checkpoints[0]
    matches = [cp for cp in checkpoints if cp.digest.startswith(ref)]
    if len(matches) == 1:
        return matches[0]
    return None
