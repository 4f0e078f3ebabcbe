"""Process-level chaos: reproduce the failures a long campaign will hit.

:mod:`repro.robustness.faults` proves the *in-simulation* guard rails
fire; this module supplies the other half of the failure universe --
whole processes dying, writes tearing mid-line, on-disk entries
rotting, and simulations hanging in ways the cycle-domain watchdog
cannot see.  The chaos suite (``tests/integration/test_chaos.py``) and
the CI chaos job use these helpers to assert every such failure ends
in a clean resume or a marked gap -- never a hang, never a stack trace.

Two halves:

* **In-process fault directives**, armed through the ``REPRO_CHAOS``
  environment variable so they reach CLI subprocesses and pool workers
  without code changes.  The variable holds comma-separated directives,
  each optionally scoped to one workload name::

      REPRO_CHAOS="hang:gcc"            # gcc points hang forever
      REPRO_CHAOS="sleep=0.4"           # every point takes >= 0.4s
      REPRO_CHAOS="stuck-mshr:tomcatv"  # watchdog-visible deadlock

  - ``stuck-mshr`` injects :func:`~repro.robustness.faults.
    inject_stuck_mshr` with the watchdog *kept*: the point dies with a
    diagnosable ``DeadlockError`` (retry/gap path).
  - ``hang`` spins on the wall clock before the simulation starts,
    checking the point's deadline every 10 ms: the cycle-domain
    watchdog never sees it, and only a ``--point-timeout`` deadline
    ends it.  No heartbeat is sent while it spins, so telemetry shows
    the real shape of a wedged worker.
  - ``sleep=S`` stretches every matching point by ``S`` wall-clock
    seconds before the timed region, without touching its simulated
    numbers -- deterministic slowness for kill-and-resume tests.

  The hook in :func:`repro.core.experiment._simulate` costs one
  environment lookup per simulation when chaos is off, and chaos
  points simulate on the selected backend like any other.

* **On-disk and process havoc helpers** used by the chaos tests from
  the outside: tearing a JSONL line, corrupting a store entry three
  different ways, and finding/killing worker processes.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.hierarchy import MemorySystem
    from repro.workloads.generator import WorkloadSpec

#: Environment variable holding the comma-separated chaos directives.
CHAOS_ENV = "REPRO_CHAOS"

#: Directive names accepted by :func:`parse_directives`.
KNOWN_KINDS = ("stuck-mshr", "hang", "sleep")


@dataclass(frozen=True)
class Directive:
    """One parsed chaos directive: what to break, where, how much."""

    kind: str  #: "stuck-mshr" | "hang" | "sleep"
    workload: str | None = None  #: None = every workload
    seconds: float = 0.0  #: only meaningful for "sleep"

    def matches(self, workload: str) -> bool:
        return self.workload is None or self.workload == workload


def parse_directives(raw: str) -> tuple[Directive, ...]:
    """Parse a ``REPRO_CHAOS`` value; malformed pieces are ignored.

    Chaos must never turn into a new failure mode of its own -- a typo
    in the variable degrades to "no chaos", not a crash.
    """
    directives = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        head, _, workload = piece.partition(":")
        kind, _, argument = head.partition("=")
        kind = kind.strip().lower()
        if kind not in KNOWN_KINDS:
            continue
        seconds = 0.0
        if kind == "sleep":
            try:
                seconds = float(argument)
            except ValueError:
                continue
            if seconds < 0:
                continue
        directives.append(
            Directive(kind, workload.strip() or None, seconds)
        )
    return tuple(directives)


class ChaosPlan:
    """The directives armed for this process, applied per simulation."""

    def __init__(self, directives: tuple[Directive, ...]):
        self.directives = directives

    @classmethod
    def from_env(cls) -> "ChaosPlan | None":
        """The active plan, or ``None`` (the overwhelmingly common case)."""
        raw = os.environ.get(CHAOS_ENV)
        if not raw:
            return None
        directives = parse_directives(raw)
        return cls(directives) if directives else None

    def prepare(self, memory: "MemorySystem", spec: "WorkloadSpec") -> None:
        """Apply chaos to one simulation before it runs."""
        from repro.robustness.deadline import active_deadline
        from repro.robustness.faults import inject_stuck_mshr

        for directive in self.directives:
            if not directive.matches(spec.name):
                continue
            if directive.kind == "sleep":
                time.sleep(directive.seconds)
            elif directive.kind == "stuck-mshr":
                inject_stuck_mshr(memory)
            elif directive.kind == "hang":
                # A wall-clock spin the watchdog never sees: only the
                # point's deadline ends it.
                while True:
                    deadline = active_deadline()
                    if deadline is not None:
                        deadline.check()
                    time.sleep(0.01)


# ---------------------------------------------------------------------------
# On-disk havoc: the failures cache verify and the ledger must survive
# ---------------------------------------------------------------------------

#: Corruption modes understood by :func:`corrupt_entry`.
CORRUPTION_MODES = ("truncate", "garbage", "schema", "result", "key")


def corrupt_entry(path: Path | str, mode: str = "truncate") -> None:
    """Damage one store entry the way real-world rot does.

    ``truncate`` -- a torn write: the file ends mid-token;
    ``garbage``  -- the bytes are not JSON at all;
    ``schema``   -- valid JSON stamped with an impossible schema version;
    ``result``   -- a valid envelope whose result lacks most fields;
    ``key``      -- a key edited so it no longer hashes to its digest.
    """
    path = Path(path)
    if mode == "truncate":
        data = path.read_bytes()
        path.write_bytes(data[: max(1, len(data) // 2)])
    elif mode == "garbage":
        path.write_bytes(b"\x00\xffnot json at all\x1f")
    elif mode in ("schema", "result", "key"):
        import json

        entry = json.loads(path.read_text(encoding="utf-8"))
        if mode == "schema":
            entry["schema"] = -1
        elif mode == "result":
            entry["result"] = {"instructions": 1}
        else:
            entry["key"]["workload"] += "-edited"
        path.write_text(json.dumps(entry), encoding="utf-8")
    else:
        raise ValueError(
            f"unknown corruption mode {mode!r}; "
            f"choose from: {', '.join(CORRUPTION_MODES)}"
        )


def tear_trailing_line(path: Path | str, keep_fraction: float = 0.5) -> str:
    """Cut the final line of a JSONL file mid-record (a torn append).

    Returns the bytes that were torn off, for assertions.  The file is
    left without a trailing newline -- exactly what a crash between
    ``write()`` and completion leaves behind.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    if not lines:
        raise ValueError(f"{path} has no lines to tear")
    last = lines[-1].rstrip("\n")
    cut = max(1, int(len(last) * keep_fraction))
    torn = last[cut:]
    path.write_text("".join(lines[:-1]) + last[:cut], encoding="utf-8")
    return torn


# ---------------------------------------------------------------------------
# Process havoc: killing workers the way the OS does
# ---------------------------------------------------------------------------


def child_pids(pid: int) -> list[int]:
    """Direct live children of ``pid`` (Linux ``/proc``; [] elsewhere)."""
    children: list[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        for task in task_dir.iterdir():
            try:
                text = (task / "children").read_text()
            except OSError:
                continue
            children.extend(int(child) for child in text.split())
    except OSError:
        return []
    return sorted(set(children))


def kill_process(pid: int, sig: int = signal.SIGKILL) -> bool:
    """Deliver ``sig`` to ``pid``; False when the process is gone."""
    try:
        os.kill(pid, sig)
    except (ProcessLookupError, PermissionError):
        return False
    return True
