"""Canonical identity of one design point: the :class:`ExperimentKey`.

A key pins everything that determines a simulation's outcome -- the
cache organization, the benchmark name, and the (already REPRO_SCALE-
scaled) experiment settings.  It is hashable (the in-memory memo),
JSON-serializable through :mod:`repro.engine.serialize` (store entries,
checkpoints), and content-addressable: the digest is a SHA-256 over
the canonical JSON form of every field, so it is stable
across processes and interpreter invocations -- no dependence on
``PYTHONHASHSEED`` or dict iteration order.

A plain point's ``settings.observe`` is ``None``, and its canonical form
omits the field, so plain digests and stored keys read exactly as they
did before observation was part of a point's identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

from repro.core.experiment import ExperimentSettings
from repro.core.organizations import CacheOrganization
from repro.engine.serialize import from_plain, to_plain


@dataclass(frozen=True)
class ExperimentKey:
    """Identity of one (organization, workload, scaled settings) point."""

    organization: CacheOrganization
    workload: str  #: benchmark name (catalog key for dispatchable points)
    settings: ExperimentSettings  #: REPRO_SCALE already applied

    def to_dict(self) -> dict:
        data = to_plain(self)
        if self.settings.observe is None:
            del data["settings"]["observe"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentKey":
        settings = data.get("settings") if isinstance(data, dict) else None
        if isinstance(settings, dict) and "observe" not in settings:
            data = {**data, "settings": {**settings, "observe": None}}
        return from_plain(cls, data)

    def canonical_json(self) -> str:
        """Deterministic JSON form: sorted keys, minimal separators."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), ensure_ascii=True
        )

    @cached_property
    def digest(self) -> str:
        """Content address: SHA-256 hex of the canonical JSON form."""
        return hashlib.sha256(self.canonical_json().encode("ascii")).hexdigest()

    @property
    def label(self) -> str:
        """Human-readable point name, e.g. ``1~ duplicate 32K +LB / gcc``."""
        return f"{self.organization.label} / {self.workload}"
