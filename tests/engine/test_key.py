"""ExperimentKey: canonical identity, round trips, stable digests."""

import json
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

from repro.core.experiment import ExperimentSettings, Observe
from repro.core.organizations import duplicate, ideal_ports
from repro.cpu.config import R10000_FU_LIMITS, ProcessorConfig
from repro.engine.key import ExperimentKey
from repro.engine.serialize import from_plain, to_plain
from repro.memory.dram_cache import DramCacheConfig

SRC = Path(__file__).resolve().parents[2] / "src"


def _perturbed(value):
    if value is None:  # a plain run's ``observe``
        return Observe(attribution=True)
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return value[:-1]
    raise TypeError(f"no perturbation for {value!r}")


def _leaf_variants(obj, path=()):
    """``(path, copy)`` per leaf field under ``obj``: each copy differs
    from ``obj`` in that one leaf."""
    for field in fields(obj):
        value = getattr(obj, field.name)
        where = (*path, field.name)
        if is_dataclass(value):
            for leaf, inner in _leaf_variants(value, where):
                yield leaf, replace(obj, **{field.name: inner})
        else:
            yield where, replace(obj, **{field.name: _perturbed(value)})


def _key() -> ExperimentKey:
    return ExperimentKey(
        duplicate(32 * 1024, line_buffer=True), "gcc", ExperimentSettings()
    )


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self):
        key = _key()
        rebuilt = ExperimentKey.from_dict(key.to_dict())
        assert rebuilt == key
        assert rebuilt.to_dict() == key.to_dict()
        assert rebuilt.digest == key.digest

    def test_json_round_trip_is_exact(self):
        key = _key()
        rebuilt = ExperimentKey.from_dict(json.loads(json.dumps(key.to_dict())))
        assert rebuilt == key
        assert rebuilt.canonical_json() == key.canonical_json()

    def test_keys_are_hashable_and_deduplicate(self):
        assert len({_key(), _key()}) == 1


class TestDigest:
    def test_sensitive_to_every_component(self):
        base = _key()
        variants = [
            ExperimentKey(
                ideal_ports(32 * 1024), base.workload, base.settings
            ),
            ExperimentKey(base.organization, "tomcatv", base.settings),
            ExperimentKey(
                base.organization,
                base.workload,
                ExperimentSettings(instructions=99_999),
            ),
        ]
        digests = {base.digest} | {v.digest for v in variants}
        assert len(digests) == 4

        # Every leaf field reachable from the key, DRAM config and
        # functional-unit limits included, gets its own digest and
        # survives the codec -- so a new config field cannot silently
        # share a digest with its default.
        full = ExperimentKey(
            replace(base.organization, dram=DramCacheConfig()),
            base.workload,
            ExperimentSettings(cpu=ProcessorConfig(fu_limits=R10000_FU_LIMITS)),
        )
        leaves = dict(_leaf_variants(full))
        assert {
            ("organization", "dram", "row_bytes"),
            ("workload",),
            ("settings", "cpu", "fu_limits"),
            ("settings", "backside", "memory_bus_bytes_per_cycle"),
        } <= set(leaves)
        digests = {base.digest, full.digest} | {v.digest for v in leaves.values()}
        assert len(digests) == len(leaves) + 2
        for variant in leaves.values():
            wire = json.loads(json.dumps(to_plain(variant)))
            rebuilt = from_plain(ExperimentKey, wire)
            assert rebuilt == variant
            assert rebuilt.digest == variant.digest

    def test_canonical_json_is_deterministic_ascii(self):
        key = _key()
        assert key.canonical_json() == key.canonical_json()
        key.canonical_json().encode("ascii")  # must not raise

    def test_stable_across_processes_and_hash_seeds(self):
        """The content address must not depend on PYTHONHASHSEED."""
        snippet = (
            "from repro.core.experiment import ExperimentSettings\n"
            "from repro.core.organizations import duplicate\n"
            "from repro.engine.key import ExperimentKey\n"
            "key = ExperimentKey(duplicate(32 * 1024, line_buffer=True),"
            " 'gcc', ExperimentSettings())\n"
            "print(key.digest)\n"
        )
        digests = set()
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
            env.pop("REPRO_SCALE", None)
            output = subprocess.run(
                [sys.executable, "-c", snippet],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            digests.add(output)
        digests.add(_key().digest)
        assert len(digests) == 1
