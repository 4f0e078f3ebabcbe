"""Pinned digests of every catalog benchmark's generated streams.

The golden snapshots catch a changed random draw only as a diff in
some figure.  These pins name the benchmark and seed instead: each
digest covers the functional-warmup reference stream
(``packed_references``) and the timing micro-ops that follow it on the
same generator, exactly as the trace cache consumes them.

A digest changes only if the generator makes a different draw.  If
that is intended, the goldens change with it and both are reviewed
together.  Regenerate them with
``PYTHONPATH=src python tests/workloads/test_stream_pins.py``.
"""

from __future__ import annotations

import hashlib
import itertools

import pytest

from repro.workloads import BENCHMARKS, WorkloadGenerator

WARMUP_INSTRUCTIONS = 20_000
TIMING_MICRO_OPS = 5_000
SEEDS = (1, 7)

#: (benchmark, seed) -> (packed-reference digest, timing micro-op digest)
PINNED = {
    ("VCS", 1): (
        "eb220671bf38fbb5baf88f510ee255c32d1cd0f269f3d07da858a2b5a8a9e082",
        "426a9bfed3254e07ded7ee8d6d9ff52cffe44f5c4bc08190a8b304b6ef0fb587",
    ),
    ("VCS", 7): (
        "bbd3ae65e6bf740cc831c60cfed14013c1fc62dcce204414c6620a21ab5b36c0",
        "8f238ae274485e50de9491e04b9e8e9080a0247284f622d1ccbe905c28b689e7",
    ),
    ("apsi", 1): (
        "8554daebc6911c1c6371cb89cbc047205ef78bfff48881bfbdb013bb574383f6",
        "7e5c9de747d539b10ab1ac17ff8b621ecf8e4ee36ea5a5e8595182727246e153",
    ),
    ("apsi", 7): (
        "6311f4367c87217adeae0ab3a0df7fd1f1158420e292e9ae31e20094ed2b4cec",
        "70c5ce07d04f7caf0abe7ea7a65523cc6e788b97d722ebac8bbf76ec027eca3a",
    ),
    ("compress", 1): (
        "bed673a45145349f9268522950253b57e4b81293ee9785f885923bc949b66b8e",
        "fd0f3444d1feea464bfcc3ea2c8838a6873e18678c4a4bf8973ce8f68b1ea63d",
    ),
    ("compress", 7): (
        "3410cb789812eac307e754544ce2afa5365c533df73a534c095bb07d2e0a52c8",
        "10da05eb6e345c7ba6486b52488a86f565e1bb3eac3bef2e491cdeb1348fa868",
    ),
    ("database", 1): (
        "4df735267545d474416f93aa9fa0c42be2ae47b1086489ea68f2aeaf5654d09b",
        "63810e690fd24cbe6c885c0432f38e3f06fdcbd467499552eba170dc7ee9bae3",
    ),
    ("database", 7): (
        "567c3180dd2422493991b15a0e9190f6a8874337690d0c4fb489b0a773dd2efd",
        "f54aec2af83c05224a465dae779486fd7f438533c52833c81a203a6c24872f69",
    ),
    ("gcc", 1): (
        "c3b37fbf79d9dcba70c06c6fc57937b9bba11826b4d7b6bae83971a71d84a5b1",
        "41c1e9c077986017d8121e2de6d6201330a8f8d5ee15a5e1ef96b068c094ef29",
    ),
    ("gcc", 7): (
        "2224dc0b9608050d392d7f7de42ec2f4c6cc53dd00d8a23527ed7b72b6635e3d",
        "ba95ab686c3e99dd2f6bda9f0d191c726a846b6a4772bef3f78e89b2cf473ae2",
    ),
    ("li", 1): (
        "95664d78ce0370e181fe253194a659710c37809f4ab97f1e3dfb8694f7d1da8f",
        "8c98197804589838920f119c1ee0696821ae6942fcef9bd850d3e53559ca4c38",
    ),
    ("li", 7): (
        "30e6b17fed3d98990f676171ad310251ba189b6f08b356a98682bd679f0f1efe",
        "8c3ec6cd02b97770fdca1c236c4490b55ef853af9fcf33b4cf73fdb50718125f",
    ),
    ("pmake", 1): (
        "440acc9226b8d9f70e919c5a30afc0626ec3f77dbe4199951114989debcc9e3b",
        "ac0e33d1b4cded642a244a07ffbc07951b095622a1371a21c669591c111e58aa",
    ),
    ("pmake", 7): (
        "6eb9ef11d6cabbd547c52430b65ecd7e4f70c3a48a0d18f836ab8a0c048469c1",
        "d57d1d88598143e8e4f1d47e04ee19b6a0f3771dadfe602d22e990acbfb81231",
    ),
    ("su2cor", 1): (
        "f9cbe7047d27fd459f2d763195d3e3c9d857cfb9ab19236a690889828245e347",
        "e1e9b2bb6569476c9847eb411932619b13e44fd1be75d728fcbb06a705541fda",
    ),
    ("su2cor", 7): (
        "79705abd0e8bf171353baea6e708fc66f866c420dfb1f7c76b8c35949b7e03a7",
        "29f44ec5f9cca14850498b1b5b962b53172a331acfb34b90a6307a8670c810c5",
    ),
    ("tomcatv", 1): (
        "4969414c471708ae374d1cb2f277d0cb67e744cd730020bba317e420afb06c96",
        "d5d8d43edbe7c61ae48a11249f3806db9da85a0ae70768cc5d049d11f0aed42e",
    ),
    ("tomcatv", 7): (
        "c04e3066f3cf19de1ba37802859d4e6e265f5795a067c4e294c687857cdcba65",
        "106288dd002520b822dd2e661cbed6cad19e94d2ef4755c8a4edb33a7ea48ab1",
    ),
}


def stream_digests(name: str, seed: int) -> tuple[str, str]:
    """SHA-256 of the warm-up references, then of the timing micro-ops."""
    generator = WorkloadGenerator(BENCHMARKS[name], seed)
    refs = generator.packed_references(WARMUP_INSTRUCTIONS)
    packed = hashlib.sha256(",".join(map(str, refs)).encode())
    timing = hashlib.sha256()
    for mop in itertools.islice(generator.instructions(), TIMING_MICRO_OPS):
        row = (int(mop.op), mop.srcs, mop.address, mop.pc, mop.taken)
        timing.update(repr(row).encode())
        timing.update(b"\n")
    return packed.hexdigest(), timing.hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_generated_streams_match_pins(name, seed):
    packed, timing = stream_digests(name, seed)
    expected_packed, expected_timing = PINNED[(name, seed)]
    assert packed == expected_packed, f"{name} seed {seed}: warm-up references changed"
    assert timing == expected_timing, f"{name} seed {seed}: timing micro-ops changed"


if __name__ == "__main__":  # pragma: no cover - regenerates PINNED
    print("PINNED = {")
    for name in sorted(BENCHMARKS):
        for seed in SEEDS:
            packed, timing = stream_digests(name, seed)
            print(f'    ("{name}", {seed}): (\n        "{packed}",\n        "{timing}",\n    ),')
    print("}")
