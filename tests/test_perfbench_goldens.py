"""The serving benchmark's episodes serve exactly what they served.

Each of the 25 seed-1 episodes of ``perfbench.workloads.WORKLOADS`` is
served to completion on a fresh system, as ``perfbench/run.py`` serves
it, and must reproduce the values recorded for it: the outcome digest
(``perfbench.outcomes.outcome_digest``), the makespan, the events the
simulator processed, and hashes of the iteration stats and the scaling
events.  A change that only speeds the simulator up keeps every value;
one that moves a simulated outcome, or adds or removes an event, fails
here with the episode named.

The fleet episodes' event counts were re-pinned once, when sharded
replicas began running ahead of other replicas' events up to their own
horizon: ``sessions_fleet`` went from 13,020 / 13,828 / 12,883 events
to 5,295 / 4,768 / 5,114, and the 16 ``disagg_overload`` episodes from
96,228 events in all (6,670 for episode 0) to 11,197 (707).  Every
other value stayed as recorded.
"""

import hashlib

import pytest

from perfbench.outcomes import outcome_digest
from perfbench.workloads import WORKLOADS

SEED = 1

# (workload, episode) -> (outcome digest, makespan, sim events,
# iteration-stats hash, scaling-events hash).
GOLDENS = {
    ("mixed_paper", 0): (
        "6f41504e7d3f3dcd0ce9862f2f6cbd3bb32bcc2d31a37288018d7c0ff3a72165",
        1664.0118015006628, 1345, "976f594ea05db1d6", "f7e49196485cd3aa",
    ),
    ("mixed_paper", 1): (
        "fb35ca7dcd80388910c7498531bea8915e4256d69bcf5223d2c50795d7a30e56",
        1812.48328436612, 1349, "3ddc21f335468a37", "23b710b673ddd8aa",
    ),
    ("mixed_paper", 2): (
        "eaa44490c0abbea45ce836f5c4203eab9650e90b015c52cbc27a7849ecb0045d",
        1645.7731675934444, 1362, "2d1dda252576ec76", "4db98b810b63bd81",
    ),
    ("mixed_paper", 3): (
        "a59d7ff968fc6e05220626ebb5ae31db44adac61f7ff34f2320e8305d3714481",
        1645.9518904456777, 1354, "1f7641ca10539fc9", "3f209a61fc9bd0b0",
    ),
    ("mixed_paper", 4): (
        "6399805e706354254039f9dffbe242f337a1907db5f1539bd689f05a71ede658",
        1828.5845310959508, 1334, "ae8be855fcff0e5b", "71b9c296c5092f48",
    ),
    ("mixed_paper", 5): (
        "8d9400515dca2d042e2f7aff9e1db80f38256443fc6231e0410f796deaf3af03",
        1743.0973839509263, 1347, "e9c18ce94834e1f5", "e182c82233fccfe7",
    ),
    ("sessions_fleet", 0): (
        "1f0ab1a85aaf4e0b980a10a0f644d810e4fde8c693b30d0893f7bcaf556c1443",
        302.5, 5295, "67d5482d9c803e0c", "add889c327f45f7b",
    ),
    ("sessions_fleet", 1): (
        "8427e7c9868739285fb4eb4b8dda937b9bcc3e1387bcec0f6d82271f2a506ecf",
        256.5, 4768, "40a0842f788e7452", "c896f61cce6804c8",
    ),
    ("sessions_fleet", 2): (
        "13e0732a05cf424a54eebdc65db8d532f45f185b3d4589880ac3575a21817d30",
        280.5, 5114, "0fa460e1533d9fea", "0f3278002c337d32",
    ),
    ("disagg_overload", 0): (
        "885b136ebf8b04fbfea974fcbb8711f0cffbe3ca00d88da96d8f26bb5ab3562a",
        27.84362124343712, 707, "264934816138cac5", "a0c77550317a3756",
    ),
    ("disagg_overload", 1): (
        "097b0bbb992ff50c642e929aade02619b8f6106bb18226a3cef6fc159c2227f3",
        87.99275706390705, 638, "c3461b6e17b91943", "557ccc77ad76793a",
    ),
    ("disagg_overload", 2): (
        "f83ceaceac6048221ee7b518acbe267f897dcc7dbee192cdf87b7d4bd563e216",
        74.49993304055427, 591, "eaeb0d6e9e4ded64", "7fd8924067ed5fe6",
    ),
    ("disagg_overload", 3): (
        "151c9e3a9bbe7cd2a034f8c628cb797496995620ec0aaa15afc3521a8a685a49",
        31.82530677312079, 703, "96be88b5b4569eff", "0f255b4eb646255e",
    ),
    ("disagg_overload", 4): (
        "91216c43d2e9fce2fc842e6d4385ecee4ed79ee10eda844f393b6b321bab1907",
        39.347121833848234, 735, "dd77f4f2976da16f", "86878d1e25020959",
    ),
    ("disagg_overload", 5): (
        "f39d90a741d1cf6560992a22b5b0dda988d2e3b7828bb0ebeac0451076c9cc4e",
        40.42063212014315, 755, "f1481adac9a85ce9", "e0e50b490118f062",
    ),
    ("disagg_overload", 6): (
        "71362f921ef6d3a74af2587c074723e1e445449dddf7575738681a21cfa2d89e",
        61.33084909268762, 575, "d791b707a0a332fe", "b48e9e6382d01297",
    ),
    ("disagg_overload", 7): (
        "26d191ef639b24b9b577479f898b6640511452c90f1c791da5a5ee9620d15dc8",
        39.641283052561874, 750, "a5086108e532e51d", "168beb7a86c45fcd",
    ),
    ("disagg_overload", 8): (
        "b982b697e41e1165e495feecb85826ec7cc1c06df7b8be05f4b6026d90ce7e18",
        57.384679277654364, 736, "c8aea2b9eddcc399", "de5c9517a2dde972",
    ),
    ("disagg_overload", 9): (
        "f29af41564e2f8eaa1c1d8a625a9dd59ec2efcf42c01f8efece21f6973cf350f",
        71.34668143778612, 725, "149c85f3d9c4432a", "a3dfb7e186a597f0",
    ),
    ("disagg_overload", 10): (
        "ab582958658d9bb740f751261f587a9f9dda3501b6c2e002f136749f1d36a666",
        66.00985822064393, 674, "e68aff34cbc1a8de", "9e4af683972b1b85",
    ),
    ("disagg_overload", 11): (
        "c9bb2fcebf2e2bfdcc09f5d59f75a6352e19bc99157f1563a3101d2b4054b05a",
        31.047701954115837, 771, "840c8aac9e9f40f3", "c3180ef6feba822d",
    ),
    ("disagg_overload", 12): (
        "c94128b407628a6276f3568ed0e66c8835446f031fd7101e39e57133556f1466",
        79.61193647016083, 684, "d522d2a63eeec93a", "efefb5e55229dcf5",
    ),
    ("disagg_overload", 13): (
        "730c74b33729e4eac9abfb83ad91467442016391182bb5271a6186e3c8f2dcbd",
        46.21331834996996, 686, "60cfec3a34301962", "521fbadc3581663f",
    ),
    ("disagg_overload", 14): (
        "31d91bb93eb5e9e4a9a8186f9d0e07bfe843d8f04d9dfe75d05a578035154110",
        32.7637922175226, 696, "d2ba98f5dc30077a", "973a42bd85842ff7",
    ),
    ("disagg_overload", 15): (
        "e6197ab314730b1fb82eb6fedb4288e5fecef0dd5474670a55dbcbd46f7249a0",
        84.28076772688982, 771, "c16a5f7619e5e22d", "caacca065b3b89b5",
    ),
}


def _hash(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def episode_signature(workload: str, episode: int) -> tuple:
    """Serve one episode; returns the values :data:`GOLDENS` pins."""
    system, trace = WORKLOADS[workload].build(SEED, episode)
    result = system.run(trace)
    return (
        outcome_digest(trace),
        result.makespan,
        system.sim.events_processed,
        _hash([
            (s.phase.name, s.batch_size, s.total_tokens, s.dop, s.duration, s.start_time)
            for s in result.iteration_stats
        ]),
        _hash([
            (e.time, e.kind, e.group_before, e.group_after, e.batch_size)
            for e in result.scaling_events
        ]),
    )


def test_every_episode_is_pinned():
    assert set(GOLDENS) == {
        (workload.name, episode)
        for workload in WORKLOADS.values()
        for episode in range(workload.episodes)
    }


@pytest.mark.parametrize("workload, episode", sorted(GOLDENS))
def test_episode_serves_the_recorded_outcomes(workload, episode):
    assert episode_signature(workload, episode) == GOLDENS[workload, episode]
