"""Byte pins recorded from the retired reference implementations.

Until ``a65cb3b`` packing, slicing and dispatch each had a second, per-sample
or linear-scan implementation beside the one the step path runs: the
``PackingCollator`` / ``apply_rope_positions`` collators, the
``build_rank_slices`` mesh walk and ``ActorSystem(dispatcher="linear")``.
Every digest below was computed from those references at ``a65cb3b``, with no
tolerance; the tests recompute it from the kept path
(:func:`collate_columns_with_positions`, :class:`DataConstructor` over
``RankLayout``, the indexed dispatch heap), so the deletion of the references
changed no byte they produced.

- ``CORPUS_PINS``: fig24's three ``_make_batch`` corpora collated at
  ``max_sequence_length=2048``: sequence token counts, segment tables
  (``repr``, so Python ``int`` types are pinned too), ``position_ids`` bytes
  and sample ids.
- ``CORNER_PINS``: the same four digests for empty, all-overflow,
  single-sample and zero-length microbatches.
- ``DELIVERY_PINS``: one corpus's per-rank ``RankDelivery`` slices for the
  second DP group of every pp × cp × tp mesh in {1, 2}³ and of a cp=3 mesh.
- ``DISPATCH_PINS`` / ``LIFECYCLE_PIN``: the ``(start, seq, actor, method)``
  trace, per-actor logs, future states and completion instants and the final
  clock of fixed actor scripts: random submit / nested / relay / tick / cancel
  scripts and a create / destroy / reuse / retire lifecycle.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.actors.actor import Actor
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core.assembly import PreparedColumns
from repro.core.columns import SampleColumns
from repro.core.data_constructor import DataConstructor
from repro.core.plans import ModulePlan
from repro.data.samples import Modality, SampleMetadata
from repro.parallelism.mesh import DeviceMesh
from repro.transforms.microbatch import collate_columns_with_positions

MAX_SEQUENCE_LENGTH = 2048


def sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


def collation_digests(collated) -> dict[str, str]:
    """The four pinned views of a collation: any object with the
    ``CollatedMicrobatch`` fields digests the same way."""
    positions = collated.position_ids
    return {
        "sequences": sha([sequence.tokens for sequence in collated.sequences]),
        "segments": sha([sequence.segments for sequence in collated.sequences]),
        "position_ids": sha(positions.dtype.str, positions.tobytes()),
        "sample_ids": sha(collated.sample_ids),
    }


def make_batch(batch: int, num_sources: int) -> list[SampleMetadata]:
    """fig24's corpus: deterministic text samples, each source in its own length band."""
    rng = np.random.default_rng(batch * 31 + num_sources)
    metas = []
    for index in range(batch):
        source = index % num_sources
        high = 64 + (1400 - 64) * (source + 1) // num_sources
        tokens = int(rng.integers(16, high))
        metas.append(
            SampleMetadata(
                sample_id=index + 1,
                source=f"src-{source}",
                modality=Modality.TEXT,
                text_tokens=tokens,
                raw_bytes=4 * tokens,
            )
        )
    return metas


def corner_lengths(corner: str, max_len: int) -> list[int]:
    if corner == "empty":
        return []
    if corner == "all_overflow":
        return [max_len + 1 + index % 7 for index in range(4)]
    if corner == "single":
        return [2 * max_len - 1]
    return [0, 0, max_len, 0, 1, max_len - 1, 0]  # zero-length samples


CORNERS = [
    (corner, max_len)
    for corner in ("empty", "all_overflow", "single", "zeros")
    for max_len in (1, 7, 64)
]


def collate(index: int, sample_ids: list[int], lengths: list[int], max_len: int):
    return collate_columns_with_positions(
        sample_ids, np.array(lengths, dtype=np.int64), max_len
    )


# -- deliveries -------------------------------------------------------------------------

DELIVERY_CORPUS = (2048, 4)
DELIVERY_MICROBATCHES = 8
#: (pp, cp, tp) of each pinned mesh; every mesh has dp=2 and the second DP
#: group is delivered, so rank numbers are offset.
MESHES = [(pp, cp, tp) for pp in (1, 2) for cp in (1, 2) for tp in (1, 2)] + [(2, 3, 2)]


def delivery_plan(metas: list[SampleMetadata]) -> ModulePlan:
    per_microbatch = len(metas) // DELIVERY_MICROBATCHES
    used = per_microbatch * DELIVERY_MICROBATCHES
    return ModulePlan(
        module="backbone",
        axis="DP",
        num_buckets=1,
        num_microbatches=DELIVERY_MICROBATCHES,
        rows=SampleColumns.from_samples(metas[:used]),
        offsets=list(range(0, used + 1, per_microbatch)),
        estimated_costs=[0.0] * DELIVERY_MICROBATCHES,
    )


def slice_bytes(piece) -> tuple:
    return (
        piece.rank,
        piece.microbatch_index,
        piece.token_count,
        piece.payload_bytes,
        piece.metadata_only,
        piece.replicated_from,
        sorted(piece.slice_info.items()),
    )


def deliveries_digest(by_rank: dict[int, list]) -> str:
    """Digest of ``rank -> slices``, ranks in order, every slice field included."""
    return sha([(rank, [slice_bytes(piece) for piece in by_rank[rank]]) for rank in sorted(by_rank)])


def constructor_deliveries(metas, pp: int, cp: int, tp: int) -> dict[int, list]:
    mesh = DeviceMesh(pp=pp, dp=2, cp=cp, tp=tp, gpus_per_node=8)
    constructor = DataConstructor(
        bucket_index=0, mesh=mesh, dp_index=1, max_sequence_length=MAX_SEQUENCE_LENGTH
    )
    prepared = PreparedColumns(
        *np.array(
            [(m.sample_id, m.text_tokens, m.image_tokens, m.raw_bytes) for m in metas],
            dtype=np.int64,
        ).T
    )
    constructor.construct(0, delivery_plan(metas), prepared)
    return {rank: constructor.get_batch(0, rank).slices for rank in constructor.ranks_served(0)}


# -- dispatch scripts -------------------------------------------------------------------

NUM_ACTORS = 4
CLUSTER = ClusterSpec(accelerator_nodes=1, cpu_pods=1)


class Probe(Actor):
    """Logs every call; can submit or call further work from inside an event."""

    role = "probe"

    def __init__(self, log: list | None = None, tag: str = "") -> None:
        super().__init__()
        self.system: ActorSystem | None = None
        self.log = log if log is not None else []
        self.tag = tag

    def work(self, token: int) -> int:
        self.log.append((self.tag, token) if self.tag else token)
        return token

    def spawn(self, token: int, target: str) -> int:
        self.log.append(token)
        self.system.submit_call(target, "work", (token + 10_000,), {})
        return token

    def relay(self, token: int, target: str) -> int:
        self.log.append(token)
        return self.system.call_actor(target, "work", (token + 20_000,), {})


def script(seed: int) -> tuple[list[int], list[tuple]]:
    """Lane counts and a 40-op script drawn from ``seed``."""
    rng = random.Random(seed)
    concurrencies = [rng.randint(1, 3) for _ in range(NUM_ACTORS)]
    ops = []
    for _ in range(40):
        kind = rng.choice(["submit"] * 4 + ["nested", "relay", "tick", "cancel_future", "cancel_actor"])
        actor = rng.randrange(NUM_ACTORS)
        if kind == "submit":
            ops.append((kind, actor, rng.choice([None, 0.0, 0.5, 2.0, 2.0, 7.5]),
                        rng.choice([None, 0.0, 0.25, 1.0])))
        elif kind in ("nested", "relay"):
            ops.append((kind, actor, rng.randrange(NUM_ACTORS)))
        elif kind == "tick":
            ops.append((kind, rng.randint(1, 4)))
        elif kind == "cancel_future":
            ops.append((kind, rng.randrange(64)))
        else:
            ops.append((kind, actor))
    return concurrencies, ops


def run_script(system: ActorSystem, concurrencies: list[int], ops: list[tuple]) -> tuple:
    """Replay one script on ``system``; returns every observable of the run."""
    system.dispatch_trace = []
    names = [f"probe-{index}" for index in range(NUM_ACTORS)]
    for name, lanes in zip(names, concurrencies):
        system.create_actor(Probe, name=name, cpu_cores=0.25, memory_bytes=1024, concurrency=lanes)
        system.actor_instance(name).system = system
    futures = []
    for token, op in enumerate(ops, start=1):
        kind = op[0]
        if kind == "submit":
            _, index, ready, duration = op
            futures.append(system.submit_call(
                names[index], "work", (token,), {}, duration_s=duration, earliest_start_s=ready
            ))
        elif kind in ("nested", "relay"):
            method = "spawn" if kind == "nested" else "relay"
            futures.append(system.submit_call(names[op[1]], method, (token, names[op[2]]), {}))
        elif kind == "tick":
            system.tick(op[1])
        elif kind == "cancel_future":
            if futures:
                futures[op[1] % len(futures)].cancel()
        else:
            system.cancel_pending(names[op[1]])
    system.drain()
    return (
        system.dispatch_trace,
        [system.actor_instance(name).log for name in names],
        [(future.state.value, future.available_at_s) for future in futures],
        system.clock_s,
    )


def run_lifecycle(system: ActorSystem) -> tuple:
    """Create, cancel a head, destroy with queued work, reuse the name, retire."""
    system.dispatch_trace = []
    log: list = []
    a = system.create_actor(lambda: Probe(log, tag="a"), name="a")
    b = system.create_actor(lambda: Probe(log, tag="b"), name="b")
    c = system.create_actor(lambda: Probe(log, tag="c"), name="c")
    futures = [a.submit_timed("work", 0, earliest_start_s=5.0)]
    futures.append(a.submit_timed("work", 1, earliest_start_s=0.5))
    futures[0].cancel()
    futures.append(b.submit_timed("work", 2, earliest_start_s=1.0))
    system.tick(1)
    futures.append(a.submit_timed("work", 3, earliest_start_s=9.0))
    system.stop_actor("a")
    a2 = system.create_actor(lambda: Probe(log, tag="a2"), name="a")
    futures.append(a2.submit_timed("work", 4, earliest_start_s=0.25))
    futures.append(c.submit_timed("work", 5, earliest_start_s=0.75))
    system.tick(2)
    futures.append(b.submit_timed("work", 6, earliest_start_s=2.0))
    futures.append(a2.submit_timed("work", 7, earliest_start_s=2.5))
    system.retire_actor("a")
    system.drain()
    return (
        system.dispatch_trace,
        log,
        [(future.state.value, future.available_at_s) for future in futures],
        system.clock_s,
    )


# -- pins -------------------------------------------------------------------------------

CORPUS_PINS = {
    (2048, 4): {
        'sequences': '831bed4f9647a8e42543e043fe8ce8f50323c26da17d74345179bd2ca0d61117',
        'segments': '2204342c4f26ef643e43eab9e05ed50b0636d4d846c9e568d8ee805512c292a0',
        'position_ids': 'e6c154ad89593ea8c0d960063b1d9277480b1863cf60ad391e5f1e85e53df6f7',
        'sample_ids': '417e1dbb7d6d48c0eb91d799da3ccde27b6c8eba8b3e2434678f525e6ac57308',
    },
    (8192, 8): {
        'sequences': '4a5b6e6cc568ec91144ea01bcb2c3c121726a316d9427051ce312bb05fe5f69d',
        'segments': '42abb61917c2952a8426f3dce17583fba041bb44a2b44b739bdfada6d89489e4',
        'position_ids': 'b76cd4c3fa2f358eb4b6ecc582f2b5757b26e59fd91e12f39ccfe4f2cf51e04e',
        'sample_ids': '4c3118462d6cb33a1b771e13803bd0f6952b746da2e9616a94199fe32c662f14',
    },
    (32768, 16): {
        'sequences': '739c0493d0cdd0053b61df8ea2e5982d57713e03e08bd4d0426f35f4857ade6a',
        'segments': '43da52e10659d907d86ee49ce889ed10aef1d10ece32531a9eb43d8fa139f1d1',
        'position_ids': '7fa7aea264ed319c4817a400c8f1b9e7016f13927bc8d90d391fb7e2a3e6faaf',
        'sample_ids': '07b985723f9782eac054eb11be6c7fcd974d949c58a883d9bf58ea7bb3cb1d3a',
    },
}
CORNER_PINS = {
    ('empty', 1): {
        'sequences': '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
        'segments': '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
        'position_ids': '83a3bd3164b2b89d8ac0ec688cde2f13a2346fbfd735d66990dbdaf698065149',
        'sample_ids': '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    },
    ('empty', 7): {
        'sequences': '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
        'segments': '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
        'position_ids': '83a3bd3164b2b89d8ac0ec688cde2f13a2346fbfd735d66990dbdaf698065149',
        'sample_ids': '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    },
    ('empty', 64): {
        'sequences': '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
        'segments': '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
        'position_ids': '83a3bd3164b2b89d8ac0ec688cde2f13a2346fbfd735d66990dbdaf698065149',
        'sample_ids': '4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945',
    },
    ('all_overflow', 1): {
        'sequences': '7112a20f8224a851d514a98ae70e2c7f46192ad025cd04b6ad42ef9b030b10da',
        'segments': 'e8b14d9aaf90da411421d594313aca2f611c3e2b71a713ff6db804ebfc9c3453',
        'position_ids': '51251465e58b46dd8036cf11d6b7447c8d0631609953ce3592529bca198e18f2',
        'sample_ids': '7d9d34ecfe531ae8502fca45b17f8377721ca0c44ad73259a1b0411cbf3dfde5',
    },
    ('all_overflow', 7): {
        'sequences': '1dfa0dc51a3fd6a18feada9a18906ead9d3e8c4212a956cb85f9af3356fa4e12',
        'segments': '14858f5aa5ea14535292a7b6bbbadc3568c636f445f962318101573b80f125a3',
        'position_ids': '181dee7533bc0e86e1766aedaaf1a46bdbebfef2329efd9061948c955470f256',
        'sample_ids': '7d9d34ecfe531ae8502fca45b17f8377721ca0c44ad73259a1b0411cbf3dfde5',
    },
    ('all_overflow', 64): {
        'sequences': '3dfd4e325a846c5ac45a2530e7370b386c7b9b93862488ff212906642e3d4b43',
        'segments': '8da3f4dc6de3d0390b286ce3a0061f0da8b5cbfc04e822d0894457a4f6865114',
        'position_ids': 'fda1a09f3eb350f2c697d86f6be5bf66aa192dd8ce468e5fa128db44f3489ec0',
        'sample_ids': '7d9d34ecfe531ae8502fca45b17f8377721ca0c44ad73259a1b0411cbf3dfde5',
    },
    ('single', 1): {
        'sequences': '080a9ed428559ef602668b4c00f114f1a11c3f6b02a435f0bdc154578e4d7f22',
        'segments': '8ad7c04eecaad059ad9b0ca9cace72fa7f674f575673d6d5056f9a03c8d32907',
        'position_ids': 'd8e4003eeb38ca84b1af9b6b11a7f62bc36c2ea9e68ffb2171b6860b0d4ed7d4',
        'sample_ids': '038966de9f6b9a901b20b4c6ca8b2a46009feebe031babc842d43690c0bc222b',
    },
    ('single', 7): {
        'sequences': '589ffd3acf522ae81192579f297589e93b0c41f748b224d1b4bb5c857a2f70cb',
        'segments': '04b366529274a833a2c6dba57e08634e32454d3b37c5ebd78970520f5fe487c4',
        'position_ids': '56f218b0e16accb9333e2b24ba733f650402b2b059739aec4e36f6d795375495',
        'sample_ids': '038966de9f6b9a901b20b4c6ca8b2a46009feebe031babc842d43690c0bc222b',
    },
    ('single', 64): {
        'sequences': '00f9f95c19f328a80a35f85d92f1cb2c0e7b54d699ccdb6d8e8bac0db9f6a597',
        'segments': '7caa555f5d7c3fbdf6d6293df16fef95dc60aee9aea5434b7fb8ac647e43a26b',
        'position_ids': '4afffae7f0680019678062ef17ecf44422b3ac239cf185d8f8a7e86c4237827a',
        'sample_ids': '038966de9f6b9a901b20b4c6ca8b2a46009feebe031babc842d43690c0bc222b',
    },
    ('zeros', 1): {
        'sequences': 'e718fe8edf8a7c2917cd7444286b7048042a74abf5208f1d70933c08dbd6b7e9',
        'segments': 'cd01f2dee593cab77681441cdf6ff8e2a8599b46f2dc6ebf942d3c4512be56d0',
        'position_ids': 'a4215ca05ef03276caa17005d2fbe712e113ccd7b8b6572cdcffdabdf2dd6313',
        'sample_ids': 'bf541d2565b6fddfcb79a5c72152aedc4b1ef7752103334525fba17cbc1b2c99',
    },
    ('zeros', 7): {
        'sequences': '80e89ff641d3c1d4843866a5ae66e7e31a06f80ad1b0ae66b42ad387fdc95f51',
        'segments': '6625df77a043fd1d8a26b94122b421782c4eefed1dd460aa03f3dcf38c0ca9fe',
        'position_ids': 'afdd09ba8d8254cb0211b4b62e6861f851ad1e1a7b582f5c415cee65118142ef',
        'sample_ids': 'bf541d2565b6fddfcb79a5c72152aedc4b1ef7752103334525fba17cbc1b2c99',
    },
    ('zeros', 64): {
        'sequences': 'a48552c6426952fb45e78102eb3e69c4aa484abda40904637f93a818a034d86e',
        'segments': 'fa12d5cfbd24a7bbbbad15e5160537386c46250fdaaf5de0deff5b4f4cbed468',
        'position_ids': 'd506ce1c6fcda0f6f84017e7b88a8c607a49dcb73df6ec0cdd5ea3e4e3e37ce9',
        'sample_ids': 'bf541d2565b6fddfcb79a5c72152aedc4b1ef7752103334525fba17cbc1b2c99',
    },
}
DELIVERY_PINS = {
    (1, 1, 1):
        '3957ee06bcac27bbc1e78f98e5e7afc5d6b4817829b198926c7dd4beab65f17b',
    (1, 1, 2):
        'ec7f68f5bba5682ef66b98fc7cc3003ef9adb84d749f6ea6919a4cf0132e5894',
    (1, 2, 1):
        'f9fdb59321f8e5705ee27dedeacabd2799b7c3f104e3e71f7203acdb8092dd53',
    (1, 2, 2):
        'b8f8293d941f37f5fc42d97c74dcb6e16715e4e00bddef7703d54c6472851c0d',
    (2, 1, 1):
        '733d250e5725671714d87ff14e6efa4d50319092258634828a317e5aaaa7d8f4',
    (2, 1, 2):
        'ecd65abd42c3e0625a50fefa3cbaaec13c4e56397aa2e683b710b25c106a532a',
    (2, 2, 1):
        '8f2b0b1e808434e554b29b1b3e04a0739977b1f07e1538e5fb089ec2619e8b11',
    (2, 2, 2):
        '07bc8f443f8f3da0bb276bfb4f9729fd82f108669444fc50712408a82001bd92',
    (2, 3, 2):
        'c2c933bd7506a28e457dd04f755a4d16fe78e9820e1d9dd408b420a6ab69ae7d',
}
DISPATCH_PINS = {
    0:
        'f8f973cf93ac7615417b2c9be536549ed6288ca73d39b9dd08347d50e92d2d7b',
    1:
        '1f863ce15cd0f2eddff33ab2578f1b8ce30656c271906bb2769c090c8f752481',
    2:
        '5c384016a583235ea4c4bdfbfcfcfdc50aea62e7edc2d4ea5253fde0f17f9fd0',
    3:
        'd2327cd311e1dc294784fb4b8ec16e76d87fb4ab30be5dc3d494b419da904b49',
    4:
        'dd57eb902d440f1c96bc511baf264872404a8c779eecaa8bb642957063552d4f',
    5:
        'a16a956f403f60cdba96f1c75e207cba54ef5c216a63fc216eecad8999c76333',
    6:
        '4248530a8dd5c9bd70bd62e2a0cdc0afb383b9405c2bbfc9ba22a855e058780e',
    7:
        '1c4079c5e719a6d74a2f41d806adbaa6040e0f373ebe80e819f1d5d187d72f1b',
}
LIFECYCLE_PIN = '4bf07e4d3b6881f65a0533ecf94612b2e2c5ee1d6a75a3f42f106d01ae85a3cb'


@pytest.mark.parametrize("corpus", sorted(CORPUS_PINS))
def test_fig24_corpora_collate_to_the_reference_bytes(corpus):
    metas = make_batch(*corpus)
    collated = collate(
        0, [m.sample_id for m in metas], [m.total_tokens for m in metas], MAX_SEQUENCE_LENGTH
    )
    assert collation_digests(collated) == CORPUS_PINS[corpus]


@pytest.mark.parametrize("corner", CORNERS)
def test_degenerate_corners_collate_to_the_reference_bytes(corner):
    lengths = corner_lengths(*corner)
    collated = collate(3, [7 * i + 2 for i in range(len(lengths))], lengths, corner[1])
    assert collation_digests(collated) == CORNER_PINS[corner]


@pytest.mark.parametrize("mesh", MESHES)
def test_rank_deliveries_equal_the_reference_mesh_walk(mesh):
    metas = make_batch(*DELIVERY_CORPUS)
    assert deliveries_digest(constructor_deliveries(metas, *mesh)) == DELIVERY_PINS[mesh]


@pytest.mark.parametrize("seed", sorted(DISPATCH_PINS))
def test_dispatch_scripts_replay_the_linear_scan_trace(seed):
    assert sha(run_script(ActorSystem(CLUSTER), *script(seed))) == DISPATCH_PINS[seed]


def test_lifecycle_script_replays_the_linear_scan_trace():
    assert sha(run_lifecycle(ActorSystem(CLUSTER))) == LIFECYCLE_PIN
