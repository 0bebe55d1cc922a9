"""A loader ticket's bookings on the modelled clock, pinned.

A deferred ticket (``prefetch_depth >= 1``) costs one ``SourceLoader.poll``
call, which the engine books as a chain of ``POLL_CHUNK``-row chunks.  The
values below were recorded when each chunk was a poll call of its own, a
chain the pipeline issued one poll at a time.  Per job cell they pin,
byte-exactly:

- every loader timeline event ``(actor, method, step, start, end)``;
- each ticket's completion instant (the future's ``available_at_s``), by
  ``(actor, step)``;
- the :class:`~repro.metrics.timeline.OverlapLedger` totals (fetch, hidden,
  exposed, stall).

Each cell runs a mixture swap with a pipeline flush, a manual scale-up and
a loader failure mid-run.  The cells are small VLM and text jobs at depths
1 and 2, with tickets of one to four chunks.

The property at the end holds the engine's one booking loop to a reference
of the old chained booking, written out here: each chunk starts at the
previous chunk's end (or when a lane frees, if later), books the
earliest-free lane and is priced by :func:`capacity_split_duration_s` with
the lanes as they are at its start.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MegaScaleData, TrainingJobSpec
from repro.actors.actor import Actor, ActorHandle
from repro.actors.runtime import ActorSystem, ClusterSpec
from repro.core.cost_model import DataPlaneLatencyProvider, capacity_split_duration_s
from repro.data.mixture import MixtureSchedule

STEPS = 10


def job(kind: str, depth: int) -> TrainingJobSpec:
    if kind == "vlm":
        return replace(
            TrainingJobSpec.vlm_example(), samples_per_dp_step=40, prefetch_depth=depth, seed=3
        )
    return replace(
        TrainingJobSpec.text_example(), samples_per_dp_step=48, prefetch_depth=depth, seed=5
    )


def ticket_trace(kind: str, depth: int, monkeypatch) -> dict[str, object]:
    """Run one cell and digest its loader bookings."""
    issued: list[tuple[str, int, object]] = []
    submit = ActorHandle.submit_timed

    def recording(self, method, *args, **kwargs):
        future = submit(self, method, *args, **kwargs)
        if method == "poll":
            issued.append((self.name, kwargs["step_tag"], future))
        return future

    monkeypatch.setattr(ActorHandle, "submit_timed", recording)
    system = MegaScaleData.deploy(job(kind, depth))
    try:
        sources = [source.name for source in system.catalog.sources()]
        for index in range(STEPS):
            if index == 2:
                weights = {name: 1.0 for name in sources}
                weights[sources[0]] = 4.0
                system.set_mixture(MixtureSchedule.static(weights), flush_pending=True)
            elif index == 4:
                system.scale_source(sources[1], 2)
            elif index == 6:
                victim = next(
                    handle.name
                    for handle in system.loader_handles
                    if len(system.fleet.group_for(handle.name).members) == 1
                )
                system.system.failures.fail(victim)
            system.run_step()
        events = sorted(
            (event.component, event.name, event.metadata.get("step"), event.start, event.end)
            for event in system.system.timeline.events()
            if event.metadata.get("role") == "source_loader"
        )
        finals = sorted(
            (name, step, future.available_at_s)
            for name, step, future in issued
            if future.done()
            and not future.cancelled()
            and future.exception() is None
            and future.result().get("key") is not None
        )
        ledger = system.overlap
        totals = (
            ledger.fetch_total_s(),
            ledger.hidden_total_s(),
            ledger.exposed_total_s(),
            ledger.stall_total_s(),
        )
    finally:
        system.shutdown()
    return {
        "events": len(events),
        "events_digest": hashlib.sha256(repr(events).encode()).hexdigest()[:16],
        "tickets": len(finals),
        "finals_digest": hashlib.sha256(repr(finals).encode()).hexdigest()[:16],
        "overlap": tuple(float.hex(value) for value in totals),
    }


#: Recorded from the chained-poll booking (one poll call per chunk).
PINS: dict[tuple[str, int], dict[str, object]] = {
    ("text", 1): {
        "events": 340, "events_digest": "9898fd4d5d390bb6",
        "tickets": 77, "finals_digest": "68699e002191bb65",
        "overlap": ("0x1.839906b97196bp+9", "0x1.73e23ac8bdc58p+6",
                    "0x1.551cbf6059de0p+9", "0x1.60d3d4b95aeabp+9"),
    },
    ("text", 2): {
        "events": 385, "events_digest": "6ae42f9c8d478e73",
        "tickets": 88, "finals_digest": "52a21e3f9da30c1a",
        "overlap": ("0x1.8540d5122f9ddp+9", "0x1.231270927e1b4p+7",
                    "0x1.3c7c38ed90171p+9", "0x1.4a6b5b98f49eap+9"),
    },
    ("vlm", 1): {
        "events": 496, "events_digest": "aff231103429dec0",
        "tickets": 121, "finals_digest": "37e8bbac295306cc",
        "overlap": ("0x1.538885ef609f7p+7", "0x1.2b1255ce8aae5p+4",
                    "0x1.2e263b358f49ap+7", "0x1.42fcf9c323b92p+7"),
    },
    ("vlm", 2): {
        "events": 566, "events_digest": "14e15a1147af4fe4",
        "tickets": 138, "finals_digest": "f119d4beab407138",
        "overlap": ("0x1.538885a8e9c29p+7", "0x1.a28c51a5837a9p+4",
                    "0x1.1f36fb7439534p+7", "0x1.380c0dc577d7ap+7"),
    },
}


@pytest.mark.parametrize("kind,depth", sorted(PINS))
def test_ticket_bookings_match_the_chained_polls(kind, depth, monkeypatch):
    assert ticket_trace(kind, depth, monkeypatch) == PINS[(kind, depth)]


class Loader(Actor):
    role = "source_loader"

    def poll(self, chunks: tuple[float, ...]) -> dict[str, object]:
        return {"chunk_wall_clock_s": chunks, "key": None}


def chained_reference(lanes, ready_s, chunks, rpc_s):
    """The old booking: one poll per chunk, each submitted at the previous end."""
    lanes = sorted(lanes)
    events = []
    ready = ready_s
    for amortized in chunks:
        start = max(ready, lanes[0])
        busy = tuple(lanes[bisect_right(lanes, start):])
        end = start + rpc_s + capacity_split_duration_s(amortized, start, busy)
        del lanes[0]
        insort(lanes, end)
        events.append((start, end))
        ready = end
    return events, lanes


@given(
    lanes=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4),
    ready_s=st.floats(0.0, 5.0),
    workers=st.integers(1, 4),
    chunk=st.sampled_from([1, 2, 8]),
    latencies=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_the_booking_loop_equals_the_chained_polls(lanes, ready_s, workers, chunk, latencies):
    chunks = []
    for begin in range(0, len(latencies), chunk):
        total = 0.0
        for latency in latencies[begin:begin + chunk]:
            total += latency
        chunks.append(total / workers)
    chunks = tuple(chunks)

    system = ActorSystem(ClusterSpec(accelerator_nodes=1, cpu_pods=1))
    system.latency_provider = DataPlaneLatencyProvider()
    handle = system.create_actor(Loader, name="loader", concurrency=len(lanes))
    system.engine._lanes_s["loader"] = sorted(lanes)
    future = handle.submit_timed("poll", chunks, earliest_start_s=ready_s)
    system.drain()

    want, want_lanes = chained_reference(lanes, ready_s, chunks, system.rpc_latency_s)
    got = [(event.start, event.duration) for event in system.timeline.events(component="loader")]
    assert got == [(start, end - start) for start, end in want]
    assert system.engine._lanes_s["loader"] == want_lanes
    assert future.available_at_s == want[-1][1]
    assert system.clock.now_s == want[-1][0]
