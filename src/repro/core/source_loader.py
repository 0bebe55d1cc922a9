"""Source Loader actors: per-source sample ingestion and transformation.

A Source Loader is a dedicated actor for one data source (or one shard of a
source when the AutoScaler splits it).  It ingests metadata from the source's
columnar files a chunk at a time, costs the sample-level transformations from
that metadata as the chunk arrives (a pool of parallel workers amortises the
latency), keeps a read buffer of lightweight metadata the Planner can inspect,
and stages prepared samples as rows that a fetch hands to Data Constructors
as one column slice.

A row is costed once per process: the costed row stays on its row group
under the loader's cost key, so a shard-group mirror, or a loader rewound by
a flush, restarted or restored, reads it back instead of costing it again.

One step's work on one loader is a *ticket* and costs only its polls
(:meth:`SourceLoader.poll`): the first poll carries the sample ids and
registers the ticket, each poll transforms one chunk, and the final poll
publishes the ticket's staged rows as a ``prepared/`` GCS reference and
returns its key.  There is no separate accept or hand-off call.

Because the file access state lives in exactly one actor per source (not in
every dataloader worker on every rank), source-scaling memory redundancy is
eliminated (Sec. 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.actors.actor import Actor
from repro.core.assembly import PreparedColumns
from repro.data.samples import MetadataColumns, SampleMetadata
from repro.data.sources import DataSource, SourceCursor
from repro.data.synthetic import MODALITY_COST_PER_TOKEN
from repro.errors import PlanError
from repro.storage.filesystem import SimulatedFileSystem
from repro.storage.reader import ColumnarReader
from repro.transforms.pipeline import TransformPipeline

#: Resident memory of one worker process' execution context (interpreter,
#: imported libraries, transform state); PyTorch DataLoader workers are of
#: this order of magnitude.
WORKER_CONTEXT_BYTES = 96 * 1024 * 1024
#: Metadata bytes buffered per sample in the read buffer.
BUFFERED_METADATA_BYTES = 96


@dataclass
class LoaderStats:
    """Counters exposed for monitoring and the AutoScaler."""

    samples_buffered: int = 0
    samples_prepared: int = 0
    samples_delivered: int = 0
    #: Demanded ids consumed from the buffer without transforming (mirror
    #: members of a fleet shard group absorbing their peers' demands, and
    #: failover/bootstrap replay).
    samples_replayed: int = 0
    transform_seconds: float = 0.0
    read_seconds: float = 0.0
    refills: int = 0


@dataclass
class _PrepareTicket:
    """Book-keeping for one in-flight asynchronous prepare request."""

    sample_ids: list[int]
    position: int = 0
    total_latency_s: float = 0.0
    staged_bytes: int = 0

    def remaining(self) -> int:
        return len(self.sample_ids) - self.position


class SourceLoader(Actor):
    """Actor owning ingestion and sample transformation for one source shard."""

    role = "source_loader"

    def __init__(
        self,
        source: DataSource,
        filesystem: SimulatedFileSystem,
        num_workers: int = 1,
        buffer_size: int = 256,
        shard_index: int = 0,
        shard_count: int = 1,
        deferred_transforms: set[str] | None = None,
        deferred_refill: bool = False,
    ) -> None:
        super().__init__()
        if num_workers < 1:
            raise PlanError("a source loader needs at least one worker")
        if buffer_size < 1:
            raise PlanError("buffer_size must be positive")
        self.source = source
        self.filesystem = filesystem
        self.num_workers = num_workers
        self.buffer_size = buffer_size
        self.shard_index = shard_index
        self.shard_count = shard_count
        #: Fleet shard-group mode: a member of a multi-loader shard group
        #: prepares only its slice of the group's demands, so refilling at
        #: the end of :meth:`prepare`/:meth:`poll` would desynchronise its
        #: cursor from the other members.  With ``deferred_refill=True`` the
        #: prepare epilogue skips the refill; the group-sync pass
        #: (:meth:`replay_demands` with the peers' ids) performs the step's
        #: single refill instead, keeping every member's cursor consumption
        #: byte-identical to a lone loader preparing the full demand list.
        self.deferred_refill = deferred_refill
        self.pipeline = TransformPipeline.for_modality(
            source.modality, deferred=deferred_transforms
        )
        #: The pipeline's built-in latencies already encode the modality cost
        #: ratios; the per-source ``cost_per_token`` multiplies on top of the
        #: modality baseline to express within-modality heterogeneity.
        self._latency_scale = max(
            source.profile.cost_per_token / max(1e-9, MODALITY_COST_PER_TOKEN[source.modality]),
            0.1,
        )
        #: Everything :meth:`_cost_columns` reads besides a row's metadata.  A
        #: row is costed once per process under this key, and every later
        #: read of it, by any loader with the same key, reuses those costs.
        self._cost_key = (
            source.name,
            tuple(map(repr, self.pipeline._transforms)),
            tuple(self.pipeline.deferred_names),
            self._latency_scale,
            source.profile.fixed_cost_s,
        )
        self.stats = LoaderStats()

        self._cursor: SourceCursor | None = None
        self._readers: list[ColumnarReader] = []
        #: Read buffer in arrival order: ``(metadata, transform latency,
        #: transferred bytes)`` per row, the last two costed when the process
        #: first read the row so preparing a sample is a lookup.  Keyed by
        #: sample id (ids are unique within a buffer) so consuming a demanded
        #: id is O(1); dict insertion order preserves the arrival order.
        self._buffer: dict[int, tuple[SampleMetadata, float, int]] = {}
        #: Prepared samples awaiting hand-off: ``sample_id -> (sample_id,
        #: text_tokens, image_tokens, transferred_bytes)``, turned into one
        #: column slice by :meth:`fetch_prepared_ref`.
        self._staged: dict[int, tuple[int, int, int, int]] = {}
        #: Monotone suffix for GCS hand-off keys minted by
        #: :meth:`fetch_prepared_ref`.
        self._ref_seq = 0
        self._metadata_by_id: dict[int, SampleMetadata] = {}
        self._tickets: dict[int, _PrepareTicket] = {}
        #: What :meth:`buffer_delta` reports since the previous gather: rows
        #: added to or removed from the buffer, and whether the buffer was
        #: rebuilt (a fresh instance, pristine replay, restore or stop).
        self._changes = 0
        self._rebuilt = True

    # -- lifecycle -----------------------------------------------------------------------

    def on_start(self) -> None:
        """Open file access states, charge worker contexts and fill the buffer."""
        self._cursor = SourceCursor(
            self.source,
            self.filesystem,
            shard_index=self.shard_index,
            shard_count=self.shard_count,
        )
        for path in self.source.paths:
            reader = ColumnarReader(self.filesystem, path, self.ledger)
            self.stats.read_seconds += reader.open()
            self._readers.append(reader)
        self.ledger.charge("worker_context", WORKER_CONTEXT_BYTES * self.num_workers)
        self.refill()

    def on_stop(self) -> None:
        for reader in self._readers:
            reader.close()
        self._readers.clear()
        self.ledger.release("worker_context", WORKER_CONTEXT_BYTES * self.num_workers)
        self._tickets.clear()
        self._drop_buffer()
        self._drop_staged()

    # -- buffer management ------------------------------------------------------------------

    def refill(self) -> int:
        """Top the read buffer back up to ``buffer_size`` metadata entries.

        The cursor hands over costed buffer rows (:meth:`SourceCursor.take_costed`):
        a row this process already costed under this loader's cost key — read
        before by a shard-group mirror, or by this loader before a flush
        rewind, restart or restore — is reused, not costed again.
        """
        if self._cursor is None:
            raise PlanError(f"loader {self.actor_name!r} is not started")
        wanted = self.buffer_size - len(self._buffer)
        if wanted <= 0:
            return 0
        # Rows are new up to the first id already buffered: there the cursor
        # has wrapped around the shard onto a sample still waiting, and the
        # refill stops rather than introduce duplicates, the cursor left just
        # past the repeated row.  Only the ids are scanned to find that row.
        ids = self._cursor.peek_ids(wanted)
        fresh: set[int] = set()
        for sample_id in ids:
            if sample_id in self._buffer or sample_id in fresh:
                break
            fresh.add(sample_id)
        added = len(fresh)
        rows = self._cursor.take_costed(
            min(wanted, added + 1), self._cost_key, self._cost_columns
        )
        if added:
            ids = ids[:added]
            records = [row[0] for row in rows[:added]]
            self._buffer.update(zip(ids, rows))
            self._metadata_by_id.update(zip(ids, records))
            self._changes += added
            self.ledger.charge("prefetch_buffer", BUFFERED_METADATA_BYTES * added)
            self.stats.refills += 1
            self.stats.samples_buffered += added
            # Sequential row reads at the storage bandwidth.
            self.stats.read_seconds += self.filesystem.transfer_time(
                int(added * self.source.avg_raw_bytes)
            )
        return added

    def summary_buffer(self) -> list[SampleMetadata]:
        """The buffered metadata records, in buffer order.

        Rebuilds a list over every buffered row: the replay checkpoint and
        inspection read it.  The Planner's gather takes the rows themselves
        (:meth:`buffer_delta`) instead.
        """
        return [row[0] for row in self._buffer.values()]

    def buffered_among(self, sample_ids: list[int]) -> set[int]:
        """The subset of ``sample_ids`` waiting in the read buffer (O(ids), not O(buffer))."""
        return self._buffer.keys() & sample_ids

    def declared_source(self) -> str:
        """The source this loader was deployed for.

        The Planner buckets gathered metadata under this name even when the
        buffer happens to be empty, so one source can never be split across a
        metadata-derived bucket and an actor-name-derived one.
        """
        return self.source.name

    def buffer_delta(self) -> dict[str, object]:
        """The Planner's gather RPC: the buffer and what changed since the last call.

        Returns ``{"buffer", "changes", "resync"}``: this loader's own buffer
        rows, ``(metadata, transform latency, staged bytes)`` in buffer order
        (a fresh list over the rows it holds: a pointer copy, no row is
        rebuilt), the rows added plus the rows removed since the previous
        call, and whether the buffer was rebuilt since then (always true on
        an instance's first call).  Both reset at each call, so the
        protocol assumes one consumer, the Planner, which charges a gather by
        ``changes`` unless it must resync.
        """
        reply = {
            "buffer": list(self._buffer.values()),
            "changes": self._changes,
            "resync": self._rebuilt,
        }
        self._changes = 0
        self._rebuilt = False
        return reply

    def buffer_depth(self) -> int:
        return len(self._buffer)

    # -- plan execution -----------------------------------------------------------------------

    def prepare(self, sample_ids: list[int]) -> dict[str, float]:
        """Transform the requested samples and stage them for delivery.

        Returns timing information: total transformation latency and the
        effective wall-clock latency after amortising across parallel workers.
        """
        latencies, staged_bytes = self._stage(sample_ids)
        total_latency = 0.0
        for latency in latencies:
            total_latency += latency
        return self._finish_prepare(len(sample_ids), total_latency, staged_bytes)

    # -- asynchronous plan execution -------------------------------------------------------

    def prepare_async(self, ticket: int, sample_ids: list[int]) -> dict[str, float]:
        """Register a non-blocking prepare request identified by ``ticket``.

        The actual transformation work happens incrementally through
        :meth:`poll` calls, so the caller (the step pipeline) can interleave
        preparation across loaders and overlap it with trainer compute.  The
        pipeline never sends this call: a ticket's first poll makes it.
        """
        if ticket in self._tickets:
            raise PlanError(
                f"loader {self.actor_name!r} already has an in-flight ticket {ticket}"
            )
        self._tickets[ticket] = _PrepareTicket(sample_ids=list(sample_ids))
        return {"ticket": float(ticket), "num_samples": float(len(sample_ids))}

    def poll(
        self, ticket: int, max_samples: int = 16, sample_ids: list[int] | None = None
    ) -> dict[str, object]:
        """Advance an asynchronous prepare by up to ``max_samples`` samples.

        A ticket costs only its polls.  The first one carries ``sample_ids``
        and registers the ticket (:meth:`prepare_async`); a later one carries
        the ticket alone.  Returns ``{"done": False, "remaining": n}`` while
        work is left.  The final poll retires the ticket, hands its samples
        off (:meth:`fetch_prepared_ref`) and returns the same timing
        dictionary as :meth:`prepare` with ``done=True`` and the ``key`` of
        the ``prepared/`` reference.  Every poll reports
        ``chunk_wall_clock_s`` — the worker-amortised latency of just this
        chunk — which the latency provider books as the poll's virtual
        duration, so a ticket's chunks occupy the loader for exactly its
        total wall-clock time on the shared clock.
        """
        if sample_ids is not None:
            self.prepare_async(ticket, sample_ids)
        entry = self._tickets.get(ticket)
        if entry is None:
            raise PlanError(
                f"loader {self.actor_name!r} has no ticket {ticket}; "
                "its first poll must carry the sample ids"
            )
        if max_samples < 1:
            raise PlanError("poll must advance at least one sample")
        budget = min(max_samples, entry.remaining())
        latencies, staged_bytes = self._stage(
            entry.sample_ids[entry.position : entry.position + budget]
        )
        entry.position += budget
        entry.staged_bytes += staged_bytes
        # Left to right from the ticket's running total, sample by sample:
        # the float totals are part of the modelled clock.
        chunk_latency = 0.0
        for latency in latencies:
            entry.total_latency_s += latency
            chunk_latency += latency
        chunk_wall_clock = chunk_latency / self.num_workers
        if entry.remaining() > 0:
            return {
                "done": False,
                "remaining": float(entry.remaining()),
                "chunk_wall_clock_s": chunk_wall_clock,
            }
        del self._tickets[ticket]
        result = self._finish_prepare(
            len(entry.sample_ids), entry.total_latency_s, entry.staged_bytes
        )
        result["done"] = True
        result["chunk_wall_clock_s"] = chunk_wall_clock
        result["key"] = self.fetch_prepared_ref(entry.sample_ids)["key"]
        return result

    def cancel_prepare(self, ticket: int) -> bool:
        """Abandon an in-flight async prepare; already-staged samples remain."""
        return self._tickets.pop(ticket, None) is not None

    def inflight_tickets(self) -> list[int]:
        return sorted(self._tickets)

    def reset_for_replay(self) -> None:
        """Return the loader to its pristine post-start state.

        A loader's buffer/cursor state is a deterministic function of the
        initial state plus the sequence of demand applications, so exact
        reconstruction (failover, pipeline flush) starts from pristine state
        and replays the Planner's plan history via :meth:`replay_demands`.
        Restored cursor checkpoints are deliberately discarded here — they
        shorten the *modelled* recovery latency (differential checkpointing)
        but cannot reproduce the buffer contents on their own.  Bounded
        replay instead restores a consistent buffer snapshot via
        :meth:`restore_replay_checkpoint` and replays only the suffix.
        """
        self._drop_staged()
        self._drop_buffer()
        self._metadata_by_id.clear()
        self._tickets.clear()
        self._cursor = SourceCursor(
            self.source,
            self.filesystem,
            shard_index=self.shard_index,
            shard_count=self.shard_count,
        )
        self.refill()

    def replay_demands(self, sample_ids: list[int], refill: bool | None = None) -> int:
        """Replay one historical plan's demands against this loader's buffer.

        Used after failover or a pipeline flush: replaying the Planner's plan
        history — consuming the demanded ids from the buffer without staging
        payloads — reproduces the failed primary's buffer state.  Returns how
        many ids were consumed; ids served by other shards are ignored.

        ``refill`` controls the step's buffer top-up.  The default (``None``)
        refills only when this loader consumed something — matching the live
        path, where a member whose demand slice is empty never enters its
        prepare epilogue.  This matters beyond occupancy: a refill *probe*
        advances the wrap-around cursor even when the buffer is already
        complete, so an unconditional refill would drift the cursor of any
        member replaying peers'/other-shards' demands.  The group-sync pass
        passes ``refill=True`` (in live deferred mode the member prepared its
        slice without refilling, and this call performs the step's single
        refill even when it absorbed nothing).
        """
        known = [sample_id for sample_id in sample_ids if sample_id in self._metadata_by_id]
        replayed = len(known)
        self._consume(known)
        self.stats.samples_replayed += replayed
        if refill is True or (refill is None and replayed):
            self.refill()
        return replayed

    def replay_checkpoint(self) -> dict:
        """Snapshot the full replay state: cursor + buffer contents.

        Unlike :meth:`state_dict` (cursor + counters only), this snapshot is
        sufficient to reconstruct the buffer without replaying the plan
        history from genesis: restoring it and replaying only the plans
        *after* the snapshot step reproduces the exact state a full-history
        replay would — recovery cost becomes bounded by the checkpoint
        interval instead of O(steps).  Only valid at a step boundary where
        every delivered plan's demands have been applied (the fleet sync
        point); the fault-tolerance manager tags such snapshots consistent.
        """
        return {
            "source": self.source.name,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "cursor": self._cursor.state_dict() if self._cursor is not None else {},
            "buffer": self.summary_buffer(),
        }

    def restore_replay_checkpoint(self, snapshot: dict) -> None:
        """Adopt a :meth:`replay_checkpoint` snapshot as this loader's state.

        Drops any staged/buffered state and installs the snapshot's cursor and
        buffer verbatim; the next gather resyncs (:meth:`buffer_delta`).  Used
        by bounded failover recovery, mirror bootstrap (cloning the
        canonical's live state) and whole-run restore.
        """
        if snapshot.get("source") != self.source.name:
            raise PlanError(
                f"replay checkpoint for source {snapshot.get('source')!r} "
                f"does not match {self.source.name!r}"
            )
        if (
            int(snapshot.get("shard_index", self.shard_index)) != self.shard_index
            or int(snapshot.get("shard_count", self.shard_count)) != self.shard_count
        ):
            raise PlanError(
                f"replay checkpoint shard {snapshot.get('shard_index')}/"
                f"{snapshot.get('shard_count')} does not match loader "
                f"{self.shard_index}/{self.shard_count}"
            )
        self._drop_staged()
        self._drop_buffer()
        self._metadata_by_id.clear()
        self._tickets.clear()
        self._cursor = SourceCursor(
            self.source,
            self.filesystem,
            shard_index=self.shard_index,
            shard_count=self.shard_count,
        )
        if snapshot.get("cursor"):
            self._cursor.load_state_dict(snapshot["cursor"])
        chunk = MetadataColumns.from_records(list(snapshot.get("buffer", ())))
        if len(chunk):
            self._buffer.update(zip(chunk.sample_id, self._cost_rows(chunk)))
            self._metadata_by_id.update(zip(chunk.sample_id, chunk.records))
            self.ledger.charge("prefetch_buffer", BUFFERED_METADATA_BYTES * len(chunk))

    def resize_worker_pool(self, num_workers: int) -> int:
        """Grow or shrink the transform worker pool in place.

        Re-books the worker execution contexts on the memory ledger and
        updates the latency amortisation divisor; the actor system re-books
        the matching CPU reservation and execution lanes separately
        (:meth:`repro.actors.runtime.ActorSystem.resize_actor_pool`).
        """
        if num_workers < 1:
            raise PlanError("a source loader needs at least one worker")
        delta = num_workers - self.num_workers
        if delta > 0:
            self.ledger.charge("worker_context", WORKER_CONTEXT_BYTES * delta)
        elif delta < 0:
            self.ledger.release("worker_context", WORKER_CONTEXT_BYTES * -delta)
        self.num_workers = num_workers
        return self.num_workers

    def _cost_columns(self, chunk: MetadataColumns) -> tuple[list[float], list[int]]:
        """Transform latency and staged bytes of each row of an ingested chunk.

        Prepare is metadata-only: the pipeline's column evaluator gives what
        running the transforms over each sample would charge and ship, and the
        source's cost profile scales that to this source.
        """
        latencies, transferred = self.pipeline.run_columns(chunk)
        scale = self._latency_scale
        fixed = self.source.profile.fixed_cost_s
        return [latency * scale + fixed for latency in latencies], transferred

    def _cost_rows(self, chunk: MetadataColumns) -> list[tuple[SampleMetadata, float, int]]:
        """Buffer rows for an ingested chunk: metadata, transform latency, staged bytes."""
        return list(zip(chunk.records, *self._cost_columns(chunk)))

    def _stage(self, sample_ids: list[int]) -> tuple[list[float], int]:
        """Move the demanded samples from the buffer to the staging columns.

        Returns their transform latencies, in demand order, and the bytes
        staged.  A sample this loader read earlier but no longer buffers is
        costed again from its retained metadata.
        """
        for sample_id in sample_ids:
            if sample_id not in self._metadata_by_id:
                raise PlanError(
                    f"loader {self.actor_name!r} was asked for unknown sample {sample_id}"
                )
        rows = self._consume(sample_ids)
        for index, row in enumerate(rows):
            if row is None:
                record = self._metadata_by_id[sample_ids[index]]
                (rows[index],) = self._cost_rows(MetadataColumns.from_records([record]))
        # The original metadata is staged: a crop inside the pipeline never
        # reaches the hand-off columns.  Staging an id again replaces its row.
        staged = self._staged
        replaced = sum(staged[sample_id][3] for sample_id in staged.keys() & sample_ids)
        staged.update(
            (m.sample_id, (m.sample_id, m.text_tokens, m.image_tokens, size))
            for m, _, size in rows
        )
        staged_bytes = sum(size for _, _, size in rows)
        if replaced:
            self.ledger.release("sample_payload", replaced)
        if rows:
            self.ledger.charge("sample_payload", staged_bytes)
        return [latency for _, latency, _ in rows], staged_bytes

    def _consume(self, sample_ids: list[int]) -> list:
        """Pop ``sample_ids`` from the buffer; a row is None where the id was not buffered."""
        rows = [self._buffer.pop(sample_id, None) for sample_id in sample_ids]
        removed = [sample_id for sample_id, row in zip(sample_ids, rows) if row is not None]
        if removed:
            self._changes += len(removed)
            self.ledger.release("prefetch_buffer", BUFFERED_METADATA_BYTES * len(removed))
        return rows

    def _finish_prepare(
        self, num_samples: int, total_latency: float, staged_bytes: int
    ) -> dict[str, float]:
        """Shared epilogue of the sync and async prepare paths."""
        self.stats.samples_prepared += num_samples
        self.stats.transform_seconds += total_latency
        wall_clock = total_latency / self.num_workers
        if not self.deferred_refill:
            self.refill()
        return {
            "transform_latency_s": total_latency,
            "wall_clock_s": wall_clock,
            "staged_bytes": float(staged_bytes),
            "num_samples": float(num_samples),
        }

    def fetch_prepared_ref(self, sample_ids: list[int]) -> dict[str, object]:
        """Hand staged samples to a Data Constructor, releasing their memory.

        Zero-copy: the requested rows are built into one immutable
        :class:`~repro.core.assembly.PreparedColumns` slice, published with
        ``gcs.put(key, columns, immutable=True)`` (stored and served by
        reference — the freeze-on-put path), and only the *key* is returned.
        The consumer resolves it with ``gcs.take(key)``, receiving the very
        same column object with no per-sample copies anywhere on the path.
        Every id is checked before any is removed, so a fetch naming an
        unstaged id leaves the staged rows as they were.
        """
        if self.gcs is None:
            raise PlanError(
                f"loader {self.actor_name!r} has no GCS attached; "
                "fetch_prepared_ref needs a runtime-managed actor"
            )
        staged = self._staged
        try:
            rows = [staged[sample_id] for sample_id in sample_ids]
        except KeyError as missing:
            raise PlanError(
                f"loader {self.actor_name!r} has no staged sample {missing.args[0]}"
            ) from None
        for sample_id in sample_ids:
            staged.pop(sample_id, None)
        columns = PreparedColumns.from_rows(rows)
        released = columns.total_bytes()
        self.ledger.release("sample_payload", released)
        self.stats.samples_delivered += len(columns)
        self._ref_seq += 1
        key = f"prepared/{self.actor_name}/{self._ref_seq}"
        self.gcs.put(key, columns, immutable=True)
        return {"key": key, "count": len(columns), "staged_bytes": released}

    def discard_staged(self, sample_ids: list[int]) -> int:
        """Drop staged samples that will never be fetched (pipeline flush)."""
        rows = [self._staged.pop(sample_id, None) for sample_id in sample_ids]
        dropped = [row for row in rows if row is not None]
        released = sum(row[3] for row in dropped)
        if released:
            self.ledger.release("sample_payload", released)
        return len(dropped)

    def staged_count(self) -> int:
        return len(self._staged)

    # -- checkpointing ----------------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Cursor + counters; buffers are rebuilt by deterministic replay."""
        cursor_state = self._cursor.state_dict() if self._cursor is not None else {}
        return {
            "source": self.source.name,
            "cursor": cursor_state,
            "samples_prepared": self.stats.samples_prepared,
            "samples_delivered": self.stats.samples_delivered,
        }

    def load_state_dict(self, state: dict) -> None:
        if state.get("source") != self.source.name:
            raise PlanError(
                f"checkpoint for source {state.get('source')!r} does not match {self.source.name!r}"
            )
        if self._cursor is not None and state.get("cursor"):
            self._cursor.load_state_dict(state["cursor"])
        self.stats.samples_prepared = int(state.get("samples_prepared", 0))
        self.stats.samples_delivered = int(state.get("samples_delivered", 0))

    def heartbeat_payload(self) -> dict:
        return {
            "buffer_depth": len(self._buffer),
            "staged": self.staged_count(),
            "source": self.source.name,
        }

    # -- internals -----------------------------------------------------------------------------------

    def _drop_buffer(self) -> None:
        self.ledger.release("prefetch_buffer", BUFFERED_METADATA_BYTES * len(self._buffer))
        self._buffer.clear()
        self._rebuilt = True

    def _drop_staged(self) -> None:
        released = sum(row[3] for row in self._staged.values())
        self._staged.clear()
        if released:
            self.ledger.release("sample_payload", released)

