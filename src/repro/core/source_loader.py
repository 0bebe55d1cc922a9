"""Source Loader actors: per-source sample ingestion and transformation.

A Source Loader is a dedicated actor for one data source (or one shard of a
source when the AutoScaler splits it).  It ingests metadata from the source's
columnar files a chunk at a time, costs the sample-level transformations from
that metadata (a pool of parallel workers amortises the latency), and keeps a
read buffer of lightweight metadata the Planner can inspect.

A buffered sample is a row number into its source's immutable columns
(sample id, text and image tokens, transform latency and staged bytes),
which every loader of the source shares with the storage files: the buffer
is an id → row index plus the buffered rows in arrival order.  A refill adds
the row numbers the cursor hands out, a ticket holds the rows it took, and
the hand-off (one :class:`~repro.core.assembly.PreparedColumns`) and the
Planner's gather each index the source's columns once.  A row is costed once
per process: its file costs all its rows under the loader's cost key on
first use, and every later reader (mirror, rewind, restart, restore) reads
those costs.

One step's work on one loader is a *ticket* and costs one call
(:meth:`SourceLoader.poll`): it takes the demanded rows out of the buffer,
refills it and publishes exactly those rows as a ``prepared/`` GCS
reference, returning its key and the worker-amortised wall clock of each
chunk of the ticket, which the engine books back to back on the loader's
lanes.  There is no separate accept or hand-off call, and a row is only ever
in the buffer or on one ticket.

Because the file access state lives in exactly one actor per source (not in
every dataloader worker on every rank), source-scaling memory redundancy is
eliminated (Sec. 3).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from repro.actors.actor import Actor
from repro.core.assembly import PreparedColumns
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
    """One open ticket: the buffer rows it took for its demands."""

    #: The global rows taken, in demand order; the hand-off publishes
    #: exactly these rows.
    rows: np.ndarray
    #: The rows' transform latencies, in demand order.
    latencies: list[float]
    staged_bytes: int


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
        self.pipeline = TransformPipeline.for_modality(source.modality)
        #: The pipeline's built-in latencies already encode the modality cost
        #: ratios; the per-source ``cost_per_token`` multiplies on top of the
        #: modality baseline to express within-modality heterogeneity.
        self._latency_scale = max(
            source.profile.cost_per_token / max(1e-9, MODALITY_COST_PER_TOKEN[source.modality]),
            0.1,
        )
        #: Everything :meth:`_cost_columns` reads besides a file's rows: the
        #: source, its modality's transform chain, the latency scale and the
        #: fixed cost.  A row is costed once per process under this key, and
        #: every later read of it, by any loader with the same key, reuses
        #: those costs.
        self._cost_key = (
            source.name,
            tuple(map(repr, self.pipeline._transforms)),
            self._latency_scale,
            source.profile.fixed_cost_s,
        )
        self.stats = LoaderStats()

        self._cursor: SourceCursor | None = None
        self._readers: list[ColumnarReader] = []
        #: The source's sample id, text token, image token, transform latency
        #: and staged byte columns, by global row: the storage arrays and the
        #: per-cost-key costs, shared, never written.
        self._columns: tuple[np.ndarray, ...] = ()
        #: The read buffer: buffered sample id -> global row.  A demanded row
        #: moves from here onto its ticket, and from there to the hand-off.
        self._buffer: dict[int, int] = {}
        #: The buffered rows in arrival order, and per source row whether it
        #: is buffered; both kept as rows enter and leave the buffer.
        self._order = np.empty(0, dtype=np.intp)
        self._held = np.zeros(0, dtype=bool)
        #: Monotone suffix for GCS hand-off keys minted by
        #: :meth:`fetch_prepared_ref`.
        self._ref_seq = 0
        #: Open tickets by id; :meth:`prepare`'s goes by ``None``.
        self._tickets: dict[int | None, _PrepareTicket] = {}
        #: What :meth:`buffer_delta` reports since the previous gather: rows
        #: added to or removed from the buffer, and whether the buffer was
        #: rebuilt (a fresh instance, pristine replay, restore or stop).
        self._changes = 0
        self._rebuilt = True

    # -- lifecycle -----------------------------------------------------------------------

    def on_start(self) -> None:
        """Open file access states, charge worker contexts and fill the buffer."""
        self._open_cursor()
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
        self._drop_buffer()
        self._drop_tickets()

    # -- buffer management ------------------------------------------------------------------

    def refill(self) -> int:
        """Top the read buffer back up to ``buffer_size`` metadata entries.

        The cursor hands over global row numbers (:meth:`SourceCursor.take`);
        the rows' ids, tokens and costs stay in the source's columns.
        """
        if self._cursor is None:
            raise PlanError(f"loader {self.actor_name!r} is not started")
        wanted = self.buffer_size - len(self._buffer)
        if wanted <= 0:
            return 0
        # Rows are new up to the first id already buffered: there the cursor
        # has wrapped around the shard onto a sample still waiting, and the
        # refill stops rather than introduce duplicates, the cursor left just
        # past the repeated row (what it read beyond that row is given back).
        rows = self._cursor.take(wanted)
        taken = self._columns[0][rows]
        ids = taken.tolist()
        added = len(ids)
        if len(set(ids)) < added:  # the take wrapped the whole shard
            _, first = np.unique(taken, return_index=True)
            repeated = np.ones(added, dtype=bool)
            repeated[first] = False
            added = int(np.argmax(repeated))
        if self._buffer and not self._buffer.keys().isdisjoint(ids[:added]):
            added = next(i for i, sample_id in enumerate(ids) if sample_id in self._buffer)
        self._cursor.rewind(wanted - min(wanted, added + 1))
        if added:
            self._enter(ids[:added], rows[:added])
            self._changes += added
            self.ledger.charge("prefetch_buffer", BUFFERED_METADATA_BYTES * added)
            self.stats.refills += 1
            self.stats.samples_buffered += added
            # Sequential row reads at the storage bandwidth.
            self.stats.read_seconds += self.filesystem.transfer_time(
                int(added * self.source.avg_raw_bytes)
            )
        return added

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

        Returns ``{"sample_ids", "text_tokens", "image_tokens", "changes",
        "resync"}``: the source's id and token columns at the buffered rows,
        in arrival order (one fancy index each) — the rows the Planner
        concatenates into the one :class:`~repro.core.columns.SampleColumns`
        it plans over — the rows added plus removed since the previous call,
        and whether the buffer was rebuilt since then (always true on an
        instance's first call).  Both counters reset at each call, so the
        protocol assumes one consumer, the Planner, which charges a gather by
        ``changes`` unless it must resync.
        """
        rows = self._order
        sample_ids, text_tokens, image_tokens = self._columns[:3]
        reply = {
            "sample_ids": sample_ids[rows],
            "text_tokens": text_tokens[rows],
            "image_tokens": image_tokens[rows],
            "changes": self._changes,
            "resync": self._rebuilt,
        }
        self._changes = 0
        self._rebuilt = False
        return reply

    def buffer_depth(self) -> int:
        return len(self._buffer)

    # -- plan execution -----------------------------------------------------------------------

    def prepare(self, sample_ids: list[int]) -> dict[str, object]:
        """Transform the requested samples and hand them off: a one-chunk ticket.

        Returns what :meth:`poll` returns; the ticket goes by the id ``None``.
        """
        return self.poll(None, max(1, len(sample_ids)), sample_ids)

    # -- asynchronous plan execution -------------------------------------------------------

    def prepare_async(self, ticket: int | None, sample_ids: list[int]) -> None:
        """Open ``ticket``: take its demanded rows out of the buffer onto it.

        Every id must be buffered and none may repeat; otherwise nothing is
        taken and no ticket opens.  :meth:`poll` opens its ticket here and
        closes it in the same call; the pipeline never sends this call on
        its own.  A ticket left open keeps its rows charged as staged payload
        until the loader is rebuilt or stopped.
        """
        if ticket in self._tickets:
            raise PlanError(
                f"loader {self.actor_name!r} already has an in-flight ticket {ticket}"
            )
        self._tickets[ticket] = _PrepareTicket(*self._stage(sample_ids))

    def poll(
        self, ticket: int | None, max_samples: int, sample_ids: list[int]
    ) -> dict[str, object]:
        """Prepare a whole ticket and hand it off, in one call.

        Opens the ticket (:meth:`prepare_async`), refills the buffer (unless
        ``deferred_refill``), hands the ticket's rows off
        (:meth:`fetch_prepared_ref`) and closes the ticket.  Returns its
        transform latency, its worker-amortised wall-clock latency, its
        staged bytes and sample count, the ``key`` of the ``prepared/``
        reference and ``chunk_wall_clock_s``: the worker-amortised latency of
        each chunk of ``max_samples`` rows, in demand order (at least one
        chunk).  The latency provider prices each chunk, and the engine books
        them as a chain on the loader's lanes, so a ticket occupies the
        loader for its total wall-clock time on the shared clock.  A demand
        the buffer cannot serve opens nothing; a failed hand-off leaves the
        ticket open, its rows still charged.
        """
        if max_samples < 1:
            raise PlanError("a poll chunk must hold at least one sample")
        self.prepare_async(ticket, sample_ids)
        entry = self._tickets[ticket]
        # Each chunk sums its latencies from 0.0 and the ticket total
        # accumulates sample by sample, both left to right: the floats are
        # part of the modelled clock.
        total = 0.0
        chunks = []
        for begin in range(0, max(1, len(entry.latencies)), max_samples):
            chunk = 0.0
            for latency in entry.latencies[begin : begin + max_samples]:
                total += latency
                chunk += latency
            chunks.append(chunk / self.num_workers)
        self.stats.samples_prepared += len(entry.rows)
        self.stats.transform_seconds += total
        if not self.deferred_refill:
            self.refill()
        key = self.fetch_prepared_ref(entry.rows)["key"]
        del self._tickets[ticket]
        return {
            "transform_latency_s": total,
            "wall_clock_s": total / self.num_workers,
            "staged_bytes": float(entry.staged_bytes),
            "num_samples": float(len(entry.rows)),
            "chunk_wall_clock_s": tuple(chunks),
            "key": key,
        }

    def reset_for_replay(self) -> None:
        """Return the loader to its pristine post-start state.

        A loader's buffer/cursor state is a deterministic function of the
        initial state plus the sequence of demand applications, so exact
        reconstruction (failover, pipeline flush) starts from pristine state
        and replays the Planner's plan history via :meth:`replay_demands`.
        Bounded replay instead restores a consistent buffer snapshot via
        :meth:`restore_replay_checkpoint` and replays only the suffix.
        """
        self._rebuild()
        self.refill()

    def replay_demands(self, sample_ids: list[int], refill: bool | None = None) -> int:
        """Replay one historical plan's demands against this loader's buffer.

        Used after failover or a pipeline flush: replaying the Planner's plan
        history — consuming the demanded ids from the buffer without staging
        payloads — reproduces the failed primary's buffer state.  Returns how
        many ids were consumed; ids not buffered here (served by other
        shards) are ignored.

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
        replayed = len(self._consume(sample_ids))
        self.stats.samples_replayed += replayed
        if refill is True or (refill is None and replayed):
            self.refill()
        return replayed

    def replay_checkpoint(self) -> dict:
        """Snapshot the full replay state: cursor + buffered sample ids (an
        ``array("q")``, 8 bytes an id, in buffer order).

        The one loader checkpoint: it reconstructs the buffer without
        replaying the plan history from genesis.  Restoring it and replaying
        only the plans *after* the snapshot step reproduces the exact state a
        full-history replay would, so recovery cost is bounded by the
        checkpoint interval instead of O(steps).  Only valid at a step boundary where
        every delivered plan's demands have been applied (the fleet sync
        point), which is the only place the fault-tolerance manager takes it.
        """
        return {
            "source": self.source.name,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "cursor": self._cursor.state_dict() if self._cursor is not None else {},
            "buffer": array("q", self._buffer),
        }

    def restore_replay_checkpoint(self, snapshot: dict) -> None:
        """Adopt a :meth:`replay_checkpoint` snapshot as this loader's state.

        Drops the open tickets and the buffer, and installs the snapshot's
        cursor and buffered ids verbatim, their rows looked up by id
        (:meth:`SourceCursor.rows_of`); no row is costed again.  The next
        gather resyncs (:meth:`buffer_delta`).  Used by bounded failover
        recovery, mirror bootstrap (cloning the canonical's live state) and
        whole-run restore.
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
        self._rebuild()
        if snapshot.get("cursor"):
            self._cursor.load_state_dict(snapshot["cursor"])
        sample_ids = list(snapshot.get("buffer", ()))
        if sample_ids:
            self._enter(sample_ids, self._cursor.rows_of(sample_ids))
            self.ledger.charge("prefetch_buffer", BUFFERED_METADATA_BYTES * len(sample_ids))

    def resize_worker_pool(self, num_workers: int) -> int:
        """Grow or shrink the transform worker pool in place.

        Re-books the worker execution contexts on the memory ledger and
        updates the latency amortisation divisor; the actor system re-books
        the matching CPU reservation separately
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

    def _cost_columns(self, columns: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Transform latency and staged bytes of each row of a file.

        Prepare is metadata-only: the pipeline's column evaluator gives what
        running the transforms over each sample would charge and ship, and the
        source's cost profile scales that to this source (elementwise, so
        each latency rounds as ``latency * scale + fixed`` does on floats).
        """
        latencies, transferred = self.pipeline.run_columns(columns)
        return latencies * self._latency_scale + self.source.profile.fixed_cost_s, transferred

    def _enter(self, sample_ids: list[int], rows: np.ndarray) -> None:
        """Append the rows of ``sample_ids`` (none buffered yet) to the buffer."""
        self._buffer.update(zip(sample_ids, rows.tolist()))
        self._order = np.concatenate((self._order, rows))
        self._held[rows] = True

    def _stage(self, sample_ids: list[int]) -> tuple[np.ndarray, list[float], int]:
        """Take the demanded rows out of the buffer, charged as staged payload.

        Returns the rows and their transform latencies, in demand order, and
        their staged bytes.  Every id must be buffered and none may repeat;
        otherwise nothing is taken.
        """
        if len(self._buffer.keys() & sample_ids) != len(sample_ids):
            seen: set[int] = set()
            for sample_id in sample_ids:
                if sample_id in seen or sample_id not in self._buffer:
                    raise PlanError(
                        f"loader {self.actor_name!r} was asked for unknown sample {sample_id}"
                    )
                seen.add(sample_id)
        rows = self._consume(sample_ids)
        if not len(rows):
            return rows, [], 0
        staged_bytes = sum(self._columns[4][rows].tolist())
        self.ledger.charge("sample_payload", staged_bytes)
        return rows, self._columns[3][rows].tolist(), staged_bytes

    def _consume(self, sample_ids: list[int]) -> np.ndarray:
        """Pop the buffered ones among ``sample_ids`` from the buffer; their rows, in order."""
        buffer = self._buffer
        rows = np.array(
            [buffer.pop(sample_id) for sample_id in sample_ids if sample_id in buffer],
            dtype=np.intp,
        )
        if len(rows):
            self._held[rows] = False
            self._order = self._order[self._held[self._order]]
            self._changes += len(rows)
            self.ledger.release("prefetch_buffer", BUFFERED_METADATA_BYTES * len(rows))
        return rows

    def fetch_prepared_ref(self, rows: np.ndarray) -> dict[str, object]:
        """Hand a finished ticket's rows to the Data Constructors.

        The source's columns at the global ``rows`` are gathered into one
        immutable :class:`~repro.core.assembly.PreparedColumns` slice, published with
        ``gcs.put(key, columns, immutable=True)`` (stored and served by
        reference — the freeze-on-put path), and only the *key* is returned.
        The consumer resolves it with ``gcs.take(key)``, receiving the very
        same column object with no per-sample copies anywhere on the path.
        The rows' memory is released once the put succeeded.
        """
        if self.gcs is None:
            raise PlanError(
                f"loader {self.actor_name!r} has no GCS attached; "
                "fetch_prepared_ref needs a runtime-managed actor"
            )
        # The original metadata is handed off: a crop inside the pipeline
        # never reaches the hand-off columns.
        sample_ids, text_tokens, image_tokens, _, sizes = self._columns
        columns = PreparedColumns(sample_ids[rows], text_tokens[rows], image_tokens[rows], sizes[rows])
        self._ref_seq += 1
        key = f"prepared/{self.actor_name}/{self._ref_seq}"
        self.gcs.put(key, columns, immutable=True)
        released = sum(columns.transferred_bytes.tolist())
        self.ledger.release("sample_payload", released)
        self.stats.samples_delivered += len(columns)
        return {"key": key, "count": len(columns), "staged_bytes": released}

    def staged_count(self) -> int:
        """Rows on open tickets, taken from the buffer but not yet handed off."""
        return sum(len(ticket.rows) for ticket in self._tickets.values())

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
        self._held[self._order] = False
        self._order = self._order[:0]
        self._rebuilt = True

    def _drop_tickets(self) -> None:
        released = sum(ticket.staged_bytes for ticket in self._tickets.values())
        self._tickets.clear()
        if released:
            self.ledger.release("sample_payload", released)

    def _rebuild(self) -> None:
        """Drop the open tickets and the buffer, and start a fresh cursor."""
        self._drop_tickets()
        self._drop_buffer()
        self._open_cursor()

    def _open_cursor(self) -> None:
        """Start a cursor at the shard's first row and read the source's columns."""
        cursor = SourceCursor(
            self.source,
            self.filesystem,
            shard_index=self.shard_index,
            shard_count=self.shard_count,
        )
        self._cursor = cursor
        self._columns = (
            cursor.column("sample_id"),
            cursor.column("text_tokens"),
            cursor.column("image_tokens"),
            *cursor.costs(self._cost_key, self._cost_columns),
        )
        self._held = np.zeros(cursor.total_rows, dtype=bool)
