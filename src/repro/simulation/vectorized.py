"""Vectorized engine backend: batched sends and deliveries over a SoA core.

:class:`VectorizedEngine` is a drop-in :class:`~.engine.SimulationEngine`
subclass registered as the ``vectorized`` backend (see
:mod:`repro.simulation.backends`).  It takes channel copies — by far the
dominant event population — out of the event queue on both sides:

* **Sends.**  ``broadcast_from`` only records ``(src, payload id, now)`` in
  an *outbox*; :meth:`VectorizedEngine._flush_sends` hands everything
  recorded since the last flush to the run's one :class:`_NetSampler` in a
  single call.  Channel randomness is prefetched per source row into NumPy
  blocks, each drawn in C (:func:`_uniform_draws`): loss decisions are
  consecutive rows of the source's ``(block, n)`` matrix, delay uniforms
  are gathered per channel column with a running count of deliveries.
  Every protocol send in this codebase is a broadcast, so the channels of a
  row advance their substreams in lockstep and block prefetching consumes
  each per-channel stream in the reference order.  The TICKs of one
  instant (every process ticks at ``k * tick_interval``) share one flush.
* **Pending copies.**  A flush appends its delivered copies to a flat pool
  of ``(time, seq, dst, payload id)`` columns, 24 bytes a copy.
* **Deliveries.**  The main loop advances through *time slices* of width
  ``W``, the minimum possible channel delay of the run: every copy created
  while dispatching a slice ``[w0, w0 + W)`` lands at or after ``w0 + W``,
  so the slice's copies are taken out of the pool once, merged with a single
  ``lexsort`` into the reference ``(time, seq)`` total order, and consumed in
  maximal runs between queue events.
* **The repeat filter.**  A run is replayed entry by entry through the
  processes' own handlers (``receive_table``), in run order with the clock
  set per entry — the reference engine's loop — minus the entries the
  engine can prove change nothing: when every process declares
  ``repeated_ack_is_noop_once_delivered`` (both paper algorithms re-send
  the identical ACK on every MSG reception, so nearly every ACK received is
  an exact repeat), one gather over the run against two tables — payload
  last handled per destination and ``(m, tag_ack)`` cell, delivered per
  destination and message — drops them unseen
  (:meth:`VectorizedEngine._consume_run`).  There is no second statement
  of any protocol: what is not dropped runs the code the reference runs.

Bit-identical parity with ``reference`` is a hard requirement, enforced by
:mod:`repro.experiments.parity` in CI.  The mechanisms:

* Sequence numbers are *claimed* from the shared
  :class:`~.scheduler.EventQueue` counter (:meth:`EventQueue.claim_seqs`),
  laid out in program order of the sends and destination order within a
  send, each TICK's re-arm scheduled after its own sends' copies — the
  numbers the reference engine's per-copy ``schedule`` calls draw — and the
  outbox is flushed before anything else can claim one (see
  :meth:`VectorizedEngine._flush_sends`), so the merged dispatch order over
  copies plus queue events is the reference order, tie-breaks included.
* The loss draw / fairness guard / delay draw sequence per channel replays
  :meth:`LossyChannel.transmit` exactly: loss uniforms are consumed once per
  attempt only for ``0 < p < 1`` (the ``p == 0``/``p == 1`` shortcuts draw
  nothing), the guard counts start from and end in the channels' own
  dictionaries, and the delay uniform is consumed only on (possibly
  guard-forced) delivery, evaluated with the same
  ``low + (high - low) * u`` expression the stdlib uses.
* Aggregate bookkeeping (metrics counters, channel stats, event stats)
  is flushed in forms that are arithmetically identical to the reference
  engine's per-event updates; nothing outside the engine observes the
  intermediate values on the batched path.

Fallback: when a :class:`~repro.explore.controller.ScheduleController`
or a FULL trace level (per-copy SEND/DROP/CHANNEL_DELIVER
records) are active, or no positive minimum delay exists (exponential or
custom delay models, custom channel classes: slicing is unsound),
:meth:`run` delegates to the reference per-event loop — same class, same
results, so explore/replay stay exact.  The result's
:class:`~.engine.ExecutionRecord` says which path ran and why, and how many
source rows of a batched run the sampler had to fate one send at a time.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from .. import obs
from ..core.messages import (
    AckPayload, LabeledAckPayload, MsgPayload, TaggedMessage, payload_kind,
)
from ..core.tags import Tag
from ..network.channel import LossyChannel
from ..network.delay import FixedDelay, UniformDelay
from ..network.network import row_profile, settle_row
from ..network.reliable import QuasiReliableChannel, ReliableChannel
from .engine import SimulationEngine, SimulationResult
from .events import EventKind
from .tracing import TraceCategory

#: Prefetched draws per channel block.  Public so tests can shrink it to
#: force mid-run refills; any value produces identical results (each
#: per-channel stream is consumed strictly sequentially).
SAMPLE_BLOCK = 256

#: ``transmit`` implementations known to deliver at ``now + delay.sample()``
#: (or drop).  Rows made of these can bound their minimum delivery delay by
#: the delay model alone, which is what makes time slicing sound.
_BOUNDED_TRANSMITS = (
    LossyChannel.transmit,
    ReliableChannel.transmit,
    QuasiReliableChannel.transmit,
)

#: Head time of an empty pending pool, and the time of a consumed pool entry.
_NEVER = float("inf")

#: Buckets of ``repro_engine_chunk_cells``: a chunk is the surviving
#: fan-out of one broadcast, i.e. bounded by n copies.
_CHUNK_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                  512.0, 1024.0)

#: Buckets of ``repro_engine_send_batch_rows``: broadcasts sampled by one
#: outbox flush — a run between queue events replays thousands of MSG
#: receptions during a storm, each answered by one broadcast.
_SEND_BUCKETS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0,
                 65536.0)


def _uniform_draws(rngs: list, counts: list) -> np.ndarray:
    """``counts[i]`` sequential ``random()`` draws of each ``rngs[i]``,
    concatenated — drawn a block at a time in C.

    ``getrandbits(64 * k)`` is ``2k`` consecutive Mersenne Twister words,
    least significant first, and ``random()`` is two consecutive words
    ``a``, ``b`` combined as ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``: the
    expression below is CPython's, so both the values and the generator's
    state afterwards are those of ``k`` ``random()`` calls.  Stock
    ``random.Random`` generators only — a subclass may override ``random()``.
    """
    words = np.frombuffer(b"".join(
        rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        for rng, k in zip(rngs, counts) if k), dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * 2.0 ** -53


def _widened(table: np.ndarray, columns: int, fill: Any) -> np.ndarray:
    """*table* copied into one of at least *columns* columns (amortised:
    at least twice as wide), the new columns holding *fill*."""
    rows, width = table.shape
    out = np.full((rows, max(2 * width, columns)), fill, dtype=table.dtype)
    out[:, :width] = table
    return out


def _stack(parts: list) -> tuple:
    """Concatenate a list of column tuples column by column."""
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(*parts))


class PayloadInterner:
    """Dense integer ids for wire payloads and what the repeat filter keys on.

    The vectorized engine carries channel copies as integer columns, not
    payload objects: every distinct payload gets a *pid* (``payloads`` boxes
    it back for ``on_receive``), every distinct ``(m, tag)`` message a
    *mid*, and every distinct acknowledgement ``(m, tag, tag_ack)`` — label
    set *not* included — an ACK *cell*.  ``mid_arr`` and ``cell_arr`` map a
    pid to its message and cell (``-1`` where it has none), in
    amortised-growth NumPy columns so a whole delivery run is classified by
    two gathers; the engine's repeat filter keeps "payload last handled" per
    destination and cell, and "delivered" per destination and message.

    Interning relies on the payload classes' cached hashes (one dict lookup
    per broadcast).  Ids are assigned in first-appearance order and never
    change, so tables sized by ``n_mids``/``n_cells`` only ever grow.
    """

    __slots__ = ("_pid_of", "payloads", "mid_arr", "cell_arr", "_mid_of",
                 "_cell_of")

    def __init__(self) -> None:
        self._pid_of: dict[Any, int] = {}
        #: pid -> payload object.
        self.payloads: list[Any] = []
        self.mid_arr = np.empty(256, dtype=np.intp)
        self.cell_arr = np.empty(256, dtype=np.intp)
        self._mid_of: dict[TaggedMessage, int] = {}
        self._cell_of: dict[tuple[int, Tag], int] = {}

    @property
    def n_mids(self) -> int:
        """Number of distinct interned messages."""
        return len(self._mid_of)

    @property
    def n_cells(self) -> int:
        """Number of distinct interned ACK cells."""
        return len(self._cell_of)

    def pid_for(self, payload: Any) -> int:
        """The dense id of *payload*, interning it on first sight."""
        pid = self._pid_of.get(payload)
        if pid is None:
            pid = self._pid_of[payload] = len(self.payloads)
            self.payloads.append(payload)
            if pid == len(self.mid_arr):
                self.mid_arr = np.concatenate((self.mid_arr, self.mid_arr))
                self.cell_arr = np.concatenate((self.cell_arr, self.cell_arr))
            mid = cell = -1
            if isinstance(payload, (MsgPayload, AckPayload, LabeledAckPayload)):
                mid = self.mid_for(payload.message)
                if not isinstance(payload, MsgPayload):
                    cells = self._cell_of
                    cell = cells.setdefault((mid, payload.ack_tag), len(cells))
            self.mid_arr[pid] = mid
            self.cell_arr[pid] = cell
        return pid

    def mid_for(self, message: TaggedMessage) -> int:
        """The dense id of *message*, interning it on first sight."""
        return self._mid_of.setdefault(message, len(self._mid_of))


class _NetSampler:
    """Network-wide channel sampler replicating ``LossyChannel.transmit``.

    :meth:`sample` takes *all* broadcasts of one outbox flush, in program
    order, and is entered once per flush.  Source rows draw from disjoint
    streams and touch disjoint guard rows, so only the order *within* a
    source matters: the sends are grouped by source (stably) and sampled as
    one matrix, every per-source quantity being a cursor plus a rank within
    the group.  A row is one of two kinds, decided once by the rule the
    per-event loop takes too (:func:`~repro.network.network.row_profile`):

    * *vector* — a homogeneous :class:`LossyChannel` row whose parameters
      are those of the network's first such row.  Loss decisions are
      consecutive rows of the source's prefetched ``(block, n)`` drop
      matrix (one row per broadcast); delay uniforms sit in per-channel
      columns and are gathered with a running count of the group's
      deliveries per column, so a channel's draws are consumed in send
      order.  The fairness guard is one table — ``(source, dedup key)`` →
      per-channel consecutive-drop vector — loaded from the channels' own
      ``_consecutive_drops`` and written back, with the deferred channel
      stats, by :meth:`flush_stats`.
    * *generic* — anything else (heterogeneous rows, stateful loss models,
      all-drop rows, non-lossy channel families, non-stock generators):
      ``network.broadcast_fast`` per send, which runs each channel's own
      ``transmit`` and is therefore exact by construction.
      ``generic_rows`` counts them.

    ``calls`` counts the calls of :meth:`sample`.
    """

    __slots__ = (
        "network", "n", "block", "channels", "vector", "generic_rows",
        "probability", "fairness_bound", "delay_low", "delay_span",
        "guard_index", "guard_counts", "guard_live",
        "loss_rngs", "loss_drops", "loss_cursor",
        "delay_rngs", "delay_u", "delay_cursors", "columns",
        "broadcasts", "dropped", "forced", "calls",
    )

    def __init__(self, network: Any, n: int) -> None:
        self.network = network
        self.n = n
        self.block = block = SAMPLE_BLOCK
        self.channels = channels = [network._row(src) for src in range(n)]
        profiles = [row_profile(row) for row in channels]
        profile = next((p for p in profiles if p is not None), None)
        self.vector = np.array([p is not None and p == profile
                                for p in profiles])
        self.generic_rows = n - int(self.vector.sum())
        self.calls = 0
        self.broadcasts = np.zeros(n, dtype=np.int64)
        self.dropped = np.zeros((n, n), dtype=np.int64)
        self.forced = np.zeros((n, n), dtype=np.int64)
        self.guard_index: dict = {}
        self.guard_counts = np.zeros((16, n), dtype=np.int32)
        self.guard_live = False
        if profile is None:
            return
        self.probability, self.fairness_bound, self.delay_low, high = profile
        self.delay_span = None if high is None else high - self.delay_low
        # A reused network may carry guard state from a previous run; the
        # reference path would count on from it, so must we.
        vector_rows = [(src, channels[src])
                       for src in np.flatnonzero(self.vector).tolist()]
        for src, row in vector_rows:
            for j, ch in enumerate(row):
                for key, count in ch._consecutive_drops.items():
                    (at,) = self._guard_rows([src], [key])
                    self.guard_counts[at, j] = count
                    self.guard_live = True
        if self.probability:
            self.loss_rngs = {src: [ch.loss_model._rng for ch in row]
                              for src, row in vector_rows}
            self.loss_drops = np.empty((n, block, n), dtype=bool)
            self.loss_cursor = np.full(n, block, dtype=np.int64)
        if self.delay_span is not None:
            self.delay_rngs = {src: [ch.delay_model._rng for ch in row]
                               for src, row in vector_rows}
            # Zeros, not empty: cells that are not delivered gather a slot
            # too, possibly one never drawn.
            self.delay_u = np.zeros((n, block, n), dtype=np.float64)
            self.delay_cursors = np.full((n, n), block, dtype=np.int64)
            self.columns = np.arange(n)

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def sample(self, srcs: np.ndarray, keys: list,
               nows: np.ndarray) -> tuple:
        """Sample the broadcasts of one flush, given in program order.

        *keys* are the payloads themselves, the guard's dedup keys as on
        the channels' own path.  Returns the ``(len(keys), n)`` delivered
        matrix and the delivery times of its true cells in row-major order
        — send by send, destination order within a send: the order in which
        the reference engine would have scheduled the copies.
        """
        self.calls += 1
        delivered = np.empty((len(keys), self.n), dtype=bool)
        times = np.empty((len(keys), self.n), dtype=np.float64)
        order = np.argsort(srcs, kind="stable")
        if self.generic_rows:
            vector = self.vector[srcs]
            self._sample_generic(np.flatnonzero(~vector).tolist(),
                                 srcs, keys, nows, delivered, times)
            order = order[vector[order]]
        grouped = srcs[order]
        counts = np.bincount(grouped, minlength=self.n)
        rank = np.arange(len(order)) - (counts.cumsum() - counts)[grouped]
        while len(order):
            # A pass holds what fits the rows' loss blocks (at most one
            # block of sends a row): the drop mask is then one gather, and
            # no delay column can need more than one top-up.
            room = self._loss_room(counts)
            fits: Any = (slice(None) if (counts <= room).all()
                         else rank < room[grouped])
            part = order[fits]
            delivered[part], times[part] = self._sample_pass(
                grouped[fits], rank[fits], np.minimum(counts, room),
                [keys[send] for send in part.tolist()], nows[part])
            if len(part) == len(order):
                break
            order, grouped = order[~fits], grouped[~fits]
            rank = rank[~fits] - room[grouped]
            counts = np.maximum(counts - room, 0)
        return delivered, times[delivered]

    def _loss_room(self, counts: np.ndarray) -> np.ndarray:
        """Sends each row can take before its loss block runs out, after
        redrawing the exhausted blocks of the rows with *counts* to send."""
        if not self.probability:
            return np.full(self.n, self.block)
        cursor = self.loss_cursor
        block, n = self.block, self.n
        for src in np.flatnonzero((cursor >= block) & (counts > 0)).tolist():
            draws = _uniform_draws(self.loss_rngs[src], [block] * n)
            np.less(draws.reshape(n, block).T, self.probability,
                    out=self.loss_drops[src])
            cursor[src] = 0
        return block - cursor

    def _sample_pass(self, srcs: np.ndarray, rank: np.ndarray,
                     counts: np.ndarray, keys: list,
                     nows: np.ndarray) -> tuple:
        """One pass of :meth:`sample`: sends grouped by source (*srcs*
        ascending, ``counts[r]`` of them from row ``r``), send ``i`` the
        ``rank[i]``-th of its row in the pass.  Returns the delivered matrix
        and a matrix of delivery times (one column when the delay is fixed)
        that means nothing where no copy is delivered."""
        present = np.flatnonzero(counts)
        sizes = counts[present]
        firsts = sizes.cumsum() - sizes
        drops = None
        if self.probability:
            drops = self.loss_drops[srcs, self.loss_cursor[srcs] + rank]
            self.loss_cursor[present] += sizes
        if self.guard_live or (drops is not None and drops.any()):
            ok = self._replay_guard(srcs, keys, drops)
            if drops is not None and self.fairness_bound is not None:
                # A wanted drop that was delivered is a forced delivery.
                self.forced[present] += np.add.reduceat(
                    drops & ok, firsts, axis=0, dtype=np.int64)
        else:
            ok = np.ones((len(keys), self.n), dtype=bool)
        # Running count of deliveries per column, restarted at each group:
        # ``cum - base`` of the group.
        cum = ok.cumsum(axis=0)
        per_col = cum[firsts + sizes - 1]
        base = np.zeros_like(per_col)
        base[1:] = per_col[:-1]
        per_col -= base
        self.broadcasts[present] += sizes
        self.dropped[present] += sizes[:, None] - per_col
        if self.delay_span is None:
            return ok, nows[:, None] + self.delay_low
        cursors = self.delay_cursors
        short = np.nonzero(cursors[present] + per_col > self.block)
        if len(short[0]):
            self._top_up_delays(present[short[0]], short[1])
        # The k-th delivery of the group on channel j consumes the k-th
        # pending uniform of column j.
        group = np.repeat(np.arange(len(present)), sizes)
        at = cum + (cursors[present] - base - 1)[group]
        u = self.delay_u[srcs[:, None], at, self.columns]
        cursors[present] += per_col
        # Exactly the stdlib's uniform(a, b): a + (b - a) * random().
        return ok, nows[:, None] + (self.delay_low + self.delay_span * u)

    def _guard_rows(self, srcs: list, keys: list) -> list:
        """Rows of the ``(source, key)`` pairs in the guard table, appended
        on first sight."""
        index = self.guard_index
        rows = [index.setdefault(pair, len(index))
                for pair in zip(srcs, keys)]
        counts = self.guard_counts
        if len(index) > len(counts):
            self.guard_counts = np.zeros(
                (max(2 * len(counts), len(index)), self.n), dtype=np.int32)
            self.guard_counts[:len(counts)] = counts
        return rows

    def _replay_guard(self, srcs: np.ndarray, keys: list,
                      drops: Optional[np.ndarray]) -> np.ndarray:
        """Replay the fairness guard over a pass; returns its
        ``(len(keys), n)`` delivered matrix.

        A channel's consecutive-drop count of a key goes to ``count + 1`` on
        a drop and to zero on a delivery, and a wanted drop at
        ``count >= fairness_bound`` is forced through.  Distinct ``(source,
        key)`` pairs are independent, so the sends are replayed in *rounds*
        — round ``r`` holds every pair's ``r``-th send of the pass — each
        one matrix operation over the table rows it touches.
        """
        b = len(keys)
        if drops is None:
            drops = np.zeros((b, self.n), dtype=bool)
        else:
            self.guard_live = True
        rows = self._guard_rows(srcs.tolist(), keys)
        if len(set(rows)) == b:
            rounds: Any = (slice(None),)
        else:
            seen: dict = {}
            by_round: dict = {}
            for i, row in enumerate(rows):
                nth = seen[row] = seen.get(row, -1) + 1
                by_round.setdefault(nth, []).append(i)
            rounds = by_round.values()
        rows = np.array(rows)
        counts = self.guard_counts
        bound = self.fairness_bound
        ok = np.empty((b, self.n), dtype=bool)
        for sel in rounds:
            table_rows = rows[sel]
            count = counts[table_rows]
            drop = drops[sel]
            if bound is not None:
                drop = drop & (count < bound)
            counts[table_rows] = (count + 1) * drop
            ok[sel] = ~drop
        return ok

    def _top_up_delays(self, srcs: np.ndarray, columns: np.ndarray) -> None:
        """Move the unconsumed uniforms of channels ``(srcs[i], columns[i])``
        to the front of their columns and draw the rest, all in one call."""
        srcs, columns = srcs.tolist(), columns.tolist()
        used = self.delay_cursors[srcs, columns].tolist()
        draws = _uniform_draws(
            [self.delay_rngs[src][j] for src, j in zip(srcs, columns)], used)
        kept_from = 0
        for src, j, cursor in zip(srcs, columns, used):
            column = self.delay_u[src, :, j]
            kept = self.block - cursor
            column[:kept] = column[cursor:]
            column[kept:] = draws[kept_from:kept_from + cursor]
            kept_from += cursor
        self.delay_cursors[srcs, columns] = 0

    def _sample_generic(self, sends: list, srcs: np.ndarray, keys: list,
                        nows: np.ndarray, delivered: np.ndarray,
                        times: np.ndarray) -> None:
        """Exact per-send path: per-channel ``transmit`` via broadcast_fast,
        in program order."""
        if not sends:
            return
        broadcast_fast = self.network.broadcast_fast
        # A dropped copy's ``None`` becomes NaN.
        fates = np.array(
            [broadcast_fast(src, keys[send], now)
             for send, src, now in zip(sends, srcs[sends].tolist(),
                                       nows[sends].tolist())],
            dtype=np.float64)
        times[sends] = fates
        delivered[sends] = ~np.isnan(fates)

    # ------------------------------------------------------------------ #
    # end-of-run flush
    # ------------------------------------------------------------------ #
    def flush_stats(self) -> None:
        """Fold the vector rows' counters and guard table into their
        channels, once, when the run ends (generic rows: the network's)."""
        guards: dict[int, dict] = {
            src: {} for src in np.flatnonzero(self.vector).tolist()}
        pairs = list(self.guard_index)
        live = self.guard_counts[:len(pairs)]
        for row, j in zip(*(axis.tolist() for axis in np.nonzero(live))):
            src, key = pairs[row]
            guards[src].setdefault(key, {})[j] = int(live[row, j])
        for src, guard in guards.items():
            settle_row(self.channels[src], int(self.broadcasts[src]),
                       self.dropped[src].tolist(), self.forced[src].tolist(),
                       guard)


class VectorizedEngine(SimulationEngine):
    """SimulationEngine with sliced (struct-of-arrays) delivery dispatch.

    Bit-identical to the reference engine by construction (see module docs);
    falls back to the inherited per-event loop whenever a controller or a
    FULL trace level require per-copy observability, or the channels
    have no positive minimum delay to slice by.
    """

    engine_label = "vectorized"

    def _fallback_reason(self) -> Optional[str]:
        """Why this run needs the per-event loop (``None`` = batchable).

        Controllers decide per-copy fates and FULL tracing records per-copy
        SEND/DROP/CHANNEL_DELIVER entries — both need the per-event loop —
        and without a positive minimum delay there is no slice to batch.
        DELIVERIES-level tracing and every metrics level are exactly
        reproduced by the batched path.
        """
        if self.controller is not None:
            return "controller"
        if self.trace.channel_active:
            return "full_trace"
        self._window = self._min_delay_window()
        if self._window <= 0.0:
            return "no_positive_min_delay"
        return None

    def run(self) -> SimulationResult:
        self._fallback = self._fallback_reason()
        if self._fallback is not None:
            return super().run()
        self.dispatch_mode = "batched"
        self._sampler = _NetSampler(self.network, self.config.n_processes)
        return self._run_batched()

    # ------------------------------------------------------------------ #
    # batched services
    # ------------------------------------------------------------------ #
    def broadcast_from(self, src: int, payload: Any) -> None:
        if not self._fast_active:
            super().broadcast_from(src, payload)
        elif src not in self._crashed:
            self._outbox.append(
                (src, self._interner.pid_for(payload), self._now))

    def _handle_tick(self, index: int) -> None:
        # On the batched path the re-arm waits for the flush, which claims
        # the seqs of the tick's sends first.
        if not self._fast_active:
            super()._handle_tick(index)
        elif index not in self._crashed:
            if self.trace_ticks:
                self.trace.record(self._now, TraceCategory.TICK, index)
            self.processes[index].on_tick()
            next_tick = self._now + self.config.tick_interval
            if next_tick <= self.config.max_time:
                self._rearms.append((len(self._outbox), next_tick, index))

    def _flush_sends(self) -> None:
        """Sample every broadcast recorded since the last flush, at once.

        One :meth:`_NetSampler.sample` call fates the whole outbox; its
        copies come back in program order of the sends and destination
        order within a send, and the TICKs of the flush (a run of them at
        one instant, see :meth:`_merge_sliced`) each claim, in dispatch
        order, their copies' seqs and then their re-arm's: exactly the seqs
        the reference engine's per-copy ``schedule`` calls would have drawn.
        The copies join the pending pool as one block.  Invariant: the
        outbox is empty whenever anything but this method claims a seq or
        reads ``_batch_pending``; hence the flush points — the end of every
        ``_consume_run``, and after every queue-event dispatch or run of
        same-instant TICKs.  Deferring is sound because nothing created in
        a slice is consumed in it, and a process has no way to claim a seq
        except ``broadcast``.
        """
        outbox, rearms, queue = self._outbox, self._rearms, self.queue
        if not outbox:
            for _, next_tick, index in rearms:
                queue.schedule(next_tick, EventKind.TICK, target=index)
            self._rearms = []
            return
        srcs, pids, nows = zip(*outbox)
        outbox.clear()
        payloads = self._interner.payloads
        delivered, times = self._sampler.sample(
            np.array(srcs), [payloads[pid] for pid in pids],
            np.array(nows, dtype=np.float64))
        per_send = delivered.sum(axis=1)
        metrics = self.metrics
        if metrics.active:
            sent = self.config.n_processes
            for src, pid, now, kept in zip(srcs, pids, nows,
                                           per_send.tolist()):
                kind = payload_kind(payloads[pid])
                metrics.on_send_many(now, src, kind, sent)
                metrics.on_drop_many(now, src, kind, sent - kept)
        if self._send_rows_hist is not None:
            self._send_rows_hist.observe(len(srcs))
            for kept in per_send[per_send > 0].tolist():
                self._chunk_cells_hist.observe(kept)
        total = len(times)
        first, claimed = queue.claim_seqs(0), 0
        before = [0, *per_send.cumsum().tolist()] if rearms else ()
        for at, next_tick, index in rearms:  # copies first, then the re-arm
            queue.claim_seqs(before[at] - claimed)
            claimed = before[at]
            queue.schedule(next_tick, EventKind.TICK, target=index)
        queue.claim_seqs(total - claimed)
        self._rearms = []
        if not total:
            return
        sends, dsts = np.nonzero(delivered)
        seqs = first + np.arange(total)
        if rearms:
            seqs += np.searchsorted([at for at, _, _ in rearms], sends,
                                    side="right")
        self._fresh.append((
            times, seqs, dsts.astype(np.int32),
            np.array(pids, dtype=np.int32)[sends]))
        self._batch_pending += total
        self._pending_head = min(self._pending_head, float(times.min()))

    def _quiescence_reached(self) -> bool:
        # Pooled copies are in flight exactly like the reference engine's
        # pending RECEIVE events.
        if self._batch_pending:
            return False
        return super()._quiescence_reached()

    # ------------------------------------------------------------------ #
    # batched main loop
    # ------------------------------------------------------------------ #
    def _min_delay_window(self) -> float:
        """The run's time-slice width: the minimum possible channel delay.

        Every delivery created while the engine dispatches events in
        ``[w0, w0 + W)`` lands at or after ``w0 + W`` (monotone float
        addition of a delay ``>= W``), which is exactly the property the
        sliced merge needs.  Returns ``0.0`` — no slicing, per-event
        fallback — when any channel's delay cannot be bounded below by a
        positive constant.
        """
        bound = float("inf")
        network = self.network
        for src in range(self.config.n_processes):
            for ch in network._row(src):
                if type(ch).transmit not in _BOUNDED_TRANSMITS:
                    return 0.0
                delay = ch.delay_model
                if type(delay) is FixedDelay:
                    low = delay.delay
                elif type(delay) is UniformDelay:
                    low = delay.low
                else:
                    # Exponential delays do have a positive clamp, but it is
                    # orders of magnitude below the typical delay — slices
                    # that thin cost more than per-event dispatch.
                    return 0.0
                if low <= 0.0:
                    return 0.0
                if low < bound:
                    bound = low
        return 0.0 if bound == float("inf") else bound

    def _run_batched(self) -> SimulationResult:
        self._outbox: list = []
        self._rearms: list = []
        self._fresh: list = []
        self._pending: list = []
        self._pending_head = _NEVER
        self._batch_pending = 0
        self._interner = PayloadInterner()
        self._fast_active = True
        try:
            if obs.enabled():
                self._send_rows_hist = obs.histogram(
                    "repro_engine_send_batch_rows",
                    "Broadcasts sampled by one outbox flush.",
                    buckets=_SEND_BUCKETS,
                )
                self._chunk_cells_hist = obs.histogram(
                    "repro_engine_chunk_cells",
                    "Copies per batched delivery chunk.",
                    buckets=_CHUNK_BUCKETS,
                )
            self._seed_initial_events()
            self._open_filter()
            (receive_count, deliver_count, replayed, shared,
             cut) = self._merge_sliced(self._window)
        finally:
            self._fast_active = False
            self._handled = self._delivered = self._cell_changed = None
            self._send_rows_hist = self._chunk_cells_hist = None
        # Flush the aggregate bookkeeping the batched loop deferred; every
        # value lands exactly where the per-event loop would have left it.
        if receive_count:
            self.event_stats.dispatched[EventKind.RECEIVE] += receive_count
        if deliver_count and self.metrics.active:
            self.metrics.total_channel_deliveries += deliver_count
        sampler = self._sampler
        sampler.flush_stats()
        return self._finish_run(
            generic_rows=sampler.generic_rows, sampler_calls=sampler.calls,
            tick_flushes_shared=shared, tick_runs_cut=cut,
            consumed=receive_count, replayed=replayed)

    # ------------------------------------------------------------------ #
    # batched receiver (the repeat filter)
    # ------------------------------------------------------------------ #
    def _open_filter(self) -> None:
        """Decide how delivery runs are consumed; sets ``consume_mode``.

        The repeat filter is on (``"batched"``) exactly when every process
        declares ``repeated_ack_is_noop_once_delivered``.  Otherwise the
        run is ``"boxed"`` — the filter that never skips: a generic
        protocol's ACK handler may draw randomness or broadcast on any
        reception — counted under the reason ``no_batch_consumer``.
        """
        n = self.config.n_processes
        if all(process.repeated_ack_is_noop_once_delivered
               for process in self.processes.values()):
            self.consume_mode = "batched"
            # No pid is -1, so an empty cell matches nothing.
            self._handled = np.full((n, 256), -1, dtype=np.int32)
            self._cell_changed = np.zeros((n, 256), dtype=bool)
            self._delivered = np.zeros((n, 64), dtype=bool)
            return
        self.consume_mode = "boxed"

    def on_process_delivered(self, index: int, message: TaggedMessage) -> None:
        super().on_process_delivered(index, message)
        if self._delivered is not None:
            mid = self._interner.mid_for(message)
            if mid >= self._delivered.shape[1]:
                self._fit_filter_tables()
            self._delivered[index, mid] = True

    def _fit_filter_tables(self) -> None:
        """Widen the filter's tables to the interner's id spaces."""
        interner = self._interner
        if interner.n_cells > self._handled.shape[1]:
            self._handled = _widened(self._handled, interner.n_cells, -1)
            self._cell_changed = _widened(
                self._cell_changed, interner.n_cells, False)
        if interner.n_mids > self._delivered.shape[1]:
            self._delivered = _widened(
                self._delivered, interner.n_mids, False)

    def _gather_slice(self, w1: float) -> tuple:
        """Take every pending copy with ``time < w1`` out of the pool.

        Returns ``(times, seqs, dsts, pids)`` columns in the reference
        ``(time, seq)`` dispatch order (four ``None`` when nothing is due).
        The pool is a list of blocks ``[min_time, live, times, seqs, dsts,
        pids]``: the flushes of one slice are sealed into one block here
        (nothing they created can be due before the next slice), so a copy
        is stored once and only the blocks whose minimum is due are
        touched — a mask picks their due entries, whose times are then
        overwritten with ``inf`` in place; a block is freed when its last
        entry leaves.
        """
        fresh = self._fresh
        if fresh:
            columns = _stack(fresh)
            self._pending.append(
                [float(columns[0].min()), len(columns[0]), *columns])
            fresh.clear()
        parts = []
        kept = []
        head = _NEVER
        for block in self._pending:
            if block[0] < w1:
                times = block[2]
                due = np.nonzero(times < w1)[0]
                parts.append(tuple(column[due] for column in block[2:]))
                block[1] -= len(due)
                if not block[1]:
                    continue
                times[due] = _NEVER
                block[0] = float(times.min())
            kept.append(block)
            if block[0] < head:
                head = block[0]
        self._pending = kept
        self._pending_head = head
        if not parts:
            return None, None, None, None
        times, seqs, dsts, pids = _stack(parts)
        # lexsort: primary key last — times first, seqs break exact ties.
        # The index columns are widened once here, not at every gather of
        # the filter.
        order = np.lexsort((seqs, times))
        return (times[order], seqs[order], dsts[order].astype(np.intp),
                pids[order].astype(np.intp))

    def _merge_sliced(self, window: float) -> tuple[int, int, int, int, int]:
        """Main loop: slice-merged pool entries + queue events.

        Replicates the reference loop's ``(time, seq)`` total order across
        deliveries and queue events and its stop semantics (horizon break
        *without* advancing ``_now``, deadline break after), but maximal
        *runs* of consecutive delivery entries between queue events are
        consumed straight from the column arrays by :meth:`_consume_run` —
        no per-entry queue operations.  Queue events themselves are
        dispatched exactly as the reference engine would.  Returns the
        number of pool entries consumed, how many of them reached a live
        process, how many were replayed through ``on_receive``, and the
        :class:`~.engine.ExecutionRecord`'s two tick counts.
        """
        queue = self.queue
        max_time = self.config.max_time
        dispatch = self._dispatch
        receive_count = 0
        deliver_count = 0
        replayed = 0
        shared = cut = 0
        next_entry = queue.peek()
        stop = False
        while not stop:
            head_time = self._pending_head
            if next_entry is not None and next_entry[0] < head_time:
                w1 = next_entry[0] + window
            elif head_time < _NEVER:
                w1 = head_time + window
            else:
                break
            times, seqs, dsts, pids = self._gather_slice(w1)
            n_w = 0 if times is None else len(times)
            i = 0
            while True:
                if self._stop_requested:
                    stop = True
                    break
                if i < n_w:
                    # End of the run starting at i: the first entry not
                    # preceding the next queue event in (time, seq) order.
                    if next_entry is None:
                        j = n_w
                    else:
                        et = next_entry[0]
                        if et > times[n_w - 1]:
                            j = n_w
                        else:
                            j1 = i + int(np.searchsorted(
                                times[i:], et, side="left"))
                            j2 = i + int(np.searchsorted(
                                times[i:], et, side="right"))
                            if j1 < j2:
                                # Seqs ascend within equal times, so the
                                # tie-break is another binary search.
                                j = j1 + int(np.searchsorted(
                                    seqs[j1:j2], next_entry[1],
                                    side="left"))
                            else:
                                j = j1
                    if j > i:
                        truncate = None
                        last = times[j - 1]
                        deadline = self._stop_deadline
                        if last > max_time or (
                            deadline is not None and last >= deadline
                        ):
                            jh = i + int(np.searchsorted(
                                times[i:j], max_time, side="right"))
                            jd = j if deadline is None else i + int(
                                np.searchsorted(times[i:j], deadline,
                                                side="left"))
                            if jh <= jd:
                                j = jh
                                truncate = "horizon"
                            else:
                                j = jd
                                truncate = "deadline"
                        if j > i:
                            alive_n, replayed_n = self._consume_run(
                                times, dsts, pids, i, j)
                            deliver_count += alive_n
                            replayed += replayed_n
                            receive_count += j - i
                            self._batch_pending -= j - i
                            self._now = float(times[j - 1])
                            i = j
                        if truncate is not None:
                            if truncate == "horizon":
                                self._stop_reason = "horizon"
                            else:
                                self._now = float(times[j])
                            stop = True
                            break
                        continue
                    # The next queue event precedes entry i.
                elif next_entry is None or next_entry[0] >= w1:
                    # Slice exhausted and no queue event left before its
                    # boundary: advance to the next slice (copies created
                    # meanwhile land at >= w1 by construction).
                    break
                et, _, kind, target, payload = queue.pop()
                if et > max_time:
                    self._stop_reason = "horizon"
                    stop = True
                    break
                self._now = et
                deadline = self._stop_deadline
                if deadline is not None and et >= deadline:
                    stop = True
                    break
                # Never a RECEIVE: on this path copies live in the pool.
                dispatch(kind, target, payload)
                if kind is EventKind.TICK:
                    # This instant's TICKs share one flush, up to one that a
                    # pooled copy may precede (a tie too: seqs not compared).
                    ticks = 1
                    while not self._stop_requested:
                        entry = queue.peek()
                        if not (entry and entry[0] == et and entry[2] is kind):
                            break
                        if (i < n_w and times[i] <= et) or \
                                self._pending_head <= et:
                            cut += 1
                            break
                        queue.pop()
                        dispatch(kind, entry[3], None)
                        ticks += 1
                    shared += ticks > 1
                self._flush_sends()
                next_entry = queue.peek()
        return receive_count, deliver_count, replayed, shared, cut

    def _consume_run(self, times: np.ndarray, dsts: np.ndarray,
                     pids: np.ndarray, lo: int, hi: int) -> tuple[int, int]:
        """Consume run entries ``[lo, hi)``: filter, then replay in order.

        Every entry that is not dropped is handed to its destination's
        handler (``receive_table``) in run order, ``_now`` set per entry —
        the loop the reference engine runs, so tags are drawn, views read,
        listeners called and broadcasts recorded in the reference order; the
        flush that ends the run samples the broadcasts.  Dropped are the copies
        addressed to crashed processes and, when the repeat filter is on,
        the ACK receptions two run-wide tables prove to be no-ops under
        ``repeated_ack_is_noop_once_delivered``: ``delivered[dst, mid]``
        says the destination has URB-delivered the message, and
        ``handled[dst, cell]`` is the payload last replayed to it for the
        entry's ``(m, tag_ack)`` cell.  Both are read as of the start of the
        run, which is sound for ``delivered`` (monotone) and made sound for
        ``handled`` by the in-run rule: if any entry of the run carries a
        payload other than the one on record for its ``(dst, cell)`` — label
        sets re-read from a converging AΘ, two acknowledgers drawing one tag
        — *every* entry of that pair is replayed, and the last of them goes
        on record.  Returns ``(live, replayed)`` entry counts.
        """
        run_pids = pids[lo:hi]
        run_dsts = dsts[lo:hi]
        keep = None
        for crashed in self._crashed:
            alive = run_dsts != crashed
            keep = alive if keep is None else keep & alive
        live = hi - lo if keep is None else int(keep.sum())
        if self._handled is not None:
            interner = self._interner
            self._fit_filter_tables()
            handled = self._handled
            # Payloads without a cell or a message gather column -1: they
            # match no ``handled`` entry, which only ever holds ACK pids.
            cells = interner.cell_arr[run_pids]
            is_ack = cells >= 0
            same = handled[run_dsts, cells] == run_pids
            noop = same & self._delivered[run_dsts, interner.mid_arr[run_pids]]
            changes = is_ack & ~same
            if keep is not None:
                changes &= keep
            if changes.any():
                changed = self._cell_changed
                at = (run_dsts[changes], cells[changes])
                changed[at] = True
                rewritten = np.nonzero(changed[run_dsts, cells] & is_ack)[0]
                changed[at] = False
                noop[rewritten] = False
                # Last entry of each rewritten (dst, cell): first occurrence
                # of its key in the reversed run.
                keys = (run_dsts[rewritten] * handled.shape[1]
                        + cells[rewritten])[::-1]
                last = rewritten[::-1][np.unique(keys, return_index=True)[1]]
                handled[run_dsts[last], cells[last]] = run_pids[last]
            keep = ~noop if keep is None else keep & ~noop
        replay = slice(lo, hi) if keep is None else np.nonzero(keep)[0] + lo
        replay_dsts = dsts[replay].tolist()
        payloads = self._interner.payloads
        tables = self._tables
        if tables is None:
            tables = self._tables = [process.receive_table() for process
                                     in self.processes.values()]
        for dst, pid, now in zip(replay_dsts, pids[replay].tolist(),
                                 times[replay].tolist()):
            self._now = now
            payload = payloads[pid]
            try:
                handler = tables[dst][payload.__class__]
            except KeyError:  # not in the table: on_receive decides
                handler = tables[dst][payload.__class__] = \
                    self.processes[dst].on_receive
            handler(payload)
        self._flush_sends()
        return live, len(replay_dsts)

    #: broadcast_from consults this before taking the batched path; the
    #: per-event fallback (super().run()) never sets it.
    _fast_active: bool = False
    _batch_pending: int = 0
    #: Broadcasts recorded since the last flush: ``(src, pid, now)``.  Only
    #: the batched path fills it.
    _outbox: Any = ()
    #: ``(outbox position, next tick time, process)`` of each TICK since the
    #: last flush, in dispatch order: the re-arms the flush schedules.
    _rearms: Any = ()
    #: The channel sampler of the current batched run.
    _sampler: Any = None
    #: Payload interning table of the current batched run.
    _interner: Optional[PayloadInterner] = None
    #: The repeat filter's run-wide tables (``None`` = filter off):
    #: ``_handled[dst, cell]`` — pid last replayed to *dst* for the ACK
    #: cell, ``-1`` before the first; ``_delivered[dst, mid]``;
    #: ``_cell_changed`` — all-False scratch of ``_handled``'s shape.
    _handled: Optional[np.ndarray] = None
    _delivered: Optional[np.ndarray] = None
    _cell_changed: Optional[np.ndarray] = None
    #: The processes' receive tables, made at the run's first replay.
    _tables: Optional[list] = None
    #: Cached obs instrument handles (resolved once per run, outside the
    #: hot loop); ``None`` when obs is disabled.
    _send_rows_hist: Any = None
    _chunk_cells_hist: Any = None
    #: The run's slice width, computed once by :meth:`_fallback_reason`.
    _window: float = 0.0
