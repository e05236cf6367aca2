"""Vectorized engine backend: batched delivery dispatch over a SoA core.

:class:`VectorizedEngine` is a drop-in :class:`~.engine.SimulationEngine`
subclass registered as the ``vectorized`` backend (see
:mod:`repro.simulation.backends`).  It replaces per-event heap traffic for
channel deliveries — by far the dominant event population — with
struct-of-arrays *delivery chunks* merged one time slice at a time:

* Each broadcast's fan-out becomes one :class:`_Chunk` holding the delivery
  times, sequence numbers and destinations as a single ``(3, k)`` float64
  array, time-sorted once at construction.  Pending copies cost 24 bytes
  each — one ndarray for the whole fan-out — instead of a pooled event
  object plus a heap tuple.  (Seqs and destinations are exact in float64:
  both stay far below 2**53; the sampler guards the seq range.)
* The main loop advances through *time slices* of width ``W``, the minimum
  possible channel delay of the run: every delivery created while dispatching
  a slice ``[w0, w0 + W)`` necessarily lands at or after ``w0 + W``, so the
  slice's events can be gathered from the pending chunks once, merged with a
  single ``lexsort`` into the reference ``(time, seq)`` total order, and
  consumed in maximal runs between queue events by the per-process
  :class:`~repro.core.interfaces.BatchConsumer` objects — no per-event heap
  operations at all.  The small chunk heap is touched only when a chunk
  enters or spans a slice.
* Channel randomness is prefetched per source row into NumPy blocks
  (:class:`_RowSampler`): one loss uniform per channel per broadcast and one
  delay uniform per delivery, consumed from per-channel cursors.  Because
  every protocol send in this codebase is a broadcast, all channels of a
  source row advance their substreams in lockstep, so block prefetching
  consumes each per-channel stream in exactly the reference order.

Bit-identical parity with ``reference`` is a hard requirement, enforced by
:mod:`repro.experiments.parity` in CI.  The mechanisms:

* Sequence numbers for a chunk are *claimed* from the shared
  :class:`~.scheduler.EventQueue` counter (:meth:`EventQueue.claim_seqs`) at
  the same program point the reference engine would have scheduled the
  copies, in the same destination order — so the merged dispatch order over
  chunks plus heap events is the reference ``(time, seq)`` total order,
  tie-breaks included (the per-chunk time sort is stable).
* The loss draw / fairness guard / delay draw sequence per channel replays
  :meth:`LossyChannel.transmit` exactly: loss uniforms are consumed once per
  attempt only for ``0 < p < 1`` (the ``p == 0``/``p == 1`` shortcuts draw
  nothing), the guard dictionaries are the channels' own, and the delay
  uniform is consumed only on (possibly guard-forced) delivery, evaluated
  with the same ``low + (high - low) * u`` expression the stdlib uses.
* Aggregate bookkeeping (metrics counters, channel stats, event stats)
  is flushed in forms that are arithmetically identical to the reference
  engine's per-event updates; nothing observes the intermediate values on
  the batched path because that path only runs with no hooks attached.

Fallback: when a :class:`~repro.explore.controller.ScheduleController`,
engine hooks, or a FULL trace level (per-copy SEND/DROP/CHANNEL_DELIVER
records) are active, or no positive minimum delay exists (exponential or
custom delay models, custom channel classes: slicing is unsound),
:meth:`run` delegates to the reference per-event loop — same class, same
results, so explore/replay stay exact.  ``dispatch_mode`` records which
path ran.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Optional

import numpy as np

from .. import obs
from ..core.messages import payload_kind
from ..core.interfaces import BoxedConsumer
from ..core.state import PayloadInterner
from ..failure_detectors.base import FailureDetectorView
from ..network.channel import LossyChannel
from ..network.delay import FixedDelay, UniformDelay
from ..network.loss import BernoulliLoss, NoLoss
from ..network.reliable import QuasiReliableChannel, ReliableChannel
from .engine import SimulationEngine, SimulationResult
from .events import EventKind
from .simtime import SimTime
from .tracing import TraceCategory

#: Prefetched draws per channel block.  Public so tests can shrink it to
#: force mid-run refills; any value produces identical results (each
#: per-channel stream is consumed strictly sequentially).
SAMPLE_BLOCK = 256

#: Chunk columns store sequence numbers as float64; exact up to 2**53.
_SEQ_EXACT_LIMIT = 2 ** 53

#: ``transmit`` implementations known to deliver at ``now + delay.sample()``
#: (or drop).  Rows made of these can bound their minimum delivery delay by
#: the delay model alone, which is what makes time slicing sound.
_BOUNDED_TRANSMITS = (
    LossyChannel.transmit,
    ReliableChannel.transmit,
    QuasiReliableChannel.transmit,
)

#: Buckets of the batched-chunk-size histogram: chunk cardinality is the
#: surviving fan-out of one broadcast, i.e. bounded by n-1 copies.
_CHUNK_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                  512.0, 1024.0)

#: Buckets of the batched-receiver consume-width histogram: entries handed
#: to one ``consume_acks`` call (per destination, per run).  Runs between
#: queue events span thousands of entries during ACK storms.
_CONSUME_BUCKETS = (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0,
                    65536.0)


class _Chunk:
    """One broadcast's delivered fan-out as a time-sorted ``(3, k)`` array.

    ``cols[0]`` is delivery times, ``cols[1]`` sequence numbers, ``cols[2]``
    destinations — all float64, so a chunk costs a single small ndarray
    (average fan-outs are a few dozen entries; separate per-column arrays
    would triple the object overhead, which dominates at that size).
    ``start`` indexes the first entry not yet handed to the dispatch loop;
    the columns themselves are immutable once built.  ``pid`` is the
    payload's interned id: the id-space through which the consumers
    classify and duplicate-suppress deliveries without touching the payload
    object (the interner maps it back for per-entry replay).
    """

    __slots__ = ("cols", "start", "pid")

    def __init__(self, cols: np.ndarray, pid: int) -> None:
        self.cols = cols
        self.start = 0
        self.pid = pid


def _refill_uniform_column(block: np.ndarray, column: int, random) -> None:
    """Refill one prefetch column with sequential ``random()`` draws.

    ``np.fromiter`` consumes the generator straight into the preallocated
    buffer — no transient list of boxed floats — while still calling
    ``random()`` exactly ``len(block)`` times in order, so each per-channel
    stream is consumed decision-for-decision as the reference path would.
    """
    n = block.shape[0]
    block[:, column] = np.fromiter(
        (random() for _ in range(n)), np.float64, count=n
    )


class _RowSampler:
    """Per-source-row channel sampler replicating ``LossyChannel.transmit``.

    Two modes, chosen once per row:

    * *vector* — every channel in the row is a :class:`LossyChannel` with a
      homogeneous Bernoulli/no-loss model and a homogeneous uniform/fixed
      delay model.  Loss uniforms are prefetched into a ``(block, m)``
      matrix (one row per broadcast), delay uniforms into per-channel
      columns consumed on delivery only.  Channel stats are accumulated in
      arrays and flushed at end of run; the fairness-guard dicts used are
      the channels' own.
    * *generic* — anything else (heterogeneous rows, stateful loss models,
      all-drop rows, non-lossy channel families): fall back to
      ``network.broadcast_fast`` per broadcast, which runs each channel's
      own ``transmit`` and is therefore exact by construction.  The chunk
      dispatch win is kept either way.
    """

    __slots__ = (
        "network", "src", "dsts", "dst_arr", "channels", "m",
        "vector", "probability", "no_drop", "fairness_bound", "guards",
        "loss_rngs", "loss_block", "loss_drops", "loss_cursor",
        "delay_fixed", "delay_low", "delay_span", "delay_rngs",
        "delay_u", "delay_cursors",
        "broadcasts", "dropped_counts", "forced_counts", "any_guard",
        "all_idx",
    )

    def __init__(self, network: Any, src: int) -> None:
        self.network = network
        self.src = src
        row = network._row(src)
        channels = [ch for ch in row if ch is not None]
        self.channels = channels
        self.dsts = [ch.dst for ch in channels]
        self.m = len(channels)
        self.broadcasts = 0
        self.any_guard = False
        self.vector = self._try_vector_mode(channels)
        if self.vector:
            m = self.m
            # float64: destinations feed straight into chunk columns.
            self.dst_arr = np.asarray(self.dsts, dtype=np.float64)
            self.all_idx = np.arange(m, dtype=np.int64)
            self.guards = [ch._consecutive_drops for ch in channels]
            # A reused network may carry guard state from a previous run;
            # the reference path would clear it on delivery, so must we.
            self.any_guard = any(self.guards)
            self.dropped_counts = np.zeros(m, dtype=np.int64)
            self.forced_counts = np.zeros(m, dtype=np.int64)
            self.loss_block = None
            self.loss_drops = None
            self.loss_cursor = 0
            if not self.no_drop:
                self.loss_rngs = [ch.loss_model._rng for ch in channels]
            if self.delay_fixed is None:
                self.delay_rngs = [ch.delay_model._rng for ch in channels]
                self.delay_u = np.empty((SAMPLE_BLOCK, m), dtype=np.float64)
                self.delay_cursors = np.full(m, SAMPLE_BLOCK, dtype=np.int64)

    def _try_vector_mode(self, channels: list) -> bool:
        """Vector mode needs a homogeneous LossyChannel row (see class doc)."""
        if not channels:
            return False
        bounds = set()
        probabilities = set()
        delays: set = set()
        for ch in channels:
            if type(ch).transmit is not LossyChannel.transmit:
                return False
            bounds.add(ch.fairness_bound)
            loss = ch.loss_model
            if isinstance(loss, NoLoss):
                probabilities.add(0.0)
            elif isinstance(loss, BernoulliLoss):
                probabilities.add(loss.probability)
            else:
                return False
            delay = ch.delay_model
            if type(delay) is FixedDelay:
                delays.add(("fixed", delay.delay))
            elif type(delay) is UniformDelay:
                delays.add(("uniform", delay.low, delay.high))
            else:
                return False
        if len(bounds) != 1 or len(probabilities) != 1 or len(delays) != 1:
            return False
        probability = probabilities.pop()
        if probability >= 1.0:
            # All-drop rows interleave guard state with every attempt; the
            # generic path handles them exactly and they are never hot.
            return False
        self.probability = probability
        self.no_drop = probability == 0.0
        self.fairness_bound = bounds.pop()
        delay_kind = delays.pop()
        if delay_kind[0] == "fixed":
            self.delay_fixed = delay_kind[1]
        else:
            self.delay_fixed = None
            self.delay_low = delay_kind[1]
            self.delay_span = delay_kind[2] - delay_kind[1]
        return True

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def broadcast(self, payload: Any, now: SimTime, queue: Any) -> tuple:
        """Sample one broadcast.  Returns ``(sent, cols | None)``.

        ``sent`` is the number of attempted copies; ``cols`` is the
        time-sorted ``(3, k)`` chunk column array (times / seqs / dsts), or
        ``None`` when every copy was dropped.
        """
        if not self.vector:
            return self._broadcast_generic(payload, now, queue)
        self.broadcasts += 1
        if self.no_drop:
            delivered_idx = self.all_idx
            if self.any_guard:
                self._clear_guard(delivered_idx, self.network.dedup_key(payload))
        else:
            drops = self.loss_drops
            cursor = self.loss_cursor
            if drops is None or cursor >= SAMPLE_BLOCK:
                drops = self._refill_loss()
                cursor = 0
            mask = drops[cursor]
            self.loss_cursor = cursor + 1
            if mask.any():
                delivered_idx = self._apply_guard(
                    mask, self.network.dedup_key(payload)
                )
            else:
                delivered_idx = self.all_idx
                if self.any_guard:
                    self._clear_guard(delivered_idx,
                                      self.network.dedup_key(payload))
        k = len(delivered_idx)
        if k == 0:
            return self.m, None
        seq0 = queue.claim_seqs(k)
        if seq0 + k > _SEQ_EXACT_LIMIT:
            raise OverflowError("sequence numbers exceed float64 exactness")
        cols = np.empty((3, k), dtype=np.float64)
        if self.delay_fixed is not None:
            # Equal delays: time order is destination order already.
            cols[0] = now + self.delay_fixed
            cols[1] = np.arange(seq0, seq0 + k, dtype=np.float64)
            cols[2] = self.dst_arr[delivered_idx]
            return self.m, cols
        cursors = self.delay_cursors
        ci = cursors[delivered_idx]
        if (ci >= SAMPLE_BLOCK).any():
            for j in delivered_idx[ci >= SAMPLE_BLOCK].tolist():
                self._refill_delay(j)
            ci = cursors[delivered_idx]
        u = self.delay_u[ci, delivered_idx]
        cursors[delivered_idx] = ci + 1
        # Exactly the stdlib's uniform(a, b): a + (b - a) * random().
        times_arr = now + (self.delay_low + self.delay_span * u)
        order = np.argsort(times_arr, kind="stable")
        cols[0] = times_arr[order]
        cols[1] = order
        cols[1] += seq0
        cols[2] = self.dst_arr[delivered_idx[order]]
        return self.m, cols

    def _apply_guard(self, mask: np.ndarray, key: Any) -> np.ndarray:
        """Replay the fairness guard for one drop mask; returns delivered idx."""
        dropped = np.nonzero(mask)[0]
        bound = self.fairness_bound
        guards = self.guards
        dropped_counts = self.dropped_counts
        forced: list[int] = []
        for j in dropped.tolist():
            guard = guards[j]
            if bound is not None and guard.get(key, 0) >= bound:
                forced.append(j)
            else:
                dropped_counts[j] += 1
                guard[key] = guard.get(key, 0) + 1
        self.any_guard = True
        if forced:
            mask = mask.copy()
            mask[forced] = False
            self.forced_counts[forced] += 1
        delivered_idx = np.nonzero(~mask)[0]
        self._clear_guard(delivered_idx, key)
        return delivered_idx

    def _clear_guard(self, delivered_idx: np.ndarray, key: Any) -> None:
        guards = self.guards
        for j in delivered_idx.tolist():
            guard = guards[j]
            if guard and key in guard:
                del guard[key]

    def _refill_loss(self) -> np.ndarray:
        block = self.loss_block
        if block is None:
            block = self.loss_block = np.empty(
                (SAMPLE_BLOCK, self.m), dtype=np.float64
            )
            self.loss_drops = np.empty((SAMPLE_BLOCK, self.m), dtype=bool)
        for j, rng in enumerate(self.loss_rngs):
            _refill_uniform_column(block, j, rng.random)
        np.less(block, self.probability, out=self.loss_drops)
        self.loss_cursor = 0
        return self.loss_drops

    def _refill_delay(self, column: int) -> None:
        _refill_uniform_column(self.delay_u, column,
                               self.delay_rngs[column].random)
        self.delay_cursors[column] = 0

    def _broadcast_generic(self, payload: Any, now: SimTime,
                           queue: Any) -> tuple:
        """Exact generic path: per-channel ``transmit`` via broadcast_fast."""
        sent = 0
        delivered: list[tuple[SimTime, int]] = []
        for dst, deliver_time in self.network.broadcast_fast(
            self.src, payload, now
        ):
            sent += 1
            if deliver_time is not None:
                delivered.append((deliver_time, dst))
        k = len(delivered)
        if k == 0:
            return sent, None
        seq0 = queue.claim_seqs(k)
        if seq0 + k > _SEQ_EXACT_LIMIT:
            raise OverflowError("sequence numbers exceed float64 exactness")
        order = sorted(range(k), key=lambda i: delivered[i][0])
        cols = np.empty((3, k), dtype=np.float64)
        cols[0] = [delivered[i][0] for i in order]
        cols[1] = [seq0 + i for i in order]
        cols[2] = [delivered[i][1] for i in order]
        return sent, cols

    # ------------------------------------------------------------------ #
    # end-of-run flush
    # ------------------------------------------------------------------ #
    def flush_stats(self) -> None:
        """Fold the accumulated per-row counters into the channels' stats.

        Only vector mode defers stats (the generic path goes through each
        channel's own ``transmit``).  ``delivered = attempts - dropped``
        exactly as the per-transmit updates would have left them.
        """
        if not self.vector or self.broadcasts == 0:
            return
        attempts = self.broadcasts
        dropped_counts = self.dropped_counts
        forced_counts = self.forced_counts
        for j, channel in enumerate(self.channels):
            stats = channel.stats
            dropped = int(dropped_counts[j])
            stats.attempts += attempts
            stats.dropped += dropped
            stats.delivered += attempts - dropped
            stats.forced_deliveries += int(forced_counts[j])
        self.broadcasts = 0
        dropped_counts[:] = 0
        forced_counts[:] = 0


class VectorizedEngine(SimulationEngine):
    """SimulationEngine with sliced (struct-of-arrays) delivery dispatch.

    Bit-identical to the reference engine by construction (see module docs);
    falls back to the inherited per-event loop whenever a controller, hooks
    or a FULL trace level require per-copy observability, or the channels
    have no positive minimum delay to slice by.
    """

    #: ``"batched"`` or ``"per-event"`` — which dispatch path :meth:`run`
    #: took.  ``None`` until :meth:`run` is called.
    dispatch_mode: Optional[str] = None

    #: How the batched path consumed deliveries: ``"batched"`` — unboxed,
    #: straight from the chunk columns into the per-process
    #: :class:`~repro.core.interfaces.BatchConsumer`\ s; ``"boxed"`` — every
    #: reception replayed through ``on_receive`` by
    #: :class:`~repro.core.interfaces.BoxedConsumer` adapters (protocols
    #: without a consumer, delivery listeners, unstable failure-detector
    #: windows).  ``None`` on the per-event fallback.
    consume_mode: Optional[str] = None

    engine_label = "vectorized"

    def _fallback_reason(self) -> Optional[str]:
        """Why this run needs the per-event loop (``None`` = batchable).

        Controllers decide per-copy fates, hooks observe per-copy events,
        and FULL tracing records per-copy SEND/DROP/CHANNEL_DELIVER entries
        — all three need the per-event loop, and without a positive minimum
        delay there is no slice to batch.  DELIVERIES-level tracing and
        every metrics level are exactly reproduced by the batched path.
        """
        if self.controller is not None:
            return "controller"
        if self.hooks:
            return "hooks"
        if self.trace.channel_active:
            return "full_trace"
        if self._min_delay_window() <= 0.0:
            return "no_positive_min_delay"
        return None

    def _count_fallback(self, reason: str) -> None:
        if obs.enabled():
            obs.counter(
                "repro_engine_fallback_total",
                "Vectorized runs that fell back to a slower dispatch "
                "path, by reason.",
                ("reason",),
            ).inc(reason=reason)

    def run(self) -> SimulationResult:
        reason = self._fallback_reason()
        if reason is not None:
            self.dispatch_mode = "per-event"
            self._count_fallback(reason)
            if obs.timeline_active():
                obs.emit("engine.dispatch_mode", engine=self.engine_label,
                         mode="per-event", reason=reason)
            return super().run()
        self.dispatch_mode = "batched"
        if obs.timeline_active():
            obs.emit("engine.dispatch_mode", engine=self.engine_label,
                     mode="batched")
        return self._run_batched()

    # ------------------------------------------------------------------ #
    # batched services
    # ------------------------------------------------------------------ #
    def broadcast_from(self, src: int, payload: Any) -> None:
        if not self._fast_active:
            super().broadcast_from(src, payload)
            return
        if src in self._crashed:
            return
        sampler = self._row_samplers[src]
        if sampler is None:
            sampler = _RowSampler(self.network, src)
            self._row_samplers[src] = sampler
        now = self._now
        sent, cols = sampler.broadcast(payload, now, self.queue)
        kind = payload_kind(payload)
        metrics = self.metrics
        if metrics.active:
            metrics.on_send_many(now, src, kind, sent)
        if cols is None:
            if metrics.active:
                metrics.on_drop_many(now, src, kind, sent)
            return
        k = cols.shape[1]
        dropped = sent - k
        if dropped and metrics.active:
            metrics.on_drop_many(now, src, kind, dropped)
        self._batch_pending += k
        if obs.enabled():
            obs.histogram(
                "repro_engine_chunk_cells",
                "Copies per batched delivery chunk.",
                buckets=_CHUNK_BUCKETS,
            ).observe(k)
        chunk = _Chunk(cols, self._interner.pid_for(payload))
        heappush(self._chunk_heap,
                 (float(cols[0, 0]), int(cols[1, 0]), chunk))

    def _quiescence_reached(self) -> bool:
        # Pending chunk deliveries are in-flight copies exactly like the
        # reference engine's pending RECEIVE events.
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
                if ch is None:
                    continue
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
        self._chunk_heap: list = []
        self._batch_pending = 0
        self._row_samplers: list[Optional[_RowSampler]] = (
            [None] * self.config.n_processes
        )
        self._interner = PayloadInterner()
        self._fast_active = True
        try:
            self._seed_initial_events()
            consumers = self._consumers = self._build_consumers()
            receive_count, deliver_count = self._merge_sliced_consumed(
                self._min_delay_window()
            )
            for consumer in consumers:
                consumer.flush()
        finally:
            self._fast_active = False
            self._batched_consumed_counter = None
            self._consume_width_hist = None
        # Flush the aggregate bookkeeping the batched loop deferred; every
        # value lands exactly where the per-event loop would have left it.
        metrics = self.metrics
        if receive_count:
            self.event_stats.dispatched[EventKind.RECEIVE] += receive_count
        if deliver_count:
            metrics.total_channel_deliveries += deliver_count
        for sampler in self._row_samplers:
            if sampler is not None:
                sampler.flush_stats()
        final_time = min(self._now, self.config.max_time)
        metrics.on_finish(final_time)
        provenance = self._schedule_provenance()
        self.trace.header.update(provenance.as_dict())
        if obs.enabled():
            self._record_obs_run()
        return SimulationResult(
            config=self.config,
            crash_schedule=self._effective_crash_schedule(),
            trace=self.trace,
            metrics=metrics,
            delivery_logs={
                index: process.delivery_log
                for index, process in self.processes.items()
            },
            processes=dict(self.processes),
            expected_contents=tuple(cmd.content for cmd in self.workload),
            final_time=final_time,
            stop_reason=self._stop_reason,
            event_stats=self.event_stats,
            schedule=provenance,
        )

    # ------------------------------------------------------------------ #
    # batched receiver (consumption through BatchConsumers)
    # ------------------------------------------------------------------ #
    def _build_consumers(self) -> list:
        """Build one :class:`BatchConsumer` per process; sets ``consume_mode``.

        Unboxed consumption (``"batched"``) requires that every process
        supplies a consumer (baseline protocols and ``strict_equality``
        Algorithm 2 do not), that no delivery listeners are attached
        (listeners observe per-reception ordering), and — when any consumer
        evaluates failure-detector views — that the AΘ oracle reports stable
        view-validity windows.  Otherwise the gate declines for a named,
        counted reason and every process gets a :class:`BoxedConsumer`
        (``"boxed"``).
        """
        n = self.config.n_processes
        interner = self._interner
        consumers = []
        needs_views = False
        reason = None
        for index in range(n):
            process = self.processes[index]
            if process._listeners:
                reason = "delivery_listeners"
                break
            consumer = process.batch_consumer(
                interner, self._atheta_window_for(index)
            )
            if consumer is None:
                reason = "no_batch_consumer"
                break
            consumers.append(consumer)
            needs_views = needs_views or consumer.needs_views
        if reason is None and needs_views and self.atheta is not None \
                and not self.atheta.has_stable_view_windows:
            reason = "unstable_view_windows"
        if reason is None:
            self.consume_mode = "batched"
            if obs.enabled():
                self._batched_consumed_counter = obs.counter(
                    "repro_engine_batched_consumed_total",
                    "Delivery-run entries consumed unboxed through the "
                    "batched receiver.",
                )
                self._consume_width_hist = obs.histogram(
                    "repro_engine_consume_width",
                    "ACK receptions handed to one consume_acks call.",
                    buckets=_CONSUME_BUCKETS,
                )
            if obs.timeline_active():
                obs.emit("engine.consume_mode", engine=self.engine_label,
                         mode="batched")
            return consumers
        self.consume_mode = "boxed"
        self._count_fallback(reason)
        if obs.timeline_active():
            obs.emit("engine.consume_mode", engine=self.engine_label,
                     mode="boxed", reason=reason)
        return [BoxedConsumer(self.processes[index]) for index in range(n)]

    def _atheta_window_for(self, index: int):
        """Per-process ``now -> (view, valid_until)`` AΘ reader."""
        detector = self.atheta
        if detector is None:
            empty = FailureDetectorView.empty()
            inf = float("inf")
            return lambda now, _e=empty, _i=inf: (_e, _i)
        view_window = detector.view_window
        return lambda now: view_window(index, now)

    def _gather_slice_pids(self, w1: float) -> tuple:
        """Collect every pending chunk entry with ``time < w1``.

        Returns ``(cols, pids)`` in the reference ``(time, seq)`` dispatch
        order: ``cols`` is a ``(3, n)`` column array and ``pids`` an int64
        array of interned payload ids aligned with it (``None, None`` when
        the slice is empty).
        """
        chunks = self._chunk_heap
        parts = []
        pid_parts = []
        while chunks and chunks[0][0] < w1:
            _, _, chunk = heappop(chunks)
            cols = chunk.cols
            times = cols[0]
            start = chunk.start
            split = start + int(
                np.searchsorted(times[start:], w1, side="left")
            )
            parts.append(cols[:, start:split])
            pid_parts.append((chunk.pid, split - start))
            if split < cols.shape[1]:
                chunk.start = split
                heappush(chunks,
                         (float(times[split]), int(cols[1, split]), chunk))
        if not parts:
            return None, None
        if len(parts) == 1:
            # A single chunk is already in dispatch order (time-sorted with
            # ascending seqs on ties) and shares one payload.
            cols = parts[0]
            pids = np.full(cols.shape[1], pid_parts[0][0], dtype=np.int64)
            return cols, pids
        merged = np.concatenate(parts, axis=1)
        # lexsort: primary key last — times first, seqs break exact ties.
        order = np.lexsort((merged[1], merged[0]))
        pids = np.empty(merged.shape[1], dtype=np.int64)
        pos = 0
        for pid, count in pid_parts:
            pids[pos:pos + count] = pid
            pos += count
        return merged[:, order], pids[order]

    def _merge_sliced_consumed(self, window: float) -> tuple[int, int]:
        """Main loop: slice-merged chunk entries + queue events.

        Replicates the reference loop's ``(time, seq)`` total order across
        deliveries and queue events and its stop semantics (horizon break
        *without* advancing ``_now``, deadline break after), but maximal
        *runs* of consecutive delivery entries between queue events are
        consumed straight from the column arrays by the per-process
        :class:`BatchConsumer`\\ s — no per-entry heap operations.  Queue
        events themselves are dispatched exactly as the reference engine
        would, with a consumer flush before each TICK (the only queue event
        that reads lazily-maintained ACK state).
        """
        queue = self.queue
        chunks = self._chunk_heap
        max_time = self.config.max_time
        dispatch = self._dispatch
        recycle = queue.recycle
        consumers = self._consumers
        metrics_active = self.metrics.active
        batched_counter = self._batched_consumed_counter
        receive_count = 0
        deliver_count = 0
        next_entry = queue.peek()
        stop = False
        while not stop:
            if chunks:
                head_time = chunks[0][0]
                if next_entry is not None and next_entry.time < head_time:
                    w1 = next_entry.time + window
                else:
                    w1 = head_time + window
            elif next_entry is not None:
                w1 = next_entry.time + window
            else:
                break
            cols, pids = self._gather_slice_pids(w1)
            if cols is None:
                n_w = 0
                times = seqs = dsts = None
            else:
                n_w = cols.shape[1]
                times = cols[0]
                seqs = cols[1]
                dsts = cols[2]
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
                        et = next_entry.time
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
                                    seqs[j1:j2], next_entry.seq,
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
                            alive_n = self._consume_run(
                                times, dsts, pids, i, j)
                            if metrics_active:
                                deliver_count += alive_n
                            receive_count += j - i
                            if batched_counter is not None:
                                batched_counter.inc(j - i)
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
                elif next_entry is None or next_entry.time >= w1:
                    # Slice exhausted and no queue event left before its
                    # boundary: advance to the next slice (chunks created
                    # meanwhile land at >= w1 by construction).
                    break
                event = queue.pop()
                et = event.time
                if et > max_time:
                    self._stop_reason = "horizon"
                    stop = True
                    break
                self._now = et
                deadline = self._stop_deadline
                if deadline is not None and et >= deadline:
                    stop = True
                    break
                if event.kind is EventKind.TICK and \
                        event.target is not None:
                    # on_tick reads the retire condition's counters.
                    consumers[event.target].flush()
                dispatch(event)
                recycle(event)
                next_entry = queue.peek()
        return receive_count, deliver_count

    def _consume_run(self, times: np.ndarray, dsts: np.ndarray,
                     pids: np.ndarray, lo: int, hi: int) -> int:
        """Consume run entries ``[lo, hi)`` through the batch consumers.

        Two phases, exchangeable because ACK handling draws no randomness,
        claims no sequence numbers and reads no MSG-written state:

        * **Phase B** — ACK receptions, grouped per destination and handed
          to ``consume_acks`` as unboxed id arrays (the hot path: ~97% of
          receptions in an ACK storm).
        * **Phase A** — every other reception, replayed one at a time in
          global run order with ``_now`` set per entry: a MSG handler draws
          the acknowledgement tag from the process RNG and broadcasts
          (claiming sequence numbers), so its RNG and seq consumption must
          interleave exactly as the reference engine's.

        Boxed runs have no Phase B: a generic protocol's ACK handler may
        draw randomness or claim sequence numbers too, so the
        :class:`BoxedConsumer` adapters get every payload kind in Phase A.

        URB-deliveries surfaced by Phase B are emitted afterwards sorted by
        run position — before any later queue event can record a trace
        entry — reproducing the reference trace/metrics order (at
        DELIVERIES level nothing else records between queue events).
        Returns the number of non-crashed receptions (metrics bookkeeping).
        """
        interner = self._interner
        consumers = self._consumers
        run_pids = pids[lo:hi]
        run_dsts = dsts[lo:hi].astype(np.int64)
        run_times = times[lo:hi]
        n = hi - lo
        crashed = self._crashed
        if crashed:
            alive = np.ones(n, dtype=bool)
            for c in crashed:
                alive &= run_dsts != c
        else:
            alive = None
        kinds = interner.kind_arr[run_pids]
        if self.consume_mode == "batched":
            is_ack = kinds == PayloadInterner.KIND_ACK
        else:
            is_ack = np.zeros(n, dtype=bool)
        if alive is None:
            ack_idx = np.nonzero(is_ack)[0]
            replay_idx = np.nonzero(~is_ack)[0]
        else:
            ack_idx = np.nonzero(is_ack & alive)[0]
            replay_idx = np.nonzero(~is_ack & alive)[0]
        deliveries: list = []
        touched = None
        width_hist = self._consume_width_hist
        if ack_idx.size:
            ack_dsts = run_dsts[ack_idx]
            order = np.argsort(ack_dsts, kind="stable")
            sorted_idx = ack_idx[order]
            sorted_dsts = ack_dsts[order]
            bounds = np.nonzero(sorted_dsts[1:] != sorted_dsts[:-1])[0] + 1
            starts = np.concatenate(([0], bounds))
            ends = np.concatenate((bounds, [sorted_dsts.shape[0]]))
            for s, e in zip(starts.tolist(), ends.tolist()):
                dst = int(sorted_dsts[s])
                group = sorted_idx[s:e]
                if width_hist is not None:
                    width_hist.observe(e - s)
                got = consumers[dst].consume_acks(
                    run_pids[group], group, run_times[group]
                )
                if got:
                    if touched is None:
                        touched = []
                    touched.append(consumers[dst])
                    for pos, message in got:
                        deliveries.append((pos, dst, message))
        if replay_idx.size:
            payloads = interner.payloads
            # Protocols with a consumer send MSG/ACK payloads only; any
            # other kind goes straight to the process.
            is_other = kinds == PayloadInterner.KIND_OTHER
            processes = self.processes
            for k in replay_idx.tolist():
                self._now = float(run_times[k])
                if is_other[k]:
                    processes[int(run_dsts[k])].on_receive(
                        payloads[run_pids[k]]
                    )
                else:
                    consumers[int(run_dsts[k])].handle_msg(
                        payloads[run_pids[k]], k
                    )
        if deliveries:
            if len(deliveries) > 1:
                deliveries.sort()
            metrics = self.metrics
            metrics_active = metrics.active
            trace = self.trace
            protocol_active = trace.protocol_active
            for pos, dst, message in deliveries:
                t = float(run_times[pos])
                if metrics_active:
                    metrics.on_urb_deliver(t, dst, message.content)
                if protocol_active:
                    trace.record(t, TraceCategory.URB_DELIVER, dst,
                                 content=message.content, tag=message.tag)
            for consumer in touched:
                consumer.run_delivered_pos.clear()
        return ack_idx.size + replay_idx.size

    #: broadcast_from consults this before taking the batched path; the
    #: per-event fallback (super().run()) never sets it.
    _fast_active: bool = False
    _batch_pending: int = 0
    #: Payload interning table + per-process consumers of the current
    #: batched run.
    _interner: Optional[PayloadInterner] = None
    _consumers: Optional[list] = None
    #: Cached obs instrument handles (resolved once per run, outside the
    #: hot loop); ``None`` when obs is disabled.
    _batched_consumed_counter: Any = None
    _consume_width_hist: Any = None
