r"""The anonymous failure-detector class AΘ (paper §V-A).

AΘ provides each process a read-only variable ``a_theta`` containing pairs
``(label, number)`` such that:

* **AΘ-completeness** — eventually the output permanently contains pairs
  associated with all correct processes, with
  ``number = |S(label) ∩ Correct|``.
* **AΘ-accuracy** — at every time, for every output pair, every
  ``number``-sized subset of ``S(label)`` (the processes that know the
  label) contains at least one correct process.

The oracle implementation is parameterised by a
:class:`~repro.failure_detectors.policies.DisseminationPolicy` deciding who
knows which labels, a *detection delay* governing how long after a crash the
crashed process's pair disappears, and a *learning delay* that staggers when
each viewer first sees each label (exercising Algorithm 2's reconciliation of
repeated ACKs carrying more/fewer labels).  See DESIGN.md §3.3 for which
parameterisations satisfy the formal properties in which runs.
"""

from __future__ import annotations

import random
from typing import Optional

from ..simulation.simtime import SimTime
from .base import FailureDetector, FailureDetectorView, FDPair
from .labels import Label
from .oracle import GroundTruthOracle
from .policies import DisseminationPolicy


class AnonymousDetectorBase(FailureDetector):
    """Shared machinery of the AΘ and AP\\* oracles.

    Parameters
    ----------
    oracle:
        Ground-truth view of the run's failure pattern and labels.
    policy:
        Label dissemination policy (see :mod:`repro.failure_detectors.policies`).
    detection_delay:
        Time after a crash at which the crashed process's pair is removed
        from views (only relevant when ``remove_crashed`` is true and the
        policy exposes faulty labels at all).
    learn_delay:
        Upper bound of the uniform per-(viewer, subject) delay before the
        subject's label first appears in the viewer's view.  ``0`` makes all
        labels visible from the start.
    remove_crashed:
        Whether crashed processes' pairs are removed after detection.
    rng:
        Random substream for the staggered learning delays.
    """

    def __init__(
        self,
        oracle: GroundTruthOracle,
        *,
        policy: DisseminationPolicy | str = DisseminationPolicy.CORRECT_ONLY,
        detection_delay: float = 0.0,
        learn_delay: float = 0.0,
        remove_crashed: bool = True,
        rng: Optional[random.Random] = None,
    ) -> None:
        if detection_delay < 0:
            raise ValueError("detection_delay must be non-negative")
        if learn_delay < 0:
            raise ValueError("learn_delay must be non-negative")
        self.oracle = oracle
        self.policy = DisseminationPolicy.from_string(policy)
        self.detection_delay = float(detection_delay)
        self.learn_delay = float(learn_delay)
        self.remove_crashed = remove_crashed
        rng = rng or random.Random(0)
        n = oracle.n_processes
        # Staggered learning times: viewer i first sees subject j's label at
        # learn_time[(i, j)].  A process always knows its own label at once.
        self._learn_time: dict[tuple[int, int], float] = {}
        for viewer in range(n):
            for subject in range(n):
                if viewer == subject or self.learn_delay == 0.0:
                    self._learn_time[(viewer, subject)] = 0.0
                else:
                    self._learn_time[(viewer, subject)] = rng.uniform(
                        0.0, self.learn_delay
                    )
        # Per-viewer view cache for the stable policies: maps viewer to
        # ``(valid_from, valid_until, view)``.  Views are immutable, and for
        # CORRECT_ONLY the output only changes when ``now`` crosses one of
        # the (static) learning times, so a cached view can be returned for
        # the whole half-open validity window — the hot path of Algorithm 2,
        # which reads AΘ on every tick of every process.
        self._view_cache: dict[int, tuple[float, float, FailureDetectorView]] = {}

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def learn_time(self, viewer: int, subject: int) -> float:
        """Time at which *viewer* first sees *subject*'s label."""
        return self._learn_time[(viewer, subject)]

    def _knows(self, viewer: int, subject: int, now: SimTime) -> bool:
        """Whether *viewer*'s view may contain *subject*'s label at *now*."""
        return now >= self._learn_time[(viewer, subject)]

    def _subject_removed(self, subject: int, now: SimTime) -> bool:
        """Whether *subject*'s pair has been removed due to a detected crash."""
        if not self.remove_crashed:
            return False
        return self.oracle.is_detected_crashed(subject, now, self.detection_delay)

    def _detection_based_number(self, now: SimTime) -> int:
        """``n`` minus the number of detected crashes (ALL_PROCESSES policy)."""
        return self.oracle.n_processes - self.oracle.detected_crash_count(
            now, self.detection_delay
        )

    # ------------------------------------------------------------------ #
    # FailureDetector interface
    # ------------------------------------------------------------------ #
    def view(self, process_index: int, now: SimTime) -> FailureDetectorView:
        if not (0 <= process_index < self.oracle.n_processes):
            raise IndexError(
                f"process index {process_index} out of range "
                f"[0, {self.oracle.n_processes})"
            )
        if self.policy is DisseminationPolicy.OWN_ONLY:
            return self._own_only_view(process_index)
        if self.policy is DisseminationPolicy.CORRECT_ONLY:
            return self._correct_only_view(process_index, now)
        return self._all_processes_view(process_index, now)

    # -- policy implementations ------------------------------------------ #
    def _own_only_view(self, viewer: int) -> FailureDetectorView:
        cached = self._view_cache.get(viewer)
        if cached is not None:
            return cached[2]
        label = self.oracle.label_of(viewer)
        view = FailureDetectorView([FDPair(label, 1)])
        self._view_cache[viewer] = (0.0, float("inf"), view)
        return view

    def _correct_only_view(self, viewer: int, now: SimTime) -> FailureDetectorView:
        # Prescient oracle: only correct processes' labels, visible only to
        # correct viewers; the associated number is |Correct| from the start,
        # so every output pair satisfies accuracy in every run (S(label) is a
        # subset of Correct) and completeness once learning delays elapse.
        cached = self._view_cache.get(viewer)
        if cached is not None and cached[0] <= now < cached[1]:
            return cached[2]
        if self.oracle.is_faulty(viewer):
            return FailureDetectorView.empty()
        number = self.oracle.n_correct
        learn_time = self._learn_time
        valid_from = 0.0
        valid_until = float("inf")
        pairs = []
        for subject in self.oracle.correct_indices():
            lt = learn_time[(viewer, subject)]
            if lt <= now:
                pairs.append(FDPair(self.oracle.label_of(subject), number))
                if lt > valid_from:
                    valid_from = lt
            elif lt < valid_until:
                valid_until = lt
        view = FailureDetectorView(pairs)
        self._view_cache[viewer] = (valid_from, valid_until, view)
        return view

    def _all_processes_view(self, viewer: int, now: SimTime) -> FailureDetectorView:
        # Detection-based oracle: every not-yet-detected process appears,
        # with a number that shrinks as crashes are detected.  Satisfies the
        # formal properties only in majority-correct runs (see policies.py).
        number = self._detection_based_number(now)
        pairs = []
        for subject in range(self.oracle.n_processes):
            if self._subject_removed(subject, now):
                continue
            if not self._knows(viewer, subject, now):
                continue
            pairs.append(FDPair(self.oracle.label_of(subject), number))
        return FailureDetectorView(pairs)

    # ------------------------------------------------------------------ #
    # analysis helpers
    # ------------------------------------------------------------------ #
    def knower_set(self, label: Label, horizon: SimTime) -> frozenset[int]:
        """``S(label)``: the processes whose view ever contains *label*
        up to *horizon* (used by the formal-property checkers in tests)."""
        subject = self.oracle.index_of(label)
        knowers = set()
        for viewer in range(self.oracle.n_processes):
            # A crashed viewer can only have known the label before crashing.
            effective_horizon = min(horizon, self.oracle.crash_time(viewer))
            probe_times = [0.0, self._learn_time[(viewer, subject)], effective_horizon]
            for t in probe_times:
                if t > effective_horizon:
                    continue
                if label in self.view(viewer, t):
                    knowers.add(viewer)
                    break
        return frozenset(knowers)

    def converged_view(self) -> FailureDetectorView:
        """The eventual, stable view at correct processes (for tests)."""
        horizon = max(
            [0.0]
            + [
                self.oracle.crash_time(i) + self.detection_delay
                for i in self.oracle.faulty_indices()
            ]
            + [self.learn_delay]
        )
        correct = self.oracle.correct_indices()
        if not correct:  # pragma: no cover - schedule forbids this
            return FailureDetectorView.empty()
        return self.view(correct[0], horizon + 1.0)

    def describe(self) -> str:
        return (
            f"{type(self).__name__}(policy={self.policy.value}, "
            f"detection_delay={self.detection_delay:g}, "
            f"learn_delay={self.learn_delay:g})"
        )


class AThetaOracle(AnonymousDetectorBase):
    r"""The AΘ oracle.

    With the default ``CORRECT_ONLY`` policy this detector satisfies
    AΘ-completeness and AΘ-accuracy in **every** run, regardless of how many
    processes crash — which is what Algorithm 2 needs to circumvent the
    majority impossibility (paper Theorem 2).
    """


class AThetaKeepCrashed(AThetaOracle):
    """AΘ variant that never removes crashed processes' pairs.

    AΘ-completeness only constrains the pairs of correct processes, so
    keeping stale pairs is allowed by the definition; this variant exists to
    exercise Algorithm 2 under a detector that converges "from above" only.
    """

    def __init__(self, oracle: GroundTruthOracle, **kwargs) -> None:
        kwargs["remove_crashed"] = False
        super().__init__(oracle, **kwargs)
