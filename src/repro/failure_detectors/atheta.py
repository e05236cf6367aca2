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
repeated ACKs carrying more/fewer labels).  All three feed one view rule
(:class:`AnonymousDetectorBase`); see DESIGN.md §3.3 for the rule and for
which parameterisations satisfy the formal properties in which runs.
"""

from __future__ import annotations

import random
from typing import Optional

from ..simulation.simtime import SimTime
from .base import FailureDetector, FailureDetectorView, FDPair
from .labels import Label
from .oracle import GroundTruthOracle
from .policies import DisseminationPolicy

_INF = float("inf")

#: ``(valid_from, valid_until, view)``: a view and the half-open time
#: window over which it is a viewer's output.
Window = tuple[float, float, FailureDetectorView]


class AnonymousDetectorBase(FailureDetector):
    r"""Shared machinery of the AΘ and AP\* oracles.

    Viewer ``v``'s output at time ``t`` is, under every policy::

        {(label_j, |S_v| - #{j in S_v : d_j <= t}) : j in S_v, l_vj <= t < d_j}

    ``l_vj`` is when ``v`` learns ``j``'s label, ``S_v`` the viewer's
    subject set and ``d_j`` the instant ``j``'s crash is detected.  The
    policy fixes only the last two tables.

    Parameters
    ----------
    oracle:
        Ground-truth view of the run's failure pattern and labels.
    policy:
        Label dissemination policy (see :mod:`repro.failure_detectors.policies`).
    detection_delay:
        Time after a crash at which the crashed process's pair is removed
        from views (only relevant when the policy exposes faulty labels at
        all, i.e. under ``ALL_PROCESSES``).
    learn_delay:
        Upper bound of the uniform per-(viewer, subject) delay before the
        subject's label first appears in the viewer's view.  ``0`` makes all
        labels visible from the start.
    rng:
        Random substream of the staggered learning delays (drawn if ``learn_delay`` > 0).
    """

    def __init__(
        self,
        oracle: GroundTruthOracle,
        *,
        policy: DisseminationPolicy | str = DisseminationPolicy.CORRECT_ONLY,
        detection_delay: float = 0.0,
        learn_delay: float = 0.0,
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
        rng = rng or (random.Random(0) if self.learn_delay else None)
        n = oracle.n_processes
        everyone = tuple(range(n))
        # Staggered learning times: viewer v first sees subject j's label at
        # self._learn[v][j].  A process always knows its own label at once.
        self._learn = [
            [0.0 if viewer == subject or self.learn_delay == 0.0
             else rng.uniform(0.0, self.learn_delay)  # type: ignore[union-attr]
             for subject in everyone]
            for viewer in everyone
        ]
        # The policy's two tables: each viewer's subject set S_v, and each
        # process's detection instant d_j.
        if self.policy is DisseminationPolicy.OWN_ONLY:
            self._subjects = [(viewer,) for viewer in everyone]
            self._detected = [_INF] * n
        elif self.policy is DisseminationPolicy.CORRECT_ONLY:
            correct = oracle.correct_indices()
            self._subjects = [correct if oracle.is_correct(viewer) else ()
                              for viewer in everyone]
            self._detected = [_INF] * n
        else:
            self._subjects = [everyone] * n
            self._detected = [oracle.crash_time(j) + self.detection_delay
                              for j in everyone]
        #: Each viewer's window around its last query.
        self._windows: dict[int, Window] = {}
        #: Views by content ``(visible subjects, number)``, so that equal
        #: views are one object, at one viewer or at several.
        self._views: dict[tuple[tuple[int, ...], int], FailureDetectorView] = {}

    # ------------------------------------------------------------------ #
    # FailureDetector interface
    # ------------------------------------------------------------------ #
    def view(self, process_index: int, now: SimTime) -> FailureDetectorView:
        window = self._windows.get(process_index)
        if window is None or not window[0] <= now < window[1]:
            window = self._windows[process_index] = self._window(
                process_index, now)
        return window[2]

    def _window(self, viewer: int, now: SimTime) -> Window:
        """*viewer*'s view at *now*, valid from the last learn time or
        detection instant of its subjects at or before *now* until the
        first one after."""
        if not (0 <= viewer < self.oracle.n_processes):
            raise IndexError(
                f"process index {viewer} out of range "
                f"[0, {self.oracle.n_processes})"
            )
        subjects, learn = self._subjects[viewer], self._learn[viewer]
        detected = self._detected
        breaks = [t for j in subjects for t in (learn[j], detected[j])]
        valid_from = max((t for t in breaks if t <= now), default=-_INF)
        valid_until = min((t for t in breaks if t > now), default=_INF)
        visible = tuple(j for j in subjects if learn[j] <= now < detected[j])
        number = len(subjects) - sum(1 for j in subjects if detected[j] <= now)
        key = (visible, number)
        view = self._views.get(key)
        if view is None:
            pairs = [FDPair(self.oracle.label_of(j), number) for j in visible]
            view = self._views[key] = (FailureDetectorView(pairs) if pairs
                                       else FailureDetectorView.empty())
        return valid_from, valid_until, view

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
            probe_times = [0.0, self._learn[viewer][subject], effective_horizon]
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
