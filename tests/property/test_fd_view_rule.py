"""The windowed AΘ / AP* view rule against the per-policy definitions.

``AnonymousDetectorBase`` answers every policy with one formula, a
per-viewer validity window and interned views.  For random failure
patterns, detection delays and learn delays it must return exactly what
``helpers.LiteralAnonymousDetector`` builds from each policy's definition on
every query.  The probe times come in random order, forwards and
backwards, each followed by a stale re-read as the explorer's
failure-detector staleness makes, and include every breakpoint exactly.
Equal views must be one object, at one viewer or at two, and an empty view
the shared empty one.
"""

import random

from hypothesis import given, settings, strategies as st

from helpers import LiteralAnonymousDetector
from repro.failure_detectors.apstar import APStarOracle
from repro.failure_detectors.atheta import AThetaOracle
from repro.failure_detectors.base import FailureDetectorView
from repro.failure_detectors.oracle import GroundTruthOracle
from repro.failure_detectors.policies import DisseminationPolicy
from repro.simulation.faults import CrashSchedule

times = st.floats(0.0, 20.0, allow_nan=False)


@st.composite
def detectors(draw):
    n = draw(st.integers(1, 7))
    victims = draw(st.lists(st.integers(0, n - 1), max_size=n - 1,
                            unique=True))
    crashes = {victim: draw(times) for victim in victims}
    policy = draw(st.sampled_from(list(DisseminationPolicy)))
    detection_delay = draw(st.sampled_from([0.0, 1.0]) | times)
    learn_delay = draw(st.sampled_from([0.0]) | times)
    seed = draw(st.integers(0, 2**16))
    ground = GroundTruthOracle(CrashSchedule.crash_at(n, crashes),
                               rng=random.Random(seed))
    kind = draw(st.sampled_from([AThetaOracle, APStarOracle]))
    shipped = kind(ground, policy=policy, detection_delay=detection_delay,
                   learn_delay=learn_delay, rng=random.Random(seed + 1))
    literal = LiteralAnonymousDetector(
        ground, policy=policy, detection_delay=detection_delay,
        learn_delay=learn_delay, rng=random.Random(seed + 1))
    return shipped, literal


@given(pair=detectors(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_windowed_views_are_the_definitions(pair, data):
    shipped, literal = pair
    ground = shipped.oracle
    n = ground.n_processes
    breakpoints = [ground.crash_time(j) + shipped.detection_delay
                   for j in ground.faulty_indices()]
    breakpoints += literal.learn_time.values()
    extra = data.draw(st.lists(times, max_size=12))
    probes = data.draw(st.permutations(sorted(set(breakpoints + extra))))
    seen = {}
    for now in probes:
        viewer = data.draw(st.integers(0, n - 1))
        stale_by = data.draw(st.sampled_from([0.0, 0.5, 3.0]))
        for t in (now, max(0.0, now - stale_by)):
            view = shipped.view(viewer, t)
            assert view.pairs == literal.view(viewer, t).pairs, (viewer, t)
            assert seen.setdefault(frozenset(view.pairs), view) is view
            assert view or view is FailureDetectorView.empty()
