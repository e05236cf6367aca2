"""Cross-engine parity over drawn scenarios, where tick instants tie.

Every process ticks at the instants ``k * tick_interval``, and the batched
engine samples the sends of one instant's TICKs in one flush, cutting that
run short where a pooled copy is due at or before the instant.  A delay of
one tick interval (or half of one) puts copies exactly on tick instants,
crashes drawn on tick instants put a CRASH among them, and broadcasts
started half a tick off the instants let one instant's TICKs share a flush
whose copies then tie with their re-arms.  The reference and vectorized
fingerprints must still be equal, with the vectorized run on its batched
path.  The seed is fixed, so every run draws the same examples.
"""

from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro.experiments.config import Scenario
from repro.experiments.parity import compare_engines
from repro.network.delay import DelaySpec
from repro.network.loss import LossSpec
from repro.workloads.generators import AllToAll

TICK = 1.0

DELAYS = (DelaySpec.fixed(TICK), DelaySpec.fixed(TICK / 2),
          DelaySpec.uniform(0.05, 0.5))
LOSSES = (LossSpec.none(), LossSpec.bernoulli(0.1), LossSpec.bernoulli(0.4))

#: A crash at a tick instant, or anywhere between two of them.
CRASH_TIMES = st.one_of(st.integers(1, 4).map(lambda k: k * TICK),
                        st.floats(0.1, 4.9, allow_nan=False))


@st.composite
def tick_scenarios(draw):
    algorithm = draw(st.sampled_from(("algorithm1", "algorithm2")))
    n = draw(st.integers(4, 12))
    crashed = draw(st.lists(st.integers(0, n - 1), unique=True,
                            max_size=(n - 1) // 2))  # a correct majority
    stops = ({"stop_when_quiescent": True} if algorithm == "algorithm2"
             else {"stop_when_all_correct_delivered": True})
    # A burst at t=0, or every process broadcasting from a drawn start.
    start = draw(st.sampled_from((None, 0.0, TICK / 2)))
    workload = ("burst" if start is None
                else AllToAll(n, start=start, spacing=TICK / 10))
    return Scenario(
        name="tick-parity",
        algorithm=algorithm,
        n_processes=n,
        seed=draw(st.integers(0, 10_000)),
        tick_interval=TICK,
        delay=draw(st.sampled_from(DELAYS)),
        loss=draw(st.sampled_from(LOSSES)),
        crashes={index: draw(CRASH_TIMES) for index in crashed},
        workload=workload,
        metadata={"burst_size": 2},
        max_time=8.0,
        drain_grace_period=1.0,
        **stops,
    )


@seed(20150525)
@given(scenario=tick_scenarios())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_reference_and_vectorized_fingerprints_are_equal(scenario):
    report = compare_engines(scenario)
    assert report.ok, report.diff()
    assert report.runs[1].execution.dispatch_mode == "batched"
