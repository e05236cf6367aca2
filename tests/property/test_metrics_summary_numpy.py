"""``MetricsCollector.summary()`` computes its latency figures in Python;
they must be numpy's, bit for bit: ``np.mean``, ``np.max`` and
``np.percentile(..., 95)`` of the same samples, compared with ``==``.  The
mean is ``pairwise_mean``, which the campaign group tables use too."""

import numpy as np
from hypothesis import given, strategies as st

from repro.simulation.metrics import MetricsCollector, pairwise_mean

#: Magnitudes from 1e-3 to 1e3, drawn from a few values so that ties occur.
MAGNITUDES = st.one_of(
    st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-3, 0.25, 1.0, 3.5, 1e3]),
)
LATENCIES = st.lists(st.builds(lambda m, s: m * s, MAGNITUDES, st.sampled_from([1, -1])),
                     min_size=1, max_size=200)


def collector_with(latencies: list[float]) -> MetricsCollector:
    metrics = MetricsCollector()
    for index, latency in enumerate(latencies):
        metrics.on_urb_broadcast(0.0, 0, index)
        metrics.on_urb_deliver(latency, 1, index)
    return metrics


@given(LATENCIES)
def test_summary_latencies_are_numpys(latencies):
    summary = collector_with(latencies).summary()
    values = np.asarray(latencies, dtype=float)
    assert summary.mean_latency == float(np.mean(values))
    assert pairwise_mean(latencies) == float(np.mean(values))
    assert summary.max_latency == float(np.max(values))
    assert summary.p95_latency == float(np.percentile(values, 95))


def test_summary_without_latencies_has_none():
    summary = MetricsCollector().summary()
    assert (summary.mean_latency, summary.max_latency, summary.p95_latency) == (None, None, None)
