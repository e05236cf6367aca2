"""How much ACK bookkeeping a whole run does, pinned as exact counts.

Both paper algorithms answer a settled ACK payload (one whose reception
can change nothing) with one set lookup, before their bookkeeping.  The
run's fingerprint cannot see that shortcut: a run that loses it is the
same run, only slower.  The number of calls that reach the bookkeeping
can, and unlike a timing it is the same on every machine.  DESIGN §8.12
has the counts of the commit before the shortcut beside these.
"""

import pytest

from repro.core.state import Algorithm1State, Algorithm2State
from repro.experiments.parity import parity_cases, run_fingerprint

#: Reference-engine calls per ``parity_cases()`` entry.  Algorithm 2's
#: ``record_labeled_ack`` calls ``record_ack`` once per first ACK.
PINNED_CALLS = {
    "algorithm1": {"record_ack": 144, "record_labeled_ack": 0},
    "staggered-learning": {"record_ack": 144, "record_labeled_ack": 1677},
}
COUNTED = ((Algorithm1State, "record_ack"),
           (Algorithm2State, "record_labeled_ack"))


@pytest.mark.parametrize("name", sorted(PINNED_CALLS))
def test_bookkeeping_calls_are_the_pinned_ones(name, monkeypatch):
    calls = {method: 0 for _, method in COUNTED}
    for cls, method in COUNTED:
        counted = getattr(cls, method)

        def wrapper(self, *args, _method=method, _counted=counted):
            calls[_method] += 1
            return _counted(self, *args)

        monkeypatch.setattr(cls, method, wrapper)
    (case,) = (case for case in parity_cases() if case.name == name)
    run_fingerprint(case, "reference")
    assert calls == PINNED_CALLS[name]
