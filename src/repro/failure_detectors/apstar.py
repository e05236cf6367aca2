r"""The anonymous perfect failure-detector class AP\* (paper §V-B).

AP\* provides each process a read-only variable ``a_p*`` containing pairs
``(label, number)`` such that:

* **AP\*-completeness** — eventually the output permanently contains pairs
  associated with all correct processes (with
  ``number = |S(label) ∩ Correct|``).
* **AP\*-accuracy** — if a process crashes, its pair is eventually and
  permanently removed from every output.

Eventually the number of pairs equals the number of correct processes.
Algorithm 2 uses AP\* solely to decide when the Task 1 retransmission of a
message may stop (quiescence): once ACKs covering every AP\*-listed pair have
been collected for an already-delivered message, the message is retired from
the ``MSG`` set.

The implementation is the AΘ oracle's view rule
(:class:`~repro.failure_detectors.atheta.AnonymousDetectorBase`): a crashed
process's pair leaves every view at its detection instant, which is what
AP\*-accuracy asks for.
"""

from __future__ import annotations

from .atheta import AnonymousDetectorBase


class APStarOracle(AnonymousDetectorBase):
    r"""The AP\* oracle: the same view rule as
    :class:`~repro.failure_detectors.atheta.AThetaOracle`."""
