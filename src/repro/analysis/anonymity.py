"""Anonymity audits.

The protocols must work without process identifiers.  Two things are worth
auditing mechanically on finished runs:

* **Acknowledgement-tag uniqueness** — Algorithm 1's correctness rests on
  distinct processes choosing distinct random ``tag_ack`` values for the
  same message («different processes generate distinct ACKs to the same m»).
  :func:`audit_ack_tag_uniqueness` verifies it on the trace (a failure would
  indicate a tag-width misconfiguration or a broken RNG setup).
* **Payload opacity** — nothing a protocol puts on the wire may contain a
  process index.  :func:`audit_payload_opacity` walks every sent payload and
  checks it only uses the sanctioned wire types, whose fields are contents,
  random tags and opaque labels.  (The identified baseline is exempt — it is
  non-anonymous by design.)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.messages import AckPayload, LabeledAckPayload, MsgPayload
from ..simulation.engine import SimulationResult


@dataclass(frozen=True)
class AnonymityAudit:
    """Result of the anonymity audits on one run."""

    ack_tags_unique: bool
    payloads_opaque: bool
    violations: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        """Whether every audit passed."""
        return self.ack_tags_unique and self.payloads_opaque

    def describe(self) -> str:
        """One-line summary."""
        status = "passed" if self.passed else "FAILED"
        return f"anonymity audit {status} ({len(self.violations)} violations)"


_ACK_TYPES = (AckPayload, LabeledAckPayload)


def _audit_sends(result: SimulationResult,
                 *, allow_identified: bool) -> tuple[list[str], list[str]]:
    """Both audits from one pass over the sends: ``(tag violations, opacity
    violations)``, each list as its public audit returns it."""
    opacity_violations: list[str] = []
    # (message, ack tag, process) of every ACK sent, in first-sent order
    acks: dict[tuple, None] = {}
    # A broadcast's copies add nothing but a flagged payload's finding.
    for process, payload, copies in result.trace.send_runs():
        if isinstance(payload, _ACK_TYPES):
            acks[payload.message, payload.ack_tag, process] = None
        elif not (allow_identified or payload is None
                  or isinstance(payload, MsgPayload)):
            opacity_violations += [f"p{process} sent a non-standard payload "
                                   f"{type(payload).__name__}"] * copies
    # message -> ack_tag -> set of source processes that sent it, and
    # message -> process -> set of ack tags used (must be a singleton)
    senders: dict[tuple, dict[int, set[int]]] = {}
    per_process: dict[tuple, dict[int, set[int]]] = {}
    for message, ack_tag, process in acks:
        key = (message.content, message.tag)
        senders.setdefault(key, {}).setdefault(ack_tag, set()).add(process)
        per_process.setdefault(key, {}).setdefault(process, set()).add(ack_tag)
    tag_violations: list[str] = []
    for key, tag_map in senders.items():
        for ack_tag, processes in tag_map.items():
            if len(processes) > 1:
                tag_violations.append(
                    f"ack tag {ack_tag} for message {key!r} was used by "
                    f"multiple processes: {sorted(processes)}"
                )
    for key, proc_map in per_process.items():
        for process, tags in proc_map.items():
            if len(tags) > 1:
                tag_violations.append(
                    f"process p{process} used multiple ack tags for message "
                    f"{key!r}: {sorted(tags)}"
                )
    return tag_violations, opacity_violations


def audit_ack_tag_uniqueness(result: SimulationResult) -> tuple[bool, list[str]]:
    """Check that distinct processes never share a ``tag_ack`` for a message."""
    violations, _opacity = _audit_sends(result, allow_identified=True)
    return (not violations, violations)


def audit_payload_opacity(result: SimulationResult,
                          *, allow_identified: bool = False) -> tuple[bool, list[str]]:
    """Check that only the sanctioned anonymous wire types were sent."""
    _tags, violations = _audit_sends(result, allow_identified=allow_identified)
    return (not violations, violations)


def audit_anonymity(result: SimulationResult,
                    *, allow_identified: bool = False) -> AnonymityAudit:
    """Run every anonymity audit on *result*, in one pass over its sends."""
    tag_violations, opacity_violations = _audit_sends(
        result, allow_identified=allow_identified
    )
    return AnonymityAudit(
        ack_tags_unique=not tag_violations,
        payloads_opaque=not opacity_violations,
        violations=tuple(tag_violations + opacity_violations),
    )
