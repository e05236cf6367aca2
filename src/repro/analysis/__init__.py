"""Trace analysis: URB property checking, quiescence detection, anonymity
audits and plain-text table rendering."""

from .anonymity import (
    AnonymityAudit,
    audit_ack_tag_uniqueness,
    audit_anonymity,
    audit_payload_opacity,
)
from .properties import (
    PropertyVerdict,
    UrbVerdict,
    check_correct_agreement,
    check_uniform_agreement,
    check_uniform_integrity,
    check_urb_properties,
    check_validity,
)
from .quiescence import (
    QuiescenceReport,
    analyze_quiescence,
    cumulative_send_curve,
    retire_times,
    send_histogram,
)
from .tables import format_cell, render_ascii_curve, render_series, render_table

__all__ = [
    "AnonymityAudit",
    "PropertyVerdict",
    "QuiescenceReport",
    "UrbVerdict",
    "analyze_quiescence",
    "audit_ack_tag_uniqueness",
    "audit_anonymity",
    "audit_payload_opacity",
    "check_correct_agreement",
    "check_uniform_agreement",
    "check_uniform_integrity",
    "check_urb_properties",
    "check_validity",
    "cumulative_send_curve",
    "format_cell",
    "render_ascii_curve",
    "render_series",
    "render_table",
    "retire_times",
    "send_histogram",
]
