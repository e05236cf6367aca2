"""Failure detectors: the paper's anonymous classes AΘ and AP\\*, and the
ground truth oracle they are built on."""

from .apstar import APStarOracle
from .atheta import AnonymousDetectorBase, AThetaOracle
from .base import (
    FailureDetector,
    FailureDetectorView,
    FDPair,
    StaticFailureDetector,
)
from .labels import Label, LabelAssigner
from .oracle import GroundTruthOracle
from .policies import DisseminationPolicy

__all__ = [
    "AnonymousDetectorBase",
    "APStarOracle",
    "AThetaOracle",
    "DisseminationPolicy",
    "FailureDetector",
    "FailureDetectorView",
    "FDPair",
    "GroundTruthOracle",
    "Label",
    "LabelAssigner",
    "StaticFailureDetector",
]
