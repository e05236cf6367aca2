"""Experiment result containers and plain-text rendering.

Every experiment produces an :class:`ExperimentResult` made of one or more
:class:`ExperimentArtifact` (a *table* or a *figure* — a figure being a data
series rendered as a two-or-more-column table, since the library has no
plotting dependency).  The same objects back the CLI output, the benchmark
harness and ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..analysis.tables import render_table


@dataclass
class ExperimentArtifact:
    """One table or figure of an experiment."""

    name: str
    kind: str  # "table" | "figure"
    headers: Sequence[str]
    rows: list[Sequence[Any]]
    notes: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("table", "figure"):
            raise ValueError("artifact kind must be 'table' or 'figure'")

    def render(self) -> str:
        """Render the artifact as aligned monospace text."""
        text = render_table(self.headers, self.rows, title=self.name)
        if self.notes:
            text += f"\nNote: {self.notes}"
        return text

    def column(self, header: str) -> list[Any]:
        """Extract one column by header name (used by tests)."""
        try:
            index = list(self.headers).index(header)
        except ValueError:
            raise KeyError(f"no column named {header!r}") from None
        return [row[index] for row in self.rows]


@dataclass
class ExperimentResult:
    """The complete output of one experiment run."""

    experiment_id: str
    title: str
    artifacts: list[ExperimentArtifact] = field(default_factory=list)
    notes: str = ""
    parameters: dict[str, Any] = field(default_factory=dict)

    def artifact(self, name: str) -> ExperimentArtifact:
        """Look up an artifact by name."""
        for artifact in self.artifacts:
            if artifact.name == name:
                return artifact
        raise KeyError(f"experiment {self.experiment_id} has no artifact {name!r}")

    def render(self) -> str:
        """Render the whole experiment as monospace text."""
        header = f"{self.experiment_id} — {self.title}"
        parts = [header, "=" * len(header)]
        if self.parameters:
            params = ", ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
            parts.append(f"parameters: {params}")
        if self.notes:
            parts.append(self.notes)
        for artifact in self.artifacts:
            parts.append("")
            parts.append(artifact.render())
        return "\n".join(parts)
