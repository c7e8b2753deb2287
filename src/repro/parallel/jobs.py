"""Picklable job specifications for process-pool workers.

A job carries everything a worker needs to redo the work in a fresh
process; workers never share live objects, and each returns a result
of plain data so the parent's in-order collection is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExperimentJob:
    """One experiment regeneration (id + runner options)."""

    name: str
    options: dict[str, object] = field(default_factory=dict)


@dataclass
class ExperimentOutcome:
    """An experiment's result plus its wall time, measured in the worker."""

    name: str
    result: object  # ExperimentResult; kept loose to avoid an import cycle
    elapsed: float = 0.0
