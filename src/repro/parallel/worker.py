"""Module-level worker entry points for the process pool.

These functions are dispatched by reference through
:func:`repro.parallel.pool.parallel_map`; they must stay at module
level (picklable) and import the experiment layer lazily: the
analysis/experiment modules import ``repro.parallel``, so a top-level
import here would be circular.
"""

from __future__ import annotations

import time

from repro.parallel.jobs import ExperimentJob, ExperimentOutcome


def run_experiment_job(job: ExperimentJob) -> ExperimentOutcome:
    """Regenerate one experiment (used by the runner's ``--jobs``)."""
    from repro.experiments.registry import get_experiment

    started = time.time()
    result = get_experiment(job.name)(**job.options)
    return ExperimentOutcome(
        name=job.name, result=result, elapsed=time.time() - started
    )
