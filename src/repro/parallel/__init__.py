"""Process-pool parallel execution layer.

The two sweep fan-outs in this repo — the experiment runner's
``--jobs`` flag and :func:`repro.analysis.runners.run_sweep` — go
through this package:

* :mod:`repro.parallel.jobs` — picklable job specifications and
  results that cross the process boundary;
* :mod:`repro.parallel.worker` — module-level worker entry points
  (picklable by reference, importable from a fresh interpreter);
* :mod:`repro.parallel.pool` — :func:`parallel_map`, an order-
  preserving process-pool map with a serial fallback.

The design contract is that the parallel path is *bit-identical* to
the serial path: each job is one independent simulation or experiment,
and results come back in input order (see ``docs/INTERNALS.md``).
"""

from repro.parallel.jobs import ExperimentJob, ExperimentOutcome
from repro.parallel.pool import parallel_map, resolve_jobs
from repro.parallel.worker import run_experiment_job

__all__ = [
    "ExperimentJob",
    "ExperimentOutcome",
    "parallel_map",
    "resolve_jobs",
    "run_experiment_job",
]
