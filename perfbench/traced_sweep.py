"""Run the paper sweep in this process with the span tracer installed.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced_sweep.py CACHE_DIR SPANS_JSON [EXPERIMENT ...]

Prints exactly what ``python -m repro.experiments.runner`` prints for
the benchmark's sweep settings, then writes the recorded spans and the
result cache's counters to ``SPANS_JSON``. Exits with the runner's code.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from layers import install_sweep_tracer  # noqa: E402
from spans import Tracer  # noqa: E402
from sweeps import SWEEP_ARGS  # noqa: E402


def main(argv: list[str]) -> int:
    cache_dir, spans_file, *experiments = argv
    from repro.cache import get_cache
    from repro.experiments import runner

    with Tracer() as tracer:
        install_sweep_tracer(tracer)
        code = runner.main(
            [*SWEEP_ARGS, "--cache-dir", cache_dir, *experiments]
        )
    sys.stdout.flush()
    pathlib.Path(spans_file).write_text(json.dumps({
        "spans": tracer.records(),
        "counters": dataclasses.asdict(get_cache().counters),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
