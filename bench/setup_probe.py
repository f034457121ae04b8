"""One fresh-interpreter set-up: import dplhom, parse configs, build problems.

    python3 bench/setup_probe.py WORKLOAD SEED SCRATCH_DIR

``run.py`` times whole runs of this script to measure ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports dplhom)

workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
