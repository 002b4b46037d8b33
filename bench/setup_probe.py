"""Set-up of one workload in a fresh interpreter: import wrlat, expand the
field list.  `run.py` times this script from start to exit as `setup_s`.

    python3 bench/setup_probe.py WORKLOAD
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]].expand()
