"""Set-up probe: a fresh interpreter imports hypcycles and draws one
workload's inputs, then exits.  ``run.py`` times it under
``python -X importtime`` to get ``setup_s`` and the import breakdown.

    PYTHONPATH=src python3 -X importtime perfbench/setup_child.py WORKLOAD SEED
"""

import sys

import hypcycles  # first, so its -X importtime line covers numpy's import too
import workloads

if __name__ == "__main__":
    workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
