"""Fresh process to ready: import qghjm and build one workload's inputs.

    python bench/setup_probe.py WORKLOAD SEED

For cli-readme "ready" is a fresh `import qghjm.cli`, the import every
subcommand pays before it parses its config.
"""

import sys

from inputs import build_inputs, use_checkout_src

use_checkout_src()

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload == "cli-readme":
        import qghjm.cli  # noqa: F401
    else:
        build_inputs(workload, seed)
