"""Set-up probe: starts like a user's session (interpreter, imports, the
workload's input files), prints 'ready' and exits.  run.py times it.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED DIR
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import symprice.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
print("ready", flush=True)
