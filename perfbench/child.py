"""Fresh-process roles, started by run.py with PYTHONPATH set to the
checkout's ``src`` and the thread variables already pinned.

    python3 child.py worker <workload> <seed> <seconds> <index> <run_dir>
        a share of the warm loop, its first run being the cold run
        (run.worker); prints its samples and checks as JSON
    python3 child.py import
        wall time of importing the module the CLI loads: {"import_s": ...}

Prints one JSON object on stdout.
"""

import json
import sys
import time
from pathlib import Path


def import_cli() -> dict:
    start = time.perf_counter()
    import wavelab.cli  # noqa: F401

    return {"import_s": time.perf_counter() - start}


if __name__ == "__main__":
    if sys.argv[1] == "worker":
        import run

        name, seed, seconds, index, run_dir = sys.argv[2:7]
        Path(run_dir).mkdir(parents=True)
        result = run.worker(name, int(seed), float(seconds), int(index), Path(run_dir))
    else:
        result = import_cli()
    print(json.dumps(result))
