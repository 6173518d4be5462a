"""Time one workload set-up in a fresh interpreter.

Prints ``{"setup_s": ...}``: importing delayh2 (through the workload module)
plus building or writing the workload's input model. ``run.py`` starts this
several times and reports the median.

    python3 perfbench/setup_probe.py --workload bench-input --seed 0 --workdir DIR
"""

import argparse
import json
import time
from pathlib import Path


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args()
    t0 = time.perf_counter()
    import workloads  # imports delayh2 and its dependencies

    workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
