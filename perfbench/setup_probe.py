"""Set-up time of one workload in a fresh process.

Prints the seconds taken to import quditsum, build and validate every
scenario config of the workload and run one warm-up trial of each.

    python3 perfbench/setup_probe.py --workload small-mix --seed 1
"""

import argparse
import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import quditsum  # noqa: F401  (the import is part of what is timed)
    from workloads import WORKLOADS, warm_up

    warm_up(WORKLOADS[args.workload], args.seed)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
