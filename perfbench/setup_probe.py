"""Time the benchmark's set-up in a fresh process.

Set-up is the import of ris_dps plus generating one workload's inputs.
Usage: python3 perfbench/setup_probe.py <workload> <seed>; prints the
seconds, then the median time in ns of the reference kernel (reference.py)
run after it.
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    seconds = time.perf_counter() - start

    import statistics

    from reference import Reference

    kernel = Reference()
    print(seconds, statistics.median(kernel.time_ns() for _ in range(5)))


if __name__ == "__main__":
    main()
