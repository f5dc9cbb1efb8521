"""Benchmark of viwo, run from the root of a checkout.

    python3 perfbench/run.py --workload urban_bearing --seed 1 --seconds 5 --trace 0

Prints progress on stderr and, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="run whole rounds until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "viwo" / "__init__.py").is_file():
        print(f"perfbench: no viwo sources in {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # one BLAS thread: the filter's matrices are at most 51 x 51, and idle
    # BLAS threads spinning on a shared 2-CPU machine distort the timings
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import viwo
    import viwo.jacobian_check
    import viwo.pipeline
    import_s = perf_counter() - t0
    if Path(viwo.__file__).resolve().parent != (src / "viwo").resolve():
        print(f"perfbench: imported viwo from {viwo.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           root, import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
