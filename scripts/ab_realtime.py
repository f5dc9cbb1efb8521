"""Realtime factor and load time of two viwo source trees, in alternated pairs.

    python scripts/ab_realtime.py OLD_SRC NEW_SRC DATASET [--mode bearing|image|wheel-imu-only] [--pairs N]

OLD_SRC and NEW_SRC are ``src`` directories that each hold a ``viwo``
package, for example the ``src`` of a second checkout and of this one.  Both
are imported into this process under their own package names, so one
interpreter, one BLAS and one machine state serve both.  Each pair runs
``load_dataset`` and then ``run_filter`` once per tree on DATASET, in
alternating order (old first in even pairs, new first in odd ones), because
the machine's speed drifts between fast and slow spells.  The realtime
factor is seconds of log per wall-clock second of ``run_filter``, as in the
benchmark.  The script prints each pair's load seconds, factors and new/old
factor ratio, then each tree's median load seconds and realtime factor and
the ratio of the median factors.  When DATASET has a ``gt.csv``, each tree's
line also gives the RPE p95 over 100 m segments and the ATE of its last run,
as ``viwo eval`` computes them, so a speedup that changes bits shows its
accuracy in the same table.  The last line says whether the two trees' last
runs gave bit-identical outputs, and if not, names the first of t, pos,
quat, params, params_var and counters that differs.
"""

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

# one BLAS thread, as in the benchmark: the filter's matrices are small
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def import_tree(src: Path, name: str):
    """Import ``src/viwo`` as the package ``name``; return its pipeline."""
    pkg_dir = src / "viwo"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    if spec is None:
        raise SystemExit(f"no viwo package in {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.pipeline")


class Tree:
    def __init__(self, label: str, src: Path, dataset: Path, mode: str):
        self.label = label
        self.pipeline = import_tree(src, f"viwo_ab_{label}")
        self.evaluate = importlib.import_module(f"{self.pipeline.__package__}.evaluate")
        wheel_imu_only = mode == "wheel-imu-only"
        self.cfg = self.pipeline.RunConfig(
            dataset=str(dataset), wheel_imu_only=wheel_imu_only,
            measurement_mode="bearing" if wheel_imu_only else mode)
        self.dataset = dataset
        self.load_mode = None if wheel_imu_only else mode
        imu = self.pipeline.load_dataset(dataset, self.load_mode).imu
        self.log_s = imu[-1, 0] - imu[0, 0]
        self.load_s: list[float] = []
        self.factors: list[float] = []
        self.accuracy = ""
        self.result = None

    def run(self) -> None:
        t0 = perf_counter()
        ds = self.pipeline.load_dataset(self.dataset, self.load_mode)
        t1 = perf_counter()
        result = self.pipeline.run_filter(ds, self.cfg)
        self.load_s.append(t1 - t0)
        self.factors.append(self.log_s / (perf_counter() - t1))
        self.result = result
        if ds.gt is not None:
            ev = self.evaluate
            est = ev.TrajectoryRecord(result.t, result.pos, result.quat)
            gt = ev.TrajectoryRecord(ds.gt[:, 0], ds.gt[:, 1:4], ds.gt[:, 4:8])
            self.accuracy = (f", RPE p95 {ev.rpe(est, gt, 100.0).percentile_95:.6f} %"
                             f", ATE {ev.ate_rmse(est, gt):.6f} m")


OUTPUTS = ("t", "pos", "quat", "params", "params_var", "counters")


def first_difference(a, b) -> str | None:
    """Name of the first output of OUTPUTS whose bits differ between two
    RunResults, or None when all are bit-identical."""
    for name in OUTPUTS:
        x, y = getattr(a, name), getattr(b, name)
        if name == "counters":
            same = x == y
        else:
            same = x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        if not same:
            return name
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    ap.add_argument("dataset", type=Path)
    ap.add_argument("--mode", choices=("bearing", "image", "wheel-imu-only"),
                    default="bearing")
    ap.add_argument("--pairs", type=int, default=8)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    old = Tree("old", args.old_src.resolve(), args.dataset, args.mode)
    new = Tree("new", args.new_src.resolve(), args.dataset, args.mode)
    print(f"dataset {args.dataset} ({old.log_s:.1f} s of log), mode {args.mode}")
    print(f"{'pair':>4}  {'first':>5}  {'old load s':>10}  {'new load s':>10}  "
          f"{'old x':>8}  {'new x':>8}  {'new/old':>7}")
    for pair in range(args.pairs):
        order = (old, new) if pair % 2 == 0 else (new, old)
        for tree in order:
            tree.run()
        print(f"{pair:>4}  {order[0].label:>5}  {old.load_s[-1]:>10.3f}  "
              f"{new.load_s[-1]:>10.3f}  {old.factors[-1]:>8.2f}  "
              f"{new.factors[-1]:>8.2f}  {new.factors[-1] / old.factors[-1]:>7.3f}")
    for tree in (old, new):
        print(f"{tree.label}: median load_dataset {statistics.median(tree.load_s):.3f} s, "
              f"median realtime factor {statistics.median(tree.factors):.2f}x"
              f"{tree.accuracy}")
    med_old = statistics.median(old.factors)
    med_new = statistics.median(new.factors)
    wins = sum(n > o for o, n in zip(old.factors, new.factors))
    load_wins = sum(n < o for o, n in zip(old.load_s, new.load_s))
    print(f"ratio of median factors {med_new / med_old:.3f}; new faster in {wins} of "
          f"{args.pairs} pairs; new loads faster in {load_wins} of {args.pairs}")
    differs = first_difference(old.result, new.result)
    print("outputs bit-identical: "
          + ("yes" if differs is None else f"no ({differs} differs)"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
