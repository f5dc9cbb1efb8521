"""Realtime factor and load time of two viwo source trees, in alternated pairs.

    python scripts/ab_realtime.py OLD_SRC NEW_SRC DATASET [--mode bearing|image|wheel-imu-only] [--pairs N]
    python scripts/ab_realtime.py OLD_SRC NEW_SRC --simulate SCENARIO [--mode bearing|image] [--pairs N]
    python scripts/ab_realtime.py OLD_SRC NEW_SRC --audit [--pairs N]

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

With ``--simulate`` the script times ``cmd_simulate`` of SCENARIO in the
given mode and seed 17 instead, each sample in a new
interpreter that imports one tree, so that no sample follows a filter run
or another simulation in the same process.  The pairs alternate as above;
the script prints each pair's seconds and new/old ratio, each tree's
median seconds and the ratio of the medians.  ``scripts/ab_outputs.py``
compares the datasets themselves.

With ``--audit`` the script times the benchmark's Jacobian audit instead:
the 24 calls ``run_audit(10, seed=k)``, k = 0 to 23, per tree and pair, in
this process with both trees imported, the pairs alternating as above.  It
prints each pair's audit configurations per second and new/old ratio, each
tree's median and the ratio of the medians, and whether the two trees gave
bit-identical worst-block dictionaries in every call.
"""

import argparse
import importlib
import importlib.util
import os
import statistics
import subprocess
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


# one timed seed-17 cmd_simulate in a new interpreter; argv: scenario, mode
SIMULATE_PROBE = """\
import sys, tempfile
from time import perf_counter
from viwo.pipeline import RunConfig, cmd_simulate
with tempfile.TemporaryDirectory() as out:
    cfg = RunConfig(out_dir=out, scenario=sys.argv[1], measurement_mode=sys.argv[2],
                    seed=17)
    t0 = perf_counter()
    cmd_simulate(cfg)
    print(perf_counter() - t0)
"""


def simulate_s(src: Path, scenario: str, mode: str) -> float:
    """Seconds of one cmd_simulate of the tree src, in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", SIMULATE_PROBE, scenario, mode],
                          env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                          capture_output=True, text=True)
    return float(done.stdout)


def compare_simulate(old_src: Path, new_src: Path, scenario: str, mode: str,
                     pairs: int) -> None:
    trees = {"old": old_src, "new": new_src}
    times: dict[str, list[float]] = {"old": [], "new": []}
    print(f"simulate {scenario}, mode {mode}, seed 17, each sample in a new interpreter")
    print(f"{'pair':>4}  {'first':>5}  {'old s':>7}  {'new s':>7}  {'new/old':>7}")
    for pair in range(pairs):
        order = ("old", "new") if pair % 2 == 0 else ("new", "old")
        for label in order:
            times[label].append(simulate_s(trees[label], scenario, mode))
        print(f"{pair:>4}  {order[0]:>5}  {times['old'][-1]:>7.3f}  {times['new'][-1]:>7.3f}  "
              f"{times['new'][-1] / times['old'][-1]:>7.3f}")
    for label, samples in times.items():
        print(f"{label}: median simulate {statistics.median(samples):.3f} s")
    wins = sum(n < o for o, n in zip(times["old"], times["new"]))
    print(f"ratio of medians old/new "
          f"{statistics.median(times['old']) / statistics.median(times['new']):.3f}; "
          f"new faster in {wins} of {pairs} pairs")


AUDIT_SEEDS = range(24)      # the benchmark's audit calls, seeds 0 to 23
AUDIT_CONFIGS = 10           # configurations per call


class AuditTree:
    def __init__(self, label: str, src: Path):
        self.label = label
        package = import_tree(src, f"viwo_ab_{label}").__package__
        self.jacobian_check = importlib.import_module(f"{package}.jacobian_check")
        self.rates: list[float] = []
        self.worst: list[dict[str, float]] = []

    def run(self) -> None:
        t0 = perf_counter()
        worst = [self.jacobian_check.run_audit(AUDIT_CONFIGS, seed=k) for k in AUDIT_SEEDS]
        self.rates.append(len(AUDIT_SEEDS) * AUDIT_CONFIGS / (perf_counter() - t0))
        self.worst = worst


def same_bits(a: dict[str, float], b: dict[str, float]) -> bool:
    return a.keys() == b.keys() and all(a[k].hex() == b[k].hex() for k in a)


def compare_audit(old_src: Path, new_src: Path, pairs: int) -> None:
    old, new = AuditTree("old", old_src), AuditTree("new", new_src)
    print(f"audit: run_audit({AUDIT_CONFIGS}, seed=k) for k = 0 to {len(AUDIT_SEEDS) - 1}")
    print(f"{'pair':>4}  {'first':>5}  {'old cfg/s':>9}  {'new cfg/s':>9}  {'new/old':>7}")
    for pair in range(pairs):
        order = (old, new) if pair % 2 == 0 else (new, old)
        for tree in order:
            tree.run()
        print(f"{pair:>4}  {order[0].label:>5}  {old.rates[-1]:>9.1f}  {new.rates[-1]:>9.1f}  "
              f"{new.rates[-1] / old.rates[-1]:>7.3f}")
    for tree in (old, new):
        print(f"{tree.label}: median {statistics.median(tree.rates):.1f} configs/s")
    wins = sum(n > o for o, n in zip(old.rates, new.rates))
    print(f"ratio of medians new/old "
          f"{statistics.median(new.rates) / statistics.median(old.rates):.3f}; "
          f"new faster in {wins} of {pairs} pairs")
    moved = [k for k, a, b in zip(AUDIT_SEEDS, old.worst, new.worst) if not same_bits(a, b)]
    print("worst-block dictionaries bit-identical: "
          + ("yes" if not moved else f"no (seeds {moved})"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    ap.add_argument("dataset", type=Path, nargs="?")
    ap.add_argument("--mode", choices=("bearing", "image", "wheel-imu-only"),
                    default="bearing")
    ap.add_argument("--pairs", type=int, default=8)
    ap.add_argument("--simulate", metavar="SCENARIO",
                    choices=("urban_loop", "highway", "mini_loop"),
                    help="time cmd_simulate of SCENARIO instead of runs on DATASET")
    ap.add_argument("--audit", action="store_true",
                    help="time the benchmark's Jacobian audit calls instead")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if (args.dataset is not None) + (args.simulate is not None) + args.audit != 1:
        ap.error("give one of DATASET, --simulate SCENARIO and --audit")
    for src in (args.old_src, args.new_src):
        if not (src / "viwo" / "__init__.py").is_file():
            ap.error(f"no viwo package in {src}")
    if args.audit:
        compare_audit(args.old_src.resolve(), args.new_src.resolve(), args.pairs)
        return 0
    if args.simulate is not None:
        if args.mode == "wheel-imu-only":
            ap.error("--simulate takes --mode bearing or image")
        compare_simulate(args.old_src.resolve(), args.new_src.resolve(), args.simulate,
                         args.mode, args.pairs)
        return 0

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
