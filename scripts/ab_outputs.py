"""Byte-identity of the outputs of two viwo source trees.

    python scripts/ab_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories that each hold a ``viwo``
package, for example the ``src`` of a second checkout and of this one.  Each
tree runs the command-line front end as a subprocess with its own
``PYTHONPATH``, in a temporary directory:

* ``viwo simulate`` with seed 17 and all six gyro errors injected
  (``--inject-bias 0.3 -0.2 0.5 --inject-yaw-scale 1.01 --inject-misalign
  0.5 0.5``): urban_loop and highway in bearing mode, mini_loop in image mode;
  with seed 5 and the six errors: urban_loop in bearing mode, a second world
  and noise draw; with seed 17 and no injected errors: mini_loop in image
  mode, the benchmark's ``mini_image`` data; and with seed 17, no injected
  errors and
  ``--zero-noise``: urban_loop in bearing mode, the acceptance suite's
  closed-loop (criterion 6) dataset, and mini_loop in image mode, the
  rendering path that draws no image noise;
* ``viwo run`` on OLD's datasets: urban_loop in bearing mode, with
  ``--check-psd`` and with ``--wheel-imu-only``, highway in bearing mode
  (the yardstick of the gyro calibration on a fast drive), and both
  mini_loop datasets in image mode (with injected errors the image run
  diverges, so the clean one is the run whose numbers mean something);
* ``viwo eval`` of each run's ``trajectory.csv`` against its dataset's
  ``gt.csv``;
* ``viwo jacobian-check --configs 200 --seed 0``.

It compares the simulated dataset trees file by file, then each run's
``trajectory.csv``, ``params.csv``, ``final-params.txt`` and ``report.txt``
without its ``elapsed_s`` line (so the counters and, with ``--check-psd``,
the ``min_eig_P``/``min_eig_S`` lines too), then each eval's and the
audit's exit code and text, and prints one ``identical: yes|no`` line per
item.  The
exit code is 0 when every item is identical, 1 when any differs and 2 when a
command fails.  Timing comparisons are ``scripts/bench_pairs.py``'s job.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

INJECT = ["--inject-bias", "0.3", "-0.2", "0.5",
          "--inject-yaw-scale", "1.01", "--inject-misalign", "0.5", "0.5"]
SEED_17 = ["--seed", "17"]
SIMULATIONS = {"urban_loop": ["--scenario", "urban_loop", *INJECT, *SEED_17],
               "urban_loop_seed5": ["--scenario", "urban_loop", *INJECT, "--seed", "5"],
               "highway": ["--scenario", "highway", *INJECT, *SEED_17],
               "mini_loop": ["--scenario", "mini_loop", "--mode", "image", *INJECT,
                             *SEED_17],
               "mini_loop_clean": ["--scenario", "mini_loop", "--mode", "image", *SEED_17],
               "urban_loop_zero_noise": ["--scenario", "urban_loop", "--zero-noise",
                                         *SEED_17],
               "mini_loop_zero_noise": ["--scenario", "mini_loop", "--mode", "image",
                                        "--zero-noise", *SEED_17]}
# run name -> (dataset, flags)
RUNS = {"urban_loop bearing": ("urban_loop", []),
        "urban_loop bearing check-psd": ("urban_loop", ["--check-psd"]),
        "urban_loop wheel-imu-only": ("urban_loop", ["--wheel-imu-only"]),
        "highway bearing": ("highway", []),
        "mini_loop image": ("mini_loop", ["--mode", "image"]),
        "mini_loop_clean image": ("mini_loop_clean", ["--mode", "image"])}
RUN_FILES = ("trajectory.csv", "params.csv", "final-params.txt")
AUDIT = ["jacobian-check", "--configs", "200", "--seed", "0"]


def viwo(src: Path, args: list[str], check: bool = True) -> subprocess.CompletedProcess:
    """The viwo command line of the tree src, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    # one BLAS thread, as in the benchmark: the filter's matrices are small
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    done = subprocess.run([sys.executable, "-m", "viwo.cli", *args], env=env,
                          capture_output=True, text=True)
    if check and done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"ab_outputs: `viwo {' '.join(args)}` with {src} exited "
              f"{done.returncode}", file=sys.stderr)
        raise SystemExit(2)
    return done


def tree_files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def without_elapsed(report: bytes) -> bytes:
    """A run report without its wall-clock line."""
    return b"".join(line for line in report.splitlines(keepends=True)
                    if not line.startswith(b"elapsed_s:"))


def differences(old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """Names of the files that are missing on one side or differ."""
    return [name for name in sorted(old.keys() | new.keys())
            if old.get(name) != new.get(name)]


def outcome(done: subprocess.CompletedProcess) -> dict[str, bytes]:
    """A command's exit code and stdout, as the items differences compares."""
    return {"exit code": str(done.returncode).encode(), "text": done.stdout.encode()}


def report(item: str, diff: list[str]) -> bool:
    """Print the item's line, naming at most five differing files."""
    named = ", ".join(diff[:5]) + (f" and {len(diff) - 5} more" if len(diff) > 5 else "")
    print(f"{item}: identical: {'no (' + named + ')' if diff else 'yes'}")
    return not diff


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    args = ap.parse_args(argv)
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    for src in trees.values():
        if not (src / "viwo" / "cli.py").is_file():
            ap.error(f"no viwo package in {src}")

    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_outputs_") as tmp:
        work = Path(tmp)
        for name, flags in SIMULATIONS.items():
            for label, src in trees.items():
                viwo(src, ["simulate", "--out", str(work / label / "sim" / name), *flags])
            ok &= report(f"simulate {name}",
                         differences(tree_files(work / "old" / "sim" / name),
                                     tree_files(work / "new" / "sim" / name)))
        for name, (dataset, flags) in RUNS.items():
            outs = {label: work / label / "run" / name.replace(" ", "_")
                    for label in trees}
            for label, src in trees.items():
                viwo(src, ["run", "--dataset", str(work / "old" / "sim" / dataset),
                           "--out", str(outs[label]), *flags])
            files = {label: {f: (out / f).read_bytes() for f in RUN_FILES}
                     | {"report.txt": without_elapsed((out / "report.txt").read_bytes())}
                     for label, out in outs.items()}
            ok &= report(f"run {name}", differences(files["old"], files["new"]))
            gt = work / "old" / "sim" / dataset / "gt.csv"
            evals = {label: outcome(viwo(src, ["eval", "--estimate",
                                               str(outs[label] / "trajectory.csv"),
                                               "--ground-truth", str(gt)], check=False))
                     for label, src in trees.items()}
            ok &= report(f"eval {name}", differences(evals["old"], evals["new"]))
        audits = {label: outcome(viwo(src, AUDIT, check=False)) for label, src in trees.items()}
        ok &= report("jacobian-check", differences(audits["old"], audits["new"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
