"""Alternated benchmark pairs of two commits, written as BENCH_<tag>.json.

    python scripts/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...]
        --pairs N --tag T [--first-seed S]

PARENT and CHANGE are commits of this repository.  Each run extracts the
committed files of its commit with ``git archive`` into a new temporary
directory (under ``TMPDIR``), runs the benchmark's command from CHANGE's
``BENCHMARK.json`` there with its ``run_seconds`` (``python3
perfbench/run.py --workload W --seed N --seconds 5 --trace 0``) in a fresh
process, reads the JSON result on the last line of its stdout and deletes
the directory.  Pair k runs both commits on seed S + k, the parent first in
even pairs and the change first in odd ones, because the machine's speed
drifts between fast and slow spells.

The record goes to BENCH_<tag>.json in the current directory: the commits
and the subjects of the commits between them, the machine, and per
workload the seeds, every run's result and a summary
of each end-to-end metric of ``BENCHMARK.json`` (median and quartiles per
side, and in how many pairs the change was better).  When the file already
holds a record of the same two commits, the workloads run now replace their
entries and the others are kept, so workloads can be run one at a time.

Last, per workload run, it prints the verdict the benchmark's gate reads
from the record: for each end-to-end metric, whether the change's median is
better or worse than the parent's by more than the metric's ``bound`` or
within it; each side's share of failed operations; and every run whose
result was not correct.
"""

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def machine() -> str:
    meminfo = Path("/proc/meminfo")
    mem = ""
    if meminfo.is_file():
        kib = int(meminfo.read_text().split("MemTotal:")[1].split()[0])
        mem = f", {kib / 2 ** 20:.0f} GiB RAM"
    return (f"{os.cpu_count()}-CPU {platform.machine()} machine{mem}, "
            f"{platform.system()} {platform.release()}, numpy {np.__version__}, "
            f"Python {platform.python_version()}; each run a fresh process in a "
            f"fresh git archive of its commit")


def run_once(commit: str, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run of commit in a new tree; its JSON result."""
    tree = Path(tempfile.mkdtemp(prefix="bench-"))
    try:
        with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
            tar.extractall(tree, filter="data")
        proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"],
                              cwd=tree, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"bench_pairs: {commit[:12]} {workload} seed {seed} exited "
                     f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Median and quartiles per side of each metric, and the pairs the
    change was better in."""
    summary = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        side = {s: np.array([r[s]["metrics"][name] for r in runs])
                for s in ("parent", "change")}
        diff = side["change"] - side["parent"]
        better = int(((diff > 0) if higher else (diff < 0)).sum())
        tied = int((diff == 0).sum())
        counted = f"{better} of {len(runs)} pairs" + (f" ({tied} tied)" if tied else "")
        summary[name] = {
            **{s: {"median": float(np.median(v)),
                   "q1": float(np.percentile(v, 25)),
                   "q3": float(np.percentile(v, 75))} for s, v in side.items()},
            "unit": spec["unit"], "better": spec["better"],
            "change_better_in": counted}
    return summary


def verdict(entry: dict, end_to_end: list[dict]) -> list[str]:
    """What the benchmark's gate reads from one workload's entry (its
    summary and runs): per end-to-end metric, whether the change's median is
    better or worse than the parent's by more than the metric's bound, a
    fraction of the parent's median, or within it; each side's share of
    failed operations; and each run whose result was not correct."""
    lines = []
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        parent = entry["summary"][name]["parent"]["median"]
        change = entry["summary"][name]["change"]["median"]
        gain = change - parent if spec["better"] == "higher" else parent - change
        word = ("better beyond bound" if gain > bound * abs(parent) else
                "worse beyond bound" if -gain > bound * abs(parent) else "within bound")
        moved = f"{(change - parent) / abs(parent):+.1%}" if parent else "parent 0"
        lines.append(f"{name} median {parent:.6g} -> {change:.6g} {spec['unit']} "
                     f"({moved}, bound {bound:.0%}): {word}")
    for side in ("parent", "change"):
        failed = sum(r[side]["failed"] for r in entry["runs"])
        attempted = sum(r[side]["attempted"] for r in entry["runs"])
        share = failed / attempted if attempted else 0.0
        lines.append(f"{side} failed operations: {failed} of {attempted} ({share:.2%})")
        lines += [f"{side} seed {r['seed']}: correct is false"
                  for r in entry["runs"] if not r[side]["correct"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--tag", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
               for side, ref in (("parent", args.parent), ("change", args.change))}
    bench = json.loads(git("show", f"{commits['change']}:BENCHMARK.json"))
    command, seconds = bench["command"], bench["run_seconds"]
    subjects = git("log", "--reverse", "--format=%s",
                   f"{commits['parent']}..{commits['change']}").decode().splitlines()
    out = Path(f"BENCH_{args.tag}.json")
    record = json.loads(out.read_text()) if out.is_file() else {}
    workloads = record.get("workloads", {}) if record.get("commits") == commits else {}

    for workload in args.workload:
        seeds = list(range(args.first_seed, args.first_seed + args.pairs))
        runs = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(commits[side], command, workload, seed, seconds)
            runs.append(pair)
            factors = "  ".join(f"{s} {pair[s]['metrics']['realtime_factor']:.2f}x"
                                for s in ("parent", "change"))
            print(f"{workload} pair {k + 1}/{args.pairs} seed {seed}: {factors}",
                  file=sys.stderr, flush=True)
        workloads[workload] = {"seeds": seeds,
                               "summary": summarize(runs, bench["end_to_end"]),
                               "runs": runs}

    record = {
        "tag": args.tag,
        "what": "alternated perfbench pairs of the parent commit and the change: "
                + "; ".join(subjects),
        "command": " ".join(command) + f" --workload W --seed N --seconds {seconds:g} "
                                       f"--trace 0",
        "commits": commits,
        "machine": machine(),
        "pairs": "the side that runs first alternates, parent first in the first pair",
        "quartiles": "numpy.percentile 25 and 75 (linear) over the runs of one side",
        "workloads": dict(sorted(workloads.items())),
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    for workload in args.workload:
        rt = workloads[workload]["summary"]["realtime_factor"]
        print(f"{workload}: realtime_factor median {rt['parent']['median']:.2f}x -> "
              f"{rt['change']['median']:.2f}x (parent quartiles {rt['parent']['q1']:.2f}-"
              f"{rt['parent']['q3']:.2f}x), change better in {rt['change_better_in']}")
        for line in verdict(workloads[workload], bench["end_to_end"]):
            print(f"{workload}: {line}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
