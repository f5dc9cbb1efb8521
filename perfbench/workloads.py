"""The benchmark's workloads: what each runs, checks and reports.

A run is made of whole rounds, and a round runs every program command.
It simulates two datasets, the one made from ``--seed`` and the fixed
reference dataset (seed 17, the acceptance suite's), and on each runs
simulate, run and eval and the output checks.  Between these commands it
audits the Jacobians, ``AUDIT_CALLS_PER_STEP`` calls of ``AUDIT_CONFIGS``
random configurations at a time, at the fixed seeds 0, 1, ...: the
configurations decide which blocks run their costliest finite differences,
so audits seeded from ``--seed`` would differ in cost.  The machine's speed
switches between a fast and a slow spell, 20-30 % apart, every few seconds
to minutes, so the timings are sampled all over the round: the rates
(realtime factor, audit configurations per second) are totals over the run,
which weigh each spell by its share of the run where a median would jump
between them; set-up and simulate times are medians of their samples, the
import's taken once at start and once after each dataset.  The accuracy
metrics come from the reference dataset alone: they then depend only on the
code, while their seed-to-seed spread (2-4x between seeds) would hide any
change.

Every workload reports every metric: the workloads differ in which layer
does most of the work, not in which layers run.
"""

import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from tracing import Tracer
from viwo import evaluate, jacobian_check, pipeline
from viwo.pipeline import RunConfig

REFERENCE_SEED = 17
INJECTED = {"inject_bias_dps": (0.3, -0.2, 0.5), "inject_yaw_scale": 1.01,
            "inject_misalign_deg": (0.5, 0.5)}
NO_ERRORS = {"inject_bias_dps": (0.0, 0.0, 0.0), "inject_yaw_scale": 1.0,
             "inject_misalign_deg": (0.0, 0.0)}


@dataclass(frozen=True)
class FilterWorkload:
    scenario: str
    mode: str                 # bearing | image
    wheel_imu_only: bool
    errors: dict              # injected gyro errors, RunConfig keywords
    calibration_check: bool
    runs: int = 1             # filter runs per dataset

    def ops_per_dataset(self) -> int:
        # simulate, runs, load, eval, metrics-agree and trajectory checks,
        # optional calibration check
        return 5 + self.runs + int(self.calibration_check)


AUDIT_STEPS = 8           # four per dataset, after each of its commands
AUDIT_CALLS_PER_STEP = 3
AUDIT_CALLS = AUDIT_STEPS * AUDIT_CALLS_PER_STEP
AUDIT_CONFIGS = 10
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); t0 = time.perf_counter(); "
                "import viwo, viwo.jacobian_check, viwo.pipeline; "
                "print(time.perf_counter() - t0)")


# calibration tolerances are checked where they hold on every seed: not on
# wheel-IMU-only runs, which diverge on some seeds; image mode diverges
# with injected errors, so mini_image injects none (FOUND lines, CHANGES.md).
# A wheel-IMU-only run takes 2-3 s; three per dataset make the workload's
# runs about 25 s long instead of 17 s, which averages more of the
# machine's fast and slow spells.
WORKLOADS = {
    "urban_bearing": FilterWorkload("urban_loop", "bearing", False, INJECTED, True),
    "urban_wheel_imu": FilterWorkload("urban_loop", "bearing", True, INJECTED, False, runs=3),
    "mini_image": FilterWorkload("mini_loop", "image", False, NO_ERRORS, False),
}

# (lookup site, layer metric stem, statistic, outcome counted as a hit)
# statistic: us/ms = median duration per call; self_us/self_ms/self_s =
# median self time per call; s = median duration per call in seconds;
# total_s = summed duration over the run.  Functions in TRACE_ONLY run on
# some workloads only: the trace file records them, the result line does not,
# since every workload prints the same metrics.
LAYER_FUNCTIONS = [
    ("viwo.filter:AdaptiveEkf.predict", "filter.predict", "us", None),
    ("viwo.filter:propagate_joint", "filter.propagate_joint", "us", None),
    ("viwo.filter:assemble_linearization", "filter.assemble_linearization", "us", None),
    ("viwo.filter:linearize_batch", "features.linearize_batch", "us", None),
    ("viwo.filter:AdaptiveEkf.update", "filter.update", "us", None),
    ("viwo.filter:AdaptiveEkf.gate", "filter.gate", "us", bool),
    ("viwo.filter:kalman_step", "filter.kalman_step", "us", None),
    ("viwo.filter:rls_step", "filter.rls_step", "us", None),
    ("viwo.filter:AdaptiveEkf.process_bearing_frame", "filter.process_bearing_frame",
     "self_us", None),
    ("viwo.filter:AdaptiveEkf.intensity_group", "filter.intensity_group", "us",
     lambda g: g is not None),
    ("viwo.filter:AdaptiveEkf.process_image_frame", "filter.process_image_frame",
     "self_ms", None),
    ("viwo.filter:detect_features", "image.detect_features", "ms", None),
    ("viwo.filter:build_pyramid", "image.build_pyramid", "ms", None),
    ("viwo.filter:klt_align", "image.klt_align", "us", lambda r: r[2]),
    ("viwo.filter:extract_patch_set", "image.extract_patch_set", "us", None),
    ("viwo.pipeline:load_pgm", "image.load_pgm", "ms", None),
    ("viwo.filter:camera_measurement_jacobian", "sensors.camera_measurement_jacobian",
     "us", None),
    ("viwo.pipeline:run_filter", "pipeline.run_filter", "self_s", None),
    ("viwo.pipeline:load_dataset", "pipeline.load_dataset", "s", None),
    ("viwo.sim:generate_trajectory", "sim.generate_trajectory", "total_s", None),
    ("viwo.sim:ensure_coverage", "sim.ensure_coverage", "total_s", None),
    ("viwo.sim:synthesize_imu", "sim.synthesize_imu", "total_s", None),
    ("viwo.sim:synthesize_bearings", "sim.synthesize_bearings", "total_s", None),
    ("viwo.dataio:write_csv", "dataio.write_csv", "total_s", None),
    ("viwo.sim:render_frame", "sim.render_frame", "ms", None),
    ("viwo.pipeline:save_pgm", "image.save_pgm", "ms", None),
    ("viwo.dataio:read_csv", "dataio.read_csv", "total_s", None),
    ("viwo.jacobian_check:fd_flow_matrices", "jacobian_check.fd_flow_matrices", "ms", None),
    ("viwo.jacobian_check:fd_camera_chain", "jacobian_check.fd_camera_chain", "ms", None),
    ("viwo.jacobian_check:assemble_f_compact", "jacobian_check.assemble_f_compact",
     "us", None),
    ("viwo.jacobian_check:assemble_psi_compact", "jacobian_check.assemble_psi_compact",
     "us", None),
]
TRACE_ONLY = {"filter.process_bearing_frame", "filter.intensity_group",
              "filter.process_image_frame", "image.detect_features", "image.build_pyramid",
              "image.klt_align", "image.extract_patch_set", "image.load_pgm",
              "sensors.camera_measurement_jacobian", "sim.render_frame", "image.save_pgm"}
# the end-to-end timings read these two spans in untraced runs as well
PROBED = ("viwo.pipeline:run_filter", "viwo.pipeline:load_dataset")
RATIOS = {"filter.gate": "filter.groups_kept_ratio",
          "filter.intensity_group": "filter.intensity_group.measured_ratio",
          "image.klt_align": "image.klt_align.ok_ratio"}
# RunResult.counters that are not 0 on any workload (wheel-IMU-only runs
# have no camera rows and initialize no features)
COUNTERS = ("vehicle_rows", "groups_gated")
SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}
END_TO_END = {"realtime_factor": "x", "setup_s": "s", "simulate_s": "s",
              "peak_rss_mb": "MB", "rpe_p95_pct": "%", "ate_rmse_m": "m",
              "gyro_offset_err_dps": "deg/s", "yaw_scale_err_ppm": "ppm",
              "misalign_err_deg": "deg", "audit_configs_per_s": "configs/s"}


def _metric_name(stem: str, stat_kind: str) -> str:
    return f"{stem}.s" if stat_kind == "total_s" else f"{stem}.{stat_kind}"


def layer_metric_names() -> list[str]:
    """The per-layer metrics every traced run prints, in order."""
    names = []
    for _, stem, stat_kind, _ in LAYER_FUNCTIONS:
        if stem not in TRACE_ONLY:
            names += [_metric_name(stem, stat_kind), f"{stem}.calls"]
            if stem in RATIOS:
                names.append(RATIOS[stem])
    return names + [f"filter.{key}" for key in COUNTERS]


class Ledger:
    """Operations attempted and failed; problems found by the checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            print(f"perfbench: {label} failed", file=sys.stderr)
            raise

    def check(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def abandon(self, planned: int, done: int) -> None:
        """Count the operations a failed command left unattempted."""
        missing = planned - done
        self.attempted += missing
        self.failed += missing

    def merge(self, other: "Ledger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


@dataclass
class Samples:
    """Timing samples of one run, reduced by their median at its end."""
    import_s: list
    simulate_s: list
    audit_s: list


class Audit:
    """A round's Jacobian audit, run a step at a time between the filter
    commands; it keeps its own ledger, so that a failed dataset abandons
    only its own operations."""

    def __init__(self, samples: Samples):
        self.samples = samples
        self.ledger = Ledger()
        self.worst: dict[str, float] = {}
        self.calls = 0
        self.broken = False

    def step(self) -> None:
        for _ in range(AUDIT_CALLS_PER_STEP):
            if self.broken or self.calls == AUDIT_CALLS:
                return
            t0 = perf_counter()
            try:
                part = self.ledger.op("audit", jacobian_check.run_audit,
                                      n_configs=AUDIT_CONFIGS, seed=self.calls)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.broken = True
                return
            self.samples.audit_s.append(perf_counter() - t0)
            self.calls += 1
            for name, err in part.items():
                self.worst[name] = max(self.worst.get(name, 0.0), err)

    def finish(self, ledger: Ledger) -> None:
        """Run the calls a failed dataset skipped, check, and book."""
        while not self.broken and self.calls < AUDIT_CALLS:
            self.step()
        if self.broken:
            self.ledger.abandon(AUDIT_CALLS + 1, self.calls + 1)
        else:
            self.ledger.check("audit", checks.check_audit(self.worst))
        ledger.merge(self.ledger)


def fresh_import_s(root: Path) -> float:
    """Seconds a new interpreter takes to import viwo from ``root/src``."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def _printed_metrics(text: str) -> dict:
    values = dict(re.findall(r"^(rpe\.p95|ate\.rmse) = (\S+)$", text, re.M))
    return {"rpe_p95": float(values["rpe.p95"]), "ate_rmse": float(values["ate.rmse"])}


def _filter_dataset(wl: FilterWorkload, seed: int, ds_dir: Path, ledger: Ledger,
                    tracer: Tracer, samples: Samples, audit: Audit) -> dict:
    """Commands and checks on one dataset; returns its accuracy figures."""
    sim_cfg = RunConfig(out_dir=str(ds_dir), seed=seed, scenario=wl.scenario,
                        measurement_mode=wl.mode, **wl.errors)
    t0 = perf_counter()
    ledger.op("simulate", pipeline.cmd_simulate, sim_cfg)
    samples.simulate_s.append(perf_counter() - t0)
    audit.step()

    run_dir = ds_dir / "run"
    run_cfg = RunConfig(dataset=str(ds_dir), out_dir=str(run_dir),
                        measurement_mode=wl.mode, wheel_imu_only=wl.wheel_imu_only)
    for _ in range(wl.runs):
        ledger.op("run", pipeline.cmd_run, run_cfg)
    audit.step()
    # a second set-up sample: cmd_run loaded the dataset once already
    ledger.op("load", pipeline.load_dataset, ds_dir, wl.mode)
    audit.step()

    est_path, gt_path = run_dir / "trajectory.csv", ds_dir / "gt.csv"
    tracer.paused = True   # evaluation and checks are not the program's run
    try:
        text = ledger.op("eval", pipeline.cmd_eval, est_path, gt_path)
        est_rec, gt_rec = pipeline.load_pose_csv(est_path), pipeline.load_pose_csv(gt_path)
        evaluated = {"rpe_p95": evaluate.rpe(est_rec, gt_rec).percentile_95,
                     "ate_rmse": evaluate.ate_rmse(est_rec, gt_rec)}
        est, gt = checks.read_pose_csv(est_path), checks.read_pose_csv(gt_path)
        ledger.check("metrics agree", checks.check_metrics_agree(
            checks.trajectory_metrics(est, gt), evaluated, _printed_metrics(text)))
        imu_t = np.loadtxt(ds_dir / "imu.csv", delimiter=",", skiprows=1, usecols=0)
        ledger.check("trajectory", checks.check_trajectory(est, imu_t[0], imu_t[-1]))
        final = checks.read_gyro_params(run_dir / "final-params.txt")
        truth = checks.truth_vector(wl.errors["inject_bias_dps"],
                                    wl.errors["inject_yaw_scale"],
                                    wl.errors["inject_misalign_deg"])
        if wl.calibration_check:
            ledger.check("calibration", checks.check_calibration(final, truth))
    finally:
        tracer.paused = False
    audit.step()
    return {**evaluated, **checks.calibration_errors(final, truth)}


def _round(wl: FilterWorkload, seed: int, work: Path, ledger: Ledger, tracer: Tracer,
           samples: Samples, root: Path) -> dict | None:
    """One round; returns the reference dataset's accuracy figures."""
    accuracy = None
    audit = Audit(samples)
    for tag, ds_seed in (("seeded", seed), ("reference", REFERENCE_SEED)):
        ds_dir = work / tag
        before = ledger.attempted
        try:
            acc = _filter_dataset(wl, ds_seed, ds_dir, ledger, tracer, samples, audit)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ledger.abandon(wl.ops_per_dataset(), ledger.attempted - before)
            acc = None
        finally:
            shutil.rmtree(ds_dir, ignore_errors=True)
        samples.import_s.append(fresh_import_s(root))
        if tag == "reference":
            accuracy = acc
    audit.finish(ledger)
    return accuracy


def _layer_metrics(tracer: Tracer) -> dict:
    metrics = {}
    for _, stem, stat_kind, _ in LAYER_FUNCTIONS:
        stat = tracer.stats.get(stem)
        if stem in TRACE_ONLY or stat is None or not stat.calls:
            continue
        if stat_kind == "total_s":
            metrics[_metric_name(stem, stat_kind)] = (sum(stat.times), "s")
        else:
            unit = stat_kind.removeprefix("self_")
            values = stat.self_times if stat_kind.startswith("self_") else stat.times
            metrics[_metric_name(stem, stat_kind)] = (
                statistics.median(values) * SCALE[unit], unit)
        metrics[f"{stem}.calls"] = (stat.calls, "count")
        if stem in RATIOS:
            metrics[RATIOS[stem]] = (stat.hits / stat.calls, "ratio")
    runs = tracer.stats.get("pipeline.run_filter")
    if runs is not None and runs.calls:
        for key in COUNTERS:
            metrics[f"filter.{key}"] = (sum(counters[key] for _, counters in runs.results),
                                        "count")
    return metrics


def _run_summary(args, result) -> tuple[float, dict]:
    """What a run_filter call leaves for the metrics: the seconds of log it
    covered and its counters.  Keeping the dataset itself would count its
    memory in peak_rss_mb."""
    imu = args[0].imu
    return imu[-1, 0] - imu[0, 0], result.counters


def _write_trace(path: Path, tracer: Tracer) -> None:
    spans = {stem: {"calls": st.calls, "hits": st.hits, "total_s": sum(st.times),
                    "median_s": statistics.median(st.times),
                    "self_total_s": sum(st.self_times)}
             for stem, st in tracer.stats.items() if st.calls}
    path.write_text(json.dumps(spans, indent=1, sort_keys=True) + "\n")


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        import_s: float) -> dict:
    """Run whole rounds of workload ``name`` for at least ``seconds``;
    ``import_s`` is the time the caller took to import viwo."""
    wl = WORKLOADS[name]
    work = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    samples = Samples([import_s], [], [])
    accuracy = None
    tracer = Tracer()
    try:
        for target, stem, _, outcome in LAYER_FUNCTIONS:
            if trace or target in PROBED:
                tracer.install(target, stem, outcome,
                               keep=_run_summary if target == "viwo.pipeline:run_filter"
                               else None)
        start = perf_counter()
        while True:
            accuracy = _round(wl, seed, work, ledger, tracer, samples, root)
            if perf_counter() - start >= seconds:
                break
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = tracer.stats["pipeline.run_filter"]
    loads = tracer.stats["pipeline.load_dataset"]
    log_s = sum(log_s for log_s, _ in runs.results)
    metrics = {}
    if runs.times and loads.times:
        metrics["realtime_factor"] = log_s / sum(runs.times)
        metrics["setup_s"] = statistics.median(samples.import_s) + statistics.median(loads.times)
    if samples.simulate_s:
        metrics["simulate_s"] = statistics.median(samples.simulate_s)
    metrics["peak_rss_mb"] = peak_rss_mb
    if accuracy is not None:
        metrics["rpe_p95_pct"] = accuracy["rpe_p95"]
        metrics["ate_rmse_m"] = accuracy["ate_rmse"]
        metrics["gyro_offset_err_dps"] = accuracy["offset_dps"]
        metrics["yaw_scale_err_ppm"] = accuracy["yaw_scale_ppm"]
        metrics["misalign_err_deg"] = accuracy["misalign_deg"]
    if samples.audit_s:
        metrics["audit_configs_per_s"] = (AUDIT_CONFIGS * len(samples.audit_s)
                                          / sum(samples.audit_s))
    metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    if trace and runs.times:
        print(f"perfbench: traced realtime_factor {log_s / sum(runs.times):.4f}",
              file=sys.stderr)
    for problem in ledger.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if trace:
        metrics = _layer_metrics(tracer)
        _write_trace(root / ".perfbench_work" / f"trace-{name}-seed{seed}.json", tracer)
    missing = [k for k in (layer_metric_names() if trace else END_TO_END) if k not in metrics]
    if missing:
        raise RuntimeError(f"workload {name} measured no {', '.join(missing)}")
    return {"correct": not ledger.problems, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
