"""Tests of the benchmark's output checks and tracer, on tiny inputs.

    python3 -m pytest -q perfbench
"""

import sys
import types

import numpy as np
import pytest

import checks
from tracing import Tracer
from viwo.evaluate import TrajectoryRecord, ate_rmse, rpe

TRUTH = checks.truth_vector((0.3, -0.2, 0.5), 1.01, (0.5, 0.5))


def _loop(n: int = 600, radius: float = 60.0) -> np.ndarray:
    """Poses at 10 Hz around a circle of ``radius`` (about 380 m)."""
    t = np.arange(n) * 0.1
    yaw = t * (2 * np.pi / t[-1])
    pos = np.stack([radius * np.sin(yaw), radius * (1 - np.cos(yaw)), np.zeros(n)], 1)
    quat = np.stack([np.cos(yaw / 2), np.zeros(n), np.zeros(n), np.sin(yaw / 2)], 1)
    return np.column_stack([t, pos, quat])


def _estimate(gt: np.ndarray) -> np.ndarray:
    """Truth with a smooth drift in position and heading."""
    est = gt.copy()
    s = np.linspace(0.0, 1.0, len(gt))
    est[:, 1:4] += np.stack([0.8 * s ** 2, -0.5 * np.sin(3 * s), 0.1 * s], 1)
    yaw = 2 * np.arctan2(gt[:, 7], gt[:, 4]) + 0.01 * s
    est[:, 4], est[:, 7] = np.cos(yaw / 2), np.sin(yaw / 2)
    return est


def _viwo_metrics(est: np.ndarray, gt: np.ndarray) -> dict:
    e = TrajectoryRecord(est[:, 0], est[:, 1:4], est[:, 4:8])
    g = TrajectoryRecord(gt[:, 0], gt[:, 1:4], gt[:, 4:8])
    return {"rpe_p95": rpe(e, g).percentile_95, "ate_rmse": ate_rmse(e, g)}


def test_independent_metrics_agree_with_viwo_evaluate():
    gt = _loop()
    est = _estimate(gt)
    mine = checks.trajectory_metrics(est, gt)
    assert mine["ate_rmse"] > 0.05 and mine["rpe_p95"] > 0.05
    evaluated = _viwo_metrics(est, gt)
    assert checks.check_metrics_agree(mine, evaluated) == []
    off = {k: v * (1 + 1e-7) for k, v in evaluated.items()}
    assert len(checks.check_metrics_agree(mine, off)) == 2


def test_metrics_read_back_from_csv(tmp_path):
    gt = _loop()
    path = tmp_path / "trajectory.csv"
    rows = "\n".join(",".join(format(x, ".17g") for x in row) for row in gt)
    path.write_text(checks.POSE_HEADER + "\n" + rows + "\n")
    assert np.array_equal(checks.read_pose_csv(path), gt)


def test_trajectory_shifted_by_one_metre_fails_ate_cross_check():
    gt = _loop()
    est = _estimate(gt)
    evaluated = _viwo_metrics(est, gt)
    shifted = est.copy()
    shifted[len(est) // 2:, 1] += 1.0
    problems = checks.check_metrics_agree(checks.trajectory_metrics(shifted, gt), evaluated)
    assert any(p.startswith("ate_rmse") for p in problems)


def test_printed_value_off_by_its_last_digit_fails():
    gt = _loop()
    est = _estimate(gt)
    mine = checks.trajectory_metrics(est, gt)
    printed = {k: round(v, 6) for k, v in mine.items()}
    assert checks.check_metrics_agree(mine, mine, printed) == []
    printed["rpe_p95"] += 2e-6
    assert checks.check_metrics_agree(mine, mine, printed) != []


def test_calibration_within_tolerance_passes():
    final = TRUTH.copy()
    final[0:3] += np.deg2rad(0.99 * checks.OFFSET_TOL_DPS)
    final[3] *= 1 + 0.99 * checks.YAW_SCALE_TOL_REL
    final[4:6] -= np.deg2rad(0.99 * checks.MISALIGN_TOL_DEG)
    assert checks.check_calibration(final, TRUTH) == []


@pytest.mark.parametrize("index, step", [
    (1, np.deg2rad(checks.OFFSET_TOL_DPS)),
    (3, checks.YAW_SCALE_TOL_REL * TRUTH[3]),
    (5, np.deg2rad(checks.MISALIGN_TOL_DEG)),
])
def test_truth_off_by_one_tolerance_fails_calibration_check(index, step):
    truth = TRUTH.copy()
    truth[index] += 1.01 * step
    assert len(checks.check_calibration(TRUTH, truth)) == 1


def test_audit_check():
    worst = {name: 5e-5 for name in checks.AUDIT_BLOCKS}
    assert checks.check_audit(worst) == []
    assert checks.check_audit({**worst, "psi_feat": 1.01e-4}) == ["block psi_feat: 1.010e-04 > 0.0001"]
    assert checks.check_audit({**worst, "psi_pos": 1.44e-4}) == []
    assert checks.check_audit({**worst, "psi_pos": float("nan")}) == ["block psi_pos: error nan"]
    del worst["camera_chain"]
    assert checks.check_audit(worst) == ["block camera_chain missing"]


def test_trajectory_check():
    gt = _loop()
    assert checks.check_trajectory(gt, gt[0, 0], gt[-1, 0]) == []
    assert checks.check_trajectory(gt, gt[0, 0], gt[-1, 0] + 1.0) != []
    bad = gt.copy()
    bad[10, 4] *= 1.001
    assert checks.check_trajectory(bad, gt[0, 0], gt[-1, 0]) != []
    bad = gt.copy()
    bad[10, 2] = np.nan
    assert checks.check_trajectory(bad, gt[0, 0], gt[-1, 0]) != []


def test_tracer_self_time_and_restore(monkeypatch):
    mod = types.ModuleType("tiny")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "tiny", mod)
    tracer = Tracer()
    tracer.install("tiny:inner", "inner", outcome=lambda r: r > 1)
    tracer.install("tiny:outer", "outer")
    assert [mod.outer(0), mod.outer(1)] == [2, 4]
    tracer.paused = True
    mod.outer(5)
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer
    inner_stat, outer_stat = tracer.stats["inner"], tracer.stats["outer"]
    assert (inner_stat.calls, inner_stat.hits, outer_stat.calls) == (2, 1, 2)
    for total, own, child in zip(outer_stat.times, outer_stat.self_times, inner_stat.times):
        assert own == pytest.approx(total - child)


def test_manifest_lists_the_printed_metrics():
    import json
    from pathlib import Path

    import workloads
    manifest = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in manifest["per_layer"]] == workloads.layer_metric_names()
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == workloads.END_TO_END
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)


def test_audit_books_whole_rounds(monkeypatch):
    import workloads

    def fake_audit(n_configs, seed):
        if seed == fail_at:
            raise RuntimeError("audit failed")
        return {name: 1e-5 for name in checks.AUDIT_BLOCKS}

    monkeypatch.setattr(workloads.jacobian_check, "run_audit", fake_audit)
    planned = workloads.AUDIT_CALLS + 1
    for fail_at, failed in ((None, 0), (4, planned - 4)):
        audit, ledger = workloads.Audit(workloads.Samples([], [], [])), workloads.Ledger()
        audit.step()
        audit.step()
        audit.finish(ledger)
        assert (ledger.attempted, ledger.failed) == (planned, failed)
