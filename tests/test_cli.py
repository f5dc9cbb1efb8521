import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from viwo import dataio
from viwo.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from viwo.sensors import DEFAULT_INTRINSICS
from viwo.sim import CAMERA_EXTRINSICS

PINNED_OUTPUTS = Path(__file__).parent / "pinned" / "mini_loop_seed5_outputs.json"
PINNED_IMAGE_OUTPUTS = Path(__file__).parent / "pinned" / "mini_loop_seed2_image_outputs.json"
PINNED_ZERO_NOISE_PSD_AUDIT = (Path(__file__).parent / "pinned"
                               / "zero_noise_check_psd_audit_outputs.json")


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def run_digests(out: Path, run: str) -> dict:
    return {f"{run}/{name}": hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("trajectory.csv", "params.csv", "final-params.txt")}


def assert_digests_pinned(pinned: Path, got: dict) -> None:
    # a change that means to move these bits updates the table in the same
    # commit (a report.txt goes in only with its dataset path replaced and
    # without its elapsed_s line)
    table = json.loads(pinned.read_text())
    moved = sorted(name for name in table["sha256"].keys() | got.keys()
                   if table["sha256"].get(name) != got.get(name))
    assert not moved, (
        f"output files moved: {moved}; table recorded with {table['recorded_with']}, "
        f"this is numpy {np.__version__} on {platform.system()} {platform.machine()}")


@pytest.fixture(scope="module")
def mini_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    code = main(["simulate", "--out", str(root), "--scenario", "mini_loop",
                 "--seed", "5", "--inject-bias", "0.3", "-0.2", "0.5"])
    assert code == EXIT_OK
    return root


def test_simulate_writes_all_files(mini_dataset):
    for name in ("imu.csv", "wheel.csv", "bearings.csv", "gt.csv",
                 "calib.txt", "truth-params.txt"):
        assert (mini_dataset / name).exists(), name


def test_simulated_calib_is_the_rig(mini_dataset):
    intr, ext, _ = dataio.load_calib(mini_dataset / "calib.txt")
    assert intr == DEFAULT_INTRINSICS
    assert np.array_equal(ext.r_cb, CAMERA_EXTRINSICS.r_cb)
    assert np.array_equal(ext.lever_arm, CAMERA_EXTRINSICS.lever_arm)


def test_simulate_deterministic_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = main(["simulate", "--out", str(out), "--scenario", "mini_loop",
                     "--seed", "9"])
        assert code == EXIT_OK
    assert tree_digest(a) == tree_digest(b)


def test_run_and_eval_end_to_end(mini_dataset, tmp_path):
    out = tmp_path / "run"
    code = main(["run", "--dataset", str(mini_dataset), "--out", str(out),
                 "--seed", "5"])
    assert code == EXIT_OK
    for name in ("trajectory.csv", "params.csv", "report.txt",
                 "final-params.txt"):
        assert (out / name).exists(), name
    # the injected offsets are recovered
    final = dataio.load_gyro_params(out / "final-params.txt")
    truth = dataio.load_gyro_params(mini_dataset / "truth-params.txt")
    assert np.allclose(final.bias, truth.bias, atol=np.deg2rad(0.05))

    code = main(["eval", "--estimate", str(out / "trajectory.csv"),
                 "--ground-truth", str(mini_dataset / "gt.csv")])
    assert code == EXIT_OK


def test_run_deterministic(mini_dataset, tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["run", "--dataset", str(mini_dataset),
                     "--out", str(out)]) == EXIT_OK
        outs.append((out / "trajectory.csv").read_bytes())
    assert outs[0] == outs[1]


def test_outputs_bits_pinned(mini_dataset, tmp_path):
    # the simulated dataset and the outputs of a bearing and a wheel-IMU-only
    # run on it
    got = {f"dataset/{name}": value for name, value in tree_digest(mini_dataset).items()}
    for run, flags in (("bearing", []), ("wheel-imu-only", ["--wheel-imu-only"])):
        out = tmp_path / run
        assert main(["run", "--dataset", str(mini_dataset), "--out", str(out),
                     *flags]) == EXIT_OK
        got.update(run_digests(out, run))
    assert_digests_pinned(PINNED_OUTPUTS, got)


def image_dataset_digests(ds: Path) -> dict:
    """Digests of an image dataset's files, with the frames in name order
    as one stream."""
    got = {f"dataset/{name}": value for name, value in tree_digest(ds).items()
           if not name.startswith("frames/")}
    frames_digest = hashlib.sha256()
    for p in sorted((ds / "frames").glob("*.pgm")):
        frames_digest.update(p.read_bytes())
    got["dataset/frames/*.pgm"] = frames_digest.hexdigest()
    return got


def test_zero_noise_check_psd_and_audit_bits_pinned(mini_dataset, tmp_path, capsys):
    # a zero-noise image simulate, the report of a --check-psd bearing run
    # (its covariance minima and counters) and the text of an audit
    ds = tmp_path / "zero_noise"
    assert main(["simulate", "--out", str(ds), "--scenario", "mini_loop", "--mode",
                 "image", "--zero-noise", "--seed", "17"]) == EXIT_OK
    got = {f"zero-noise/{name}": value for name, value in image_dataset_digests(ds).items()}
    out = tmp_path / "check_psd"
    assert main(["run", "--dataset", str(mini_dataset), "--out", str(out),
                 "--check-psd"]) == EXIT_OK
    # without the wall-clock line, and with the dataset's temporary path
    # replaced by a fixed name
    report = "".join(line for line in (out / "report.txt").read_text().splitlines(True)
                     if not line.startswith("elapsed_s:"))
    report = report.replace(str(mini_dataset), "<dataset>")
    got["check-psd/report.txt"] = hashlib.sha256(report.encode()).hexdigest()
    capsys.readouterr()
    assert main(["jacobian-check", "--configs", "20", "--seed", "0"]) == EXIT_OK
    got["jacobian-check/stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert_digests_pinned(PINNED_ZERO_NOISE_PSD_AUDIT, got)


def test_eval_identical_files_zero(mini_dataset, capsys):
    gt = str(mini_dataset / "gt.csv")
    assert main(["eval", "--estimate", gt, "--ground-truth", gt]) == EXIT_OK
    text = capsys.readouterr().out
    assert "rpe.max = 0.000000" in text
    assert "ate.rmse = 0.000000" in text


def test_wheel_imu_only_never_touches_camera(mini_dataset, tmp_path):
    out = tmp_path / "wio"
    assert main(["run", "--dataset", str(mini_dataset), "--out", str(out),
                 "--wheel-imu-only"]) == EXIT_OK
    report = (out / "report.txt").read_text()
    assert "camera_rows: 0" in report
    assert "features_initialized: 0" in report


def test_wheel_imu_only_without_camera_files(mini_dataset, tmp_path):
    # a wheel-IMU-only run reads no camera stream, so it needs none
    ds = tmp_path / "no_camera"
    shutil.copytree(mini_dataset, ds)
    (ds / "bearings.csv").unlink()
    out = tmp_path / "wio"
    assert main(["run", "--dataset", str(ds), "--out", str(out),
                 "--wheel-imu-only"]) == EXIT_OK
    assert "camera_rows: 0" in (out / "report.txt").read_text()


def test_header_only_bearings_runs_without_camera(mini_dataset, tmp_path):
    # a bearings.csv with no data rows is a drive without camera frames
    ds = tmp_path / "empty_camera"
    shutil.copytree(mini_dataset, ds)
    dataio.write_csv(ds / "bearings.csv", dataio.BEARINGS_HEADER, [])
    out = tmp_path / "empty"
    assert main(["run", "--dataset", str(ds), "--out", str(out)]) == EXIT_OK
    assert "camera_rows: 0" in (out / "report.txt").read_text()


def test_frames_off_the_imu_clock_are_counted(mini_dataset, tmp_path):
    # camera stamps 4 ms late: the next IMU sample (100 Hz) of every frame is
    # 6 ms away, and the last frame comes after the last IMU sample
    ds = tmp_path / "late_camera"
    shutil.copytree(mini_dataset, ds)
    rows = dataio.read_csv(ds / "bearings.csv", dataio.BEARINGS_HEADER)
    rows[:, 0] += 0.004
    dataio.write_csv(ds / "bearings.csv", dataio.BEARINGS_HEADER, rows.tolist())
    out = tmp_path / "late"
    assert main(["run", "--dataset", str(ds), "--out", str(out)]) == EXIT_OK
    report = (out / "report.txt").read_text()
    assert f"frames_skipped: {len(np.unique(rows[:, 0]))}\n" in report
    assert "camera_rows: 0\n" in report


def test_disable_calibration_freezes_params(mini_dataset, tmp_path):
    out = tmp_path / "nocal"
    assert main(["run", "--dataset", str(mini_dataset), "--out", str(out),
                 "--disable-gyro-calibration"]) == EXIT_OK
    params = dataio.read_csv(out / "params.csv", dataio.PARAMS_HEADER)
    assert np.allclose(params[:, 1:4], 0.0)
    assert np.allclose(params[:, 4], 1.0)
    assert np.allclose(params[:, 5:7], 0.0)


def test_init_params_flag(mini_dataset, tmp_path):
    out = tmp_path / "warm"
    assert main(["run", "--dataset", str(mini_dataset), "--out", str(out),
                 "--disable-gyro-calibration",
                 "--init-params", str(mini_dataset / "truth-params.txt")]) == EXIT_OK
    params = dataio.read_csv(out / "params.csv", dataio.PARAMS_HEADER)
    truth = dataio.load_gyro_params(mini_dataset / "truth-params.txt")
    assert np.allclose(params[-1, 1:4], truth.bias)


@pytest.mark.parametrize("yaw_scale", ["0", "-1", "1e-6"])
def test_degenerate_init_yaw_scale_exit_data(mini_dataset, tmp_path, capsys, yaw_scale):
    # a yaw scale the gyro error model cannot invert is bad file content:
    # a data error naming the file and the key, and no output directory
    params = tmp_path / "params.txt"
    params.write_text((mini_dataset / "truth-params.txt").read_text().replace(
        "gyro.yaw_scale = 1\n", f"gyro.yaw_scale = {yaw_scale}\n"))
    assert dataio.load_kv(params)["gyro.yaw_scale"] == [yaw_scale]
    out = tmp_path / "out"
    code = main(["run", "--dataset", str(mini_dataset), "--out", str(out),
                 "--init-params", str(params)])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and str(params) in err and "gyro.yaw_scale" in err
    assert not out.exists()


def test_config_file_overridden_by_flags(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("scenario = mini_loop\nseed = 4\n"
                       "noise.sigma_bearing = 0.002\n")
    out = tmp_path / "ds"
    assert main(["simulate", "--config", str(cfgfile), "--out", str(out),
                 "--seed", "6"]) == EXIT_OK
    # flag seed (6) wins over config seed (4): same as a pure flag run
    ref = tmp_path / "ref"
    assert main(["simulate", "--out", str(ref), "--scenario", "mini_loop",
                 "--seed", "6"]) == EXIT_OK
    assert tree_digest(out) == tree_digest(ref)


def test_bad_scenario_exit_config(tmp_path, capsys):
    # refused before the output directory is made
    code = main(["simulate", "--out", str(tmp_path / "x"),
                 "--scenario", "urban_loop", "--laps", "0"])
    assert code == EXIT_CONFIG  # zero laps -> empty drive = config error
    assert not (tmp_path / "x").exists()
    for scenario in ("highway", "mini_loop"):   # one-lap scenarios refuse laps
        out = tmp_path / scenario
        code = main(["simulate", "--out", str(out), "--scenario", scenario,
                     "--laps", "3", "--seed", "3"])
        assert code == EXIT_CONFIG
        assert "laps" in capsys.readouterr().err
        assert not out.exists()
    cfgfile = tmp_path / "bad.txt"
    cfgfile.write_text("scenario = nonsense\n")
    code = main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "y")])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "y").exists()


def test_invalid_settings_after_overrides_exit_config(mini_dataset, tmp_path,
                                                     capsys):
    # settings from the config file and from flags are validated after they
    # are applied; an invalid mode or slot count is no dead-reckoning run
    bad_file = tmp_path / "bad.txt"
    bad_file.write_text("measurement_mode = foo\nfeature_slots = 0\n")
    bad_noise = tmp_path / "bad_noise.txt"
    bad_noise.write_text("noise.lam = 0\n")
    cases = [["--config", str(bad_file)], ["--feature-slots", "0"],
             ["--config", str(bad_noise)]]
    for i, extra in enumerate(cases):
        out = tmp_path / f"out{i}"
        code = main(["run", "--dataset", str(mini_dataset), "--out", str(out)]
                    + extra)
        assert code == EXIT_CONFIG, extra
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


def test_missing_dataset_exit_data(tmp_path):
    code = main(["run", "--dataset", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA


def test_eval_missing_file_exit_data(tmp_path):
    code = main(["eval", "--estimate", str(tmp_path / "a.csv"),
                 "--ground-truth", str(tmp_path / "b.csv")])
    assert code == EXIT_DATA


def test_unknown_config_key_exit_data(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("no_such_key = 1\n")
    code = main(["simulate", "--config", str(cfgfile),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA


@pytest.mark.parametrize("line, flags, key", [
    ("seed =", [], "seed"),
    ("check_psd =", [], "check_psd"),
    ("inject_misalign_deg = 1", [], "inject_misalign_deg"),
    ("inject_bias_dps = 0.1 0.2", [], "inject_bias_dps"),
    ("inject_bias_dps = 0.1 0.2 0.3 0.4", [], "inject_bias_dps"),
    ("noise.sigma_wheel = nan", [], "noise.sigma_wheel"),
    ("rho_sg = nan", [], "rho_sg"),
    ("inject_yaw_scale = inf", [], "inject_yaw_scale"),
    ("inject_bias_dps = 0.1 nan 0.3", [], "inject_bias_dps"),
    ("inject_misalign_deg = 0.5 -inf", [], "inject_misalign_deg"),
    ("", ["--inject-yaw-scale", "inf"], "inject_yaw_scale"),
    ("zero_noise = ture", [], "zero_noise"),
    ("seed = 1.5", [], "seed"),
    ("inject_yaw_scale = 0", [], "inject_yaw_scale"),
    ("", ["--inject-yaw-scale", "-1"], "inject_yaw_scale"),
    ("", ["--inject-yaw-scale", "1e-6"], "inject_yaw_scale"),
], ids=["no_value", "no_flag_value", "misalign_one", "bias_two", "bias_four",
        "noise_nan", "rho_sg_nan", "yaw_scale_inf", "bias_nan", "misalign_inf",
        "yaw_scale_flag_inf", "bool_typo", "int_fraction", "yaw_scale_zero",
        "yaw_scale_flag_negative", "yaw_scale_flag_at_minimum"])
def test_bad_config_value_exit_config(tmp_path, capsys, line, flags, key):
    # a config-file value of the wrong count, that does not parse or that is
    # not finite, a non-finite flag value, and an injected yaw scale the gyro
    # error model cannot invert, is a config error naming its key, found
    # before anything is written
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text(f"scenario = mini_loop\n{line}\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfgfile), "--out", str(out)] + flags)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


def test_jacobian_check_command(capsys):
    assert main(["jacobian-check", "--configs", "25", "--seed", "3"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "all blocks pass" in text
    assert "camera_chain" in text


@pytest.mark.parametrize("n", ["0", "-3"])
def test_jacobian_check_no_configs_exit_config(capsys, n):
    # an audit of nothing is no pass
    assert main(["jacobian-check", "--configs", n]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "--configs" in err and "all blocks pass" not in out


def test_jacobian_check_position_rows_far_from_origin():
    # seed 276 draws positions tens of metres out, where an FD reference
    # that differences flowed positions loses the digits psi_pos needs
    from viwo.jacobian_check import run_audit
    worst = run_audit(100, seed=276)
    assert max(worst.values()) <= 1e-4, worst


def test_jacobian_check_detects_perturbed_block(monkeypatch, capsys):
    import viwo.jacobian_check as jc
    original = jc.assemble_f_compact

    def broken(*args, **kwargs):
        f = original(*args, **kwargs)
        f[0, 0] += 0.01
        return f

    monkeypatch.setattr(jc, "assemble_f_compact", broken)
    code = main(["jacobian-check", "--configs", "5", "--seed", "1"])
    assert code == 4
    assert "FAIL" in capsys.readouterr().out


def test_image_mode_end_to_end(tmp_path):
    ds = tmp_path / "imds"
    code = main(["simulate", "--out", str(ds), "--scenario", "mini_loop",
                 "--seed", "2", "--mode", "image"])
    assert code == EXIT_OK
    assert (ds / "frames.csv").exists()
    frames = sorted((ds / "frames").glob("*.pgm"))
    assert len(frames) > 50
    out = tmp_path / "imrun"
    code = main(["run", "--dataset", str(ds), "--out", str(out),
                 "--mode", "image", "--feature-slots", "8"])
    assert code == EXIT_OK
    report = (out / "report.txt").read_text()
    assert "camera_rows:" in report
    traj = dataio.read_csv(out / "trajectory.csv", dataio.POSE_HEADER)
    gt = dataio.read_csv(ds / "gt.csv", dataio.POSE_HEADER)
    # image mode stays on track at desk scale
    end_err = np.linalg.norm(traj[-1, 1:4] - gt[-1, 1:4])
    assert end_err < 25.0
    # the dataset files, the frames in name order and the run's outputs
    got = image_dataset_digests(ds)
    got.update(run_digests(out, "image"))
    assert_digests_pinned(PINNED_IMAGE_OUTPUTS, got)


def test_resimulated_bearing_dataset_has_no_old_frames(tmp_path):
    # a bearing-mode simulate over an image dataset takes its image stream
    # away, so an image run on it fails instead of pairing new IMU data with
    # the old frames; a rejected scenario removes nothing
    ds = tmp_path / "ds"
    assert main(["simulate", "--out", str(ds), "--scenario", "mini_loop",
                 "--seed", "17", "--mode", "image"]) == EXIT_OK
    cfgfile = tmp_path / "bad.txt"
    cfgfile.write_text("scenario = nonsense\n")
    assert main(["simulate", "--config", str(cfgfile), "--out", str(ds)]) == EXIT_CONFIG
    assert (ds / "frames.csv").exists()
    assert main(["simulate", "--out", str(ds), "--scenario", "mini_loop", "--seed", "3",
                 "--inject-bias", "0.3", "0", "0"]) == EXIT_OK
    assert not (ds / "frames.csv").exists()
    assert not (ds / "frames").exists()
    code = main(["run", "--dataset", str(ds), "--out", str(tmp_path / "run"),
                 "--mode", "image"])
    assert code == EXIT_DATA


def _run_with_imu_edit(mini_dataset, tmp_path, edit):
    ds = tmp_path / "edited"
    shutil.copytree(mini_dataset, ds)
    rows = dataio.read_csv(ds / "imu.csv", dataio.IMU_HEADER)
    dataio.write_csv(ds / "imu.csv", dataio.IMU_HEADER, edit(rows).tolist())
    return main(["run", "--dataset", str(ds), "--out", str(tmp_path / "out")])


def test_repeated_imu_stamp_exit_data(mini_dataset, tmp_path, capsys):
    code = _run_with_imu_edit(mini_dataset, tmp_path,
                              lambda rows: np.insert(rows, 200, rows[200], axis=0))
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "data row 202" in err


def test_imu_gap_exit_data(mini_dataset, tmp_path, capsys):
    # ten dropped rows at 100 Hz: a 0.11 s step, longer than MAX_STEP_S
    code = _run_with_imu_edit(mini_dataset, tmp_path,
                              lambda rows: np.delete(rows, slice(200, 210), axis=0))
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "data row 201" in err and "0.1100" in err


def test_check_psd_run_matches_block_run(mini_dataset, tmp_path, monkeypatch):
    # a plain run, a --check-psd run and a --check-psd run that predicts one
    # sample per chunk write byte-identical files; the two checked runs
    # report the same covariance minima
    import viwo.filter
    runs = [([], None), (["--check-psd"], None), (["--check-psd"], 1)]
    outs = []
    for k, (extra, chunk_max) in enumerate(runs):
        if chunk_max is not None:
            monkeypatch.setattr(viwo.filter, "PREDICT_BLOCK_MAX", chunk_max)
        out = tmp_path / f"run{k}"
        assert main(["run", "--dataset", str(mini_dataset), "--out", str(out)]
                    + extra) == EXIT_OK
        outs.append(out)
    for name in ("trajectory.csv", "params.csv", "final-params.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        assert (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name
    minima = [[line for line in (out / "report.txt").read_text().splitlines()
               if line.startswith("min_eig_")] for out in outs]
    assert minima[0] == [] and len(minima[1]) == 2 and minima[1] == minima[2]


def test_predict_blocks_capped_without_frames(mini_dataset, tmp_path, monkeypatch):
    # camera frames end at 5 s: the rest of the log has no frame to end a
    # predict block, so predict's chunk cap bounds every chunk
    from viwo.filter import PREDICT_BLOCK_MAX, AdaptiveEkf
    ds = tmp_path / "short_camera"
    shutil.copytree(mini_dataset, ds)
    rows = dataio.read_csv(ds / "bearings.csv", dataio.BEARINGS_HEADER)
    dataio.write_csv(ds / "bearings.csv", dataio.BEARINGS_HEADER,
                     rows[rows[:, 0] <= 5.0].tolist())
    sizes = []
    original = AdaptiveEkf._predict_chunk

    def counting(self, block):
        sizes.append(len(block))
        return original(self, block)

    monkeypatch.setattr(AdaptiveEkf, "_predict_chunk", counting)
    assert main(["run", "--dataset", str(ds), "--out", str(tmp_path / "out")]) == EXIT_OK
    n_imu = dataio.read_csv(ds / "imu.csv", dataio.IMU_HEADER).shape[0]
    assert sum(sizes) == n_imu
    assert max(sizes) == PREDICT_BLOCK_MAX


@pytest.mark.parametrize("edit, message", [
    (lambda rows: rows[::2], "wheel.csv: data row 2 (t="),          # 50 Hz
    (lambda rows: rows[:-1], "each wheel row takes the stamp of its imu row"),
], ids=["decimated", "short"])
def test_wheel_rows_off_the_imu_stamps_exit_data(mini_dataset, tmp_path, capsys,
                                                 edit, message):
    # the filter pairs wheel.csv with imu.csv row by row
    ds = tmp_path / "edited"
    shutil.copytree(mini_dataset, ds)
    rows = dataio.read_csv(ds / "wheel.csv", dataio.WHEEL_HEADER)
    dataio.write_csv(ds / "wheel.csv", dataio.WHEEL_HEADER, edit(rows).tolist())
    code = main(["run", "--dataset", str(ds), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and message in err


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name, header, col", [
    ("imu.csv", dataio.IMU_HEADER, "wx"),
    ("wheel.csv", dataio.WHEEL_HEADER, "vx"),
], ids=["imu", "wheel"])
def test_non_finite_imu_or_wheel_value_exit_data(mini_dataset, tmp_path, capsys,
                                                 name, header, col, value):
    # refused with its file, row and stamp named, rather than gated silently
    # (wheel) or failing as a numerical error (imu), and before the output
    # directory is made
    ds = tmp_path / "edited"
    shutil.copytree(mini_dataset, ds)
    rows = dataio.read_csv(ds / name, header)
    rows[500, 1] = value
    dataio.write_csv(ds / name, header, rows.tolist())
    code = main(["run", "--dataset", str(ds), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert f"{name}: data row 501 (t={rows[500, 0]:.6f}): {col} is not finite" in err


def _shift_gt(ds, shift):
    rows = dataio.read_csv(ds / "gt.csv", dataio.POSE_HEADER)
    rows[:, 0] += shift
    dataio.write_csv(ds / "gt.csv", dataio.POSE_HEADER, rows.tolist())


def _one_imu_row_no_gt(ds):
    for name, header in (("imu.csv", dataio.IMU_HEADER), ("wheel.csv", dataio.WHEEL_HEADER)):
        rows = dataio.read_csv(ds / name, header)
        dataio.write_csv(ds / name, header, rows[:1].tolist())
    (ds / "gt.csv").unlink()


@pytest.mark.parametrize("edit, message", [
    (_one_imu_row_no_gt, "imu.csv: the filter needs at least two data rows, found 1"),
    (lambda ds: _shift_gt(ds, 0.1), "imu.csv: data row 1 (t=0.010000): -0.0900 s after"),
    (lambda ds: _shift_gt(ds, -0.5), "imu.csv: data row 1 (t=0.010000): 0.5100 s after"),
    (lambda ds: dataio.write_csv(ds / "gt.csv", dataio.POSE_HEADER, []),
     "gt.csv: no data rows"),
], ids=["one_imu_row", "gt_late", "gt_early", "gt_header_only"])
def test_imu_start_off_the_first_pose_exit_data(mini_dataset, tmp_path, capsys,
                                                edit, message):
    # the filter steps from the first ground-truth pose (or one median IMU
    # step before the first sample) to the first IMU sample
    ds = tmp_path / "edited"
    shutil.copytree(mini_dataset, ds)
    edit(ds)
    code = main(["run", "--dataset", str(ds), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and message in err


@pytest.mark.parametrize("cols, value, message", [
    (slice(2, 5), 0.0, "direction of zero"),
    (3, np.nan, "not finite"),
    (1, 2.7, "slot is not a non-negative integer"),
    (1, -1.0, "slot is not a non-negative integer"),
], ids=["zero", "nan", "fractional_slot", "negative_slot"])
def test_bad_bearing_row_exit_data(mini_dataset, tmp_path, capsys, cols, value, message):
    # refused with its row named, rather than gated or its slot truncated
    ds = tmp_path / "edited"
    shutil.copytree(mini_dataset, ds)
    rows = dataio.read_csv(ds / "bearings.csv", dataio.BEARINGS_HEADER)
    rows[40, cols] = value
    dataio.write_csv(ds / "bearings.csv", dataio.BEARINGS_HEADER, rows.tolist())
    code = main(["run", "--dataset", str(ds), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "bearings.csv: data row 41 (t=" in err and message in err


@pytest.mark.parametrize("edit, message", [
    # stamped after the ground truth ends
    (lambda rows: np.hstack([rows[:, :1] + 1000.0, rows[:, 1:]]),
     "too few associated samples"),
    (lambda rows: np.insert(rows, 10, rows[10], axis=0), "strictly increasing"),
], ids=["no_overlap", "repeated_stamp"])
def test_eval_bad_estimate_exit_data(mini_dataset, tmp_path, capsys, edit, message):
    gt = mini_dataset / "gt.csv"
    est = tmp_path / "estimate.csv"
    rows = dataio.read_csv(gt, dataio.POSE_HEADER)
    dataio.write_csv(est, dataio.POSE_HEADER, edit(rows).tolist())
    code = main(["eval", "--estimate", str(est), "--ground-truth", str(gt)])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and str(est) in err and message in err


def test_eval_nonpositive_segment_exit_config(mini_dataset, capsys):
    # a bad flag: a config error, where the failures on the files exit 3
    gt = str(mini_dataset / "gt.csv")
    code = main(["eval", "--estimate", gt, "--ground-truth", gt, "--segment-m", "0"])
    assert code == EXIT_CONFIG
    assert "segment length" in capsys.readouterr().err


def test_eval_infinite_segment_exit_config(mini_dataset, capsys):
    gt = str(mini_dataset / "gt.csv")
    code = main(["eval", "--estimate", gt, "--ground-truth", gt, "--segment-m", "inf"])
    assert code == EXIT_CONFIG
    assert "--segment-m" in capsys.readouterr().err


@pytest.mark.parametrize("cut", [10, 1000], ids=["header", "pixels"])
def test_truncated_frame_exit_data(mini_dataset, tmp_path, cut):
    from viwo.image import Image, save_pgm
    ds = tmp_path / "frames"
    shutil.copytree(mini_dataset, ds)
    (ds / "frames").mkdir()
    frame = ds / "frames" / "000001.pgm"
    save_pgm(frame, Image(np.full((480, 640), 90.0)))
    frame.write_bytes(frame.read_bytes()[:cut])
    t = dataio.read_csv(ds / "imu.csv", dataio.IMU_HEADER)[100, 0]
    dataio.write_csv(ds / "frames.csv", dataio.FRAMES_HEADER,
                     [[t, "frames/000001.pgm"]])
    # in a child process, so that a reader looping on the cut header fails
    # the test by the timeout instead of hanging the suite
    proc = subprocess.run(
        [sys.executable, "-m", "viwo.cli", "run", "--dataset", str(ds),
         "--out", str(tmp_path / "out"), "--mode", "image"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert proc.returncode == EXIT_DATA, proc.stderr
    assert "data error" in proc.stderr and "000001.pgm" in proc.stderr


def test_frame_size_differs_from_calib_exit_data(mini_dataset, tmp_path, capsys):
    # a frame cropped to 320x240 against the 640x480 of calib.txt
    from viwo.image import Image, save_pgm
    ds = tmp_path / "frames"
    shutil.copytree(mini_dataset, ds)
    (ds / "frames").mkdir()
    save_pgm(ds / "frames" / "000001.pgm", Image(np.full((240, 320), 90.0)))
    t = dataio.read_csv(ds / "imu.csv", dataio.IMU_HEADER)[100, 0]
    dataio.write_csv(ds / "frames.csv", dataio.FRAMES_HEADER,
                     [[t, "frames/000001.pgm"]])
    code = main(["run", "--dataset", str(ds), "--out", str(tmp_path / "out"),
                 "--mode", "image"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "000001.pgm" in err
    assert "320x240" in err and f"{DEFAULT_INTRINSICS.width}x{DEFAULT_INTRINSICS.height}" in err


def _nan_stamp(t):
    t[4] = np.nan
    return t


def _repeated_stamp(t):
    t[4] = t[3]
    return t


@pytest.mark.parametrize("edit, message", [
    (_nan_stamp, "frames.csv: data row 5 (t=nan): t is not finite"),
    (_repeated_stamp, "frames.csv: data row 5 (t={t4:.6f}): step 0.0000 s from the previous row"),
], ids=["nan", "repeated"])
def test_bad_frame_stamp_exit_data(mini_dataset, tmp_path, capsys, edit, message):
    # refused with its row named, rather than every later frame skipped
    from viwo.image import Image, save_pgm
    ds = tmp_path / "frames"
    shutil.copytree(mini_dataset, ds)
    (ds / "frames").mkdir()
    save_pgm(ds / "frames" / "000001.pgm", Image(np.full((480, 640), 90.0)))
    t = edit(dataio.read_csv(ds / "imu.csv", dataio.IMU_HEADER)[100:180:10, 0])
    dataio.write_csv(ds / "frames.csv", dataio.FRAMES_HEADER,
                     [[s, "frames/000001.pgm"] for s in t])
    code = main(["run", "--dataset", str(ds), "--out", str(tmp_path / "out"),
                 "--mode", "image"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and message.format(t4=t[4]) in err


def test_non_finite_gt_value_exit_data(mini_dataset, tmp_path, capsys):
    # the filter starts from the first pose: a numerical failure at the parent
    ds = tmp_path / "edited"
    shutil.copytree(mini_dataset, ds)
    rows = dataio.read_csv(ds / "gt.csv", dataio.POSE_HEADER)
    rows[0, 1] = np.nan
    dataio.write_csv(ds / "gt.csv", dataio.POSE_HEADER, rows.tolist())
    code = main(["run", "--dataset", str(ds), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"gt.csv: data row 1 (t={rows[0, 0]:.6f}): px is not finite" in err


@pytest.mark.parametrize("key, value", [
    ("cam.fx", "nan"),
    ("cam.width", "nan"),
    ("cam.width", "abc"),
    ("cam.height", "480.5"),
    ("cam.height", "0"),
    ("ext.lever_arm", "nan 0 1.2"),
], ids=["fx_nan", "width_nan", "width_text", "height_fractional", "height_zero",
        "lever_arm_nan"])
def test_bad_calib_value_exit_data(mini_dataset, tmp_path, capsys, key, value):
    # refused with the file and key named, in bearing mode too, where the
    # intrinsics are not used and the lever arm moves every feature
    ds = tmp_path / "edited"
    shutil.copytree(mini_dataset, ds)
    kv = dataio.load_kv(ds / "calib.txt")
    kv[key] = value.split()
    (ds / "calib.txt").write_text("".join(f"{k} = {' '.join(v)}\n" for k, v in kv.items()))
    code = main(["run", "--dataset", str(ds), "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "data error" in err and "calib.txt" in err and f"key '{key}'" in err
