import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import perturb
from viwo import dataio
from viwo.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, build_parser, main
from viwo.filter import AdaptiveEkf
from viwo.pipeline import RunConfig
from viwo.sensors import DEFAULT_INTRINSICS
from viwo.sim import CAMERA_EXTRINSICS

PINNED_OUTPUTS = Path(__file__).parent / "pinned" / "mini_loop_seed5_outputs.json"
PINNED_IMAGE_OUTPUTS = Path(__file__).parent / "pinned" / "mini_loop_seed2_image_outputs.json"
PINNED_ZERO_NOISE_PSD_AUDIT = (Path(__file__).parent / "pinned"
                               / "zero_noise_check_psd_audit_outputs.json")
PINNED_REFERENCE_DATASET = Path(__file__).parent / "pinned" / "urban_loop_seed17_dataset.json"
PINNED_HIGHWAY_DATASET = Path(__file__).parent / "pinned" / "highway_seed17_dataset.json"
PINNED_REFERENCE_RUNS = Path(__file__).parent / "pinned" / "urban_loop_seed17_runs.json"


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
    assert main(["run", "--dataset", str(mini_dataset), "--out", str(out)]) == EXIT_OK
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


def simulate_seed17(ds: Path, scenario: str) -> Path:
    """ds, made a seed-17 bearing-mode dataset of scenario with all six gyro
    errors injected."""
    assert main(["simulate", "--out", str(ds), "--scenario", scenario, "--seed", "17",
                 "--inject-bias", "0.3", "-0.2", "0.5", "--inject-yaw-scale", "1.01",
                 "--inject-misalign", "0.5", "0.5"]) == EXIT_OK
    return ds


def dataset_digests(ds: Path) -> dict:
    return {f"dataset/{name}": value for name, value in tree_digest(ds).items()}


@pytest.fixture(scope="module")
def reference_dataset(tmp_path_factory):
    # the benchmark's reference dataset: urban_loop's 1083 camera poses and
    # its coverage densification, which the mini_loop pins do not reach
    return simulate_seed17(tmp_path_factory.mktemp("reference") / "urban_loop", "urban_loop")


def test_reference_dataset_bits_pinned(reference_dataset):
    assert_digests_pinned(PINNED_REFERENCE_DATASET, dataset_digests(reference_dataset))


def test_reference_runs_bits_pinned(reference_dataset, tmp_path, capsys):
    # the runs behind the benchmark's urban_bearing and urban_wheel_imu
    # accuracy figures: their output files, their reports without the
    # dataset path and the wall-clock line, and what eval prints of them
    got = {}
    for run, flags in (("bearing", []), ("wheel-imu-only", ["--wheel-imu-only"])):
        out = tmp_path / run
        assert main(["run", "--dataset", str(reference_dataset), "--out", str(out),
                     *flags]) == EXIT_OK
        got.update(run_digests(out, run))
        report = "".join(line for line in (out / "report.txt").read_text().splitlines(True)
                         if not line.startswith(("dataset:", "elapsed_s:")))
        got[f"{run}/report.txt"] = hashlib.sha256(report.encode()).hexdigest()
        capsys.readouterr()
        assert main(["eval", "--estimate", str(out / "trajectory.csv"),
                     "--ground-truth", str(reference_dataset / "gt.csv")]) == EXIT_OK
        got[f"{run}/eval"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert_digests_pinned(PINNED_REFERENCE_RUNS, got)


def test_highway_dataset_bits_pinned(tmp_path):
    # highway's 4157 camera poses along 5 km, where each pose sees about 1 %
    # of the world points, so the visibility prefilter drops the most
    assert_digests_pinned(PINNED_HIGHWAY_DATASET,
                          dataset_digests(simulate_seed17(tmp_path / "highway", "highway")))


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


def test_config_file_overridden_by_flags(tmp_path):
    cfgfile = tmp_path / "cfg.txt"
    cfgfile.write_text("scenario = mini_loop\nseed = 4\n")
    out = tmp_path / "ds"
    assert main(["simulate", "--config", str(cfgfile), "--out", str(out),
                 "--seed", "6"]) == EXIT_OK
    # flag seed (6) wins over config seed (4): same as a pure flag run
    ref = tmp_path / "ref"
    assert main(["simulate", "--out", str(ref), "--scenario", "mini_loop",
                 "--seed", "6"]) == EXIT_OK
    assert tree_digest(out) == tree_digest(ref)


@pytest.mark.parametrize("argv", [["simulate", "--out", "o"],
                                  ["run", "--dataset", "d", "--out", "o"]],
                         ids=["simulate", "run"])
def test_flag_dests_are_settings(argv):
    # the command reads each flag, and takes it as a config key, under the
    # name of its RunConfig field
    dests = vars(build_parser().parse_args(argv)).keys() - {"command", "config"}
    assert dests - {f.name for f in fields(RunConfig)} == set()


def test_eval_missing_file_exit_data(tmp_path):
    code = main(["eval", "--estimate", str(tmp_path / "a.csv"),
                 "--ground-truth", str(tmp_path / "b.csv")])
    assert code == EXIT_DATA


def test_jacobian_check_command(capsys):
    assert main(["jacobian-check", "--configs", "25", "--seed", "3"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "all blocks pass" in text
    assert "camera_chain" in text


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


def test_skipped_frames_change_nothing(mini_dataset, tmp_path):
    # every third camera frame stamped 4 ms late, so 6 ms before its next
    # IMU sample: the run skips those frames and writes the files of a run
    # whose bearings.csv lacks them
    rows = dataio.read_csv(mini_dataset / "bearings.csv", dataio.BEARINGS_HEADER)
    moved = np.unique(rows[:, 0])[::3]
    late = np.isin(rows[:, 0], moved)
    outs = []
    for name, edit in (("late", lambda r: np.column_stack((r[:, 0] + 0.004 * late, r[:, 1:]))),
                       ("deleted", lambda r: r[~late])):
        ds = shutil.copytree(mini_dataset, tmp_path / name)
        perturb.edit_rows(ds, "bearings.csv", edit)
        outs.append(tmp_path / f"{name}_run")
        assert main(["run", "--dataset", str(ds), "--out", str(outs[-1])]) == EXIT_OK
    for name in ("trajectory.csv", "params.csv", "final-params.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    skipped = [[line for line in (out / "report.txt").read_text().splitlines()
                if line.startswith("frames_skipped:")] for out in outs]
    assert skipped == [[f"frames_skipped: {len(moved)}"], ["frames_skipped: 0"]]


@pytest.mark.parametrize("value, expected", [(None, "1 1 1"), ("3", "3 1 1")])
def test_import_sets_one_blas_thread(value, expected):
    # importing viwo sets each BLAS thread count the environment leaves unset
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {key: val for key, val in os.environ.items() if key not in names}
    if value is not None:
        env["OPENBLAS_NUM_THREADS"] = value
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    probe = f"import os, viwo; print(*(os.environ[name] for name in {names}))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


def test_predict_blocks_capped_without_frames(mini_dataset, tmp_path, monkeypatch):
    # camera frames end at 5 s: the rest of the log has no frame to end a
    # predict block, so predict's chunk cap bounds every chunk
    from viwo.filter import PREDICT_BLOCK_MAX, AdaptiveEkf
    ds = shutil.copytree(mini_dataset, tmp_path / "short_camera")
    perturb.edit_rows(ds, "bearings.csv", lambda rows: rows[rows[:, 0] <= 5.0])
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


@pytest.mark.parametrize("cut, message", [
    (10, "truncated PGM header"),
    # past the 15-byte header of a 640x480 frame
    (1000, "truncated PGM data: 985 of 307200 pixel bytes"),
], ids=["header", "pixels"])
def test_truncated_frame_exit_data(mini_dataset, tmp_path, cut, message):
    ds = shutil.copytree(mini_dataset, tmp_path / "frames")
    frame = perturb.add_frames(ds, (480, 640), lambda t: t[100:101])["frame"]
    frame.write_bytes(frame.read_bytes()[:cut])
    # in a child process, so that a reader looping on the cut header fails
    # the test by the timeout instead of hanging the suite
    proc = subprocess.run(
        [sys.executable, "-m", "viwo.cli", "run", "--dataset", str(ds),
         "--out", str(tmp_path / "out"), "--mode", "image"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")})
    assert proc.returncode == EXIT_DATA, proc.stderr
    assert "data error" in proc.stderr and "000001.pgm" in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("case, code", [("clean", EXIT_OK), ("bad_frame", EXIT_DATA),
                                        ("numerical", EXIT_NUMERIC)])
def test_image_run_leaves_no_process(mini_dataset, tmp_path, monkeypatch, case, code):
    # the run forks one frame worker and reaps it whether it ends normally,
    # on a frame's data error or on a numerical failure, both raised on the
    # fourth of six frames, with the worker ahead of the filter
    ds = shutil.copytree(mini_dataset, tmp_path / "ds")
    t = perturb.add_frames(ds, (480, 640), lambda t: t[100:400:50])["t"]
    if case == "bad_frame":
        shutil.copyfile(ds / "frames" / "000001.pgm", ds / "frames" / "000002.pgm")
        perturb.truncate(ds, "frames/000002.pgm", 1000)
        names = ["frames/000001.pgm"] * len(t)
        names[3] = "frames/000002.pgm"
        dataio.write_csv(ds / "frames.csv", dataio.FRAMES_HEADER, list(zip(t, names)))
    calls = []
    process_image_frame = AdaptiveEkf.process_image_frame

    def counting(self, *args):
        calls.append(args)
        if case == "numerical" and len(calls) == 4:
            raise FloatingPointError("raised by the test")
        return process_image_frame(self, *args)

    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(AdaptiveEkf, "process_image_frame", counting)
    monkeypatch.setattr(os, "fork", recording_fork)
    assert main(["run", "--dataset", str(ds), "--out", str(tmp_path / "out"),
                 "--mode", "image"]) == code
    assert len(pids) == 1
    assert len(calls) == {"clean": 6, "bad_frame": 3, "numerical": 4}[case]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Input defects, one row each: the perturbations of a copy of mini_dataset,
# the command, its exit code and what it must say: whole report.txt lines
# for exit 0, stderr fragments otherwise (after "config error" for exit 2 or
# "data error" for exit 3, with nothing on stdout).  A perturbation is a
# function that edits the copy (most are in tests/perturb.py) and its
# arguments after the copy; the values it returns, with ds (the copy), out
# (the run's output directory) and clean (the untouched mini_dataset), fill
# the {} fields of the command and the text.
RUN = ["run", "--dataset", "{ds}", "--out", "{out}"]
IMAGE_RUN = [*RUN, "--mode", "image"]
INIT_RUN = [*RUN, "--init-params", "{params}"]
RUN_CONFIG = [*RUN, "--config", "{cfg}"]
SIMULATE = ["simulate", "--out", "{out}"]
SIMULATE_CONFIG = [*SIMULATE, "--config", "{cfg}"]
# the copy's gt.csv, edited, as the estimate of the untouched one
EVAL = ["eval", "--estimate", "{ds}/gt.csv", "--ground-truth", "{clean}/gt.csv"]
CAM_SIZE = f"{DEFAULT_INTRINSICS.width}x{DEFAULT_INTRINSICS.height}"


def defect(name, perturbations, argv, code, *expected):
    return pytest.param(perturbations, argv, code, expected, id=name)


def config(text):
    return [(perturb.write_config, text)]


# a valid value of each key the other command reads
RUN_ONLY_KEYS = {"dataset": "other", "disable_gyro_calibration": "true",
                 "disable_lateral_model": "true", "wheel_imu_only": "true",
                 "init_params": "truth-params.txt", "check_psd": "yes",
                 "noise.sigma_wheel": "5", "noise.sigma_bearing": "0.002"}
SIMULATE_ONLY_KEYS = {"seed": "99", "scenario": "highway", "laps": "2", "rho_sg": "0.9",
                      "zero_noise": "true", "inject_bias_dps": "0.3 0 0",
                      "inject_yaw_scale": "1.5", "inject_misalign_deg": "0.1 0.1"}


INPUT_DEFECTS = [
    # a wheel-IMU-only run reads no camera stream, so it needs none
    defect("no_bearings_wheel_imu_only", [(perturb.drop, "bearings.csv")],
           [*RUN, "--wheel-imu-only"], EXIT_OK, "camera_rows: 0"),
    # a bearings.csv with no data rows is a drive without camera frames
    defect("header_only_bearings", [(perturb.edit_rows, "bearings.csv", lambda r: r[:0])],
           RUN, EXIT_OK, "camera_rows: 0"),
    # camera stamps 4 ms late: the next IMU sample (100 Hz) of every frame is
    # 6 ms away, and the last frame comes after the last IMU sample
    defect("bearings_late", [(perturb.shift_stamps, "bearings.csv", 0.004)],
           RUN, EXIT_OK, "frames_skipped: {stamps}", "camera_rows: 0"),
    # a slot observed twice at one stamp (two track ids in one slot): the
    # later row is used and the earlier one counted
    defect("bearings_repeated_slot",
           [(perturb.edit_rows, "bearings.csv",
             lambda r: np.insert(r, 501, r[500] * [1, 1, 1, -1, 1], axis=0))],
           RUN, EXIT_OK, "slots_ignored: 1"),
    defect("missing_dataset", [(shutil.rmtree,)], RUN, EXIT_DATA),
    # an --init-params yaw scale the gyro error model cannot invert, and values
    # outside the bounds the filter clamps its parameters to
    *[defect(f"init_yaw_scale_{v}", [(perturb.write_init_params, "gyro.yaw_scale", v)],
             INIT_RUN, EXIT_DATA, "{params}", "gyro.yaw_scale") for v in ("0", "-1", "1e-6")],
    defect("init_yaw_scale_3.0", [(perturb.write_init_params, "gyro.yaw_scale", "3.0")],
           INIT_RUN, EXIT_DATA, "{params}", "gyro.yaw_scale", "[0.5, 2]"),
    defect("init_offset_0.2", [(perturb.write_init_params, "gyro.bias", "0.2 0 0")],
           INIT_RUN, EXIT_DATA, "{params}", "gyro.bias", "[-0.1, 0.1]"),
    defect("imu_repeated_stamp",
           [(perturb.edit_rows, "imu.csv", lambda r: np.insert(r, 200, r[200], axis=0))],
           RUN, EXIT_DATA, "data row 202"),
    # ten dropped rows at 100 Hz: a 0.11 s step, longer than MAX_STEP_S
    defect("imu_gap",
           [(perturb.edit_rows, "imu.csv", lambda r: np.delete(r, slice(200, 210), axis=0))],
           RUN, EXIT_DATA, "data row 201", "0.1100"),
    # the filter pairs wheel.csv with imu.csv row by row
    defect("wheel_decimated", [(perturb.edit_rows, "wheel.csv", lambda r: r[::2])],   # 50 Hz
           RUN, EXIT_DATA, "wheel.csv: data row 2 (t="),
    defect("wheel_short", [(perturb.edit_rows, "wheel.csv", lambda r: r[:-1])],
           RUN, EXIT_DATA, "each wheel row takes the stamp of its imu row"),
    # refused with file, row and stamp named, rather than gated silently
    # (wheel) or failing as a numerical error (imu and gt, whose first pose
    # starts the filter)
    *[defect(f"{name[:-4]}_{value}", [(perturb.set_value, name, row, 1, value)], RUN,
             EXIT_DATA, f"{name}: data row {row + 1} (t={{t:.6f}}): {col} is not finite")
      for name, row, col, value in (
          ("imu.csv", 500, "wx", np.nan), ("imu.csv", 500, "wx", np.inf),
          ("wheel.csv", 500, "vx", np.nan), ("wheel.csv", 500, "vx", np.inf),
          ("gt.csv", 0, "px", np.nan))],
    # the filter steps from the first ground-truth pose (or one median IMU
    # step before the first sample) to the first IMU sample
    defect("one_imu_row", [(perturb.edit_rows, "imu.csv", lambda r: r[:1]),
                           (perturb.edit_rows, "wheel.csv", lambda r: r[:1]),
                           (perturb.drop, "gt.csv")],
           RUN, EXIT_DATA, "imu.csv: the filter needs at least two data rows, found 1"),
    defect("gt_late", [(perturb.shift_stamps, "gt.csv", 0.1)],
           RUN, EXIT_DATA, "imu.csv: data row 1 (t=0.010000): -0.0900 s after"),
    defect("gt_early", [(perturb.shift_stamps, "gt.csv", -0.5)],
           RUN, EXIT_DATA, "imu.csv: data row 1 (t=0.010000): 0.5100 s after"),
    defect("gt_header_only", [(perturb.edit_rows, "gt.csv", lambda r: r[:0])],
           RUN, EXIT_DATA, "gt.csv: no data rows"),
    # a quaternion off unit norm is no attitude: refused with its row named,
    # rather than failing as a numerical error (the first pose starts the
    # filter) or scored as if it were a rotation
    defect("gt_quat_zero", [(perturb.set_value, "gt.csv", 0, slice(4, 8), 0.0)],
           RUN, EXIT_DATA, "gt.csv: data row 1 (t={t:.6f}): quaternion norm 0 is not within"),
    defect("eval_quat_scaled",
           [(perturb.edit_rows, "gt.csv",
             lambda r: np.vstack((r[:10], r[10] * [1, 1, 1, 1, 2, 2, 2, 2], r[11:])))],
           EVAL, EXIT_DATA, "{ds}/gt.csv: data row 11 (t=", "quaternion norm 2 is not within"),
    # a non-finite position is refused with its row named, rather than
    # scored into NaN percentiles
    *[defect(f"eval_px_{value}", [(perturb.set_value, "gt.csv", 500, 1, value)], EVAL,
             EXIT_DATA, "{ds}/gt.csv: data row 501 (t={t:.6f}): px is not finite")
      for value in (np.nan, np.inf)],
    # refused with its row named, rather than gated or its slot truncated
    *[defect(f"bearing_{name}", [(perturb.set_value, "bearings.csv", 40, cols, value)],
             RUN, EXIT_DATA, "bearings.csv: data row 41 (t={t:.6f}", message)
      for name, cols, value, message in (
          ("zero", slice(2, 5), 0.0, "direction of zero"),
          ("nan", 3, np.nan, "not finite"),
          ("fractional_slot", 1, 2.7, "slot is not a non-negative integer"),
          ("negative_slot", 1, -1.0, "slot is not a non-negative integer"))],
    defect("eval_no_overlap",   # stamped after the ground truth ends
           [(perturb.shift_stamps, "gt.csv", 1000.0)],
           EVAL, EXIT_DATA, "{ds}/gt.csv", "too few associated samples"),
    defect("eval_repeated_stamp",
           [(perturb.edit_rows, "gt.csv", lambda r: np.insert(r, 10, r[10], axis=0))],
           EVAL, EXIT_DATA, "{ds}/gt.csv", "strictly increasing"),
    # a frame cropped to 320x240 against the 640x480 of calib.txt
    defect("frame_size", [(perturb.add_frames, (240, 320), lambda t: t[100:101])],
           IMAGE_RUN, EXIT_DATA, "000001.pgm", "320x240", CAM_SIZE),
    # refused when the run reaches it, with the file named
    defect("frame_missing", [(perturb.add_frames, (480, 640), lambda t: t[100:101]),
                             (perturb.drop, "frames/000001.pgm")],
           IMAGE_RUN, EXIT_DATA, "000001.pgm"),
    # stamped 4 ms after an IMU sample, so 6 ms before the next: the run
    # skips the frame, and a frame it skips is never read
    defect("frame_truncated_skipped",
           [(perturb.add_frames, (480, 640), lambda t: t[100:101] + 0.004),
            (perturb.truncate, "frames/000001.pgm", 10)],
           IMAGE_RUN, EXIT_OK, "frames_skipped: 1", "camera_rows: 0"),
    # refused with its row named, rather than every later frame skipped
    defect("frame_stamp_nan", [(perturb.add_frames, (480, 640),
                                lambda t: np.r_[t[100:140:10], np.nan, t[150:180:10]])],
           IMAGE_RUN, EXIT_DATA, "frames.csv: data row 5 (t=nan): t is not finite"),
    defect("frame_stamp_repeated", [(perturb.add_frames, (480, 640),
                                     lambda t: np.r_[t[100:140:10], t[130], t[150:180:10]])],
           IMAGE_RUN, EXIT_DATA,
           "frames.csv: data row 5 (t={t[4]:.6f}): step 0.0000 s from the previous row"),
    # refused with the file and key named, in bearing mode too, where the
    # intrinsics are not used and the lever arm moves every feature
    *[defect(f"calib_{name}", [(perturb.set_calib, key, value)],
             RUN, EXIT_DATA, "calib.txt", f"key '{key}'")
      for name, key, value in (
          ("fx_nan", "cam.fx", "nan"), ("width_nan", "cam.width", "nan"),
          ("width_text", "cam.width", "abc"), ("height_fractional", "cam.height", "480.5"),
          ("height_zero", "cam.height", "0"), ("lever_arm_nan", "ext.lever_arm", "nan 0 1.2"))],
    # a radial distortion whose radius folds back before the farthest image
    # corner, which unproject cannot invert there
    defect("calib_distortion_folds", [(perturb.set_calib, "cam.k1", "-0.6")],
           RUN, EXIT_DATA, "calib.txt", "folds inside the image"),
    # a key of the other command, or of neither, is refused rather than
    # dropped; the simulate configs name mini_loop, whose drive is short
    *[defect(f"run_key_{key}", config(f"{key} = {value}"), RUN_CONFIG, EXIT_DATA,
             f"config key '{key}': not a key of a run config file")
      for key, value in SIMULATE_ONLY_KEYS.items()],
    *[defect(f"simulate_key_{key}", config(f"scenario = mini_loop\n{key} = {value}"),
             SIMULATE_CONFIG, EXIT_DATA,
             f"config key '{key}': not a key of a simulate config file")
      for key, value in RUN_ONLY_KEYS.items()],
    defect("config_unknown_key", config("no_such_key = 1"), SIMULATE_CONFIG, EXIT_DATA,
           "config key 'no_such_key': not a key of a simulate config file"),
    # the required flags --out and --dataset always override a file's value,
    # so their keys are refused rather than silently ignored
    *[defect(f"{command}_key_{key}", config(f"{key} = other"), argv, EXIT_DATA,
             f"config key '{key}': not a key of a {command} config file")
      for command, key, argv in (("run", "out_dir", RUN_CONFIG),
                                 ("run", "dataset", RUN_CONFIG),
                                 ("simulate", "out_dir", SIMULATE_CONFIG))],
    # a value of the wrong count, that does not parse or that is not finite,
    # an injected yaw scale the gyro error model cannot invert and a negative
    # seed is a config error naming its key or flag, found before anything
    # is written
    *[defect(f"config_{name}", config(f"scenario = mini_loop\n{line}"),
             [*SIMULATE_CONFIG, *flags], EXIT_CONFIG, key)
      for name, line, flags, key in (
          ("no_value", "seed =", [], "seed"),
          ("misalign_one", "inject_misalign_deg = 1", [], "inject_misalign_deg"),
          ("bias_two", "inject_bias_dps = 0.1 0.2", [], "inject_bias_dps"),
          ("bias_four", "inject_bias_dps = 0.1 0.2 0.3 0.4", [], "inject_bias_dps"),
          ("rho_sg_nan", "rho_sg = nan", [], "rho_sg"),
          ("yaw_scale_inf", "inject_yaw_scale = inf", [], "inject_yaw_scale"),
          ("bias_nan", "inject_bias_dps = 0.1 nan 0.3", [], "inject_bias_dps"),
          ("misalign_inf", "inject_misalign_deg = 0.5 -inf", [], "inject_misalign_deg"),
          ("yaw_scale_flag_inf", "", ["--inject-yaw-scale", "inf"], "inject_yaw_scale"),
          ("bool_typo", "zero_noise = ture", [], "zero_noise"),
          ("int_fraction", "seed = 1.5", [], "seed"),
          ("yaw_scale_zero", "inject_yaw_scale = 0", [], "inject_yaw_scale"),
          ("yaw_scale_flag_negative", "", ["--inject-yaw-scale", "-1"], "inject_yaw_scale"),
          ("yaw_scale_flag_at_minimum", "", ["--inject-yaw-scale", "1e-6"],
           "inject_yaw_scale"),
          ("seed_negative", "seed = -1", [], "seed"),
          ("seed_flag_negative", "", ["--seed", "-3"], "seed"))],
    *[defect(f"config_{name}", config(line), RUN_CONFIG, EXIT_CONFIG, key)
      for name, line, key in (("no_flag_value", "check_psd =", "check_psd"),
                              ("noise_nan", "noise.sigma_wheel = nan", "noise.sigma_wheel"))],
    # settings are validated after the config file and the flags are
    # applied; an invalid mode or slot count is no dead-reckoning run
    defect("config_mode_and_slots", config("measurement_mode = foo\nfeature_slots = 0"),
           RUN_CONFIG, EXIT_CONFIG),
    defect("feature_slots_flag_zero", [], [*RUN, "--feature-slots", "0"], EXIT_CONFIG),
    defect("config_noise_lam_zero", config("noise.lam = 0"), RUN_CONFIG, EXIT_CONFIG),
    # zero laps is an empty drive, and the one-lap scenarios take no laps
    defect("laps_zero", [], [*SIMULATE, "--scenario", "urban_loop", "--laps", "0"],
           EXIT_CONFIG),
    *[defect(f"laps_{scenario}", [],
             [*SIMULATE, "--scenario", scenario, "--laps", "3", "--seed", "3"],
             EXIT_CONFIG, "laps") for scenario in ("highway", "mini_loop")],
    defect("scenario_unknown", config("scenario = nonsense"), SIMULATE_CONFIG, EXIT_CONFIG),
    # bad flags of eval and jacobian-check: config errors, where the
    # failures on eval's files exit 3; an audit of nothing is no pass
    defect("eval_segment_zero", [], [*EVAL, "--segment-m", "0"], EXIT_CONFIG,
           "segment length"),
    defect("eval_segment_inf", [], [*EVAL, "--segment-m", "inf"], EXIT_CONFIG, "--segment-m"),
    *[defect(f"audit_configs_{n}", [], ["jacobian-check", "--configs", n], EXIT_CONFIG,
             "--configs") for n in ("0", "-3")],
]


@pytest.mark.parametrize("perturbations, argv, code, expected", INPUT_DEFECTS)
def test_input_defect(mini_dataset, tmp_path, capsys, perturbations, argv, code, expected):
    ds = shutil.copytree(mini_dataset, tmp_path / "ds")
    out = tmp_path / "out"
    values = {"ds": ds, "out": out, "clean": mini_dataset}
    for fn, *args in perturbations:
        values.update(fn(ds, *args) or {})
    assert main([arg.format(**values) for arg in argv]) == code
    stdout, err = capsys.readouterr()
    expected = [text.format(**values) for text in expected]
    if code == EXIT_OK:
        report = (out / "report.txt").read_text().splitlines()
        assert [line for line in expected if line not in report] == []
    else:
        assert stdout == "", stdout
        assert {EXIT_CONFIG: "config error", EXIT_DATA: "data error"}[code] in err, err
        assert [text for text in expected if text not in err] == [], err
        assert not out.exists()


def test_rounded_gt_quaternions_run_and_eval(mini_dataset, tmp_path, capsys):
    # a gt.csv from another tool that keeps 4 decimals is a rotation to
    # within its rounding, not a defect: run starts from it and eval scores
    # against it
    ds = shutil.copytree(mini_dataset, tmp_path / "ds")
    perturb.edit_rows(ds, "gt.csv",
                      lambda r: np.column_stack([r[:, :4], np.round(r[:, 4:8], 4)]))
    quats = dataio.read_csv(ds / "gt.csv", dataio.POSE_HEADER)[:, 4:8]
    assert np.abs(np.linalg.norm(quats, axis=1) - 1.0).max() > 1e-5
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(ds), "--out", str(out)]) == EXIT_OK
    for estimate, truth in ((out / "trajectory.csv", ds / "gt.csv"),
                            (ds / "gt.csv", mini_dataset / "gt.csv")):
        assert main(["eval", "--estimate", str(estimate),
                     "--ground-truth", str(truth)]) == EXIT_OK
    assert "data error" not in capsys.readouterr().err
