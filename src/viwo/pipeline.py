"""Batch pipeline behind the command-line front-end.

Everything here is also usable in-process (tests drive it without touching a
shell): simulate a dataset directory, run the filter over a dataset in
timestamp order, and evaluate estimate-vs-truth trajectories.
"""

import os
import pickle
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataio, geom, sim
from .dynamics import MAX_STEP_S, MIN_YAW_SCALE, GyroParams, NavState
from .evaluate import TrajectoryRecord, ate_rmse, rpe
from .features import CameraExtrinsics
from .filter import AdaptiveEkf, NoiseConfig, prepare_frame
from .image import PYRAMID_LEVELS, Image, load_pgm, save_pgm
from .sensors import DEFAULT_INTRINSICS, CameraIntrinsics, VehicleVelocityMeasurement


@dataclass
class RunConfig:
    """Settings of simulate and run.  Each command reads the fields its cli
    parser names as flag dests, run also noise, and leaves the others at
    their defaults."""
    dataset: str = ""
    out_dir: str = ""
    scenario: str = "urban_loop"
    laps: int = 1
    seed: int = 0
    measurement_mode: str = "bearing"        # bearing | image
    feature_slots: int = 14
    disable_gyro_calibration: bool = False
    disable_lateral_model: bool = False
    wheel_imu_only: bool = False
    init_params: str = ""                    # path to a gyro-parameter file
    check_psd: bool = False
    zero_noise: bool = False
    rho_sg: float = 0.004
    inject_bias_dps: tuple = (0.0, 0.0, 0.0)  # deg/s
    inject_yaw_scale: float = 1.0
    inject_misalign_deg: tuple = (0.0, 0.0)   # deg, (yx, xy)
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ValueError for an invalid setting; callers that assign
        fields after construction (config file, flags) call it again."""
        if self.measurement_mode not in ("bearing", "image"):
            raise ValueError(f"unknown measurement mode {self.measurement_mode}")
        if self.feature_slots < 1:
            raise ValueError("need at least one feature slot")
        if self.laps < 1:
            raise ValueError("need at least one lap")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("rho_sg", "inject_yaw_scale", "inject_bias_dps", "inject_misalign_deg"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.inject_yaw_scale <= MIN_YAW_SCALE:
            # the filter's error model divides by the yaw scale
            raise ValueError(f"inject_yaw_scale must exceed {MIN_YAW_SCALE}, "
                             f"got {self.inject_yaw_scale}")
        self.noise.validate()

    def injected_params(self) -> GyroParams:
        return GyroParams(np.deg2rad(np.asarray(self.inject_bias_dps, dtype=float)),
                          float(self.inject_yaw_scale),
                          float(np.deg2rad(self.inject_misalign_deg[0])),
                          float(np.deg2rad(self.inject_misalign_deg[1])))


def build_scenario(cfg: RunConfig) -> sim.TrajectorySpec:
    if cfg.scenario == "urban_loop":
        return sim.urban_loop(laps=cfg.laps, rho_sg=cfg.rho_sg)
    if cfg.laps != 1 and cfg.scenario in ("highway", "mini_loop"):
        raise ValueError(f"laps = {cfg.laps}: scenario '{cfg.scenario}' has one lap; "
                         f"only urban_loop takes laps")
    if cfg.scenario == "highway":
        return sim.highway_route(rho_sg=cfg.rho_sg)
    if cfg.scenario == "mini_loop":
        return sim.mini_loop(rho_sg=cfg.rho_sg)
    raise ValueError(f"unknown scenario '{cfg.scenario}'")


# --- simulate -------------------------------------------------------------------

def cmd_simulate(cfg: RunConfig) -> Path:
    """Write a deterministic dataset directory for the configured scenario."""
    spec = build_scenario(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = dataio.DatasetPaths(out)
    _remove_image_stream(paths)
    err = sim.SensorErrorSpec(params=cfg.injected_params(), seed=cfg.seed,
                              zero_noise=cfg.zero_noise)

    truth = sim.generate_trajectory(spec)
    cameras = sim.camera_table(truth)
    world = sim.ensure_coverage(sim.generate_world(truth, seed=cfg.seed), cameras,
                                seed=cfg.seed)
    view = sim.camera_view(world, cameras)

    dataio.write_csv(paths.imu, dataio.IMU_HEADER, sim.synthesize_imu(truth, err).tolist())
    dataio.write_csv(paths.wheel, dataio.WHEEL_HEADER,
                     sim.synthesize_wheel(truth, err).tolist())
    dataio.write_csv(paths.gt, dataio.POSE_HEADER,
                     np.column_stack((truth.t, truth.pos, truth.quat)).tolist())
    dataio.save_calib(paths.calib, DEFAULT_INTRINSICS, sim.CAMERA_EXTRINSICS,
                      spec.rho_sg)
    dataio.save_gyro_params(paths.truth_params, err.params)

    t_obs, slots, bearings = sim.synthesize_bearings(cameras, view, err, cfg.feature_slots)
    dataio.write_csv(paths.bearings, dataio.BEARINGS_HEADER,
                     list(zip(t_obs.tolist(), slots.tolist(),
                              *geom.quats_to_dirs(bearings).T.tolist())))

    if cfg.measurement_mode == "image":
        paths.frames_dir.mkdir(exist_ok=True)
        shots = [(k, t) for k, t in enumerate(cameras.t.tolist()) if t != 0.0]
        # One worker, the frame generator's only user, draws frame i+1's
        # noise into the buffer frame i-1 used, queued before frame i's is
        # awaited, while this thread renders and writes frame i.  Draws are
        # submitted in frame order, so the stream is the serial one.
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 4]))
        buffers = [np.empty((DEFAULT_INTRINSICS.height, DEFAULT_INTRINSICS.width))
                   for _ in range(2)]
        frame_rows = []
        with ThreadPoolExecutor(1) as pool:
            def draw(i):
                if err.zero_noise or i == len(shots):
                    return None
                return pool.submit(sim.draw_image_noise, rng, buffers[i % 2])

            pending = draw(0)
            for i, (k, t) in enumerate(shots):
                queued = draw(i + 1)
                noise = None if pending is None else pending.result()
                pending = queued
                img = sim.render_frame(view.bearings[view.rows(k)], noise)
                name = f"{k:06d}.pgm"
                save_pgm(paths.frames_dir / name, img)
                frame_rows.append([t, f"frames/{name}"])
        dataio.write_csv(paths.frames_csv, dataio.FRAMES_HEADER, frame_rows)
    return out


def _remove_image_stream(paths: dataio.DatasetPaths) -> None:
    """Delete the frames.csv and frames/NNNNNN.pgm files that an earlier
    simulate wrote into this directory, so that a dataset simulated over
    another never pairs its data with the old frames."""
    paths.frames_csv.unlink(missing_ok=True)
    if paths.frames_dir.is_dir():
        for frame in paths.frames_dir.glob("[0-9]" * 6 + ".pgm"):
            frame.unlink()
        if not any(paths.frames_dir.iterdir()):
            paths.frames_dir.rmdir()


# --- run ------------------------------------------------------------------------

@dataclass
class Dataset:
    """In-memory dataset; loaded from a directory or built directly."""
    imu: np.ndarray                      # (n, 7)
    wheel: np.ndarray                    # (n, 2), row k stamped like imu row k
    intr: CameraIntrinsics
    ext: CameraExtrinsics
    rho_sg: float
    bearing_frames: list = field(default_factory=list)   # (t, [(slot, quat)])
    image_frames: list = field(default_factory=list)     # (t, path)
    gt: np.ndarray | None = None         # (n, 8)


def load_dataset(root, mode: str | None = "bearing") -> Dataset:
    """Read a dataset directory; mode None reads no camera stream."""
    paths = dataio.DatasetPaths(root)
    imu = dataio.read_csv(paths.imu, dataio.IMU_HEADER)
    wheel = dataio.read_csv(paths.wheel, dataio.WHEEL_HEADER)
    _check_finite(paths.imu, imu, dataio.IMU_HEADER)
    _check_finite(paths.wheel, wheel, dataio.WHEEL_HEADER)
    if imu.shape[0] < 2:
        raise dataio.DataError(f"{paths.imu}: the filter needs at least two data "
                               f"rows, found {imu.shape[0]}")
    _check_steps(paths.imu, imu[:, 0], MAX_STEP_S)
    # run_filter pairs the wheel and IMU streams row by row
    n = min(imu.shape[0], wheel.shape[0])
    off = np.flatnonzero(wheel[:n, 0] != imu[:n, 0])
    if off.size:
        k = int(off[0])
        raise dataio.DataError(
            f"{paths.wheel}: data row {k + 1} (t={wheel[k, 0]:.6f}): stamp differs "
            f"from {paths.imu} data row {k + 1} (t={imu[k, 0]:.6f})")
    if wheel.shape[0] != imu.shape[0]:
        raise dataio.DataError(
            f"{paths.wheel}: {wheel.shape[0]} data rows, {paths.imu} has "
            f"{imu.shape[0]}; each wheel row takes the stamp of its imu row")
    intr, ext, rho_sg = dataio.load_calib(paths.calib)
    ds = Dataset(imu, wheel, intr, ext, rho_sg)
    if paths.gt.exists():
        ds.gt = dataio.read_csv(paths.gt, dataio.POSE_HEADER)
        _check_finite(paths.gt, ds.gt, dataio.POSE_HEADER)
        _check_unit_quats(paths.gt, ds.gt)
        # the filter starts at the first ground-truth pose and steps to the
        # first IMU sample from there
        if ds.gt.shape[0] == 0:
            raise dataio.DataError(f"{paths.gt}: no data rows")
        lead = imu[0, 0] - ds.gt[0, 0]
        if not 0.0 < lead <= MAX_STEP_S:
            raise dataio.DataError(
                f"{paths.imu}: data row 1 (t={imu[0, 0]:.6f}): {lead:.4f} s after "
                f"{paths.gt} data row 1 (t={ds.gt[0, 0]:.6f}), outside (0, {MAX_STEP_S}]")
    if mode == "bearing":
        ds.bearing_frames = _bearing_frames(
            paths.bearings, dataio.read_csv(paths.bearings, dataio.BEARINGS_HEADER))
    elif mode == "image":
        frames = dataio.read_frames_csv(paths.frames_csv)
        stamps = np.array([t for t, _ in frames]).reshape(-1, 1)
        _check_finite(paths.frames_csv, stamps, "t")
        _check_steps(paths.frames_csv, stamps[:, 0])
        ds.image_frames = [(t, Path(root) / name) for t, name in frames]
    return ds


def _check_finite(path, rows: np.ndarray, header: str) -> None:
    """A DataError naming the first data row that holds a non-finite value."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        k = int(bad[0])
        col = header.split(",")[int(np.flatnonzero(~np.isfinite(rows[k]))[0])]
        raise dataio.DataError(f"{path}: data row {k + 1} (t={rows[k, 0]:.6f}): "
                               f"{col} is not finite")


# Refuses what is no rotation (a zero, doubled or garbled quaternion), not what
# is rounded: pose files from other tools often keep 4 decimals, which moves the
# norm by at most 1e-4 (each of four components at most 5e-5 off), a tenth of
# the bound.  The files viwo writes are within 2.3e-16 of unit norm.
QUAT_NORM_TOL = 1e-3


def _check_unit_quats(path, poses: np.ndarray) -> None:
    """A DataError naming the first data row of a pose file whose quaternion
    is farther than QUAT_NORM_TOL from unit norm (NaN included): its
    rotation matrix would not be a rotation."""
    quats = poses[:, 4:8]
    norm = np.sqrt((quats * quats).sum(axis=1))
    bad = np.flatnonzero(~(np.abs(norm - 1.0) <= QUAT_NORM_TOL))
    if bad.size:
        k = int(bad[0])
        raise dataio.DataError(f"{path}: data row {k + 1} (t={poses[k, 0]:.6f}): quaternion "
                               f"norm {norm[k]:.9g} is not within {QUAT_NORM_TOL:g} of 1")


def _check_steps(path, t: np.ndarray, max_step: float = np.inf) -> None:
    """A DataError naming the first data row whose stamp does not follow
    the previous one by a step in (0, max_step]."""
    steps = np.diff(t)
    bad = np.flatnonzero(~((steps > 0.0) & (steps <= max_step)))
    if bad.size:
        k = int(bad[0]) + 1
        raise dataio.DataError(
            f"{path}: data row {k + 1} (t={t[k]:.6f}): step {steps[k - 1]:.4f} s "
            f"from the previous row outside (0, {max_step}]")


def _bearing_frames(path, rows: np.ndarray) -> list:
    """bearings.csv rows -> one (t, [(slot, bearing quaternion)]) per stamp,
    in stamp order and in file order within a stamp.  A row with a
    non-finite value, a direction of zero (or overflowing) length, or a slot
    that is not a non-negative integer is a DataError naming its data row;
    slots at or above the filter's capacity are counted by the filter."""
    if rows.shape[0] == 0:
        return []
    _check_finite(path, rows, dataio.BEARINGS_HEADER)
    slot = rows[:, 1]
    norm2 = (rows[:, 2:5] * rows[:, 2:5]).sum(axis=1)
    checks = (((norm2 > 0.0) & (norm2 < np.inf), "direction of zero or overflowing length"),
              ((slot >= 0.0) & (slot == np.floor(slot)), "slot is not a non-negative integer"))
    bad = np.flatnonzero(~np.logical_and.reduce([ok for ok, _ in checks]))
    if bad.size:
        k = int(bad[0])
        reason = next(why for ok, why in checks if not ok[k])
        raise dataio.DataError(f"{path}: data row {k + 1} (t={rows[k, 0]:.6f}, "
                               f"slot={slot[k]:g}): {reason}")
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    quats = geom.bearing_from_dir_rows(rows[:, 2:5])
    slots = list(map(int, rows[:, 1].tolist()))
    t = rows[:, 0]
    starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]]).tolist()
    ends = starts[1:] + [len(t)]
    return [(t[a], list(zip(slots[a:b], quats[a:b]))) for a, b in zip(starts, ends)]


def _read_frame(path, intr: CameraIntrinsics) -> Image:
    """The PGM frame at path, checked against calib.txt's image size."""
    try:
        img = load_pgm(path)
    except ValueError as exc:
        raise dataio.DataError(f"{path}: {exc}") from None
    if (img.width, img.height) != (intr.width, intr.height):
        raise dataio.DataError(
            f"{path}: frame is {img.width}x{img.height} px, calib.txt "
            f"cam.width x cam.height is {intr.width}x{intr.height}")
    return img


FRAME_SLOTS = 3   # ring slots: the frame the filter reads and two prepared ahead


class FrameRing:
    """FRAME_SLOTS slots, each the pixels of one frame's PYRAMID_LEVELS
    levels, in one anonymous shared mapping: made before a fork, it is the
    same memory in both processes."""

    def __init__(self, width: int, height: int):
        import mmap   # here, so that importing viwo.pipeline does not load it
        # each level halves the one before, rounding down (Image.downsample)
        shapes = [(height >> level, width >> level) for level in range(PYRAMID_LEVELS)]
        bounds = np.cumsum([0] + [h * w for h, w in shapes]).tolist()
        self.pixels = np.frombuffer(mmap.mmap(-1, FRAME_SLOTS * bounds[-1] * 8), dtype=float)
        self.levels = [[row[a:b].reshape(shape) for a, b, shape in
                        zip(bounds, bounds[1:], shapes)]
                       for row in self.pixels.reshape(FRAME_SLOTS, -1)]

    def store(self, slot: int, pyramid: list[Image]) -> None:
        """Copy a pyramid's pixels into a slot."""
        for slot_level, level in zip(self.levels[slot], pyramid):
            slot_level[...] = level.data

    def pyramid(self, slot: int) -> list[Image]:
        """The levels of a slot as a pyramid that shares the ring's memory."""
        return [Image(level) for level in self.levels[slot]]


class FrameWorker:
    """A forked process that reads, checks and prepares (prepare_frame) the
    frames at paths in order, each into the next slot of a FrameRing.

    Per frame it sends the detections, or the exception the frame raised
    (after which it stops), over a pipe; next raises that exception when
    the run reaches the frame.  Before it fills a slot again it waits for
    the run to release it, so it is at most FRAME_SLOTS - 1 frames ahead.
    At EOF on that wait, the parent being gone, it exits.  close kills and
    reaps it.  The slots are copied from the same arrays the filter would
    compute itself, so a run's outputs do not depend on the worker.  The
    worker runs file reads and numpy's elementwise passes, no BLAS call, so
    BLAS's own threads in the parent do not make the fork unsafe.
    """

    def __init__(self, paths: list, intr: CameraIntrinsics):
        self.ring = FrameRing(intr.width, intr.height)
        self._count = len(paths)
        self._next = 0
        results_r, results_w = os.pipe()
        release_r, self._release = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (results_r, results_w, release_r, self._release):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(results_r)
                os.close(self._release)
                self._prepare(paths, intr, os.fdopen(results_w, "wb"), release_r)
                code = 0
            finally:
                os._exit(code)
        os.close(results_w)
        os.close(release_r)
        self._results = os.fdopen(results_r, "rb")

    def _prepare(self, paths: list, intr: CameraIntrinsics, out, release: int) -> None:
        """The worker's loop."""
        for i, path in enumerate(paths):
            if i >= FRAME_SLOTS and not os.read(release, 1):
                return
            try:
                pyramid, detections = prepare_frame(_read_frame(path, intr))
                self.ring.store(i % FRAME_SLOTS, pyramid)
            except Exception as exc:
                pickle.dump(exc, out)
                out.flush()
                return
            pickle.dump(detections, out)
            out.flush()

    def next(self) -> tuple[list[Image], np.ndarray]:
        """The next frame's pyramid, backed by its slot, and detections; or
        the exception the worker sent for the frame, raised."""
        try:
            got = pickle.load(self._results)
        except EOFError:
            raise RuntimeError(f"the frame worker exited before frame {self._next + 1} "
                               f"of {self._count}") from None
        if isinstance(got, BaseException):
            raise got
        pyramid = self.ring.pyramid(self._next % FRAME_SLOTS)
        self._next += 1
        return pyramid, got

    def release(self) -> None:
        """Hand the slot of the frame next returned last back to the worker,
        if a frame is still to go in it."""
        if self._next - 1 + FRAME_SLOTS < self._count:
            os.write(self._release, b"\0")

    def close(self) -> None:
        """Kill and reap the worker, and close the pipes."""
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self._results.close()
        os.close(self._release)


@dataclass
class RunResult:
    t: np.ndarray
    pos: np.ndarray
    quat: np.ndarray
    params_t: np.ndarray
    params: np.ndarray            # (m, 6)
    params_var: np.ndarray        # (m, 6) diagonal of S
    counters: dict
    min_eig_p: float
    min_eig_s: float
    elapsed_s: float


def run_filter(ds: Dataset, cfg: RunConfig) -> RunResult:
    """Drive the filter through the dataset in timestamp order."""
    start = time.perf_counter()
    init_params = GyroParams()
    if cfg.init_params:
        init_params = dataio.load_gyro_params(cfg.init_params)

    ekf = AdaptiveEkf(
        noise=cfg.noise,
        ext=ds.ext,
        intr=ds.intr,
        capacity=0 if cfg.wheel_imu_only else cfg.feature_slots,
        rho_sg=ds.rho_sg,
        calibrate=not cfg.disable_gyro_calibration,
        use_lateral=not cfg.disable_lateral_model,
        params=init_params,
        check_psd=cfg.check_psd,
    )

    t0 = ds.imu[0, 0] - np.median(np.diff(ds.imu[:, 0])) if ds.gt is None else ds.gt[0, 0]
    nav0 = NavState.identity()
    if ds.gt is not None:
        nav0.pos = ds.gt[0, 1:4].copy()
        nav0.quat = geom.quat_normalize(ds.gt[0, 4:8].copy())
    nav0.vel = np.array([ds.wheel[0, 1], 0.0, 0.0])
    ekf.initialize(t0, nav0)

    # (time, payload) per frame; a wheel-IMU-only run updates with vehicle
    # rows alone at 10 Hz
    image = not cfg.wheel_imu_only and cfg.measurement_mode == "image"
    if cfg.wheel_imu_only:
        stride = max(1, int(round(0.1 / max(np.median(np.diff(ds.imu[:, 0])), 1e-3))))
        frames = [(ds.imu[k, 0], []) for k in range(stride - 1, ds.imu.shape[0], stride)]
    elif image:
        frames = ds.image_frames
    else:
        frames = ds.bearing_frames

    # a frame fires after the predict up to the first IMU sample stamped
    # t >= t_frame - 1e-9 (or the last one).  The frame is used when that
    # sample is at most 5 ms from it; one stamped after the last sample is
    # never reached.  The schedule is (frame index, fire index) per used frame.
    stamps = np.array([f[0] for f in frames], dtype=float)
    fire = np.searchsorted(ds.imu[:-1, 0] + 1e-9, stamps, side="left")
    at = ds.imu[fire, 0]
    used = np.flatnonzero((stamps <= at + 1e-9) & (np.abs(stamps - at) <= 5e-3))
    schedule = zip(used.tolist(), fire[used].tolist())

    traj_rows = []
    param_rows = []

    def log_state(t):
        traj_rows.append((t, ekf.nav.pos.copy(), ekf.nav.quat.copy()))
        vec = ekf.params.as_vector()
        param_rows.append((t, vec, np.diag(ekf.param_cov).copy()))

    log_state(t0)
    k = 0
    # the worker reads and prepares the frames the run uses, in order, ahead
    # of the filter
    worker = FrameWorker([frames[i][1] for i in used], ds.intr) if image else None
    try:
        for i, end in schedule:
            ekf.predict(ds.imu[k:end + 1])
            for t, v_x in ds.wheel[k:end + 1].tolist():
                ekf.note_wheel(t, v_x)
            k = end + 1
            ft, payload = frames[i]
            veh = VehicleVelocityMeasurement(float(ds.wheel[end, 1]), float(ds.imu[end, 5]))
            if worker is None:
                ekf.process_bearing_frame(ft, payload, veh)
            else:
                pyramid, detections = worker.next()
                ekf.process_image_frame(ft, pyramid, detections, veh)
                worker.release()
            log_state(ft)
    finally:
        if worker is not None:
            worker.close()
    ekf.predict(ds.imu[k:])
    if traj_rows[-1][0] < ds.imu[-1, 0]:
        log_state(ds.imu[-1, 0])

    return RunResult(
        np.array([r[0] for r in traj_rows]),
        np.array([r[1] for r in traj_rows]),
        np.array([r[2] for r in traj_rows]),
        np.array([r[0] for r in param_rows]),
        np.array([r[1] for r in param_rows]),
        np.array([r[2] for r in param_rows]),
        {**ekf.counters, "frames_skipped": len(frames) - len(used)},
        ekf.min_eig_p, ekf.min_eig_s,
        time.perf_counter() - start)


def cmd_run(cfg: RunConfig) -> Path:
    ds = load_dataset(cfg.dataset,
                      None if cfg.wheel_imu_only else cfg.measurement_mode)
    result = run_filter(ds, cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dataio.write_csv(out / "trajectory.csv", dataio.POSE_HEADER,
                     np.column_stack((result.t, result.pos, result.quat)).tolist())
    dataio.write_csv(out / "params.csv", dataio.PARAMS_HEADER, np.column_stack(
        (result.params_t, result.params, result.params_var)).tolist())
    dataio.save_gyro_params(out / "final-params.txt",
                            GyroParams.from_vector(result.params[-1]))

    lines = ["run report", "=========="]
    lines.append(f"dataset: {cfg.dataset}")
    lines.append(f"mode: {cfg.measurement_mode}"
                 + (" (wheel-imu-only)" if cfg.wheel_imu_only else ""))
    lines.append(f"calibration: {'off' if cfg.disable_gyro_calibration else 'on'}"
                 f", lateral model: {'off' if cfg.disable_lateral_model else 'on'}")
    for key, val in sorted(result.counters.items()):
        lines.append(f"{key}: {val}")
    if cfg.check_psd:
        lines.append(f"min_eig_P: {result.min_eig_p:.3e}")
        lines.append(f"min_eig_S: {result.min_eig_s:.3e}")
    vec = result.params[-1]
    lines.append("final params: bias_dps = "
                 + " ".join(f"{np.rad2deg(b):.4f}" for b in vec[0:3])
                 + f", yaw_scale = {vec[3]:.6f}"
                 + f", misalign_deg = {np.rad2deg(vec[4]):.4f} {np.rad2deg(vec[5]):.4f}")
    lines.append(f"elapsed_s: {result.elapsed_s:.2f}")
    dataio.atomic_write_text(out / "report.txt", "\n".join(lines) + "\n")
    return out


# --- eval -----------------------------------------------------------------------

def load_pose_csv(path) -> TrajectoryRecord:
    arr = dataio.read_csv(path, dataio.POSE_HEADER)
    if arr.shape[0] == 0:
        raise dataio.DataError(f"{path}: empty trajectory")
    _check_finite(path, arr, dataio.POSE_HEADER)
    _check_unit_quats(path, arr)
    try:
        return TrajectoryRecord(arr[:, 0], arr[:, 1:4], arr[:, 4:8])
    except ValueError as exc:
        raise dataio.DataError(f"{path}: {exc}") from None


def cmd_eval(est_path, gt_path, segment_m: float = 100.0) -> str:
    if not 0.0 < segment_m < np.inf:
        raise ValueError(f"--segment-m {segment_m}: segment length must be positive and finite")
    est = load_pose_csv(est_path)
    gt = load_pose_csv(gt_path)
    try:
        report = rpe(est, gt, segment_m)
        rmse = ate_rmse(est, gt)
    except ValueError as exc:
        raise dataio.DataError(f"{est_path} against {gt_path}: {exc}") from None
    text = [
        f"relative pose error over {segment_m:.0f} m segments"
        " (percentiles over segments)",
        f"  63rd percentile: {report.percentile_63:.4f} %",
        f"  95th percentile: {report.percentile_95:.4f} %",
        f"  maximum:         {report.maximum:.4f} %",
        f"  segments:        {report.segment_count}",
        f"absolute trajectory RMSE after rigid alignment: {rmse:.4f} m",
        "",
        f"rpe.p63 = {report.percentile_63:.6f}",
        f"rpe.p95 = {report.percentile_95:.6f}",
        f"rpe.max = {report.maximum:.6f}",
        f"rpe.segments = {report.segment_count}",
        f"ate.rmse = {rmse:.6f}",
    ]
    return "\n".join(text)
