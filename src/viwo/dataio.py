"""Dataset-directory I/O: CSV streams, calibration and parameter files.

A dataset directory holds comma-separated files with exact headers (SI
units, timestamps in decimal seconds):

    imu.csv       t,wx,wy,wz,ax,ay,az
    wheel.csv     t,vx
    bearings.csv  t,slot,bx,by,bz            (direct-bearing camera mode)
    frames.csv    t,filename                 (image mode, PGM frames/)
    gt.csv        t,px,py,pz,qw,qx,qy,qz     (optional ground truth)
    calib.txt     key = value calibration (camera, extrinsics, side-slip)
    truth-params.txt  injected gyroscope parameters (simulated sets only)

Recorded logs from other sources run once they are written in this layout;
the README's "Recorded logs" section gives the field mapping.  All writes go
through a temp-file-and-rename so partially written datasets are never
observed; a failed write removes its temp file.
"""

import io
import os
from pathlib import Path

import numpy as np

from .dynamics import PARAM_LOWER, PARAM_UPPER, GyroParams
from .features import CameraExtrinsics
from .sensors import CameraIntrinsics
from . import geom

IMU_HEADER = "t,wx,wy,wz,ax,ay,az"
WHEEL_HEADER = "t,vx"
BEARINGS_HEADER = "t,slot,bx,by,bz"
FRAMES_HEADER = "t,filename"
POSE_HEADER = "t,px,py,pz,qw,qx,qy,qz"
PARAMS_HEADER = "t,b_x,b_y,b_z,s_z,s_yx,s_xy,S_bx,S_by,S_bz,S_sz,S_syx,S_sxy"


class DataError(ValueError):
    """Malformed dataset content (maps to exit code 3 in the cli)."""


def atomic_write_text(path, text: str) -> None:
    """Write text to <name>.tmp and rename it to path; on failure remove the
    temp file and re-raise."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header: str, rows) -> None:
    """The header line, then one line per row of a sequence of rows (a list
    of lists is the fastest).  Each column is written with the %-format of
    its value in the first row (see _format_of), so every row must hold the
    first row's kinds of value."""
    lines = [header]
    if len(rows):
        line = ",".join(_format_of(x) for x in rows[0])
        lines.extend(line % tuple(row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def _format_of(x) -> str:
    """The %-format of one written value: a str as itself, an integer in
    decimal, anything else as a float with 17 significant digits, which
    reads back to the same bits ("%.17g" % x is format(x, ".17g"))."""
    if isinstance(x, str):
        return "%s"
    if isinstance(x, (int, np.integer)):
        return "%d"
    return "%.17g"


def _csv_body(path, header: str) -> tuple[Path, str]:
    """The path and the text after its first line, which must be header."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise DataError(f"{path}: expected header '{header}', got '{first}'")
        return path, fh.read()


def read_csv(path, header: str) -> np.ndarray:
    """Numeric CSV with an exact expected header; malformed rows abort with
    their line number."""
    path, body = _csv_body(path, header)
    width = len(header.split(","))
    if not body.strip():
        return np.zeros((0, width))   # loadtxt would warn and give (0, 1)
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
        if rows.shape[1] == width:
            return rows
    except ValueError:
        pass
    # the line-by-line parse names the line of a malformed row, and accepts
    # what loadtxt does not but float() does, such as whitespace-only lines
    rows = _csv_lines(path, body, width, lambda parts: [float(p) for p in parts])
    return np.array(rows) if rows else np.zeros((0, width))


def _csv_lines(path: Path, body: str, width: int, convert) -> list:
    """convert(fields) of each non-blank line of a CSV body; a line of
    another field count, or one convert refuses, is a DataError naming it."""
    rows = []
    for lineno, line in enumerate(body.split("\n"), start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise DataError(f"{path}:{lineno}: expected {width} fields, "
                            f"got {len(parts)}")
        try:
            rows.append(convert(parts))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return rows


def read_frames_csv(path) -> list[tuple[float, str]]:
    path, body = _csv_body(path, FRAMES_HEADER)
    return _csv_lines(path, body, 2, lambda parts: (float(parts[0]), parts[1]))


# --- hierarchical key-value text ----------------------------------------------

def parse_kv(text: str) -> dict[str, list[str]]:
    """'section.key = v1 v2 ...' lines; '#' starts a comment."""
    out: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.split()
    return out


def load_kv(path) -> dict[str, list[str]]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file: {path}")
    try:
        return parse_kv(path.read_text())
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def format_kv(entries: dict) -> str:
    lines = []
    for key, value in entries.items():
        if isinstance(value, (list, tuple, np.ndarray)):
            lines.append(f"{key} = " + " ".join(_format_of(v) % v for v in value))
        else:
            lines.append(f"{key} = " + _format_of(value) % value)
    return "\n".join(lines) + "\n"


def kv_floats(kv: dict, key: str, count: int | None = None) -> np.ndarray:
    """The values of key; a DataError for a missing key, a value that is not
    a finite number or a count other than the one given."""
    if key not in kv:
        raise DataError(f"missing key '{key}'")
    try:
        vals = np.array([float(v) for v in kv[key]])
    except ValueError:
        vals = np.array([np.nan])
    if not np.isfinite(vals).all():
        raise DataError(f"key '{key}': expected finite numbers, got '{' '.join(kv[key])}'")
    if count is not None and len(vals) != count:
        raise DataError(f"key '{key}': expected {count} values, got {len(vals)}")
    return vals


def _kv_size(kv: dict, key: str) -> int:
    """The one value of key as a positive integer (an image dimension)."""
    val = kv_floats(kv, key, 1)[0]
    if not (val >= 1.0 and val == np.floor(val)):
        raise DataError(f"key '{key}': {kv[key][0]} is not a positive integer")
    return int(val)


# --- calibration and parameter files -------------------------------------------

def save_calib(path, intr: CameraIntrinsics, ext: CameraExtrinsics,
               rho_sg: float) -> None:
    rotvec = geom.so3_log(geom.rot_to_quat(ext.r_cb))
    atomic_write_text(path, format_kv({
        "cam.fx": intr.fx, "cam.fy": intr.fy,
        "cam.cx": intr.cx, "cam.cy": intr.cy,
        "cam.k1": intr.k1, "cam.k2": intr.k2,
        "cam.width": intr.width, "cam.height": intr.height,
        "ext.rotvec_cb": rotvec,
        "ext.lever_arm": ext.lever_arm,
        "vehicle.rho_sg": rho_sg,
    }))


def load_calib(path):
    """(intrinsics, extrinsics, rho_sg); a bad key or value, or intrinsics
    that CameraIntrinsics refuses, is a DataError naming the file."""
    kv = load_kv(path)
    try:
        intr = CameraIntrinsics(
            fx=float(kv_floats(kv, "cam.fx", 1)[0]),
            fy=float(kv_floats(kv, "cam.fy", 1)[0]),
            cx=float(kv_floats(kv, "cam.cx", 1)[0]),
            cy=float(kv_floats(kv, "cam.cy", 1)[0]),
            k1=float(kv_floats(kv, "cam.k1", 1)[0]),
            k2=float(kv_floats(kv, "cam.k2", 1)[0]),
            width=_kv_size(kv, "cam.width"),
            height=_kv_size(kv, "cam.height"))
        ext = CameraExtrinsics(
            geom.quats_to_frames(geom.so3_exp(kv_floats(kv, "ext.rotvec_cb", 3))),
            kv_floats(kv, "ext.lever_arm", 3))
        rho_sg = float(kv_floats(kv, "vehicle.rho_sg", 1)[0])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    return intr, ext, rho_sg


def save_gyro_params(path, params: GyroParams) -> None:
    atomic_write_text(path, format_kv({
        "gyro.bias": params.bias,
        "gyro.yaw_scale": params.yaw_scale,
        "gyro.misalign_yx": params.misalign_yx,
        "gyro.misalign_xy": params.misalign_xy,
    }))


def load_gyro_params(path) -> GyroParams:
    """The parameters of a gyro-parameter file; a bad key or value, or a
    value outside the filter's parameter bounds, is a DataError naming the
    file."""
    kv = load_kv(path)
    try:
        params = GyroParams(kv_floats(kv, "gyro.bias", 3),
                            float(kv_floats(kv, "gyro.yaw_scale", 1)[0]),
                            float(kv_floats(kv, "gyro.misalign_yx", 1)[0]),
                            float(kv_floats(kv, "gyro.misalign_xy", 1)[0]))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    keys = ["gyro.bias"] * 3 + ["gyro.yaw_scale", "gyro.misalign_yx", "gyro.misalign_xy"]
    for key, value, lo, hi in zip(keys, params.as_vector(), PARAM_LOWER, PARAM_UPPER):
        if not lo <= value <= hi:
            raise DataError(f"{path}: key '{key}': {value} is outside the filter's "
                            f"parameter bounds [{lo:g}, {hi:g}]")
    return params


class DatasetPaths:
    """The files of a dataset directory."""

    def __init__(self, root):
        self.root = Path(root)
        self.imu = self.root / "imu.csv"
        self.wheel = self.root / "wheel.csv"
        self.bearings = self.root / "bearings.csv"
        self.frames_csv = self.root / "frames.csv"
        self.frames_dir = self.root / "frames"
        self.gt = self.root / "gt.csv"
        self.calib = self.root / "calib.txt"
        self.truth_params = self.root / "truth-params.txt"

