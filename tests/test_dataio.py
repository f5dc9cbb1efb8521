import warnings

import numpy as np
import pytest

from viwo import dataio, geom
from viwo.dynamics import GyroParams
from viwo.features import CameraExtrinsics
from viwo.sensors import CameraIntrinsics


def test_csv_round_trip(tmp_path, rng):
    rows = rng.normal(size=(40, 7))
    path = tmp_path / "imu.csv"
    dataio.write_csv(path, dataio.IMU_HEADER, rows)
    back = dataio.read_csv(path, dataio.IMU_HEADER)
    assert np.array_equal(back, rows)   # 17 significant digits round-trip



def _fmt(x) -> str:
    """How write_csv wrote one value before it took one format per column."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def reference_csv_text(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
               1.0000000000000002, 2.0 ** 53 + 1.0, 2.0 ** 53 + 2.0, 1e300, 0.1, 1e16,
               123456789.0, np.float64(-0.0), np.float64(5e-324), np.float64(0.1),
               np.float64(2.0 ** 53 + 2.0)]


def test_csv_text_matches_the_per_value_format(tmp_path, rng):
    # float, np.float64, int, np.int64 and str columns, edge values included
    floats = EDGE_FLOATS + rng.normal(0.0, 1e3, 40).tolist() + list(rng.normal(size=20))
    ints = [0, -1, 7, 2 ** 62, np.int64(-5), np.int64(2 ** 63 - 1)]
    rows = [[floats[k], ints[k % len(ints)], np.int64(k), f"frames/{k:06d}.pgm",
             floats[-1 - k]] for k in range(len(floats))]
    header = "a,b,c,d,e"
    path = tmp_path / "mixed.csv"
    dataio.write_csv(path, header, rows)
    assert path.read_text() == reference_csv_text(header, rows)
    # a 2-D array and its list of lists: np.float64 and float values
    table = np.array([[f, -f] for f in EDGE_FLOATS], dtype=float)
    for form in (table, table.tolist()):
        dataio.write_csv(path, "x,y", form)
        assert path.read_text() == reference_csv_text("x,y", table)


@pytest.mark.parametrize("rows", [[], np.zeros((0, 7))], ids=["list", "array"])
def test_csv_with_no_rows_is_the_header_alone(tmp_path, rows):
    path = tmp_path / "imu.csv"
    dataio.write_csv(path, dataio.IMU_HEADER, rows)
    assert path.read_text() == dataio.IMU_HEADER + "\n"

def test_csv_failed_write_leaves_no_file(tmp_path, monkeypatch):
    def write_then_fail(self, text):
        with open(self, "w") as fh:
            fh.write(text[:10])
        raise OSError("no space left on device")

    monkeypatch.setattr(dataio.Path, "write_text", write_then_fail)
    path = tmp_path / "wheel.csv"
    with pytest.raises(OSError):
        dataio.write_csv(path, dataio.WHEEL_HEADER, [[0.0, 1.0], [0.1, 1.5]])
    assert list(tmp_path.iterdir()) == [], "a partial file or the temp file is left behind"


def test_csv_wrong_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(dataio.DataError):
        dataio.read_csv(path, dataio.IMU_HEADER)


def test_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "wheel.csv"
    path.write_text("t,vx\n0.0,1.0\n0.1,oops\n")
    with pytest.raises(dataio.DataError) as err:
        dataio.read_csv(path, dataio.WHEEL_HEADER)
    assert ":3:" in str(err.value)
    path.write_text("t,vx\n0.0,1.0\n0.1\n")
    with pytest.raises(dataio.DataError) as err:
        dataio.read_csv(path, dataio.WHEEL_HEADER)
    assert ":3:" in str(err.value)


def test_csv_comment_line_is_a_malformed_row(tmp_path):
    path = tmp_path / "wheel.csv"
    path.write_text("t,vx\n0.0,1.0\n# a note\n0.1,1.0\n")
    with pytest.raises(dataio.DataError, match=":3: expected 2 fields, got 1"):
        dataio.read_csv(path, dataio.WHEEL_HEADER)


@pytest.mark.parametrize("body", ["", "\n", "\n  \n\r\n"], ids=["none", "blank", "spaces"])
def test_csv_header_only_is_empty(tmp_path, body):
    path = tmp_path / "bearings.csv"
    path.write_text(dataio.BEARINGS_HEADER + "\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = dataio.read_csv(path, dataio.BEARINGS_HEADER)
    assert rows.shape == (0, 5)


def test_csv_layout_variants_parse_alike(tmp_path):
    # blank and whitespace-only lines, CRLF ends and padded fields
    path = tmp_path / "wheel.csv"
    path.write_bytes(b"t,vx\r\n0.0, 1.5\r\n\r\n  \n 0.1 ,\t2.5\n0.2,3.5")
    rows = dataio.read_csv(path, dataio.WHEEL_HEADER)
    assert np.array_equal(rows, [[0.0, 1.5], [0.1, 2.5], [0.2, 3.5]])


def test_missing_file():
    with pytest.raises(dataio.DataError):
        dataio.read_csv("/nonexistent/imu.csv", dataio.IMU_HEADER)


def test_kv_parse_and_errors():
    kv = dataio.parse_kv("a.b = 1 2 3\n# comment\nc = hello\n\n")
    assert kv["a.b"] == ["1", "2", "3"]
    assert kv["c"] == ["hello"]
    with pytest.raises(dataio.DataError):
        dataio.parse_kv("not a key value line\n")
    with pytest.raises(dataio.DataError):
        dataio.kv_floats(kv, "missing")
    with pytest.raises(dataio.DataError):
        dataio.kv_floats(kv, "a.b", 2)


def test_calib_round_trip(tmp_path):
    intr = CameraIntrinsics(501.0, 499.0, 321.5, 239.5, -0.21, 0.035, 640, 480)
    ext = CameraExtrinsics(geom.quats_to_frames(geom.so3_exp(np.array([0.02, -0.3, 0.1]))),
                           np.array([1.8, 0.05, 1.2]))
    path = tmp_path / "calib.txt"
    dataio.save_calib(path, intr, ext, 0.0031)
    intr2, ext2, rho = dataio.load_calib(path)
    assert intr2 == intr
    assert np.allclose(ext2.r_cb, ext.r_cb, atol=1e-12)
    assert np.allclose(ext2.lever_arm, ext.lever_arm)
    assert rho == 0.0031


def test_gyro_params_round_trip(tmp_path):
    p = GyroParams(np.array([0.01, -0.02, 0.003]), 1.013, 0.0087, -0.0042)
    path = tmp_path / "params.txt"
    dataio.save_gyro_params(path, p)
    q = dataio.load_gyro_params(path)
    assert np.array_equal(q.bias, p.bias)
    assert q.yaw_scale == p.yaw_scale
    assert q.misalign_yx == p.misalign_yx
    assert q.misalign_xy == p.misalign_xy


def test_atomic_write_replaces(tmp_path):
    path = tmp_path / "f.txt"
    dataio.atomic_write_text(path, "one\n")
    dataio.atomic_write_text(path, "two\n")
    assert path.read_text() == "two\n"
    assert not (tmp_path / "f.txt.tmp").exists()


def test_frames_csv(tmp_path):
    path = tmp_path / "frames.csv"
    dataio.write_csv(path, dataio.FRAMES_HEADER,
                     [[0.1, "frames/000001.pgm"], [0.2, "frames/000002.pgm"]])
    rows = dataio.read_frames_csv(path)
    assert rows == [(0.1, "frames/000001.pgm"), (0.2, "frames/000002.pgm")]
