"""Input defects made by hand: each function edits one file of a dataset
copy in place and returns, as a dict, the values an error message or a
report line about the edit names."""

import shutil

import numpy as np

from viwo import dataio
from viwo.image import Image, save_pgm

HEADERS = {"imu.csv": dataio.IMU_HEADER, "wheel.csv": dataio.WHEEL_HEADER,
           "bearings.csv": dataio.BEARINGS_HEADER, "gt.csv": dataio.POSE_HEADER}


def edit_rows(ds, name, edit):
    """Replaces the data rows of the CSV name with edit(rows); returns the
    number of distinct stamps left."""
    rows = edit(dataio.read_csv(ds / name, HEADERS[name]))
    dataio.write_csv(ds / name, HEADERS[name], rows.tolist())
    return {"stamps": len(np.unique(rows[:, 0]))}


def shift_stamps(ds, name, dt):
    """Moves every stamp of the CSV name by dt seconds."""
    return edit_rows(ds, name, lambda rows: np.column_stack([rows[:, 0] + dt, rows[:, 1:]]))


def set_value(ds, name, row, cols, value):
    """Sets the cols of data row index row of the CSV name to value; returns
    that row's stamp."""
    rows = dataio.read_csv(ds / name, HEADERS[name])
    rows[row, cols] = value
    dataio.write_csv(ds / name, HEADERS[name], rows.tolist())
    return {"t": rows[row, 0]}


def drop(ds, name):
    """Deletes the file name."""
    (ds / name).unlink()
    return {}


def truncate(ds, name, size):
    """Cuts the file name to its first size bytes."""
    path = ds / name
    path.write_bytes(path.read_bytes()[:size])
    return {}


def _set_key(path, key, value):
    kv = dataio.load_kv(path)
    kv[key] = value.split()
    path.write_text("".join(f"{k} = {' '.join(v)}\n" for k, v in kv.items()))
    assert dataio.load_kv(path)[key] == value.split()


def set_calib(ds, key, value):
    """Sets key of calib.txt to value, a string of space-separated values."""
    _set_key(ds / "calib.txt", key, value)
    return {}


def write_config(ds, text):
    """Writes cfg.txt, the lines of text, for --config; returns its path."""
    path = ds / "cfg.txt"
    path.write_text(text + "\n")
    return {"cfg": path}


def write_init_params(ds, key, value):
    """Writes init-params.txt, truth-params.txt with key set to value, for
    --init-params; returns its path."""
    path = ds / "init-params.txt"
    shutil.copyfile(ds / "truth-params.txt", path)
    _set_key(path, key, value)
    return {"params": path}


def add_frames(ds, shape, pick):
    """Writes frames/000001.pgm, a flat frame of shape (rows, cols), and a
    frames.csv naming it once at each stamp of pick(t), for t the IMU
    stamps; returns the frame's path and those stamps."""
    frame = ds / "frames" / "000001.pgm"
    frame.parent.mkdir()
    save_pgm(frame, Image(np.full(shape, 90.0)))
    t = pick(dataio.read_csv(ds / "imu.csv", dataio.IMU_HEADER)[:, 0])
    dataio.write_csv(ds / "frames.csv", dataio.FRAMES_HEADER,
                     [[s, "frames/000001.pgm"] for s in t])
    return {"frame": frame, "t": t}
