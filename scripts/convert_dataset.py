#!/usr/bin/env python3
"""Stub: convert a recorded vehicle log into the dataset-directory layout.

The filter consumes the directory format documented in viwo.dataio:

    imu.csv       t,wx,wy,wz,ax,ay,az      body rates [rad/s], specific
                                           force [m/s^2], front-left-up axes
    wheel.csv     t,vx                     rear-axle longitudinal speed [m/s],
                                           one row per imu.csv row, same stamp
    bearings.csv  t,slot,bx,by,bz          unit bearings in the camera frame
                                           (x = optical axis, y left, z up)
                                           with persistent slot ids, OR
    frames.csv    t,filename               8-bit binary PGM frames under
                                           frames/ for the photometric mode
    calib.txt     cam.fx/.fy/.cx/.cy/.k1/.k2/.width/.height,
                  ext.rotvec_cb (body->camera rotation vector),
                  ext.lever_arm (camera position in body frame [m]),
                  vehicle.rho_sg (side-slip gradient [s^2/m])
    gt.csv        t,px,py,pz,qw,qx,qy,qz   optional ground truth (world frame,
                                           Hamilton quaternion, body->world)

Field mapping notes for typical public logs (e.g. stereo/IMU urban sets):

* timestamps: convert to seconds as decimals relative to the first sample;
  all streams must share one clock.
* IMU axes: re-order to front-left-up; gyroscope units rad/s, accelerometer
  specific force (gravity NOT removed; a level, static vehicle reads +9.81
  on the up axis).
* wheel speed: average of the rear wheel encoders at the axle center,
  resampled to the IMU stamps (the filter pairs the streams by row); emit
  exactly 0.0 at standstill so zero-velocity updates trigger.
* camera: either export a sparse tracker's unit bearings per track id
  (bearings.csv, slot = track id modulo the configured slot count), or dump
  rectified 8-bit grayscale PGM frames for the photometric mode.

Implementing the actual readers for a specific recording format is left to
the data owner; fill in `convert()` below.
"""

import sys


def convert(src_dir: str, out_dir: str) -> None:
    raise NotImplementedError(
        "implement the reader for your recording format following the "
        "field mapping documented above")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print("usage: convert_dataset.py <recorded-log-dir> <dataset-out-dir>")
        sys.exit(2)
    convert(sys.argv[1], sys.argv[2])
