import numpy as np
import pytest

import viwo.image
from viwo.image import (FAST_MIN_DISTANCE_PX, Image, build_pyramid, detect_features,
                        extract_patch_set, intensity_residual, load_pgm,
                        save_pgm)


def gaussian_blob(width, height, u0, v0, sigma=1.5, amp=200.0, bg=10.0):
    uu, vv = np.meshgrid(np.arange(width, dtype=float),
                         np.arange(height, dtype=float))
    data = bg + amp * np.exp(-((uu - u0) ** 2 + (vv - v0) ** 2) / (2 * sigma ** 2))
    return Image(np.clip(data, 0, 255))


def test_bilinear_exact_on_lattice(rng):
    img = Image(rng.uniform(0, 255, (24, 32)))
    for _ in range(50):
        u = rng.integers(0, 31)
        v = rng.integers(0, 23)
        assert np.isclose(img.sample(float(u), float(v)), img.data[v, u])


def test_bilinear_gradient_matches_fd(rng):
    img = Image(rng.uniform(0, 255, (24, 32)))
    h = 1e-6
    for _ in range(50):
        u = rng.uniform(1.1, 29.9)
        v = rng.uniform(1.1, 21.9)
        if abs(u - round(u)) < 0.01 or abs(v - round(v)) < 0.01:
            continue  # gradient jumps on cell edges
        _, du, dv = img.sample_with_grad(u, v)
        fd_u = (img.sample(u + h, v) - img.sample(u - h, v)) / (2 * h)
        fd_v = (img.sample(u, v + h) - img.sample(u, v - h)) / (2 * h)
        assert np.isclose(du, fd_u, atol=1e-6)
        assert np.isclose(dv, fd_v, atol=1e-6)


def test_pgm_round_trip(tmp_path, rng):
    img = Image(np.round(rng.uniform(0, 255, (17, 23))))
    path = tmp_path / "frame.pgm"
    save_pgm(path, img)
    back = load_pgm(path)
    assert back.width == 23 and back.height == 17
    assert np.array_equal(back.data, img.data)


def test_pgm_failed_pixel_write_leaves_no_frame(tmp_path, monkeypatch):
    def open_failing_after_header(*args):
        fh = open(*args)
        write_header = fh.write

        def write(data):
            if not data.startswith(b"P5"):
                raise OSError("no space left on device")
            return write_header(data)
        fh.write = write
        return fh

    monkeypatch.setattr(viwo.image, "open", open_failing_after_header, raising=False)
    path = tmp_path / "frame.pgm"
    with pytest.raises(OSError):
        save_pgm(path, Image(np.zeros((8, 8))))
    assert not path.exists()


def test_downsample_shapes_and_box_mode():
    img = Image(np.arange(16, dtype=float).reshape(4, 4))
    assert img.downsample().data.shape == (2, 2)
    # smoothing preserves the mean and a linear ramp away from borders
    uu = np.meshgrid(np.arange(32, dtype=float), np.arange(32, dtype=float))[0]
    ramp = Image(3.0 * uu)
    sm = ramp.downsample()
    assert sm.data.shape == (16, 16)
    assert np.allclose(np.diff(sm.data[4:12, 4:12], axis=1), 6.0, atol=1e-9)


def test_detect_uniform_image_empty():
    img = Image(np.full((48, 48), 50.0))
    assert detect_features(img) == []


def test_detect_single_blob():
    img = gaussian_blob(64, 64, 31.3, 24.8)
    pts = detect_features(img)
    assert len(pts) >= 1
    u, v = pts[0]
    assert np.hypot(u - 31.3, v - 24.8) < 1.5


def test_detect_two_close_blobs_bucketed():
    # two corners, 4 px apart: closer than the bucket distance
    assert FAST_MIN_DISTANCE_PX > 4.0
    img = Image(gaussian_blob(64, 64, 30.0, 30.0).data
                + gaussian_blob(64, 64, 34.0, 30.0).data - 10.0)
    pts = detect_features(img)
    assert len(pts) == 1


def test_patch_residual_zero_at_source():
    img = gaussian_blob(64, 64, 31.0, 24.0)
    pyr = build_pyramid(img)
    patch = extract_patch_set(pyr, 31.0, 24.0)
    assert patch is not None and len(patch) == 2
    for lvl in range(2):
        res, _ = intensity_residual(patch, pyr, (31.0, 24.0), lvl)
        assert np.allclose(res, 0.0, atol=1e-12)


def test_patch_residual_linear_ramp_shift():
    # on a pure ramp, a half-pixel shift produces slope * 0.5 residual
    uu = np.meshgrid(np.arange(64, dtype=float), np.arange(64, dtype=float))[0]
    img = Image(2.0 * uu)
    pyr = build_pyramid(img)
    patch = extract_patch_set(pyr, 30.0, 30.0)
    res, _ = intensity_residual(patch, pyr, (30.5, 30.0), 0)
    assert np.allclose(res, 1.0, atol=1e-12)


def test_patch_gradient_matches_fd():
    img = gaussian_blob(64, 64, 32.2, 30.7, sigma=4.0, amp=150.0)
    pyr = build_pyramid(img)
    patch = extract_patch_set(pyr, 30.3, 29.6)
    h = 1e-6
    for lvl in range(2):
        at = (30.3, 29.6)
        _, grad = intensity_residual(patch, pyr, at, lvl)
        rp, _ = intensity_residual(patch, pyr, (at[0] + h, at[1]), lvl)
        rm, _ = intensity_residual(patch, pyr, (at[0] - h, at[1]), lvl)
        fd_u = (rp - rm) / (2 * h)
        # template gradients approximate the image gradient at extraction
        assert np.max(np.abs(grad[:, 0] - fd_u)) < 1e-3 * max(np.max(np.abs(fd_u)), 1.0)


def test_pyramid_gradient_scales_with_level():
    uu = np.meshgrid(np.arange(64, dtype=float), np.arange(64, dtype=float))[0]
    img = Image(2.0 * uu)  # constant slope 2 per level-0 pixel
    pyr = build_pyramid(img)
    patch = extract_patch_set(pyr, 30.0, 30.0)
    _, g0 = intensity_residual(patch, pyr, (30.0, 30.0), 0)
    _, g1 = intensity_residual(patch, pyr, (30.0, 30.0), 1)
    # d(intensity)/d(level-0 pixel) is identical: level-1 slope 4 halved back
    assert np.allclose(g0[:, 0], 2.0, atol=1e-12)
    assert np.allclose(g1[:, 0], 2.0, atol=1e-12)
    # the raw per-level-pixel gradient doubles with the downsampling factor
    assert np.allclose(patch[1].grad[:, 0], 4.0, atol=1e-12)


def test_patch_out_of_bounds():
    img = gaussian_blob(64, 64, 5.0, 5.0)
    pyr = build_pyramid(img)
    assert extract_patch_set(pyr, 2.0, 2.0) is None
    patch = extract_patch_set(pyr, 30.0, 30.0)
    assert intensity_residual(patch, pyr, (1.0, 30.0), 0) is None


def test_load_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError):
        load_pgm(path)
