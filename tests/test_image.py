import numpy as np
import pytest

import viwo.image
from viwo.image import (_FAST_OFFSETS, FAST_MAX_CORNERS, FAST_MIN_DISTANCE_PX,
                        FAST_THRESHOLD, Image, PatchLevel, _contiguous_at_least,
                        build_pyramid, detect_features, extract_patch_set,
                        intensity_residual, klt_align, load_pgm, save_pgm)
from viwo.filter import prepare_frame
from viwo.pipeline import FrameRing
from viwo.sim import (IMAGE_NOISE, Straight, TrajectorySpec, camera_table, camera_view,
                      generate_trajectory, generate_world, render_frame)


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
    assert list(tmp_path.iterdir()) == [], "the temp file is left behind"


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
    assert detect_features(img).shape == (0, 2)


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
        res = intensity_residual(patch, pyr, (31.0, 24.0), lvl)
        assert np.allclose(res, 0.0, atol=1e-12)


def test_patch_residual_linear_ramp_shift():
    # on a pure ramp, a half-pixel shift produces slope * 0.5 residual
    uu = np.meshgrid(np.arange(64, dtype=float), np.arange(64, dtype=float))[0]
    img = Image(2.0 * uu)
    pyr = build_pyramid(img)
    patch = extract_patch_set(pyr, 30.0, 30.0)
    res = intensity_residual(patch, pyr, (30.5, 30.0), 0)
    assert np.allclose(res, 1.0, atol=1e-12)


def test_patch_gradient_matches_fd():
    img = gaussian_blob(64, 64, 32.2, 30.7, sigma=4.0, amp=150.0)
    pyr = build_pyramid(img)
    patch = extract_patch_set(pyr, 30.3, 29.6)
    h = 1e-6
    for lvl in range(2):
        at = (30.3, 29.6)
        grad = patch[lvl].grad
        rp = intensity_residual(patch, pyr, (at[0] + h, at[1]), lvl)
        rm = intensity_residual(patch, pyr, (at[0] - h, at[1]), lvl)
        fd_u = (rp - rm) / (2 * h)
        # template gradients approximate the image gradient at extraction
        assert np.max(np.abs(grad[:, 0] - fd_u)) < 1e-3 * max(np.max(np.abs(fd_u)), 1.0)


def test_pyramid_gradient_scales_with_level():
    uu = np.meshgrid(np.arange(64, dtype=float), np.arange(64, dtype=float))[0]
    img = Image(2.0 * uu)  # constant slope 2 per level-0 pixel
    pyr = build_pyramid(img)
    patch = extract_patch_set(pyr, 30.0, 30.0)
    # d(intensity)/d(level-0 pixel) is identical: level-1 slope 4 halved back
    assert np.allclose(patch[0].grad[:, 0], 2.0, atol=1e-12)
    assert np.allclose(patch[1].grad[:, 0], 2.0, atol=1e-12)


def test_klt_align_recovers_subpixel_shift():
    pyr = build_pyramid(gaussian_blob(64, 64, 32.0, 30.0, sigma=2.0))
    assert len(pyr) == 2
    patch = extract_patch_set(pyr, 32.0, 30.0)
    moved = build_pyramid(gaussian_blob(64, 64, 33.3, 29.3, sigma=2.0))
    # the second start's footprint leaves the image
    (u, _), (v, _), converged = klt_align([patch, patch], moved, [(32.0, 30.0), (2.0, 2.0)])
    assert converged == (True, False)
    assert np.hypot(u - 33.3, v - 29.3) < 0.05
    assert klt_align([], moved, []) == ((), (), ())


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


@pytest.mark.parametrize("header, field", [
    (b"P5 -1 1 255\n", "width"),
    (b"P5 1 -1 255\n", "height"),
    (b"P5 0 0 255\n", "width"),
    (b"P5 2 2 0\n", "maxval"),
    (b"P5 2 2 256\n", "maxval"),
    (b"P5 abc 2 255\n", "PGM width 'abc' is not an integer"),
    (b"P5 2 2 2.5\n", "PGM maxval '2.5' is not an integer"),
    (b"P5 2 2 # cut inside a comment", "truncated PGM header"),
    (b"P5 5 5 255\n", "truncated PGM data: 16 of 25 pixel bytes"),
], ids=["negative_width", "negative_height", "zero_size", "maxval_zero", "maxval_16bit",
        "width_text", "maxval_fraction", "header_cut_in_comment", "pixels_cut"])
def test_load_pgm_rejects_bad_size_or_maxval(tmp_path, header, field):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + bytes(16))
    with pytest.raises(ValueError, match=field):
        load_pgm(path)


def test_load_pgm_scales_to_maxval_255(tmp_path):
    img = gaussian_blob(64, 64, 31.3, 24.8)
    path = tmp_path / "frame15.pgm"
    raw = np.round(img.data * 15.0 / 255.0).astype(np.uint8)
    path.write_bytes(b"P5\n64 64\n15\n" + raw.tobytes())
    back = load_pgm(path)
    assert abs(back.data.max() - 204.0) <= 1.0
    assert len(detect_features(back)) == 1


def test_load_pgm_rejects_pixel_above_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5 2 2 15\n" + bytes([0, 16, 0, 0]))
    with pytest.raises(ValueError, match="16"):
        load_pgm(path)


# --- bit-identity with the full-frame implementations -------------------------
# The four functions below are the earlier front end, kept as the reference:
# the detector, the pyramid step and the sampler must return exactly what
# the full-frame implementations return, and the lockstep tracker what the
# tracker of one template at a time returns, bit for bit.

def reference_contiguous_at_least(mask):
    doubled = np.concatenate([mask, mask], axis=1).astype(np.int16)
    best = np.zeros(mask.shape[0], dtype=np.int16)
    cur = np.zeros(mask.shape[0], dtype=np.int16)
    for k in range(doubled.shape[1]):
        cur = (cur + 1) * doubled[:, k]
        best = np.maximum(best, cur)
    return best >= 9


def reference_detect_features(img):
    d = img.data
    h, w = d.shape
    if h < 8 or w < 8:
        return []
    center = d[3:h - 3, 3:w - 3]

    compass_hits_b = np.zeros(center.shape, dtype=np.int8)
    compass_hits_d = np.zeros(center.shape, dtype=np.int8)
    for k in (0, 4, 8, 12):
        du, dv = _FAST_OFFSETS[k]
        val = d[3 + dv:h - 3 + dv, 3 + du:w - 3 + du]
        compass_hits_b += val > center + FAST_THRESHOLD
        compass_hits_d += val < center - FAST_THRESHOLD
    cand_mask = (compass_hits_b >= 2) | (compass_hits_d >= 2)
    if not cand_mask.any():
        return []
    vs0, us0 = np.nonzero(cand_mask)

    ring = np.empty((16, len(vs0)))
    for k, (du, dv) in enumerate(_FAST_OFFSETS):
        ring[k] = d[vs0 + 3 + dv, us0 + 3 + du]
    c = center[vs0, us0]
    brighter = (ring > c[None] + FAST_THRESHOLD).T
    darker = (ring < c[None] - FAST_THRESHOLD).T
    is_corner = reference_contiguous_at_least(brighter) | reference_contiguous_at_least(darker)
    if not is_corner.any():
        return []
    vs0, us0 = vs0[is_corner], us0[is_corner]
    ring = ring[:, is_corner]
    c = c[is_corner]

    score_vals = np.maximum(np.abs(ring - c[None]) - FAST_THRESHOLD, 0.0).sum(axis=0)
    score = np.zeros(center.shape)
    score[vs0, us0] = score_vals

    padded = np.pad(score, 1, constant_values=0.0)
    neigh = np.max(np.stack([padded[i:i + score.shape[0], j:j + score.shape[1]]
                             for i in range(3) for j in range(3) if not (i == 1 and j == 1)]),
                   axis=0)
    keep = (score > 0.0) & (score >= neigh)
    vs, us = np.nonzero(keep)
    if len(us) == 0:
        return []
    order = np.argsort(score[vs, us])[::-1]
    cand = [(float(us[i] + 3), float(vs[i] + 3)) for i in order]

    out = []
    taken = []
    for u, v in cand:
        pt = np.array([u, v])
        if any(np.hypot(*(pt - q)) < FAST_MIN_DISTANCE_PX for q in taken):
            continue
        out.append((u, v))
        taken.append(pt)
        if len(out) >= FAST_MAX_CORNERS:
            break
    return out


def reference_downsample(img):
    d = img.data
    k = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    pad = np.pad(d, ((0, 0), (2, 2)), mode="edge")
    d = sum(k[i] * pad[:, i:i + d.shape[1]] for i in range(5))
    pad = np.pad(d, ((2, 2), (0, 0)), mode="edge")
    d = sum(k[i] * pad[i:i + d.shape[0], :] for i in range(5))
    h = (img.height // 2) * 2
    w = (img.width // 2) * 2
    d = d[:h, :w]
    return 0.25 * (d[0::2, 0::2] + d[0::2, 1::2] + d[1::2, 0::2] + d[1::2, 1::2])


def reference_sample_with_grad(img, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u0 = np.clip(np.floor(u).astype(int), 0, img.width - 2)
    v0 = np.clip(np.floor(v).astype(int), 0, img.height - 2)
    fu = u - u0
    fv = v - v0
    i00 = img.data[v0, u0]
    i01 = img.data[v0, u0 + 1]
    i10 = img.data[v0 + 1, u0]
    i11 = img.data[v0 + 1, u0 + 1]
    top = i00 * (1.0 - fu) + i01 * fu
    bot = i10 * (1.0 - fu) + i11 * fu
    val = top * (1.0 - fv) + bot * fv
    du = (i01 - i00) * (1.0 - fv) + (i11 - i10) * fv
    dv = bot - top
    return val, du, dv


def reference_klt_align(patch, pyramid, u0, v0):
    u, v = float(u0), float(v0)
    converged = False
    for level in reversed(range(len(patch))):
        g = patch[level].grad
        gtg = g.T @ g
        det = gtg[0, 0] * gtg[1, 1] - gtg[0, 1] * gtg[1, 0]
        if det < 1e-12:
            return u, v, False
        ginv = np.array([[gtg[1, 1], -gtg[0, 1]], [-gtg[0, 1], gtg[0, 0]]]) / det
        for _ in range(12):
            res = intensity_residual(patch, pyramid, (u, v), level)
            if res is None:
                return u, v, False
            step = ginv @ (g.T @ res)
            u -= step[0]
            v -= step[1]
            if np.hypot(u - u0, v - v0) > 6.0:
                return u, v, False
            if np.hypot(step[0], step[1]) < 0.02:
                converged = True
                break
        else:
            converged = False
    return u, v, converged


def rendered_frames(seed):
    """Two noisy simulated camera frames of a seeded landmark world."""
    truth = generate_trajectory(TrajectorySpec([Straight(30.0, 5.0)]))
    cameras = camera_table(truth)
    view = camera_view(generate_world(truth, seed=seed), cameras)
    rng = np.random.default_rng(seed)
    return [render_frame(view.bearings[view.rows(k)], rng.normal(0.0, IMAGE_NOISE, (480, 640)))
            for k in (0, len(cameras.t) // 2)]


def _test_images():
    rng = np.random.default_rng(7)
    yield "uniform", np.full((48, 48), 50.0)
    yield "8x8", rng.uniform(0.0, 255.0, (8, 8))
    yield "odd", rng.uniform(0.0, 255.0, (37, 53))
    yield "odd_tall", rng.uniform(0.0, 255.0, (61, 9))
    yield "tiny", rng.uniform(0.0, 255.0, (3, 5))
    yield "1x1", np.full((1, 1), 7.0)
    yield "float", rng.normal(100.0, 40.0, (120, 160))
    yield "random_640x480", rng.uniform(0.0, 255.0, (480, 640))
    # few levels: many FAST scores tie, so the sort order of ties is tested
    yield "quantized", 40.0 * rng.integers(0, 4, (96, 128)).astype(float)
    yield "quantized_fine", np.round(rng.uniform(0.0, 60.0, (64, 80)))
    for seed in (1, 2, 3):
        for i, img in enumerate(rendered_frames(seed)):
            yield f"rendered_seed{seed}_{i}", img.data


TEST_IMAGES = dict(_test_images())


def test_contiguous_run_matches_reference_on_every_ring():
    rings = ((np.arange(1 << 16)[:, None] >> np.arange(16)) & 1).astype(bool)
    assert np.array_equal(_contiguous_at_least(rings.T),
                          reference_contiguous_at_least(rings))


@pytest.mark.parametrize("name", TEST_IMAGES)
def test_detect_features_matches_reference(name):
    img = Image(TEST_IMAGES[name])
    assert detect_features(img).tobytes() == \
        np.array(reference_detect_features(img), float).reshape(-1, 2).tobytes()


def test_reference_cases_reach_the_corner_limit_and_tie():
    # the cases above exercise the early stop and equal scores
    assert len(reference_detect_features(Image(TEST_IMAGES["random_640x480"]))) \
        == FAST_MAX_CORNERS
    assert reference_detect_features(Image(TEST_IMAGES["uniform"])) == []
    img = Image(TEST_IMAGES["quantized"])
    pts = reference_detect_features(img)
    d = img.data
    scores = [np.maximum(np.abs(d[int(v) + _FAST_OFFSETS[:, 1], int(u) + _FAST_OFFSETS[:, 0]]
                                - d[int(v), int(u)]) - FAST_THRESHOLD, 0.0).sum()
              for u, v in pts]
    assert len(pts) > 10 and len(set(scores)) < len(scores)


@pytest.mark.parametrize("name", TEST_IMAGES)
def test_downsample_matches_reference(name):
    img = Image(TEST_IMAGES[name])
    got = img.downsample().data
    want = reference_downsample(img)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["8x8", "odd", "float", "rendered_seed1_0"])
def test_sample_matches_reference(name):
    img = Image(TEST_IMAGES[name])
    rng = np.random.default_rng(11)
    h, w = img.data.shape
    u = np.concatenate([
        rng.uniform(0.0, w - 1.0, 200),                       # inside
        rng.integers(0, w, 40).astype(float),                 # on the lattice
        [0.0, w - 1.0, w - 2.0, 0.0, w - 1.0, 0.5, w - 1.5],  # on the border
        rng.uniform(-5.0, w + 4.0, 60)])                      # outside: clipped
    v = np.concatenate([
        rng.uniform(0.0, h - 1.0, 200),
        rng.integers(0, h, 40).astype(float),
        [0.0, h - 1.0, 0.0, h - 2.0, h - 1.0, h - 1.5, 0.5],
        rng.uniform(-5.0, h + 4.0, 60)])
    want = reference_sample_with_grad(img, u, v)
    got = img.sample_with_grad(u, v)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert img.sample(u, v).tobytes() == want[0].tobytes()
    # a scalar point, as the patch samplers never pass but callers may
    assert img.sample(3.25, 2.5) == reference_sample_with_grad(img, 3.25, 2.5)[0]


RENDERED = [name for name in TEST_IMAGES if name.startswith("rendered_")]


def assert_klt_matches_reference(img, patches, starts):
    # a fresh pyramid for each side, so each computes its own coarse strips
    got = klt_align(patches, build_pyramid(img), starts)
    assert all(type(x) is tuple and len(x) == len(patches) for x in got)
    pyramid = build_pyramid(img)
    want = [reference_klt_align(patch, pyramid, *start)
            for patch, start in zip(patches, starts)]
    assert [(float.hex(u), float.hex(v), ok) for u, v, ok in zip(*got)] == \
        [(float.hex(u), float.hex(v), ok) for u, v, ok in want]
    return want


@pytest.mark.parametrize("name", RENDERED)
def test_klt_align_matches_reference_on_detections(name):
    # every detection's template, started up to 3 px off it, in one batch;
    # then the first one alone
    img = Image(TEST_IMAGES[name])
    pyramid = build_pyramid(img)
    rng = np.random.default_rng(5)
    patches, starts = [], []
    for u, v in detect_features(img):
        patch = extract_patch_set(pyramid, u, v)
        if patch is not None:
            patches.append(patch)
            starts.append((u, v) + rng.uniform(-3.0, 3.0, 2))
    assert len(patches) >= 3
    want = assert_klt_matches_reference(img, patches, starts)
    assert any(ok for _, _, ok in want)
    assert_klt_matches_reference(img, patches[:1], starts[:1])


def test_klt_align_mixes_every_exit_as_the_reference():
    img = Image(TEST_IMAGES["rendered_seed1_0"])
    pyramid = build_pyramid(img)
    (u, v), (u2, v2) = detect_features(img)[:2]
    patch = extract_patch_set(pyramid, u, v)
    second = extract_patch_set(pyramid, u2, v2)

    def scaled(p, factor):
        return [PatchLevel(lvl.intensities, lvl.grad * factor) for lvl in p]

    flat = extract_patch_set(build_pyramid(Image(TEST_IMAGES["uniform"])), 24.0, 24.0)
    cases = {
        "converged": (patch, (u + 0.7, v - 0.4)),
        # its level-1 footprint leaves the image at the first step
        "border_level_1": (patch, (7.0, v)),
        "flat": (flat, (u, v)),
        # the negated gradient steps away from the optimum
        "drift": (scaled(patch, -1.0), (u + 0.7, v - 0.4)),
        # converges onto the detection, just over 6 px from its start: the
        # last step is tiny, yet the drift exit comes first
        "drift_small_step": (second, (u2 + 3.6, v2 + 4.8)),
        # half the gradient doubles each step: it oscillates at both levels
        "out_of_steps": (scaled(patch, 0.5), (u + 0.7, v - 0.4)),
        # out of steps at level 1, then converged at level 0
        "out_of_steps_level_1": (scaled(patch, 0.55), (u + 0.7, v - 0.4)),
        # converged at level 1, then out of steps at level 0
        "out_of_steps_level_0": (scaled(second, 0.5), (u2 + 0.7, v2 - 0.4)),
        "converged_second": (second, (u2 - 1.0, v2 + 0.5)),
    }
    want = dict(zip(cases, assert_klt_matches_reference(
        img, [p for p, _ in cases.values()], [s for _, s in cases.values()])))
    assert want["converged"][2] and want["converged_second"][2]
    assert want["out_of_steps_level_1"][2]
    # each abandoned template shows why: the flat one's gradients are
    # degenerate, the border one never moved and its level-1 footprint is
    # off the image, the drifting one is more than 6 px out, and the one out
    # of steps is none of these
    assert not flat[1].grad.any()
    for name, (p, (su, sv)) in cases.items():
        wu, wv, ok = want[name]
        moved = np.hypot(wu - su, wv - sv)
        if name == "flat":
            assert not ok and (wu, wv) == (su, sv)
        elif name == "border_level_1":
            assert not ok and (wu, wv) == (su, sv)
            assert intensity_residual(p, pyramid, (su, sv), 1) is None
        elif name in ("drift", "drift_small_step"):
            assert not ok and moved > 6.0
        elif name in ("out_of_steps", "out_of_steps_level_0"):
            assert not ok and moved <= 6.0
            assert all(intensity_residual(p, pyramid, (wu, wv), lvl) is not None
                       for lvl in range(2))
    assert_klt_matches_reference(img, [cases["drift"][0]], [cases["drift"][1]])


def test_ring_slot_pyramid_shares_no_memory_with_templates_or_tracks():
    # an image run reads each frame from a slot of the frame worker's ring,
    # which a later frame rewrites: what the filter keeps of a frame, the
    # templates and the tracks, must be new memory, with the bits of the
    # frame's own pyramid
    img = Image(TEST_IMAGES["rendered_seed1_0"])
    ring = FrameRing(img.width, img.height)
    pyramid, detections = prepare_frame(img)
    ring.store(1, pyramid)
    slot = ring.pyramid(1)
    assert all(np.shares_memory(level.data, ring.pixels) for level in slot)
    patches = [extract_patch_set(slot, u, v) for u, v in detections]
    own = [extract_patch_set(pyramid, u, v) for u, v in detections]
    assert [p is None for p in patches] == [p is None for p in own]
    patches = [p for p in patches if p is not None]
    own = [p for p in own if p is not None]
    assert len(patches) >= 3
    arrays = [a for patch in patches for level in patch for a in (level.intensities, level.grad)]
    assert not any(np.shares_memory(a, ring.pixels) for a in arrays)
    assert [a.tobytes() for a in arrays] == \
        [a.tobytes() for patch in own for level in patch for a in (level.intensities, level.grad)]
    starts = detections[:len(patches)] + 0.5
    tracks = klt_align(patches, slot, starts)
    assert tracks == klt_align(own, pyramid, starts)
    assert all(type(x) is float for x in tracks[0] + tracks[1])
    # the slot taken by another frame leaves the templates as they were
    kept = [a.copy() for a in arrays]
    ring.levels[1][0][...] = 0.0
    ring.levels[1][1][...] = 0.0
    assert all(np.array_equal(a, b) for a, b in zip(arrays, kept))
