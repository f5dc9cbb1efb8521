"""Grayscale image substrate: PGM I/O, bilinear sampling, pyramids, FAST
corners and multi-level intensity patches.

Pixel coordinates are (u, v) with u along columns (x) and v along rows (y);
the sample at integer (u, v) is the array element [v, u].  Bilinear sampling
is exact on lattice points and differentiable inside each unit cell; the
returned gradients are the exact in-cell derivatives of the interpolant.
"""

import os
from dataclasses import dataclass

import numpy as np


class Image:
    """Float intensity grid (8-bit scale) with sub-pixel access."""

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError("image data must be 2-D")
        self.height, self.width = self.data.shape

    def sample(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        val, _, _ = self.sample_with_grad(u, v)
        return val

    def sample_with_grad(self, u, v):
        """Bilinear value and exact in-cell gradient at (u, v); vectorized."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u0 = np.clip(np.floor(u).astype(int), 0, self.width - 2)
        v0 = np.clip(np.floor(v).astype(int), 0, self.height - 2)
        fu = u - u0
        fv = v - v0
        i00 = self.data[v0, u0]
        i01 = self.data[v0, u0 + 1]
        i10 = self.data[v0 + 1, u0]
        i11 = self.data[v0 + 1, u0 + 1]
        top = i00 * (1.0 - fu) + i01 * fu
        bot = i10 * (1.0 - fu) + i11 * fu
        val = top * (1.0 - fv) + bot * fv
        du = (i01 - i00) * (1.0 - fv) + (i11 - i10) * fv
        dv = bot - top
        return val, du, dv

    def downsample(self) -> "Image":
        """Half-resolution level: binomial smoothing then 2x2 averaging.

        The pre-smoothing widens structures relative to the coarser grid so
        coarse-to-fine alignment keeps a useful pull-in basin.
        """
        d = self.data
        k = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
        pad = np.pad(d, ((0, 0), (2, 2)), mode="edge")
        d = sum(k[i] * pad[:, i:i + d.shape[1]] for i in range(5))
        pad = np.pad(d, ((2, 2), (0, 0)), mode="edge")
        d = sum(k[i] * pad[i:i + d.shape[0], :] for i in range(5))
        h = (self.height // 2) * 2
        w = (self.width // 2) * 2
        d = d[:h, :w]
        return Image(0.25 * (d[0::2, 0::2] + d[0::2, 1::2]
                             + d[1::2, 0::2] + d[1::2, 1::2]))


def load_pgm(path) -> Image:
    """Read a binary (P5) 8-bit PGM."""
    with open(path, "rb") as fh:
        raw = fh.read()
    tokens = []
    idx = 0
    while len(tokens) < 4:
        if idx >= len(raw):
            raise ValueError(f"truncated PGM header: {len(tokens)} of 4 fields")
        if raw[idx:idx + 1].isspace():
            idx += 1
            continue
        if raw[idx:idx + 1] == b"#":
            idx = raw.index(b"\n", idx) + 1
            continue
        end = idx
        while end < len(raw) and not raw[end:end + 1].isspace():
            end += 1
        tokens.append(raw[idx:end])
        idx = end
    if tokens[0] != b"P5":
        raise ValueError(f"not a binary PGM: magic {tokens[0]!r}")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval > 255:
        raise ValueError("only 8-bit PGM supported")
    idx += 1  # single whitespace after maxval
    pixels = np.frombuffer(raw, dtype=np.uint8, count=width * height, offset=idx)
    return Image(pixels.reshape(height, width).astype(float))


def save_pgm(path, img: Image) -> None:
    """Write a binary (P5) 8-bit PGM through a temp file and a rename, so a
    failed write leaves no partial frame at path."""
    data = np.clip(np.round(img.data), 0, 255).astype(np.uint8)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n255\n".encode())
        fh.write(data.tobytes())
    os.replace(tmp, path)


# --- FAST-9/16 corner detection ---------------------------------------------

FAST_THRESHOLD = 10.0         # intensity threshold
FAST_MAX_CORNERS = 256        # corners detect_features returns at most
FAST_MIN_DISTANCE_PX = 6.0    # least distance between two returned corners

_FAST_OFFSETS = np.array([
    (0, -3), (1, -3), (2, -2), (3, -1),
    (3, 0), (3, 1), (2, 2), (1, 3),
    (0, 3), (-1, 3), (-2, 2), (-3, 1),
    (-3, 0), (-3, -1), (-2, -2), (-1, -3),
])


def _contiguous_at_least(mask: np.ndarray) -> np.ndarray:
    """True where a 16-bit circular mask (n,16) has >= 9 contiguous Trues."""
    doubled = np.concatenate([mask, mask], axis=1).astype(np.int16)
    best = np.zeros(mask.shape[0], dtype=np.int16)
    cur = np.zeros(mask.shape[0], dtype=np.int16)
    for k in range(doubled.shape[1]):
        cur = (cur + 1) * doubled[:, k]
        best = np.maximum(best, cur)
    return best >= 9


def detect_features(img: Image) -> list[tuple[float, float]]:
    """FAST-9/16 corners at FAST_THRESHOLD, strongest first, non-max
    suppressed and bucketed FAST_MIN_DISTANCE_PX apart.  Returns up to
    FAST_MAX_CORNERS (u, v) tuples; may return fewer.
    """
    d = img.data
    h, w = d.shape
    if h < 8 or w < 8:
        return []
    center = d[3:h - 3, 3:w - 3]

    # high-speed pretest on the four compass points: a 9-contiguous ring
    # needs at least two of them on the same side of the threshold band
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
    is_corner = _contiguous_at_least(brighter) | _contiguous_at_least(darker)
    if not is_corner.any():
        return []
    vs0, us0 = vs0[is_corner], us0[is_corner]
    ring = ring[:, is_corner]
    c = c[is_corner]

    # score: sum of absolute exceedances over the threshold
    score_vals = np.maximum(np.abs(ring - c[None]) - FAST_THRESHOLD, 0.0).sum(axis=0)
    score = np.zeros(center.shape)
    score[vs0, us0] = score_vals

    # 3x3 non-max suppression
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

    out: list[tuple[float, float]] = []
    taken: list[np.ndarray] = []
    for u, v in cand:
        pt = np.array([u, v])
        if any(np.hypot(*(pt - q)) < FAST_MIN_DISTANCE_PX for q in taken):
            continue
        out.append((u, v))
        taken.append(pt)
        if len(out) >= FAST_MAX_CORNERS:
            break
    return out


# --- patches -----------------------------------------------------------------

PYRAMID_LEVELS = 2            # pyramid depth, level 0 included
PATCH_SIZE = 8                # template side [px]
_HALF = PATCH_SIZE / 2.0 - 0.5   # centre to outermost sample [level px]
# level-pixel offsets of the patch samples from the patch centre, row-major
PATCH_GRID = np.stack(np.meshgrid(np.arange(PATCH_SIZE) - _HALF,
                                  np.arange(PATCH_SIZE) - _HALF,
                                  indexing="xy"), axis=-1).reshape(-1, 2)
PATCH_GRID.flags.writeable = False


@dataclass
class PatchLevel:
    """Template of one pyramid level; a patch is a list of these, level 0
    first."""
    intensities: np.ndarray   # (p*p,) at the PATCH_GRID points
    grad: np.ndarray          # (p*p, 2) d(intensity)/d(level pixel)


def _patch_points(img: Image, cu: float, cv: float):
    """Sample points of a patch centred at level pixel (cu, cv), or None
    when any of them lies within one pixel of the image border (where the
    bilinear cell would run off the grid)."""
    if not (1.0 <= cu - _HALF and cu + _HALF <= img.width - 2.0
            and 1.0 <= cv - _HALF and cv + _HALF <= img.height - 2.0):
        return None
    return cu + PATCH_GRID[:, 0], cv + PATCH_GRID[:, 1]


def build_pyramid(img: Image) -> list[Image]:
    """img and its PYRAMID_LEVELS - 1 successive half-resolution levels."""
    pyr = [img]
    for _ in range(1, PYRAMID_LEVELS):
        pyr.append(pyr[-1].downsample())
    return pyr


def extract_patch_set(pyramid: list[Image], u: float,
                      v: float) -> list[PatchLevel] | None:
    """Extract patches at (u, v) (level-0 pixels) from every pyramid level.

    Returns None if the footprint leaves any level.
    """
    out = []
    for lvl, img in enumerate(pyramid):
        scale = 2.0 ** lvl
        pts = _patch_points(img, u / scale, v / scale)
        if pts is None:
            return None
        val, du, dv = img.sample_with_grad(*pts)
        out.append(PatchLevel(val, np.stack([du, dv], axis=1)))
    return out


def klt_align(patch: list[PatchLevel], pyramid: list[Image], u0: float,
              v0: float) -> tuple[float, float, bool]:
    """Pyramidal Lucas-Kanade alignment of a template patch.

    Gauss-Newton on the level-0 pixel position using the stored template
    gradients, coarse level first, at most 12 steps per level, converged at
    a step under 0.02 px.  Returns (u, v, converged); the search is
    abandoned beyond 6 px from the start.
    """
    u, v = float(u0), float(v0)
    converged = False
    for level in reversed(range(len(patch))):
        g = patch[level].grad / (2.0 ** level)    # d(residual)/d(level-0 px)
        gtg = g.T @ g
        det = gtg[0, 0] * gtg[1, 1] - gtg[0, 1] * gtg[1, 0]
        if det < 1e-12:
            return u, v, False
        ginv = np.array([[gtg[1, 1], -gtg[0, 1]], [-gtg[0, 1], gtg[0, 0]]]) / det
        for _ in range(12):
            res = intensity_residual(patch, pyramid, (u, v), level)
            if res is None:
                return u, v, False
            step = ginv @ (g.T @ res[0])
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


def intensity_residual(patch: list[PatchLevel], pyramid: list[Image],
                       at: tuple[float, float],
                       level: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-pixel intensity error and its gradient w.r.t. the level-0 pixel.

    residual = image(sample points around `at`) - template.  The gradient
    matrix uses the stored template gradients (valid near convergence) scaled
    by the pyramid factor.  Returns None when the footprint leaves the image.
    """
    lv = patch[level]
    scale = 2.0 ** level
    pts = _patch_points(pyramid[level], at[0] / scale, at[1] / scale)
    if pts is None:
        return None
    return pyramid[level].sample(*pts) - lv.intensities, lv.grad / scale
