"""Grayscale image substrate: PGM I/O, bilinear sampling, pyramids, FAST
corners and multi-level intensity patches.

Pixel coordinates are (u, v) with u along columns (x) and v along rows (y);
the sample at integer (u, v) is the array element [v, u].  Bilinear sampling
is exact on lattice points and differentiable inside each unit cell; the
returned gradients are the exact in-cell derivatives of the interpolant.

The front end's floating-point arithmetic is fixed, because rounding-level
changes move image-mode accuracy by several percent.  The detector, the
pyramid step and the samplers do the operations of the full-frame
implementations kept in tests/test_image.py, in the same order, and must
match them bit for bit; they only make fewer elements go through them, by
working on flat indices, at the candidate pixels and in strips of rows that
stay in cache.  Likewise the tracker aligns a frame's templates in lockstep,
one sampler call per step for all of them, and must match the tracker of
one template at a time kept there.
"""

import os
from dataclasses import dataclass

import numpy as np

# rows per strip in the full-frame passes of downsample and detect_features,
# so that each strip's temporaries stay in cache
_STRIP_ROWS = 32


class Image:
    """Float intensity grid (8-bit scale) with sub-pixel access."""

    def __init__(self, data: np.ndarray):
        # C order, so the samplers and the detector can index the flat buffer
        self.data = np.ascontiguousarray(data, dtype=float)
        if self.data.ndim != 2:
            raise ValueError("image data must be 2-D")
        self.height, self.width = self.data.shape

    def _cells(self, u, v):
        """Corner values i00, i01, i10, i11 of the bilinear cell holding each
        (u, v), clipped to the grid, and the offsets fu, fv inside it."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u0 = np.minimum(np.maximum(np.floor(u).astype(int), 0), self.width - 2)
        v0 = np.minimum(np.maximum(np.floor(v).astype(int), 0), self.height - 2)
        flat = self.data.ravel()
        i00 = v0 * self.width + u0
        i10 = i00 + self.width
        return flat[i00], flat[i00 + 1], flat[i10], flat[i10 + 1], u - u0, v - v0

    def sample(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Bilinear value at (u, v); vectorized."""
        i00, i01, i10, i11, fu, fv = self._cells(u, v)
        gu = 1.0 - fu
        return (i00 * gu + i01 * fu) * (1.0 - fv) + (i10 * gu + i11 * fu) * fv

    def sample_with_grad(self, u, v):
        """Bilinear value and exact in-cell gradient at (u, v); vectorized."""
        i00, i01, i10, i11, fu, fv = self._cells(u, v)
        gu = 1.0 - fu
        gv = 1.0 - fv
        top = i00 * gu + i01 * fu
        bot = i10 * gu + i11 * fu
        return top * gv + bot * fv, (i01 - i00) * gv + (i11 - i10) * fv, bot - top

    def downsample(self) -> "Image":
        """Half-resolution level: binomial smoothing then 2x2 averaging.

        The pre-smoothing widens structures relative to the coarser grid so
        coarse-to-fine alignment keeps a useful pull-in basin.  Each 5-tap
        pass sums its terms left to right over edge-replicated borders.
        The level is computed in strips of _STRIP_ROWS rows of this image.
        """
        d = self.data
        h, w = d.shape
        k = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
        hh = (h // 2) * 2
        ww = (w // 2) * 2
        level = np.empty((hh // 2, w // 2))
        # Each strip of rows is smoothed on a flat copy with 2 edge pixels
        # added on every side, so that the taps of both passes are
        # contiguous slices.  The 4 added columns of a row take sums across
        # row ends and are never read; the 4 zeros after the last row keep
        # those sums finite.
        pw = w + 4
        for r0 in range(0, hh, _STRIP_ROWS):
            r1 = min(r0 + _STRIP_ROWS, hh)
            n = r1 - r0
            m = (n + 4) * pw
            flat = np.empty(m + 4)
            flat[m:] = 0.0
            pad = flat[:m].reshape(n + 4, pw)
            np.take(d, np.arange(r0 - 2, r1 + 2), axis=0, mode="clip", out=pad[:, 2:w + 2])
            pad[:, :2] = pad[:, 2:3]
            pad[:, w + 2:] = pad[:, w + 1:w + 2]
            term = np.empty(m)
            across = np.multiply(flat[0:m], k[0])
            for i in range(1, 5):
                across += np.multiply(flat[i:i + m], k[i], out=term)
            term = term[:n * pw]
            down = np.multiply(across[0:n * pw], k[0])
            for i in range(1, 5):
                down += np.multiply(across[i * pw:(i + n) * pw], k[i], out=term)
            down = down.reshape(n, pw)
            quad = level[r0 // 2:r1 // 2]
            np.add(down[0::2, 0:ww:2], down[0::2, 1:ww:2], out=quad)
            quad += down[1::2, 0:ww:2]
            quad += down[1::2, 1:ww:2]
            quad *= 0.25
        return Image(level)


def load_pgm(path) -> Image:
    """Read a binary (P5) 8-bit PGM, scaled to maxval 255."""
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
            # to the end of the comment's line, or of a header cut inside it
            idx = raw.find(b"\n", idx) + 1 or len(raw)
            continue
        end = idx
        while end < len(raw) and not raw[end:end + 1].isspace():
            end += 1
        tokens.append(raw[idx:end])
        idx = end
    if tokens[0] != b"P5":
        raise ValueError(f"not a binary PGM: magic {tokens[0]!r}")
    fields = []
    for name, token in zip(("width", "height", "maxval"), tokens[1:]):
        try:
            fields.append(int(token))
        except ValueError:
            raise ValueError(f"PGM {name} {token.decode(errors='replace')!r} "
                             "is not an integer") from None
    width, height, maxval = fields
    for name, size in (("width", width), ("height", height)):
        if size < 1:
            raise ValueError(f"PGM {name} {size}: must be at least 1")
    if not 1 <= maxval <= 255:
        raise ValueError(f"PGM maxval {maxval}: only 8-bit PGM (maxval 1 to 255) supported")
    idx += 1  # single whitespace after maxval
    if len(raw) - idx < width * height:
        raise ValueError(f"truncated PGM data: {max(len(raw) - idx, 0)} of "
                         f"{width * height} pixel bytes")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=width * height, offset=idx)
    top = int(pixels.max())
    if top > maxval:
        raise ValueError(f"PGM pixel value {top} above maxval {maxval}")
    # to the 8-bit scale; at maxval 255 a multiply by 1.0
    return Image(pixels.reshape(height, width) * (255.0 / maxval))


def save_pgm(path, img: Image) -> None:
    """Write a binary (P5) 8-bit PGM through a temp file and a rename, so a
    failed write leaves neither a partial frame at path nor the temp file."""
    data = np.round(img.data)
    data = np.clip(data, 0, 255, out=data).astype(np.uint8)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(f"P5\n{img.width} {img.height}\n255\n".encode())
            fh.write(data.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    """True where a column of a 16-row circular mask (16, n) has >= 9
    contiguous Trues."""
    best = np.zeros(mask.shape[1], dtype=np.int16)
    cur = np.zeros(mask.shape[1], dtype=np.int16)
    # a circular run of 9 or more lies whole in entries 0 to 23 (16 + 8)
    for k in range(16 + 8):
        cur += 1
        cur *= mask[k % 16]
        np.maximum(best, cur, out=best)
    return best >= 9


def detect_features(img: Image) -> np.ndarray:
    """FAST-9/16 corners at FAST_THRESHOLD, strongest first, non-max
    suppressed and bucketed FAST_MIN_DISTANCE_PX apart.  Returns an (n, 2)
    array of (u, v) rows, n at most FAST_MAX_CORNERS and possibly 0.
    """
    d = img.data
    h, w = d.shape
    if h < 8 or w < 8:
        return np.empty((0, 2))
    # pixels are flat indices into d; the ring of a pixel 3 or more rows
    # from the top and bottom lies inside d, and a pixel within 3 columns of
    # the left or right edge (its ring would wrap onto another row) is
    # dropped
    flat = d.ravel()
    ring_at = _FAST_OFFSETS[:, 1] * w + _FAST_OFFSETS[:, 0]

    # high-speed pretest in two stages.  A 9-contiguous arc of the ring
    # holds ring point 0 or 8, on its side of the threshold band, so stage 1
    # keeps the pixels where one of the two is outside the band: whole rows
    # at a time, in strips.  A 9-contiguous arc also holds at least two of
    # the four compass points 0, 4, 8 and 12, so stage 2 keeps the stage-1
    # pixels where two of them are on the same side.  Either stage drops
    # only pixels that are no corner.
    found = []
    for r0 in range(3, h - 3, _STRIP_ROWS):
        a, b = r0 * w, min(r0 + _STRIP_ROWS, h - 3) * w
        center = flat[a:b]
        hi = center + FAST_THRESHOLD
        lo = center - FAST_THRESHOLD
        top = flat[a + ring_at[0]:b + ring_at[0]]
        bottom = flat[a + ring_at[8]:b + ring_at[8]]
        outside = top > hi
        outside |= top < lo
        outside |= bottom > hi
        outside |= bottom < lo
        found.append(a + np.flatnonzero(outside))
    at = np.concatenate(found)
    col = at % w
    at = at[(col >= 3) & (col < w - 3)]
    c = flat[at]
    hi = c + FAST_THRESHOLD
    lo = c - FAST_THRESHOLD
    compass_hits_b = np.zeros(len(at), dtype=np.int8)
    compass_hits_d = np.zeros(len(at), dtype=np.int8)
    for k in (0, 4, 8, 12):
        val = flat[at + ring_at[k]]
        compass_hits_b += val > hi
        compass_hits_d += val < lo
    keep = (compass_hits_b >= 2) | (compass_hits_d >= 2)
    at, c, hi, lo = at[keep], c[keep], hi[keep], lo[keep]

    ring = flat[at + ring_at[:, None]]
    is_corner = _contiguous_at_least(ring > hi) | _contiguous_at_least(ring < lo)
    if not is_corner.any():
        return np.empty((0, 2))
    at = at[is_corner]
    ring = ring[:, is_corner]
    c = c[is_corner]

    # score: sum of absolute exceedances over the threshold
    score = np.maximum(np.abs(ring - c) - FAST_THRESHOLD, 0.0).sum(axis=0)

    # 3x3 non-max suppression: a neighbour that is no corner scores 0 (at
    # is sorted, so searchsorted finds the corners among the neighbours)
    nb = at + np.array([-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1])[:, None]
    j = np.minimum(np.searchsorted(at, nb), len(at) - 1)
    neigh = np.where(at[j] == nb, score[j], 0.0)
    keep = (score > 0.0) & (score >= neigh.max(axis=0))
    vs, us = np.divmod(at[keep], w)
    us = us.tolist()
    vs = vs.tolist()
    order = np.argsort(score[keep])[::-1]

    out = np.empty((FAST_MAX_CORNERS, 2))
    n = 0
    for i in order:
        u, v = us[i], vs[i]
        if (np.hypot(u - out[:n, 0], v - out[:n, 1]) < FAST_MIN_DISTANCE_PX).any():
            continue
        out[n] = u, v
        n += 1
        if n == FAST_MAX_CORNERS:
            break
    return out[:n]


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
    grad: np.ndarray          # (p*p, 2) d(intensity)/d(level-0 pixel)


def _fits(img: Image, cu, cv):
    """Whether a patch centred at level pixel (cu, cv), elementwise for
    arrays, keeps every sample at least one pixel from the image border
    (nearer, the bilinear cell would run off the grid)."""
    return ((1.0 <= cu - _HALF) & (cu + _HALF <= img.width - 2.0)
            & (1.0 <= cv - _HALF) & (cv + _HALF <= img.height - 2.0))


def _patch_points(img: Image, cu: float, cv: float):
    """Sample points of a patch centred at level pixel (cu, cv), or None
    when it does not fit the image (_fits)."""
    if not _fits(img, cu, cv):
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

    Each level's gradient is divided by the level's scale, a power of two
    (so exactly), to give it per level-0 pixel.  Returns None if the
    footprint leaves any level.
    """
    out = []
    for lvl, img in enumerate(pyramid):
        scale = 2.0 ** lvl
        pts = _patch_points(img, u / scale, v / scale)
        if pts is None:
            return None
        val, du, dv = img.sample_with_grad(*pts)
        out.append(PatchLevel(val, np.stack([du, dv], axis=1) / scale))
    return out


def klt_align(patches: list[list[PatchLevel]], pyramid: list[Image],
              starts) -> tuple[tuple, tuple, tuple]:
    """Pyramidal Lucas-Kanade alignment of template patches, in lockstep.

    Gauss-Newton on each template's level-0 pixel position, from its start
    (a row (u, v) of starts), with its stored template gradients: coarse
    level first, at most 12 steps per level, converged at a step under
    0.02 px.  A template is abandoned when its footprint leaves the image,
    its level's gradients are degenerate or it moves beyond 6 px from its
    start.  Each step samples the points of every template still running
    in one call and computes their Gauss-Newton steps in one stacked
    product; each template's own arithmetic, and so its result, is that of
    aligning it alone.  Returns the tuples (u, v, converged), one entry
    per template.
    """
    n = len(patches)
    start = np.array(starts, dtype=float).reshape(n, 2)
    u0, v0 = start[:, 0], start[:, 1]
    u, v = u0.copy(), v0.copy()
    converged = np.zeros(n, dtype=bool)
    abandoned = np.zeros(n, dtype=bool)
    for level in reversed(range(len(pyramid))):
        img = pyramid[level]
        scale = 2.0 ** level
        # the running templates' gradients and inverse normal matrices
        run, grads, ginvs = [], [], []
        for k in np.flatnonzero(~abandoned).tolist():
            g = patches[k][level].grad
            gtg = g.T @ g
            det = gtg[0, 0] * gtg[1, 1] - gtg[0, 1] * gtg[1, 0]
            if det < 1e-12:
                abandoned[k] = True
                continue
            run.append(k)
            grads.append(g)
            ginvs.append(np.array([[gtg[1, 1], -gtg[0, 1]],
                                   [-gtg[0, 1], gtg[0, 0]]]) / det)
        run = np.array(run, dtype=int)
        grads = np.array(grads).reshape(-1, PATCH_SIZE ** 2, 2)
        ginvs = np.array(ginvs).reshape(-1, 2, 2)
        template = np.array([patches[k][level].intensities
                             for k in run.tolist()]).reshape(-1, PATCH_SIZE ** 2)
        act = np.arange(len(run))   # positions in run of the templates stepping
        for _ in range(12):
            k = run[act]
            cu = u[k] / scale
            cv = v[k] / scale
            inside = _fits(img, cu, cv)
            abandoned[k[~inside]] = True
            act, k, cu, cv = act[inside], k[inside], cu[inside], cv[inside]
            if not len(act):
                break
            res = img.sample((cu[:, None] + PATCH_GRID[:, 0]).ravel(),
                             (cv[:, None] + PATCH_GRID[:, 1]).ravel())
            res = res.reshape(-1, PATCH_SIZE ** 2) - template[act]
            # each template's ginv @ (g.T @ r) in one stacked product: g.T
            # is a transposed view, as in the 2-D product of the template
            # alone, which gives its bits (a contiguous copy of g.T does not)
            g_t = np.swapaxes(grads[act], 1, 2)
            step = np.matmul(ginvs[act], np.matmul(g_t, res[:, :, None]))[:, :, 0]
            u[k] -= step[:, 0]
            v[k] -= step[:, 1]
            drift = np.hypot(u[k] - u0[k], v[k] - v0[k]) > 6.0
            done = np.hypot(step[:, 0], step[:, 1]) < 0.02
            abandoned[k[drift]] = True
            converged[k[done]] = True
            act = act[~(done | drift)]
        # out of steps at this level
        converged[run[act]] = False
    converged[abandoned] = False
    return tuple(u.tolist()), tuple(v.tolist()), tuple(converged.tolist())


def intensity_residual(patch: list[PatchLevel], pyramid: list[Image],
                       at: tuple[float, float], level: int) -> np.ndarray | None:
    """Per-pixel intensity error of one level, image(sample points around
    `at`) - template, or None when the footprint leaves the image."""
    scale = 2.0 ** level
    pts = _patch_points(pyramid[level], at[0] / scale, at[1] / scale)
    if pts is None:
        return None
    return pyramid[level].sample(*pts) - patch[level].intensities
