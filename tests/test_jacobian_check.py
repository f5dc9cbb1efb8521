import json
import platform
from pathlib import Path

import numpy as np
import pytest

import viwo.jacobian_check as jc
from viwo import geom
from viwo.image import Image, build_pyramid, extract_patch_set
from viwo.sensors import (DEFAULT_INTRINSICS, camera_measurement_jacobian,
                          project, unproject)

PINNED_AUDIT = Path(__file__).parent / "pinned" / "audit_200_seed0.json"


def test_flow_matrices_do_not_depend_on_the_block():
    rng = np.random.default_rng(7)
    samples = [jc.random_sample(rng) for _ in range(20)]
    f_block, psi_block = jc.fd_flow_matrices(samples)
    assert f_block.shape == (20, 12, 12) and psi_block.shape == (20, 12, 6)
    for s, f, psi in zip(samples, f_block, psi_block):
        f_one, psi_one = jc.fd_flow_matrices([s])
        assert f_one[0].tobytes() == f.tobytes()
        assert psi_one[0].tobytes() == psi.tobytes()


def _full_frame_probe(intr, u, v):
    """The probe scene rendered at every pixel of the frame."""
    uu, vv = np.meshgrid(np.arange(intr.width, dtype=float),
                         np.arange(intr.height, dtype=float))
    blob = 120.0 * np.exp(-((uu - u) ** 2 + (vv - v) ** 2) / (2.0 * 6.0 ** 2))
    plane = 40.0 + 0.12 * uu + 0.07 * vv
    return Image(np.clip(plane + blob, 0.0, 255.0))


@pytest.mark.parametrize("seed", range(10))
def test_windowed_probe_reads_as_full_frame(seed):
    # the chain of fd_camera_chain, on the windowed probe and on the whole
    # frame: every residual and Jacobian byte agrees.  Even seeds put the
    # patch within the probe radius of a frame corner, where the window is cut.
    intr = DEFAULT_INTRINSICS
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        u = rng.choice([rng.uniform(16.5, 40.0), rng.uniform(intr.width - 40.0, intr.width - 16.5)])
        v = rng.choice([rng.uniform(16.5, 40.0), rng.uniform(intr.height - 40.0, intr.height - 16.5)])
    else:
        u, v = rng.uniform(16.5, intr.width - 16.5), rng.uniform(16.5, intr.height - 16.5)
    bearing = unproject(u, v, intr)
    (u, v), _ = project(bearing, intr)
    chains = []
    for img in (jc.render_smooth_probe(intr, u + 2.0, v + 1.5),
                _full_frame_probe(intr, u + 2.0, v + 1.5)):
        pyramid = build_pyramid(img)
        patch = extract_patch_set(pyramid, u, v)
        assert patch is not None
        bearings = [bearing] + [geom.s2_boxplus(bearing, d)
                                for d in np.vstack([np.eye(2), -np.eye(2)]) * 1e-6]
        chains.append([b"".join(x.tobytes() for x in
                                camera_measurement_jacobian(b, patch, pyramid, intr))
                       for b in bearings])
    assert chains[0] == chains[1]


def test_audit_bits_pinned():
    # a change to any audited Jacobian, FD reference or random draw moves
    # these bits; one that means to updates the table in the same commit
    table = json.loads(PINNED_AUDIT.read_text())
    worst = jc.run_audit(200, seed=0)
    got = {name: value.hex() for name, value in worst.items()}
    moved = sorted(name for name in table["worst"].keys() | got.keys()
                   if table["worst"].get(name) != got.get(name))
    assert not moved, (
        f"audit blocks moved: {moved}; table recorded with {table['recorded_with']}, "
        f"this is numpy {np.__version__} on {platform.system()} {platform.machine()}")


def test_camera_chain_error_in_project_is_raised(monkeypatch):
    # fd_camera_chain's own project call (it keeps the in-image check) fails
    # with a defect, not a projection error: the audit must not retry it
    original = jc.project

    def broken(bearing, intr, require_in_image=True):
        if require_in_image:
            raise TypeError("defect in project")
        return original(bearing, intr, require_in_image=require_in_image)

    monkeypatch.setattr(jc, "project", broken)
    with pytest.raises(TypeError, match="defect in project"):
        jc.run_audit(1, seed=0)
