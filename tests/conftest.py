"""Shared geometry factories and the on-disk fixture corpus."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from dm_stegkit import TriMesh, grid_to_pbm, write_stl_binary
from dm_stegkit.qr3d import BitGrid

_BOX_FACES = np.array([
    [0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7],
    [0, 1, 5], [0, 5, 4], [1, 2, 6], [1, 6, 5],
    [2, 3, 7], [2, 7, 6], [3, 0, 4], [3, 4, 7],
])


def box_arrays(x0, y0, z0, x1, y1, z1, index_offset=0):
    """Vertices/faces of an outward-oriented axis-aligned box."""
    verts = np.array([
        [x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0],
        [x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1],
    ], dtype=float)
    return verts, _BOX_FACES + index_offset


def box_mesh(x0, y0, z0, x1, y1, z1) -> TriMesh:
    verts, faces = box_arrays(x0, y0, z0, x1, y1, z1)
    return TriMesh(verts, faces)


def boxes_mesh(boxes) -> TriMesh:
    verts = []
    faces = []
    for i, b in enumerate(boxes):
        v, f = box_arrays(*b, index_offset=8 * i)
        verts.append(v)
        faces.append(f)
    return TriMesh(np.vstack(verts), np.vstack(faces))


@st.composite
def box_unions(draw):
    """One to three overlapping or disjoint axis-aligned boxes as one mesh."""
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        x0, y0, z0 = (draw(st.floats(-5.0, 5.0)) for _ in range(3))
        dx, dy, dz = (draw(st.floats(0.3, 4.0)) for _ in range(3))
        boxes.append((x0, y0, z0, x0 + dx, y0 + dy, z0 + dz))
    return boxes_mesh(boxes)


def two_tower_bridge() -> TriMesh:
    """Two vertical towers joined only by a horizontal top bridge.

    Sliced upright, lower layers cut both towers (2 loops) and upper
    layers cut towers plus bridge (3 loops); sliced along the bridge axis
    (x) every layer is a single loop. Feature planes sit off the 0.1+0.2k
    slicing levels so exact 90-degree grid rotations stay noise-free.
    """
    return boxes_mesh([
        (0.0, 0.0, 0.0, 2.0, 2.0, 6.0),
        (8.0, 0.0, 0.0, 10.0, 2.0, 6.0),
        (1.45, 0.0, 4.04, 8.55, 2.0, 5.96),
    ])


def random_code_grid(rng: np.random.Generator, n: int = 21, density: float = 0.45) -> BitGrid:
    """Random module matrix whose occupied cells span the full n x n extent.

    Corner modules are forced on so the occupied bounding box equals the
    grid, which is what projection recovers (real 2D codes always carry
    corner finder patterns).
    """
    bits = rng.random((n, n)) < density
    bits[0, 0] = bits[0, -1] = bits[-1, 0] = bits[-1, -1] = True
    return BitGrid(bits)


def random_unit_direction(rng: np.random.Generator, min_axis_gap: float = 0.01) -> np.ndarray:
    """Random unit vector kept away from basis-switch boundaries.

    The in-plane basis rule switches reference axis where the two smallest
    |components| tie; directions within ``min_axis_gap`` of such a tie are
    redrawn so a refined direction projects in the same frame as the
    planted one.
    """
    while True:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        a = np.sort(np.abs(v))
        if a[1] - a[0] > min_axis_gap:
            return v


def vrml_scene(triples: int, seed: int = 0, extras: bool = True) -> str:
    """Synthetic VRML97 export with one Color node of ``triples`` RGB rows."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(triples):
        r, g, b = rng.integers(1, 100, size=3) / 100.0
        rows.append(f"          {r:.2f} {g:.2f} {b:.2f}")
    colors = ",\n".join(rows)
    middle = ""
    if extras:
        middle = (
            '      appearance Appearance {\n'
            '        material Material { diffuseColor 0.66 0.66 0.66 }\n'
            '      }\n'
        )
    return (
        "#VRML V2.0 utf8\n"
        "# synthetic export, do not edit\n"
        'WorldInfo { title "part {with braces} and # hash" }\n'
        "DEF Deformed Transform {\n"
        "  translation 0 0 0.5\n"
        "  children [\n"
        "    Shape {\n"
        f"{middle}"
        "      geometry IndexedFaceSet {\n"
        "        coord Coordinate { point [ 0 0 0, 1 0 0, 0 1 0, 1.5e-1 .25 -0.5 ] }\n"
        "        coordIndex [ 0, 1, 2, -1, 1, 3, 2, -1 ]\n"
        "        color Color {\n"
        "          color [\n"
        f"{colors}\n"
        "          ]\n"
        "        }\n"
        "        colorPerVertex FALSE\n"
        "      }\n"
        "    }\n"
        "  ]\n"
        "}\n"
    )


@pytest.fixture(scope="session")
def fixture_corpus(tmp_path_factory):
    """>= 12 on-disk fixture files: binary STL meshes plus VRML scenes."""
    root = tmp_path_factory.mktemp("corpus")
    rng = np.random.default_rng(20260809)
    stl_paths = []

    meshes = {
        "cube.stl": box_mesh(0, 0, 0, 10, 10, 10),
        "slab.stl": box_mesh(-4, -2, 0, 4, 2, 1),
        "two_boxes.stl": boxes_mesh([(0, 0, 0, 1, 1, 1), (5, 0, 0, 6, 1, 1)]),
        "towers.stl": two_tower_bridge(),
    }
    from dm_stegkit.qr3d import EmbedParams, SphereCloud, grid_to_spheres, spheres_to_mesh, unit_vector

    cloud = grid_to_spheres(
        random_code_grid(rng, n=9, density=0.5),
        EmbedParams(pitch=2.0, direction=unit_vector((0.2, 0.3, 0.93)), seed=11),
    )
    meshes["spheres.stl"] = spheres_to_mesh(cloud, 1)
    meshes["ball.stl"] = spheres_to_mesh(SphereCloud(np.zeros((1, 3)), radius=4.0), 2)

    slicer_note = b"generated by desktop slicer 9.9; do not trust headers"
    for i, (name, mesh) in enumerate(meshes.items()):
        if i % 2:
            mesh = TriMesh(mesh.vertices, mesh.triangles,
                           slicer_note[: 80].ljust(80, b"\x00"))
        path = root / name
        path.write_bytes(write_stl_binary(mesh))
        stl_paths.append(path)

    vrml_paths = []
    for i, triples in enumerate((40, 60, 120, 200, 320, 500)):
        path = root / f"scene_{i}.wrl"
        path.write_text(vrml_scene(triples, seed=i, extras=bool(i % 2)),
                        encoding="utf-8")
        vrml_paths.append(path)

    grid_path = root / "grid.pbm"
    grid_path.write_text(grid_to_pbm(random_code_grid(rng, n=13, density=0.5)))
    return {"stl": stl_paths, "vrml": vrml_paths, "grid": grid_path, "root": root}
