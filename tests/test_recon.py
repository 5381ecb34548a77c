import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dm_stegkit import (
    EmbedParams,
    PointCloud,
    Rotation,
    grid_to_spheres,
    group_layers,
    layer_outline,
    loft_layers,
    mesh_volume,
    orientation_scan,
    rotate_mesh,
    spheres_to_mesh,
    unit_vector,
)
from dm_stegkit import recon
from dm_stegkit.errors import DegenerateLayer, EmptyCloud, TooFewPoints
from dm_stegkit.meshcore import default_weld_tol
from conftest import box_mesh, boxes_mesh, random_code_grid, two_tower_bridge


def circle_layer(z, radius=5.0, samples=128):
    t = np.linspace(0, 2 * math.pi, samples, endpoint=False)
    return np.column_stack([radius * np.cos(t), radius * np.sin(t),
                            np.full(samples, z)])


def cylinder_cloud(radius=5.0, height=20.0, layer_height=0.5, samples=128):
    layers = [circle_layer(i * layer_height, radius, samples)
              for i in range(int(round(height / layer_height)) + 1)]
    return PointCloud(np.vstack(layers))


# --- layer grouping ---------------------------------------------------------------

def test_group_layers_gap_rule():
    z = np.array([0, 0, 1, 1, 2.0])
    pts = np.column_stack([np.arange(5), np.zeros(5), z])
    stack = group_layers(PointCloud(pts), z_tol=0.1)
    assert stack.layer_count == 3
    assert [round(zz, 6) for zz, _ in stack.layers] == [0.0, 1.0, 2.0]


def test_group_single_point():
    stack = group_layers(PointCloud(np.array([[1.0, 2.0, 3.0]])))
    assert stack.layer_count == 1


def test_group_234_layer_cloud():
    layers = [circle_layer(i * 0.2, samples=24) for i in range(234)]
    stack = group_layers(PointCloud(np.vstack(layers)))
    assert stack.layer_count == 234
    assert stack.median_spacing == pytest.approx(0.2)


def test_group_empty_rejected():
    with pytest.raises(EmptyCloud):
        PointCloud(np.zeros((0, 3)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.floats(0.1, 2.0), st.integers(0, 2 ** 31))
def test_group_layers_partition_property(nlayers, spacing, seed):
    # layered clouds: intra-layer z noise well under the gap
    rng = np.random.default_rng(seed)
    pts = []
    for i in range(nlayers):
        k = rng.integers(1, 12)
        xy = rng.normal(size=(k, 2))
        z = np.full(k, i * spacing) + rng.uniform(-spacing / 8, spacing / 8, size=k)
        pts.append(np.column_stack([xy, z]))
    cloud = PointCloud(np.vstack(pts))
    z_tol = spacing / 2
    stack = group_layers(cloud, z_tol=z_tol)
    assert sum(len(p) for _, p in stack.layers) == len(cloud.points)
    assert stack.layer_count == nlayers
    zs = [z for z, _ in stack.layers]
    assert all(b > a for a, b in zip(zs, zs[1:]))


# --- outlines ----------------------------------------------------------------------

def test_outline_unit_square_corners():
    o = layer_outline(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
    assert len(o.ring) == 4
    assert o.area == pytest.approx(1.0)
    assert o.method == "chained"
    assert not o.degenerate


def test_outline_circle_area_within_1pct():
    # oracle: analytic area of the unit disk
    pts = circle_layer(0.0, radius=1.0, samples=64)[:, :2]
    o = layer_outline(pts)
    assert abs(o.area - math.pi) / math.pi < 0.01
    assert o.method == "chained"


def test_outline_collinear_degenerates_to_hull():
    o = layer_outline(np.array([[0.0, 0], [1, 0], [2, 0]]))
    assert o.method == "convex_hull"
    assert o.degenerate
    assert o.area == 0.0


def test_outline_too_few_points():
    with pytest.raises(TooFewPoints):
        layer_outline(np.array([[0.0, 0], [1, 1]]))


def test_outline_scattered_interior_falls_back_to_hull():
    rng = np.random.default_rng(5)
    blob = rng.uniform(-1, 1, size=(60, 2))
    o = layer_outline(blob)
    assert o.method in ("chained", "convex_hull")
    assert o.area > 0


# --- lofting ------------------------------------------------------------------------

def _watertight(mesh):
    edges = {}
    for a, b, c in mesh.triangles:
        for e in ((a, b), (b, c), (c, a)):
            key = (min(e), max(e))
            edges[key] = edges.get(key, 0) + 1
    return set(edges.values()) == {2}


def square_ring_layer(z, side=1.0, samples=40):
    s = np.linspace(0, 4, samples, endpoint=False)
    pts = []
    for q in s:
        edge = int(q)
        f = (q - edge) * side
        pts.append([(f, 0), (side, f), (side - f, side), (0, side - f)][edge])
    arr = np.array(pts)
    return np.column_stack([arr, np.full(len(arr), z)])


def test_loft_unit_prism_volume():
    cloud = PointCloud(np.vstack([square_ring_layer(0.0), square_ring_layer(1.0)]))
    mesh = loft_layers(group_layers(cloud), resample_count=128)
    assert mesh_volume(mesh) == pytest.approx(1.0, rel=0.01)
    assert _watertight(mesh)


def test_loft_sampled_10mm_cube():
    layers = [square_ring_layer(z, side=10.0, samples=80) for z in np.linspace(0, 10, 11)]
    mesh = loft_layers(group_layers(PointCloud(np.vstack(layers))), resample_count=128)
    assert mesh_volume(mesh) == pytest.approx(1000.0, rel=0.02)
    assert _watertight(mesh)


def test_loft_cylinder_within_1pct():
    mesh = loft_layers(group_layers(cylinder_cloud()), resample_count=256)
    analytic = math.pi * 25.0 * 20.0
    assert abs(mesh_volume(mesh) - analytic) / analytic < 0.01
    assert _watertight(mesh)


def test_loft_volume_error_decreases_as_resampling_doubles():
    cloud = cylinder_cloud(samples=512)
    stack = group_layers(cloud)
    analytic = math.pi * 25.0 * 20.0
    errors = []
    for m in (32, 64, 128, 256):
        vol = mesh_volume(loft_layers(stack, resample_count=m))
        errors.append(abs(vol - analytic) / analytic)
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_loft_needs_two_layers():
    stack = group_layers(PointCloud(circle_layer(0.0)))
    with pytest.raises(ValueError):
        loft_layers(stack)


def test_loft_degenerate_layer_raises():
    line = np.column_stack([np.linspace(0, 1, 10), np.zeros(10), np.zeros(10)])
    good = circle_layer(1.0)
    stack = group_layers(PointCloud(np.vstack([line, good])))
    with pytest.raises(DegenerateLayer) as err:
        loft_layers(stack)
    assert err.value.z == pytest.approx(0.0)


# --- orientation scanning --------------------------------------------------------------

def _independent_loop_count(mesh, rotation_matrix, layer_height=0.2):
    """Brute-force slicing oracle, written apart from the library code.

    Slices each layer by clipping every triangle against the plane with
    straight interpolation, then counts connected components of the
    segment endpoints with union-find over a rounding grid.
    """
    verts = mesh.vertices @ rotation_matrix.T
    tris = verts[mesh.triangles]
    z0, z1 = verts[:, 2].min(), verts[:, 2].max()
    nlayers = max(1, int((z1 - z0) / layer_height))
    counts = []
    for k in range(nlayers):
        z = z0 + (k + 0.5) * layer_height
        pts = []
        segs = []
        for tri in tris:
            ends = []
            for i in range(3):
                a, b = tri[i], tri[(i + 1) % 3]
                da, db = a[2] - z, b[2] - z
                if da == 0 and db == 0:
                    continue
                if (da <= 0 < db) or (db <= 0 < da):
                    t = da / (da - db)
                    ends.append((a + (b - a) * t)[:2])
            if len(ends) == 2 and not np.allclose(ends[0], ends[1]):
                segs.append((tuple(np.round(ends[0], 6)), tuple(np.round(ends[1], 6))))
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in segs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        roots = {find(p) for seg in segs for p in seg}
        counts.append(len(roots))
    return sum(counts) / len(counts)


def test_scan_axis_aligned_cube_prefers_identity():
    report = orientation_scan(box_mesh(0, 0, 0, 10, 10, 10), angle_step_deg=90)
    best = report.best()
    assert best.rotation.as_tuple() == (0.0, 0.0, 0.0)
    assert best.mean_loops_per_layer == pytest.approx(1.0)
    assert best.max_open_chains == 0


def test_scan_cube_symmetry_scores_equal():
    report = orientation_scan(box_mesh(-5, -5, -5, 5, 5, 5), angle_step_deg=90)
    scores = [c.fragmentation_score for c in report.candidates]
    assert max(scores) - min(scores) < 1e-9


def test_scan_two_towers_prefers_bridge_axis():
    towers = two_tower_bridge()
    report = orientation_scan(towers, angle_step_deg=90, layer_height=0.2)
    best = report.best()
    bridge_up = best.rotation.matrix() @ np.array([1.0, 0.0, 0.0])
    assert abs(bridge_up[2]) == pytest.approx(1.0, abs=1e-9)

    # oracle agreement: the independent slicer sees fewer mean loops along
    # the bridge axis than upright
    upright = _independent_loop_count(towers, Rotation(0, 0, 0).matrix())
    along = _independent_loop_count(towers, Rotation(0, 90, 0).matrix())
    assert along < upright
    assert best.mean_loops_per_layer == pytest.approx(along, abs=0.05)


def test_scan_candidate_count_and_sorting():
    report = orientation_scan(box_mesh(0, 0, 0, 2, 2, 2), angle_step_deg=120)
    assert report.candidate_count == 27
    scores = [c.fragmentation_score for c in report.candidates]
    assert scores == sorted(scores)


def test_scan_rejects_bad_step():
    with pytest.raises(ValueError):
        orientation_scan(box_mesh(0, 0, 0, 1, 1, 1), angle_step_deg=77)


def test_scan_report_json_shape():
    import json
    report = orientation_scan(box_mesh(0, 0, 0, 1, 1, 1), angle_step_deg=180)
    doc = json.loads(report.to_json(top=3))
    assert doc["candidate_count"] == 8
    assert len(doc["candidates"]) == 3
    assert set(doc["candidates"][0]) == {
        "rotation", "mean_loops_per_layer", "max_open_chains",
        "bottom_layer_area", "fragmentation_score",
    }


def test_scan_volume_preserved_under_listed_rotations():
    towers = two_tower_bridge()
    vol = mesh_volume(towers)
    report = orientation_scan(towers, angle_step_deg=180)
    for cand in report.candidates:
        assert mesh_volume(rotate_mesh(towers, cand.rotation)) == pytest.approx(vol)


def test_bottom_layer_area_tiebreak():
    # a flat slab: lying down has a far larger bottom layer than on edge,
    # loops per layer tie at 1 either way
    slab = box_mesh(0, 0, 0, 8, 8, 1)
    report = orientation_scan(slab, angle_step_deg=90, layer_height=0.2)
    best = report.best()
    assert best.bottom_layer_area == pytest.approx(64.0)
    assert best.rotation.as_tuple() == (0.0, 0.0, 0.0)


# --- up-vector grouping ------------------------------------------------------------------

def _up_key(rotation):
    return tuple((np.round(rotation.matrix()[2], 9) + 0.0).tolist())


def _stats(cand):
    return (cand.mean_loops_per_layer, cand.max_open_chains,
            cand.bottom_layer_area, cand.fragmentation_score)


def _per_rotation_scan(mesh, angle_step_deg, layer_height=0.2):
    """Reference path: slice every grid rotation on its own.

    Returns {rotation tuple: stats} plus the rotations whose truncated
    layer count, int(height / layer_height), differs from the
    noise-robust count the scan uses.
    """
    weld_tol = default_weld_tol(mesh)
    steps = np.arange(0.0, 360.0, angle_step_deg)
    out, corrected = {}, set()
    for rx in steps:
        for ry in steps:
            for rz in steps:
                rot = Rotation(rx, ry, rz)
                rv = mesh.vertices @ rot.matrix().T
                gz0, gz1 = rv[:, 2].min(), rv[:, 2].max()
                nlayers = max(1, int((gz1 - gz0) / layer_height))
                if nlayers != recon._layer_count(gz1 - gz0, layer_height):
                    corrected.add(rot.as_tuple())
                levels = gz0 + (np.arange(nlayers) + 0.5) * layer_height
                loops, open_layers, max_open, area = recon._slice_stats(
                    rv[mesh.triangles], levels, weld_tol)
                mean_loops = loops / nlayers
                out[rot.as_tuple()] = (mean_loops, max_open, area,
                                       mean_loops + 10.0 * open_layers / nlayers)
    return out, corrected


def _sphere_code_mesh():
    grid = random_code_grid(np.random.default_rng(4), n=5, density=0.5)
    params = EmbedParams(pitch=2.0, direction=unit_vector((0.2, 0.3, 0.93)), seed=3)
    return spheres_to_mesh(grid_to_spheres(grid, params), 1)


@pytest.mark.parametrize("mesh_factory, step", [
    (two_tower_bridge, 45.0),
    (_sphere_code_mesh, 90.0),
])
def test_scan_matches_per_rotation_reference(mesh_factory, step):
    mesh = mesh_factory()
    report = orientation_scan(mesh, angle_step_deg=step, layer_height=0.2)
    reference, corrected = _per_rotation_scan(mesh, step)
    # neither fixture has a rotation whose height sits a float ulp below a
    # whole number of layers, so every candidate must agree
    assert corrected == set()
    assert report.candidate_count == len(reference)
    for cand in report.candidates:
        loops, max_open, area, frag = reference[cand.rotation.as_tuple()]
        assert cand.mean_loops_per_layer == loops
        assert cand.max_open_chains == max_open
        assert cand.fragmentation_score == frag
        assert cand.bottom_layer_area == pytest.approx(area, rel=1e-9, abs=0.0)


@st.composite
def box_unions(draw):
    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        x0, y0, z0 = (draw(st.floats(-5.0, 5.0)) for _ in range(3))
        dx, dy, dz = (draw(st.floats(0.3, 4.0)) for _ in range(3))
        boxes.append((x0, y0, z0, x0 + dx, y0 + dy, z0 + dz))
    return boxes_mesh(boxes)


@settings(max_examples=8, deadline=None)
@given(box_unions(), st.sampled_from([90.0, 45.0, 30.0]))
def test_scan_stats_depend_only_on_up_vector(mesh, step):
    report = orientation_scan(mesh, angle_step_deg=step, layer_height=0.2)
    assert report.candidate_count == round(360 / step) ** 3
    by_up = {}
    for cand in report.candidates:
        by_up.setdefault(_up_key(cand.rotation), set()).add(_stats(cand))
    assert all(len(stats) == 1 for stats in by_up.values())


def test_layer_count_absorbs_float_noise():
    assert recon._layer_count(9.999999999999998, 0.2) == 50
    assert recon._layer_count(10.0, 0.2) == 50
    assert recon._layer_count(9.9, 0.2) == 49
    assert recon._layer_count(0.05, 0.2) == 1


def test_scan_bridge_axis_group_shares_layer_count():
    # rotated about the bridge axis (x) the towers are 10 mm = 50 layers
    # tall; at (120, 270, 120) float noise puts the rotated height one ulp
    # below 10, which truncation read as 49 layers (55/49 loops per layer
    # against 56/50 for the other rotations of the group)
    towers = two_tower_bridge()
    rv = towers.vertices @ Rotation(120, 270, 120).matrix().T
    assert int((rv[:, 2].max() - rv[:, 2].min()) / 0.2) == 49

    report = orientation_scan(towers, angle_step_deg=30, layer_height=0.2)
    bridge_up = [c for c in report.candidates
                 if abs(abs(c.rotation.matrix()[2, 0]) - 1.0) < 1e-9]
    assert (120.0, 270.0, 120.0) in {c.rotation.as_tuple() for c in bridge_up}
    assert {c.mean_loops_per_layer for c in bridge_up} == {56 / 50}
    assert {c.max_open_chains for c in bridge_up} == {0}
