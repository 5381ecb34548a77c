import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from dm_stegkit.meshcore import _FEATURE_CORNERS, TriMesh, _dedup_vertices, \
    _first_occurrence_ids, _level_ranges, _section_features, _section_paths, _walk, polygon_area
from conftest import box_mesh, box_unions, boxes_mesh, random_code_grid, two_tower_bridge


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


def _group_layers_reference(cloud, z_tol=None):
    """The grouping that copied each layer through an index split: the
    layers and the median spacing."""
    pts = cloud.points
    order = np.argsort(pts[:, 2], kind="stable")
    pts = pts[order]
    z = pts[:, 2]
    gaps = np.diff(z)
    if z_tol is None:
        positive = gaps[gaps > 0]
        z_tol = float(np.median(positive)) / 2.0 if len(positive) else 1e-6
    breaks = np.nonzero(gaps > z_tol)[0] + 1
    layers = []
    for chunk in np.split(np.arange(len(pts)), breaks):
        members = pts[chunk]
        layers.append((float(members[:, 2].mean()), members[:, :2].copy()))
    spacing = np.diff([z for z, _ in layers])
    return layers, float(np.median(spacing)) if len(spacing) else 0.0


@st.composite
def _layered_clouds(draw):
    """Shuffled layered clouds: runs of equal z, z noise within a layer or
    none, one layer or many, and an explicit z_tol or the default."""
    seed = draw(st.integers(0, 2 ** 31))
    nlayers = draw(st.integers(1, 8))
    spacing = draw(st.sampled_from([0.2, 1.0, 0.1 + 2 ** -30, 3.7]))
    noise = draw(st.sampled_from([0.0, 0.0, spacing / 8]))
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 30, size=nlayers)
    z = np.repeat(np.arange(nlayers) * spacing, counts)
    z += rng.uniform(-noise, noise, size=len(z))
    xy = np.round(rng.normal(size=(len(z), 2)), draw(st.integers(0, 6)))
    pts = np.column_stack([xy, z])[rng.permutation(len(z))]
    z_tol = draw(st.sampled_from([None, spacing / 2, spacing / 4, 10 * spacing]))
    return PointCloud(pts), z_tol


@settings(max_examples=150, deadline=None)
@given(_layered_clouds())
@example((PointCloud(np.array([[1.0, 2.0, 3.0]])), None))
@example((PointCloud(np.array([[0.0, 0, 1], [1, 0, 1], [2, 0, 1]])), 0.5))
def test_group_layers_matches_index_split_reference(case):
    cloud, z_tol = case
    before = cloud.points.tobytes()
    stack = group_layers(cloud, z_tol=z_tol)
    ref_layers, ref_median = _group_layers_reference(cloud, z_tol=z_tol)
    assert cloud.points.tobytes() == before
    assert stack.layer_count == len(ref_layers)
    for (z, xy), (ref_z, ref_xy) in zip(stack.layers, ref_layers):
        assert np.float64(z).tobytes() == np.float64(ref_z).tobytes()
        assert xy.shape == ref_xy.shape and xy.tobytes() == ref_xy.tobytes()
    assert np.float64(stack.median_spacing).tobytes() == np.float64(ref_median).tobytes()


def test_group_layers_holds_one_sorted_copy():
    # 20 layers of 10^4 points, shuffled; the index split held the sorted
    # copy, the order, an index and a copy of every layer at once (2.7x)
    rng = np.random.default_rng(32)
    t = rng.uniform(0, 2 * math.pi, size=(20, 10_000))
    z = np.repeat(np.arange(20) * 0.2, 10_000).reshape(20, 10_000)
    pts = np.stack([20 * np.cos(t), 20 * np.sin(t), z], -1).reshape(-1, 3)
    cloud = PointCloud(pts[rng.permutation(len(pts))])
    group_layers(PointCloud(cloud.points[:1000]))     # np.median imports numpy.ma once
    tracemalloc.start()
    try:
        stack = group_layers(cloud)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.layer_count == 20
    # every layer's xy views one array of all the points
    base = stack.layers[0][1].base
    assert base is not None and base.nbytes == cloud.points.nbytes
    assert all(xy.base is base for _, xy in stack.layers)
    assert peak <= 1.5 * cloud.points.nbytes


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



def _nearest_d2(pts):
    """The shared neighbour search on one row, distances only."""
    return recon._nearest_neighbours(pts[None])[1][0]


# Brute-force references: every pair of points is compared, O(n^2) memory.

def _nearest_d2_reference(pts):
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return d2.min(axis=1)


def _nn_median_reference(pts):
    return float(np.sqrt(np.median(_nearest_d2_reference(pts))))


def _chain_reference(pts, start, jump_limit):
    visited = np.zeros(len(pts), dtype=bool)
    chain = [start]
    visited[start] = True
    cur = pts[start]
    while True:
        d2 = ((pts - cur) ** 2).sum(axis=1)
        d2[visited] = np.inf
        nxt = int(np.argmin(d2))
        if not np.isfinite(d2[nxt]) or math.sqrt(d2[nxt]) > jump_limit:
            return chain
        visited[nxt] = True
        chain.append(nxt)
        cur = pts[nxt]


def _outline_reference(points, z=0.0):
    pts = np.unique(np.asarray(points, dtype=np.float64).reshape(-1, 2), axis=0)
    jump_limit = 2.0 * _nn_median_reference(pts)
    start = int(np.lexsort((pts[:, 0], pts[:, 1]))[0])
    chain = _chain_reference(pts, start, jump_limit)

    scale = max(np.ptp(pts, axis=0).max(), 1e-12)
    area_floor = 1e-12 * scale * scale
    closes = np.linalg.norm(pts[chain[-1]] - pts[chain[0]]) <= jump_limit
    ring = pts[chain]
    if not (closes and len(chain) >= 3 and len(chain) >= 0.9 * len(pts)
            and abs(polygon_area(ring)) > area_floor):
        ring = recon._convex_hull(pts)
        method = "convex_hull"
        if len(ring) < 3:
            ring = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    else:
        method = "chained"
    if polygon_area(ring) < 0:
        ring = ring[::-1]
    keep = np.ones(len(ring), dtype=bool)
    keep[1:] = np.any(ring[1:] != ring[:-1], axis=1)
    ring = ring[keep]
    return ring, method, abs(polygon_area(ring)) <= area_floor


def _layer_points(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(-3, 3, size=(n, 2))
    if kind == "rounded":                   # coarse grid: many equal distances
        return np.round(rng.normal(scale=2.0, size=(n, 2)), 1)
    if kind == "lattice":                   # equal distances everywhere
        side = int(math.sqrt(n)) + 2
        return rng.integers(0, side, size=(n, 2)).astype(np.float64)
    if kind == "collinear":
        t = rng.uniform(-5, 5, size=n)
        return np.column_stack([t, 0.5 * t - 1.0])
    t = rng.uniform(0, 2 * math.pi, size=n)
    a, b = rng.uniform(0.5, 20.0, size=2)
    ring = np.column_stack([a * np.cos(t), b * np.sin(t)])
    return ring + rng.normal(scale=0.01 * min(a, b), size=(n, 2))


_KINDS = ["uniform", "rounded", "lattice", "collinear", "ellipse"]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(3, 600), st.integers(0, 2 ** 31))
def test_outline_matches_brute_force_reference(kind, n, seed):
    pts = _layer_points(kind, n, seed)
    distinct = np.unique(pts, axis=0)
    assume(len(distinct) >= 3)
    nearest = _nearest_d2(distinct)
    assert nearest.tobytes() == _nearest_d2_reference(distinct).tobytes()
    assert recon._nearest_neighbor_median(distinct) == _nn_median_reference(distinct)
    ring, method, degenerate = _outline_reference(pts)
    o = layer_outline(pts)
    assert o.ring.tobytes() == ring.tobytes()
    assert (o.method, o.degenerate) == (method, degenerate)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(3, 400), st.integers(0, 2 ** 31),
       st.sampled_from([0.5, 1.0, 2.0, 4.0]))
@example("lattice", 300, 0, 2.0)
@example("lattice", 300, 1, 4.0)
def test_greedy_chain_matches_brute_force_reference(kind, n, seed, reach):
    # the chain itself, not only the outline it may fall back from; equal
    # distances (lattice, rounded) must go to the lowest index
    pts = np.unique(_layer_points(kind, n, seed), axis=0)
    assume(len(pts) >= 3)
    jump_limit = reach * _nn_median_reference(pts)
    start = int(np.random.default_rng(seed).integers(len(pts)))
    assert recon._greedy_chain(pts, start, jump_limit) == _chain_reference(pts, start, jump_limit)


# a lattice layer whose chain finds every entry of a cut list visited, so it
# takes the nearest unvisited point from a pass over the layer
_CUT_LATTICE = ("lattice", 498, 33)


@st.composite
def _ragged_stacks(draw):
    """Layers of mixed kinds and sizes, each of at least 3 distinct points,
    with the cut-list lattice layer among them."""
    specs = draw(st.lists(st.tuples(st.sampled_from(_KINDS), st.integers(3, 600),
                                    st.integers(0, 2 ** 31)), min_size=1, max_size=6))
    specs.insert(draw(st.integers(0, len(specs))), _CUT_LATTICE)
    layers = [_layer_points(*spec) for spec in specs]
    return [(0.25 * k, pts) for k, pts in enumerate(layers) if len(np.unique(pts, axis=0)) >= 3]


@settings(max_examples=40, deadline=None)
@given(_ragged_stacks())
def test_batched_outlines_match_brute_force_reference(layers):
    # one batch, one layer per batch, and batches of a few layers
    refs = [_outline_reference(pts) for _, pts in layers]
    for budget, batches in ((recon._OUTLINE_BATCH_POINTS, 1), (1, len(layers)), (700, None)):
        with mock.patch.object(recon, "_OUTLINE_BATCH_POINTS", budget), \
                mock.patch.object(recon, "_outline_batch", wraps=recon._outline_batch) as batch, \
                mock.patch.object(recon, "_nearest_unvisited",
                                  wraps=recon._nearest_unvisited) as fallback:
            outlines = list(recon._layer_outlines(layers))
        assert batches is None or batch.call_count == batches
        assert fallback.call_count >= 1
        assert len(outlines) == len(layers)
        for (z, _), o, (ring, method, degenerate) in zip(layers, outlines, refs):
            assert o.z == z
            assert o.ring.tobytes() == ring.tobytes()
            assert (o.method, o.degenerate) == (method, degenerate)


def test_outline_points_that_differ_in_a_zero_sign_keep_np_unique_bits():
    # (x, 0.0) and (x, -0.0) are one point, and np.unique keeps either row;
    # a collinear layer's ring holds every distinct point with those bits
    rng = np.random.default_rng(0)
    x = rng.integers(-5, 6, size=60).astype(np.float64)
    pts = np.column_stack([x, np.where(rng.random(60) < 0.5, 0.0, -0.0)])
    layers = [(0.0, pts), (1.0, circle_layer(0.0)[:, :2]), (2.0, pts[::-1].copy())]
    for (_, xy), o in zip(layers, recon._layer_outlines(layers)):
        ring, method, degenerate = _outline_reference(xy)
        assert o.ring.tobytes() == ring.tobytes()
        assert (o.method, o.degenerate) == (method, degenerate)


def test_batched_outlines_fail_at_the_layer_that_would_fail_first():
    # one batch: the outlines before a layer of 2 distinct points are
    # traced, and lofting meets a degenerate layer before it as it did
    good = circle_layer(0.0)[:, :2]
    line = np.column_stack([np.linspace(0, 1, 10), np.zeros(10)])
    pair = np.array([[0.0, 0], [1, 1], [1, 1]])
    outlines = recon._layer_outlines([(0.0, good), (1.0, line), (2.0, pair), (3.0, good)])
    assert [next(outlines).method, next(outlines).degenerate] == ["chained", True]
    with pytest.raises(TooFewPoints, match="got 2"):
        next(outlines)
    for layers, error in (([line, pair], DegenerateLayer), ([pair, line], TooFewPoints)):
        cloud = np.vstack([np.column_stack([xy, np.full(len(xy), 0.5 * k)])
                           for k, xy in enumerate([good, *layers, good])])
        with pytest.raises(error):
            loft_layers(group_layers(PointCloud(cloud)))


def test_nn_median_far_points_fall_back_exactly():
    # cells of side 1 on this line: from x = 1.95 the nearest point in the
    # 3x3 block is 1.45 away, but x = 3.1, two cells over, is nearer (1.15)
    line = np.column_stack([[0.0, 0.5, 1.95, 3.1, 5.0], np.zeros(5)])
    # a tight cluster plus points whose 3x3 blocks hold nothing else
    rng = np.random.default_rng(11)
    cluster = np.vstack([rng.uniform(0, 1, size=(200, 2)),
                         [[500.0, 500.0], [500.0, 740.0], [-300.0, 90.0]]])
    for pts in (line, cluster):
        assert _nearest_d2(pts).tobytes() == _nearest_d2_reference(pts).tobytes()


@pytest.mark.parametrize("kind", _KINDS)
def test_nn_median_exact_across_pair_blocks(kind, monkeypatch):
    # tiny blocks: many per call, and single points whose pairs overflow one
    monkeypatch.setattr(recon, "_PAIR_BLOCK", 40)
    pts = np.unique(_layer_points(kind, 500, 3), axis=0)
    pts = np.vstack([pts, np.full((60, 2), 0.25) + np.arange(60)[:, None] * 1e-3,
                     [[400.0, -300.0]]])
    assert _nearest_d2(pts).tobytes() == _nearest_d2_reference(pts).tobytes()


def _neighbours_reference(stack):
    d2 = ((stack[:, :, None, :] - stack[:, None, :, :]) ** 2).sum(axis=3)
    i = np.arange(stack.shape[1])
    d2[:, i, i] = np.inf
    idx = np.argmin(d2, axis=2)
    return idx, np.take_along_axis(d2, idx[:, :, None], axis=2)[:, :, 0]


_ROW_KINDS = ["uniform", "lattice", "coincident", "collinear", "outlier"]


def _row_points(kind, n, dim, rng):
    if kind == "uniform":
        return rng.uniform(-3, 3, size=(n, dim))
    if kind == "lattice":                   # equal distances everywhere
        return rng.integers(0, int(n ** (1.0 / dim)) + 2, size=(n, dim)).astype(np.float64)
    if kind == "coincident":                # points that project onto each other
        pool = rng.normal(size=(max(1, n // 3), dim))
        return pool[rng.integers(0, len(pool), size=n)]
    if kind == "collinear":
        return rng.uniform(-5, 5, size=(n, 1)) * rng.normal(size=dim) + rng.normal(size=dim)
    pts = rng.uniform(0, 1, size=(n, dim))  # one far outlier: it falls back
    pts[rng.integers(n)] = 1e4 * rng.normal(size=dim)
    return pts


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=4), st.integers(1, 300),
       st.sampled_from([2, 3]), st.integers(0, 2 ** 31))
@example(["lattice", "outlier", "coincident"], 300, 2, 0)
@example(["collinear", "outlier"], 200, 3, 1)
def test_nearest_neighbours_match_argmin_reference(kinds, n, dim, seed):
    # index and distance bits of np.argmin over all pairs, lowest index on
    # ties, in (M, N, 2) stacks as qr3d scores them and 3-D rows as its
    # least center distance
    rng = np.random.default_rng(seed)
    stack = np.stack([_row_points(kind, n, dim, rng) for kind in kinds])
    idx, d2 = recon._nearest_neighbours(stack)
    ref_idx, ref_d2 = _neighbours_reference(stack)
    assert idx.tobytes() == ref_idx.tobytes()
    assert d2.tobytes() == ref_d2.tobytes()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("block", [40, recon._PAIR_BLOCK])
def test_nearest_neighbours_of_a_row_do_not_depend_on_its_batch(dim, block, monkeypatch):
    monkeypatch.setattr(recon, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(dim)
    stack = np.stack([_row_points(kind, 250, dim, rng) for kind in _ROW_KINDS])
    idx, d2 = recon._nearest_neighbours(stack)
    rev_idx, rev_d2 = recon._nearest_neighbours(stack[::-1].copy())
    for r in range(len(stack)):
        alone_idx, alone_d2 = recon._nearest_neighbours(stack[r:r + 1])
        for other_idx, other_d2 in ((alone_idx[0], alone_d2[0]), (rev_idx[-1 - r], rev_d2[-1 - r])):
            assert other_idx.tobytes() == idx[r].tobytes()
            assert other_d2.tobytes() == d2[r].tobytes()
    # ragged rows, one of a single point, in one call: the bits of each
    # row's own call
    rows = [_row_points(kind, n, dim, rng) for kind, n in
            zip(_ROW_KINDS * 2, [1, 7, 250, 31, 120, 2, 64, 300, 9, 180])]
    sizes = [len(row) for row in rows]
    idx, d2 = recon._nearest_neighbours(np.concatenate(rows), sizes)
    cuts = np.cumsum(sizes)[:-1]
    for row, row_idx, row_d2 in zip(rows, np.split(idx, cuts), np.split(d2, cuts)):
        alone_idx, alone_d2 = recon._nearest_neighbours(row[None])
        assert row_idx.tobytes() == alone_idx[0].tobytes()
        assert row_d2.tobytes() == alone_d2[0].tobytes()


def test_outline_memory_is_linear_in_layer_size():
    # the pairwise search held an (n, n, 2) float64 array: ~384 MB here
    t = np.linspace(0, 2 * math.pi, 4000, endpoint=False)
    ring = np.column_stack([50 * np.cos(t), 30 * np.sin(t)])
    tracemalloc.start()
    try:
        o = layer_outline(ring)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert o.method == "chained"
    assert peak < 16 * 2 ** 20

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



def _loft_reference(stack, resample_count):
    """Per-quad loop that splits each quad along its shorter diagonal."""
    rings = [(z, recon._resample_ring(layer_outline(pts, z=z).ring, resample_count))
             for z, pts in stack.layers]
    m = resample_count
    verts = np.vstack([np.column_stack([ring, np.full(m, z)]) for z, ring in rings])
    tris = []
    for layer in range(len(rings) - 1):
        base = layer * m
        for i in range(m):
            j = (i + 1) % m
            p0, p1, q0, q1 = base + i, base + j, base + m + i, base + m + j
            if np.linalg.norm(verts[p0] - verts[q1]) <= np.linalg.norm(verts[p1] - verts[q0]):
                tris += [(p0, p1, q1), (p0, q1, q0)]
            else:
                tris += [(p0, p1, q0), (p1, q1, q0)]
    (z0, ring0), (z1, ring1) = rings[0], rings[-1]
    centers = [[ring0[:, 0].mean(), ring0[:, 1].mean(), z0],
               [ring1[:, 0].mean(), ring1[:, 1].mean(), z1]]
    last = (len(rings) - 1) * m
    for i in range(m):
        j = (i + 1) % m
        tris += [(len(verts), j, i), (len(verts) + 1, last + i, last + j)]
    return TriMesh(np.vstack([verts, centers]), np.array(tris, dtype=np.int64))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("resample_count", [16, 128])
def test_loft_matches_per_quad_reference(seed, resample_count):
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(int(rng.integers(2, 8))):
        n = int(rng.integers(12, 300))
        layer = _layer_points("ellipse", n, seed * 100 + k)
        layers.append(np.column_stack([layer, np.full(n, 0.4 * k)]))
    stack = group_layers(PointCloud(np.vstack(layers)))
    mesh = loft_layers(stack, resample_count=resample_count)
    ref = _loft_reference(stack, resample_count)
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert mesh.triangles.dtype == np.int64
    assert mesh.triangles.tobytes() == ref.triangles.tobytes()


@pytest.mark.parametrize("jitter", [0.0, 1e-16])
def test_loft_cylinder_matches_per_quad_reference(jitter):
    # aligned rings make both diagonals of every quad equal, and the tie
    # keeps the first split; jitter in the last bits leaves near-ties that
    # the rounding of the diagonal lengths decides
    cloud = cylinder_cloud(samples=400).points
    cloud[:, :2] += np.random.default_rng(0).normal(scale=jitter, size=(len(cloud), 2))
    stack = group_layers(PointCloud(cloud))
    for m in (128, 256):
        mesh = loft_layers(stack, resample_count=m)
        assert mesh.triangles.tobytes() == _loft_reference(stack, m).triangles.tobytes()

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


def test_scan_ignores_facets_that_repeat_a_corner():
    # each such facet's section features are joined to themselves: no segment
    towers = two_tower_bridge()
    extra = [[0, 0, 1], [1, 5, 5], [3, 3, 3], [0, 0, 14], [6, 17, 17]]
    padded = TriMesh(towers.vertices, np.vstack([towers.triangles, extra]))
    assert orientation_scan(padded, 45, 0.2).to_dict(top=None) \
        == orientation_scan(towers, 45, 0.2).to_dict(top=None)


def test_scan_candidate_count_and_sorting():
    report = orientation_scan(box_mesh(0, 0, 0, 2, 2, 2), angle_step_deg=120)
    assert report.candidate_count == 27
    scores = [c.fragmentation_score for c in report.candidates]
    assert scores == sorted(scores)


def test_scan_rejects_bad_step():
    for step in (77.0, 7.3, 0.0, -90.0, 500.0, 720.0, math.nan, math.inf, 360 / 7 * (1 + 1e-8)):
        with pytest.raises(ValueError, match="angle_step_deg must divide 360"):
            orientation_scan(box_mesh(0, 0, 0, 1, 1, 1), angle_step_deg=step)


def _one_facet():
    return TriMesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                   np.array([[0, 1, 2]]))


def test_scan_accepts_decimal_steps_that_divide_360():
    # 360 % 14.4 is not 0 in floats, yet 25 steps of 14.4 make 360
    report = orientation_scan(_one_facet(), angle_step_deg=14.4)
    assert report.candidate_count == 25 ** 3 == 15625
    angles = {a for c in report.candidates for a in c.rotation.as_tuple()}
    assert angles == {360.0 * j / 25 for j in range(25)}
    assert report.angle_step_deg == 14.4
    # stood on end, the facet is one open chain in every layer
    assert max(c.max_open_chains for c in report.candidates) == 1


def test_scan_report_json_shape():
    report = orientation_scan(box_mesh(0, 0, 0, 1, 1, 1), angle_step_deg=180)
    doc = json.loads(json.dumps(report.to_dict(top=3)))
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


def test_bottom_layer_area_is_float_without_closed_loops():
    # a side face removed: the bottom layer has one open chain and no loop
    box = box_mesh(0, 0, 0, 1, 1, 1)
    open_box = TriMesh(box.vertices, np.delete(box.triangles, [4, 5], axis=0))
    slab = box_mesh(0, 0, 0, 5, 5, 0.05)   # bottom level misses the mesh
    for mesh in (open_box, slab):
        report = orientation_scan(mesh, angle_step_deg=180, layer_height=0.2)
        for cand in report.candidates:
            assert type(cand.bottom_layer_area) is float
            assert cand.bottom_layer_area == 0.0
    assert '"bottom_layer_area": 0.0' in json.dumps(report.to_dict(top=1))
    assert report.best().max_open_chains == 0
    assert orientation_scan(open_box, 180, 0.2).best().max_open_chains == 1


# --- up-vector grouping ------------------------------------------------------------------

def _up_key(rotation):
    return tuple((np.round(rotation.matrix()[2], 9) + 0.0).tolist())


def _stats(cand):
    return (cand.mean_loops_per_layer, cand.max_open_chains,
            cand.bottom_layer_area, cand.fragmentation_score)


def _walked_slice_stats(vertices, triangles, levels):
    """Reference figures of one rotation from every path ``_walk`` builds:
    total loops, layers with open chains, the most open chains in one
    layer, and the loop area of level 0 (always a float)."""
    xy, node_level, a, b = _section_paths(vertices, triangles,
                                          _section_features(triangles, len(vertices)), levels,
                                          _level_ranges(vertices[triangles, 2], levels))
    loops, chains = _walk(a, b, len(xy))
    open_counts = np.bincount([node_level[ch[0]] for ch in chains], minlength=1)
    return (len(loops), int(np.count_nonzero(open_counts)), int(open_counts.max()),
            sum((abs(polygon_area(xy[lp])) for lp in loops if node_level[lp[0]] == 0), 0.0))


def _per_rotation_scan(mesh, angle_step_deg, layer_height=0.2):
    """Reference path: slice every grid rotation on its own and walk it.

    Returns {rotation tuple: stats} plus the rotations whose truncated
    layer count, int(height / layer_height), differs from the
    noise-robust count the scan uses.
    """
    vertices, index = _dedup_vertices(mesh.vertices)
    triangles = index[mesh.triangles]
    k = round(360.0 / angle_step_deg)
    steps = 360.0 * np.arange(k) / k
    out, corrected = {}, set()
    for rx in steps:
        for ry in steps:
            for rz in steps:
                rot = Rotation(rx, ry, rz)
                rv = vertices @ rot.matrix().T
                gz0, gz1 = rv[:, 2].min(), rv[:, 2].max()
                nlayers = max(1, int((gz1 - gz0) / layer_height))
                if nlayers != recon._layer_count(gz1 - gz0, layer_height):
                    corrected.add(rot.as_tuple())
                levels = gz0 + (np.arange(nlayers) + 0.5) * layer_height
                loops, open_layers, max_open, area = _walked_slice_stats(rv, triangles, levels)
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
    (two_tower_bridge, 360 / 7),            # 343 candidates; 360 % step != 0
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


@settings(max_examples=8, deadline=None)
@given(box_unions(), st.sampled_from([90.0, 45.0, 30.0]))
def test_scan_stats_depend_only_on_up_vector(mesh, step):
    report = orientation_scan(mesh, angle_step_deg=step, layer_height=0.2)
    assert report.candidate_count == round(360 / step) ** 3
    by_up = {}
    for cand in report.candidates:
        by_up.setdefault(_up_key(cand.rotation), set()).add(_stats(cand))
    assert all(len(stats) == 1 for stats in by_up.values())


# --- broadcast grid and feature-keyed sections ----------------------------------------

@pytest.mark.parametrize("step", [15.0, 45.0, 90.0, 14.4, 360 / 7])
def test_grid_up_vectors_match_rotation_loop(step):
    k = round(360 / step)
    steps = (360.0 * np.arange(k) / k).tolist()
    numbers, firsts, want = {}, [], []
    for rx in steps:
        for ry in steps:
            for rz in steps:
                rot = Rotation(rx, ry, rz)
                key = _up_key(rot)
                if key not in numbers:
                    numbers[key] = len(firsts)
                    firsts.append(rot.matrix())
                want.append(numbers[key])
    up, matrices = recon._grid_up_vectors(steps)
    assert up.tolist() == want
    assert matrices.shape == (len(firsts), 3, 3)
    assert matrices.tobytes() == np.array(firsts).tobytes()


def _reference_section_paths(vertices, triangles, levels, ranges):
    """``_section_paths`` with nodes keyed by three columns, (level, lower
    vertex, higher vertex), a vertex feature being (v, v); kept as the
    reference for the one-integer feature keys."""
    z = vertices[:, 2]
    tz = z[triangles]
    first, counts = ranges
    lev = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    order = np.argsort(lev, kind="stable")
    lev = lev[order]
    tri = np.repeat(np.arange(len(triangles)), counts)[order]
    s = np.sign(tz[tri] - levels[lev, None]).astype(np.int8)
    on = s == 0
    feature = np.concatenate([on, s[:, [0, 0, 1]] * s[:, [1, 2, 2]] < 0], axis=1)
    seg = (feature.sum(axis=1) == 2) & ~((on.sum(axis=1) == 2) & (s.sum(axis=1) < 0))
    rows, cols = np.nonzero(feature[seg])
    ends = np.sort(triangles[tri[seg]][rows[:, None], _FEATURE_CORNERS[cols]], axis=1)
    keys = np.column_stack([lev[seg][rows], ends])
    firsts, node = _first_occurrence_ids(keys)
    node_level, lo, hi = keys[firsts].T
    below = np.where(z[lo] < levels[node_level], lo, hi)
    above = np.where(below == lo, hi, lo)
    xy = vertices[below, :2]
    edge = below != above
    d0 = z[below[edge]] - levels[node_level[edge]]
    d1 = z[above[edge]] - levels[node_level[edge]]
    xy[edge] = xy[edge] + (vertices[above[edge], :2] - xy[edge]) * (d0 / (d0 - d1))[:, None]
    node = node.reshape(-1, 2)
    node = node[node[:, 0] != node[:, 1]]
    return xy, node_level, node[:, 0], node[:, 1]


def _assert_same_sections(got, want):
    (xy, *ints), (want_xy, *want_ints) = got, want
    assert xy.shape == want_xy.shape and xy.tobytes() == want_xy.tobytes()
    for g, w in zip(ints, want_ints):
        assert g.dtype == w.dtype and g.tolist() == w.tolist()


def _scan_checking_sections(mesh, step):
    """Scan with every section build checked against the reference;
    returns how many copies of the mesh each build stacked."""
    copies = []

    def checked(vertices, triangles, features, levels, ranges):
        copies.append(len(triangles) // len(mesh.triangles))
        got = _section_paths(vertices, triangles, features, levels, ranges)
        _assert_same_sections(got, _reference_section_paths(vertices, triangles, levels, ranges))
        return got

    with mock.patch.object(recon, "_section_paths", checked):
        orientation_scan(mesh, angle_step_deg=step, layer_height=0.2)
    return copies


@settings(max_examples=25, deadline=None)
@given(box_unions(), st.sampled_from([0.0, 30.0, 45.0]), st.integers(0, 4),
       st.integers(0, 2 ** 31))
def test_section_paths_match_three_column_reference_on_box_unions(mesh, angle, holes, seed):
    # dropped faces leave open chains; levels at every vertex height and
    # between them meet on-plane vertices, edges and faces
    keep = np.random.default_rng(seed).permutation(len(mesh.triangles))[holes:]
    mesh = TriMesh(mesh.vertices, mesh.triangles[np.sort(keep)])
    vertices, index = _dedup_vertices(rotate_mesh(mesh, Rotation(angle, angle / 2, 0.0)).vertices)
    triangles = index[mesh.triangles]
    zs = np.unique(vertices[:, 2])
    levels = np.unique(np.concatenate([zs, (zs[1:] + zs[:-1]) / 2]))
    ranges = _level_ranges(vertices[triangles, 2], levels)
    _assert_same_sections(
        _section_paths(vertices, triangles, _section_features(triangles, len(vertices)),
                       levels, ranges),
        _reference_section_paths(vertices, triangles, levels, ranges))
    _scan_checking_sections(mesh, 45.0)


@pytest.mark.parametrize("mesh_factory, step", [(two_tower_bridge, 45.0),
                                                (_sphere_code_mesh, 90.0)])
def test_stacked_section_builds_match_three_column_reference(mesh_factory, step):
    assert max(_scan_checking_sections(mesh_factory(), step)) > 1


# --- walk-free section counts ---------------------------------------------------------

def _grid_up_matrices(step):
    """The first grid rotation matrix of each distinct up-vector, in scan order."""
    ups = {}
    for rx in np.arange(0.0, 360.0, step):
        for ry in np.arange(0.0, 360.0, step):
            for rz in np.arange(0.0, 360.0, step):
                ups.setdefault(_up_key(Rotation(rx, ry, rz)), Rotation(rx, ry, rz).matrix())
    return list(ups.values())


def _assert_counts_match_walk(mesh, step, layer_height=0.2):
    """Every up-vector's batched counts equal the walk of all its paths,
    with the default batch budget and with every up-vector in a batch of
    its own. Returns the number of batches at the default budget."""
    vertices, index = _dedup_vertices(mesh.vertices)
    triangles = index[mesh.triangles]
    features = _section_features(triangles, len(vertices))
    matrices = _grid_up_matrices(step)
    batches = list(recon._rotated_batches(vertices, triangles, matrices, layer_height))
    singles = [[entry] for batch in batches for entry in batch]
    want = [_walked_slice_stats(rv, triangles, levels)
            for batch in singles for rv, levels, _ in batch]
    assert len(want) == len(matrices)
    for grouping in (batches, singles):
        got = [s for batch in grouping for s in recon._slice_stats(batch, triangles, features)]
        assert [(*s[:3], s[3].hex()) for s in got] == [(*s[:3], s[3].hex()) for s in want]
    return len(batches)


@settings(max_examples=25, deadline=None)
@given(box_unions(), st.sampled_from([90.0, 45.0, 30.0]), st.integers(0, 4),
       st.integers(0, 2 ** 31))
def test_slice_stats_match_walk_on_box_unions(mesh, step, holes, seed):
    # dropped faces leave odd-degree nodes, whose levels go to the walk
    keep = np.random.default_rng(seed).permutation(len(mesh.triangles))[holes:]
    _assert_counts_match_walk(TriMesh(mesh.vertices, mesh.triangles[np.sort(keep)]), step)


def _upright_sections(mesh):
    """Nodes and segments of the mesh sliced upright at the scan's levels."""
    vertices, index = _dedup_vertices(mesh.vertices)
    triangles = index[mesh.triangles]
    [(_, levels, _)] = next(recon._rotated_batches(vertices, triangles, [np.eye(3)], 0.2))
    return levels, _section_paths(vertices, triangles,
                                  _section_features(triangles, len(vertices)), levels,
                                  _level_ranges(vertices[triangles, 2], levels))


def test_slice_stats_match_walk_on_boxes_sharing_an_edge():
    # upright, the shared vertical edge is one node with four segments per level
    mesh = boxes_mesh([(0.0, 0.0, 0.0, 1.0, 1.0, 1.0), (1.0, 1.0, 0.0, 2.0, 2.0, 1.0)])
    _, (_, _, a, b) = _upright_sections(mesh)
    assert np.bincount(np.concatenate([a, b])).max() == 4
    # the 45-degree up-vectors share batches, so batched ids are offset
    assert _assert_counts_match_walk(mesh, 45.0) < len(_grid_up_matrices(45.0))


def test_slice_stats_match_walk_on_facets_stood_on_end():
    facet = TriMesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                    np.array([[0, 1, 2]]))
    # a facet and its reverse cross the same two edges: two segments
    # between two nodes, a two-node cycle that the walk calls a chain
    pillow = TriMesh(facet.vertices, np.array([[0, 1, 2], [0, 2, 1]]))
    for mesh in (facet, pillow):
        _assert_counts_match_walk(mesh, 45.0)
        report = orientation_scan(mesh, angle_step_deg=90.0, layer_height=0.2)
        upright = [c for c in report.candidates if c.rotation.as_tuple() == (0.0, 0.0, 0.0)]
        assert [(c.mean_loops_per_layer, c.max_open_chains) for c in upright] == [(0.0, 1)]


def test_slice_stats_match_walk_with_faces_on_a_level():
    # the lower box's top face and the upper box's bottom face lie on
    # level 1 (z = 0.3 up to rounding) of the upright slicing
    top = 1.5 * 0.2
    mesh = boxes_mesh([(0.0, 0.0, 0.0, 2.0, 2.0, top), (1.0, 1.0, top, 3.0, 3.0, 1.0)])
    levels, (_, node_level, _, _) = _upright_sections(mesh)
    assert levels[1] == top and (node_level == 1).any()
    _assert_counts_match_walk(mesh, 90.0)
    _assert_counts_match_walk(mesh, 45.0)


def test_scan_memory_is_bounded_by_the_batch_budget():
    # the section build holds ~300 bytes per (triangle, level) pair, so one
    # batch of _SCAN_BATCH_PAIRS pairs peaks near 2.5 MB; the towers' 45-degree
    # grid holds ~10 MB of pairs in all
    for mesh, step in ((two_tower_bridge(), 45.0), (_sphere_code_mesh(), 90.0)):
        orientation_scan(mesh, angle_step_deg=step)
        tracemalloc.start()
        try:
            orientation_scan(mesh, angle_step_deg=step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def test_fifteen_degree_scan_memory_is_pinned():
    # most of the peak is the 13824 candidates and their rotations; the grid
    # and section tables must not raise it above the 8.9 MB that the scan
    # peaked at when it built one rotation at a time
    towers = two_tower_bridge()
    orientation_scan(towers, angle_step_deg=90.0)
    tracemalloc.start()
    try:
        orientation_scan(towers, angle_step_deg=15.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9.0e6


def test_scan_refuses_grids_above_the_rotation_limit():
    assert 101 ** 3 <= recon.MAX_GRID_ROTATIONS < 102 ** 3

    class Allocated(Exception):
        pass

    towers = two_tower_bridge()
    with mock.patch.object(recon, "_dedup_vertices", side_effect=Allocated):
        for step in (360 / 102, 1.0):
            with pytest.raises(ValueError, match=f"above the limit of {recon.MAX_GRID_ROTATIONS}"):
                orientation_scan(towers, angle_step_deg=step)
        # 101 angles per axis pass the check and go on to read the mesh
        with pytest.raises(Allocated):
            orientation_scan(towers, angle_step_deg=360 / 101)


def test_scan_refuses_layer_counts_above_the_limit():
    # one facet standing 1 mm tall in the xz-plane: the first orientation
    # sliced, the identity, cuts it into 1 / layer_height layers
    facet = TriMesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
                    np.array([[0, 1, 2]]))
    limit = recon.MAX_SCAN_LAYERS

    class Allocated(Exception):
        pass

    with mock.patch.object(recon, "_level_ranges", side_effect=Allocated):
        for layer_height in (1e-12, 1e-300, 5e-324, 1 / (limit + 1)):
            with pytest.raises(ValueError, match=f"above the limit of {limit}"):
                orientation_scan(facet, angle_step_deg=90, layer_height=layer_height)
        # exactly the limit passes the check and goes on to slice
        with pytest.raises(Allocated):
            orientation_scan(facet, angle_step_deg=90, layer_height=1 / limit)


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


@pytest.mark.parametrize("layer_height", [0.0, -0.2, math.nan, math.inf])
def test_orientation_scan_layer_height_must_be_positive_and_finite(layer_height):
    with pytest.raises(ValueError, match="layer_height"):
        orientation_scan(box_mesh(0, 0, 0, 1, 1, 1), angle_step_deg=90, layer_height=layer_height)


def test_loft_refuses_sample_counts_above_the_limit():
    stack = group_layers(cylinder_cloud(height=2.0))
    limit = recon.MAX_RESAMPLE_COUNT
    with mock.patch.object(recon, "_layer_outlines", side_effect=AssertionError("traced")):
        for count in (limit + 1, 10 ** 12):
            with pytest.raises(ValueError, match=f"above the limit of {limit}"):
                loft_layers(stack, resample_count=count)
    assert loft_layers(stack, resample_count=limit).triangles.shape[0] > 0


@pytest.mark.parametrize("count", [2, 0, -5])
def test_loft_needs_at_least_three_samples_per_ring(count):
    stack = group_layers(cylinder_cloud(height=2.0))
    with pytest.raises(ValueError, match="resample_count"):
        loft_layers(stack, resample_count=count)
