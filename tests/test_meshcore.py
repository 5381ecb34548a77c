import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dm_stegkit import (
    PointCloud,
    Rotation,
    TriMesh,
    mesh_volume,
    parse_stl,
    parse_xyz,
    rotate_mesh,
    signed_volume,
    slice_mesh,
    write_stl_binary,
)
from dm_stegkit.meshcore import (
    SliceLoops,
    _crossing_segments,
    _dedup_vertices,
    _weld_and_chain,
    default_weld_tol,
    slice_levels,
)
from dm_stegkit.qr3d import EmbedParams, grid_to_spheres, spheres_to_mesh, unit_vector
from dm_stegkit.errors import (
    BadLine,
    EmptyCloud,
    MalformedAscii,
    NonFiniteCoordinate,
    TruncatedFile,
)
from conftest import box_mesh, box_unions, boxes_mesh, random_code_grid

ASCII_ONE_FACET = """solid demo
  facet normal 0 0 1
    outer loop
      vertex 0 0 0
      vertex 1 0 0
      vertex 0 1 0
    endloop
  endfacet
endsolid demo
"""


def one_triangle_binary(header=b"\x00" * 80):
    body = struct.pack("<12f", 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0) + b"\x00\x00"
    return header + struct.pack("<I", 1) + body


def test_parse_ascii_single_facet():
    mesh = parse_stl(ASCII_ONE_FACET.encode())
    assert len(mesh.vertices) == 3
    assert len(mesh.triangles) == 1
    assert mesh.header == b"\x00" * 80


def test_parse_ascii_crlf_and_mixed_case():
    text = ASCII_ONE_FACET.replace("facet", "FACET").replace("solid", "Solid")
    mesh = parse_stl(text.replace("\n", "\r\n").encode())
    assert len(mesh.triangles) == 1


def test_parse_binary_single_triangle_header_preserved():
    header = b"made by bench fixture".ljust(80, b"\x00")
    data = one_triangle_binary(header)
    assert len(data) == 134
    mesh = parse_stl(data)
    assert len(mesh.triangles) == 1
    assert mesh.header == header


def test_binary_length_mismatch_is_truncated():
    data = one_triangle_binary()
    bad = data[:80] + struct.pack("<I", 2) + data[84:]
    with pytest.raises(TruncatedFile) as err:
        parse_stl(bad)
    assert err.value.declared == 2
    assert err.value.actual_len == 134


def test_solid_prefixed_binary_sniffs_as_binary():
    header = b"solid looks ascii but is not".ljust(80, b"\x00")
    mesh = parse_stl(one_triangle_binary(header))
    assert len(mesh.triangles) == 1
    assert mesh.header.startswith(b"solid")


def test_ascii_grammar_error_reports_line():
    bad = ASCII_ONE_FACET.replace("vertex 1 0 0", "vertex 1 0")
    with pytest.raises(MalformedAscii) as err:
        parse_stl(bad.encode())
    assert err.value.line == 5


def test_binary_nan_vertex_rejected():
    body = struct.pack("<12f", 0, 0, 1, math.nan, 0, 0, 1, 0, 0, 0, 1, 0) + b"\x00\x00"
    with pytest.raises(NonFiniteCoordinate):
        parse_stl(b"\x00" * 80 + struct.pack("<I", 1) + body)


def test_write_single_triangle_is_134_bytes():
    mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    assert len(write_stl_binary(mesh)) == 134


def test_write_empty_mesh_is_84_bytes():
    mesh = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    data = write_stl_binary(mesh)
    assert len(data) == 84
    assert struct.unpack_from("<I", data, 80)[0] == 0


def test_roundtrip_preserves_count_header_and_vertices():
    header = b"\x07header bytes with\x00nulls".ljust(80, b"\xab")
    mesh = TriMesh(box_mesh(0, 0, 0, 3, 2, 1).vertices,
                   box_mesh(0, 0, 0, 3, 2, 1).triangles, header)
    again = parse_stl(write_stl_binary(mesh))
    assert len(again.triangles) == len(mesh.triangles)
    assert again.header == header
    original = sorted(map(tuple, mesh.vertices.astype(np.float32).tolist()))
    recovered = sorted(map(tuple, again.vertices.astype(np.float32).tolist()))
    assert original == recovered


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 20), st.integers(0, 2 ** 31))
def test_roundtrip_random_triangle_soup(ntri, seed):
    rng = np.random.default_rng(seed)
    corners = rng.normal(scale=40.0, size=(ntri, 3, 3)).astype(np.float32)
    # guarantee no degenerate facets after float32 quantization
    corners[:, 1] += np.array([1.0, 0.0, 0.0], dtype=np.float32)
    corners[:, 2] += np.array([0.0, 1.0, 0.0], dtype=np.float32)
    verts, inverse = np.unique(corners.reshape(-1, 3), axis=0, return_inverse=True)
    mesh = TriMesh(verts.astype(np.float64), inverse.reshape(-1, 3))
    again = parse_stl(write_stl_binary(mesh))
    assert len(again.triangles) == ntri
    a = np.sort(mesh.triangle_points.astype(np.float32).reshape(ntri, -1), axis=0)
    b = np.sort(again.triangle_points.astype(np.float32).reshape(ntri, -1), axis=0)
    assert np.array_equal(a, b)



def test_negative_zero_corner_round_trips_byte_exact():
    # -0.0 and +0.0 differ in their bits; dedup must not merge them, or the
    # rewrite turns the -0.0 into +0.0 and changes bytes outside the header
    mesh = TriMesh([[-0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.0, 0, 0], [0, 0, 1]],
                   [[0, 1, 2], [3, 1, 4]])
    data = write_stl_binary(mesh)
    again = parse_stl(data)
    assert len(again.vertices) == 5
    assert np.signbit(again.vertices[0, 0]) and not np.signbit(again.vertices[3, 0])
    assert write_stl_binary(again) == data


def _dedup_reference(corners):
    """np.unique over a structured view: compares rows as floats."""
    raw = np.ascontiguousarray(corners).view([("", corners.dtype)] * 3).ravel()
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return corners[first[order]], rank[inverse]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
       st.integers(1, 400), st.integers(0, 2 ** 31))
def test_dedup_matches_unique_reference(pool, ncorners, seed):
    # coordinates from a small pool, so rows repeat whole and in part;
    # adding 0.0 turns -0.0 into +0.0, where the reference merges the two
    rng = np.random.default_rng(seed)
    values = np.array(pool) + 0.0
    corners = values[rng.integers(0, len(values), size=(ncorners, 3))]
    verts, inverse = _dedup_vertices(corners)
    ref_verts, ref_inverse = _dedup_reference(corners)
    assert verts.tobytes() == ref_verts.tobytes()
    assert inverse.dtype == np.int64
    assert np.array_equal(inverse, ref_inverse)
    assert np.array_equal(verts[inverse], corners)

def test_parse_xyz_separators_and_comments():
    cloud = parse_xyz("0 0 0\n1,2,3")
    assert cloud.points.shape == (2, 3)
    assert cloud.points[1].tolist() == [1.0, 2.0, 3.0]
    assert parse_xyz("# hdr\n1 1 1").points.shape == (1, 3)


def test_parse_xyz_bad_arity():
    with pytest.raises(BadLine) as err:
        parse_xyz("1 2")
    assert err.value.line == 1


def test_parse_xyz_empty():
    with pytest.raises(EmptyCloud):
        parse_xyz("# only comments\n")


def test_rotation_identity_and_normalization():
    mesh = box_mesh(0, 0, 0, 1, 1, 1)
    same = rotate_mesh(mesh, Rotation(0, 0, 0))
    assert np.allclose(same.vertices, mesh.vertices)
    assert Rotation(-90, 370, 720).as_tuple() == (270.0, 10.0, 0.0)


def test_rotation_preserves_centered_cube_bbox():
    mesh = box_mesh(-0.5, -0.5, -0.5, 0.5, 0.5, 0.5)
    rot = rotate_mesh(mesh, Rotation(0, 0, 90))
    lo, hi = rot.bounds()
    assert np.allclose(lo, [-0.5, -0.5, -0.5])
    assert np.allclose(hi, [0.5, 0.5, 0.5])


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 360), st.floats(0, 360), st.floats(0, 360))
def test_rotation_volume_invariance(rx, ry, rz):
    mesh = box_mesh(1, 2, 3, 4, 6, 8)   # volume 60, off-origin
    vol = mesh_volume(rotate_mesh(mesh, Rotation(rx, ry, rz)))
    assert vol == pytest.approx(60.0, rel=1e-9)


def test_slice_unit_cube():
    section = slice_mesh(box_mesh(0, 0, 0, 1, 1, 1), 0.5)
    assert len(section.loops) == 1
    assert not section.open_chains
    loop = section.loops[0]
    assert len(loop) >= 3


def test_slice_disjoint_cubes():
    mesh = boxes_mesh([(0, 0, 0, 1, 1, 1), (5, 0, 0, 6, 1, 1)])
    assert len(slice_mesh(mesh, 0.5).loops) == 2


def test_slice_above_mesh_is_empty():
    section = slice_mesh(box_mesh(0, 0, 0, 1, 1, 1), 2.0)
    assert section.loops == [] and section.open_chains == []


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 31))
def test_slice_counts_disjoint_boxes(k, seed):
    rng = np.random.default_rng(seed)
    boxes = []
    x = 0.0
    for _ in range(k):
        w = float(rng.uniform(0.5, 2.0))
        boxes.append((x, 0.0, 0.0, x + w, float(rng.uniform(0.5, 2)), 1.0))
        x += w + 1.0
    mesh = boxes_mesh(boxes)
    section = slice_mesh(mesh, 0.5)
    assert len(section.loops) == k
    assert not section.open_chains


def test_loops_are_closed_and_non_degenerate():
    mesh = boxes_mesh([(0, 0, 0, 1, 1, 1), (3, 0, 0, 4, 2, 1)])
    section = slice_mesh(mesh, 0.25)
    assert len(section.loops) == 2
    for loop in section.loops:
        assert len(loop) >= 3
        # distinct welded nodes all the way around (closure is implicit:
        # the walk returned to its starting node)
        closed = np.vstack([loop, loop[:1]])
        steps = np.linalg.norm(np.diff(closed, axis=0), axis=1)
        assert (steps > 0).all()
        assert len(np.unique(loop, axis=0)) == len(loop)


# --- batched slicer against the single-plane reference ------------------------------

def _slice_reference(mesh, z, weld_tol):
    """The single-plane slicer that slice_mesh ran before slice_levels."""
    result = SliceLoops(z=float(z))
    if not len(mesh.triangles):
        return result
    pts = mesh.triangle_points
    zmin = pts[:, :, 2].min(axis=1)
    zmax = pts[:, :, 2].max(axis=1)
    cand = (zmin <= z) & (zmax >= z)
    if not cand.any():
        return result
    segs = _crossing_segments(pts[cand], np.full(int(cand.sum()), float(z)))
    segs = segs[~np.isnan(segs[:, 0])]
    loops, chains = _weld_and_chain(segs.tolist(), weld_tol)
    result.loops = [np.array(lp) for lp in loops]
    result.open_chains = [np.array(ch) for ch in chains]
    return result


def _bits(arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


def _probe_levels(mesh):
    """Every vertex height, the midpoints between them and heights outside."""
    zs = np.unique(mesh.vertices[:, 2])
    lo, hi = (zs[0], zs[-1]) if len(zs) else (0.0, 1.0)
    return np.unique(np.concatenate([zs, (zs[1:] + zs[:-1]) / 2,
                                     [lo - 1.0, lo - 1e-12, hi + 1e-12, hi + 1.0]]))


def _assert_batch_matches_reference(mesh):
    weld_tol = default_weld_tol(mesh)
    levels = _probe_levels(mesh)
    batch = slice_levels(mesh.triangle_points, levels, weld_tol)
    assert len(batch) == len(levels)
    for z, got in zip(levels, batch):
        want = _slice_reference(mesh, z, weld_tol)
        for section in (got, slice_mesh(mesh, z)):
            assert section.z == want.z
            assert _bits(section.loops) == _bits(want.loops)
            assert _bits(section.open_chains) == _bits(want.open_chains)


@settings(max_examples=30, deadline=None)
@given(box_unions(), st.sampled_from([0.0, 30.0, 45.0]), st.integers(0, 3),
       st.integers(0, 2 ** 31))
def test_slice_levels_matches_single_plane_reference(mesh, angle, holes, seed):
    mesh = rotate_mesh(mesh, Rotation(angle, angle / 2, 0.0))
    # dropping faces leaves open chains for the welder to report
    keep = np.random.default_rng(seed).permutation(len(mesh.triangles))[holes:]
    _assert_batch_matches_reference(TriMesh(mesh.vertices, mesh.triangles[np.sort(keep)]))


def test_slice_levels_matches_reference_on_sphere_code():
    grid = random_code_grid(np.random.default_rng(4), n=5, density=0.5)
    params = EmbedParams(pitch=2.0, direction=unit_vector((0.2, 0.3, 0.93)), seed=3)
    _assert_batch_matches_reference(spheres_to_mesh(grid_to_spheres(grid, params), 1))


def test_slice_levels_empty_triangle_set():
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    sections = slice_levels(empty.triangle_points, [-1.0, 0.0, 2.5], 1e-6)
    assert [s.z for s in sections] == [-1.0, 0.0, 2.5]
    assert all(s.loops == [] and s.open_chains == [] for s in sections)
    _assert_batch_matches_reference(empty)


def test_volume_unit_and_10mm_cube():
    assert mesh_volume(box_mesh(0, 0, 0, 1, 1, 1)) == pytest.approx(1.0)
    assert mesh_volume(box_mesh(0, 0, 0, 10, 10, 10)) == pytest.approx(1000.0, abs=1e-6)
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    assert mesh_volume(empty) == 0.0


def test_signed_volume_sign_flips_with_orientation():
    mesh = box_mesh(0, 0, 0, 2, 2, 2)
    flipped = TriMesh(mesh.vertices, mesh.triangles[:, ::-1])
    assert signed_volume(mesh) == pytest.approx(8.0)
    assert signed_volume(flipped) == pytest.approx(-8.0)


def test_point_cloud_requires_points():
    with pytest.raises(EmptyCloud):
        PointCloud(np.zeros((0, 3)))


def test_trimesh_invariant_validation():
    from dm_stegkit.errors import InvalidMesh
    with pytest.raises(InvalidMesh):
        TriMesh([[0, 0, 0], [1, 0, 0]], [[0, 1, 2]])       # index out of range
    with pytest.raises(InvalidMesh):
        TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]])  # repeated index
    with pytest.raises(NonFiniteCoordinate):
        TriMesh([[0, 0, math.inf], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


def test_write_xyz_parse_xyz_roundtrip():
    from dm_stegkit import write_xyz
    pts = np.array([[0.125, -3.5, 7.0], [1e-3, 2e2, -0.25]])
    text = write_xyz(pts, comments=["unit test"])
    assert text.startswith("# unit test\n")
    again = parse_xyz(text)
    assert np.allclose(again.points, pts)
