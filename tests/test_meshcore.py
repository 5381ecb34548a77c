import math
import struct
import time

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
from dm_stegkit import meshcore
from dm_stegkit.meshcore import SliceLoops, _binary_stl_corners, _dedup_vertices, \
    _first_occurrence_ids, is_binary_stl, parse_integer, slice_levels, stl_header
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


def test_parse_ascii_after_a_bom_or_leading_space_in_upper_case():
    assert len(parse_stl(b"\xef\xbb\xbf" + ASCII_ONE_FACET.encode()).triangles) == 1
    text = " \n\t" + ASCII_ONE_FACET.replace("solid", "SOLID")
    assert len(parse_stl(text.encode()).triangles) == 1


@pytest.mark.parametrize("line, replacement", [
    ("vertex 1 0 0", "vertex 1 0"),
    ("endloop", "endloops"),
    ("endsolid demo", "endsolidfoo"),
])
def test_ascii_errors_after_a_bom_name_the_same_lines(line, replacement):
    data = ASCII_ONE_FACET.replace(line, replacement).encode()
    errors = []
    for bom in (b"", b"\xef\xbb\xbf"):
        with pytest.raises(MalformedAscii) as err:
            parse_stl(bom + data)
        errors.append((err.value.line, str(err.value)))
    assert errors[0] == errors[1]


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


@pytest.mark.parametrize("line, replacement, lineno, message", [
    ("facet normal 0 0 1", "facets normal 0 0 1", 2, "expected 'facet normal' or 'endsolid'"),
    ("facet normal 0 0 1", "facetx normal 0 0 1", 2, "expected 'facet normal' or 'endsolid'"),
    ("endsolid demo", "endsolidfoo", 9, "expected 'facet normal' or 'endsolid'"),
    ("facet normal 0 0 1", "facet", 2, "expected 'facet normal'"),
])
def test_ascii_facet_keywords_are_whole_words(line, replacement, lineno, message):
    with pytest.raises(MalformedAscii) as err:
        parse_stl(ASCII_ONE_FACET.replace(line, replacement).encode())
    assert err.value.line == lineno
    assert str(err.value) == f"line {lineno}: {message}"

def test_binary_nan_vertex_rejected():
    body = struct.pack("<12f", 0, 0, 1, math.nan, 0, 0, 1, 0, 0, 0, 1, 0) + b"\x00\x00"
    with pytest.raises(NonFiniteCoordinate, match="^facet 0: "):
        parse_stl(b"\x00" * 80 + struct.pack("<I", 1) + body)


def test_binary_non_finite_vertex_names_its_first_facet():
    data = bytearray(write_stl_binary(box_mesh(0, 0, 0, 1, 1, 1)))
    # z of corner 2 of facet 7, then of corner 0 of facet 5
    for at in (84 + 50 * 7 + 12 + 24 + 8, 84 + 50 * 5 + 12 + 8):
        data[at:at + 4] = struct.pack("<f", math.inf)
    with pytest.raises(NonFiniteCoordinate) as err:
        parse_stl(bytes(data))
    assert str(err.value) == "facet 5: binary STL contains non-finite vertex"


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

# the numbering as it was before float32 x and y shared one sort key: one
# lexsort key per column, and two N-length cumsums
def _first_occurrence_ids_reference(rows):
    rows = rows.reshape(-1, rows.shape[-1])
    if not len(rows):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.lexsort(rows.T[::-1])
    head = np.zeros(len(order), dtype=bool)
    head[0] = True
    for k in range(rows.shape[1]):
        col = rows[order, k]
        head[1:] |= col[1:] != col[:-1]
    firsts = order[head]
    is_first = np.zeros(len(order), dtype=bool)
    is_first[firsts] = True
    index = np.cumsum(is_first) - 1
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = index[firsts][np.cumsum(head) - 1]
    return np.nonzero(is_first)[0], ids


def _assert_numbering_matches_reference(rows):
    firsts, ids = _first_occurrence_ids(rows)
    ref_firsts, ref_ids = _first_occurrence_ids_reference(rows)
    assert firsts.dtype == ids.dtype == np.int64
    assert np.array_equal(firsts, ref_firsts)
    assert np.array_equal(ids, ref_ids)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(width=32), min_size=1, max_size=5),
       st.sampled_from(["float32", "float64", "int64"]), st.integers(0, 300),
       st.integers(1, 4), st.integers(0, 2 ** 31))
def test_first_occurrence_ids_match_the_reference(pool, dtype, nrows, ncols, seed):
    # rows drawn from a small pool repeat whole and in part; -0.0 and +0.0
    # differ in their bits, and so does every NaN from a number
    rng = np.random.default_rng(seed)
    values = np.array(pool, dtype=np.float32)
    values = values.view(np.int32).astype(np.int64) if dtype == "int64" else values.astype(dtype)
    rows = values[rng.integers(0, len(values), size=(nrows, ncols))]
    bits = rows.view(f"u{rows.itemsize}") if dtype != "int64" else rows
    _assert_numbering_matches_reference(bits)


@pytest.mark.parametrize("rows", [
    np.zeros((0, 3), dtype=np.uint32),
    np.zeros((0, 1), dtype=np.int64),
    np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [0.0, 0.0, -0.0]],
             dtype=np.float32).view(np.uint32),
    np.array([[0.0], [-0.0], [0.0], [-0.0]]).view(np.uint64),
    np.array([[7], [3], [7], [7], [-1], [3]], dtype=np.int64),
    np.ones((500, 3), dtype=np.uint32),                      # one group
    np.arange(600, dtype=np.uint32).reshape(-1, 3) % 5,      # a few groups, many times
], ids=["empty-u4", "empty-1-column", "signed-zeros-f32", "signed-zeros-1-column",
        "1-column", "all-duplicates", "duplicate-heavy"])
def test_first_occurrence_ids_edge_cases_match_the_reference(rows):
    _assert_numbering_matches_reference(rows)


def test_first_occurrence_ids_read_a_record_view_in_c_order():
    # the corners of a binary STL are a strided (T, 3, 3) view of its records
    data = _torus_stl(12, 9)
    corners = _binary_stl_corners(data)
    assert not corners.flags.c_contiguous
    bits = corners.view(np.uint32)
    _assert_numbering_matches_reference(bits)
    firsts, ids = _first_occurrence_ids(bits)
    assert np.array_equal(ids, _first_occurrence_ids(bits.reshape(-1, 3).copy())[1])
    verts, tris = _dedup_vertices(corners)
    assert verts.tobytes() == corners.reshape(-1, 3)[firsts].astype(np.float64).tobytes()
    assert np.array_equal(tris, ids)


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


# --- topological slicer against the coordinate welder it replaced ---------------------

def _crossing_segments(tri_pts: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Intersect triangles with horizontal planes.

    ``tri_pts`` is (k, 3, 3); ``z`` is a plane height per row. Returns
    (k, 4) segments [x0, y0, x1, y1] with NaN rows for non-crossing pairs.

    Triangles exactly coplanar with their plane are skipped; an on-plane
    edge is emitted only when the third vertex lies strictly above, so the
    shared edge of two coplanar-adjacent triangles is contributed once.
    """
    d = tri_pts[:, :, 2] - z[:, None]
    s = np.sign(d).astype(np.int8)
    nzero = (s == 0).sum(axis=1)
    ssum = s.sum(axis=1)
    out = np.full((len(tri_pts), 4), np.nan)

    # two vertices on the plane, third strictly above
    m = (nzero == 2) & (ssum == 1)
    if m.any():
        pts = tri_pts[m]
        on = s[m] == 0
        sel = pts[on].reshape(-1, 2, 3)
        out[m, 0:2] = sel[:, 0, :2]
        out[m, 2:4] = sel[:, 1, :2]

    # one vertex on the plane, other two on opposite sides
    m = (nzero == 1) & (ssum == 0)
    if m.any():
        pts, dd, sm = tri_pts[m], d[m], s[m]
        k = len(pts)
        onidx = np.argmax(sm == 0, axis=1)
        rows = np.arange(k)
        others = np.array([[1, 2], [0, 2], [0, 1]])[onidx]
        a = pts[rows, others[:, 0]]
        b = pts[rows, others[:, 1]]
        da = dd[rows, others[:, 0]]
        db = dd[rows, others[:, 1]]
        t = da / (da - db)
        cross = a + (b - a) * t[:, None]
        out[m, 0:2] = pts[rows, onidx][:, :2]
        out[m, 2:4] = cross[:, :2]

    # plain crossing: one vertex alone on its side of the plane
    m = (nzero == 0) & (np.abs(ssum) == 1)
    if m.any():
        pts, dd, sm = tri_pts[m], d[m], s[m]
        k = len(pts)
        lone = np.argmax(sm == -ssum[m, None], axis=1)
        rows = np.arange(k)
        others = np.array([[1, 2], [0, 2], [0, 1]])[lone]
        a = pts[rows, lone]
        da = dd[rows, lone]
        for j in (0, 1):
            b = pts[rows, others[:, j]]
            db = dd[rows, others[:, j]]
            t = da / (da - db)
            cross = a + (b - a) * t[:, None]
            out[m, 2 * j:2 * j + 2] = cross[:, :2]
    return out


def _weld_and_chain(segments, weld_tol: float):
    """Weld segment endpoints within tolerance and walk loops/chains.

    ``segments`` is an iterable of (x0, y0, x1, y1). Returns
    (loops, open_chains, nodes): coordinate-tuple lists, and the welded
    node of every endpoint in input order.
    """
    inv = 1.0 / weld_tol
    tol2 = weld_tol * weld_tol
    cells: dict[tuple[int, int], int] = {}
    coords: list[tuple[float, float]] = []
    adj: list[list[tuple[int, int]]] = []
    nodes = []

    def node(x, y):
        kx = round(x * inv)
        ky = round(y * inv)
        for dx in (0, -1, 1):
            for dy in (0, -1, 1):
                i = cells.get((kx + dx, ky + dy))
                if i is not None:
                    cx, cy = coords[i]
                    if (cx - x) ** 2 + (cy - y) ** 2 <= tol2:
                        return i
        i = len(coords)
        cells[(kx, ky)] = i
        coords.append((x, y))
        adj.append([])
        return i

    nedges = 0
    for x0, y0, x1, y1 in segments:
        a = node(x0, y0)
        b = node(x1, y1)
        nodes += [a, b]
        if a == b:
            continue
        adj[a].append((b, nedges))
        adj[b].append((a, nedges))
        nedges += 1

    used = [False] * nedges

    def walk(start, eidx, nxt):
        used[eidx] = True
        path = [start, nxt]
        cur = nxt
        while cur != start:
            step = None
            for other, e in adj[cur]:
                if not used[e]:
                    step = (other, e)
                    break
            if step is None:
                break
            used[step[1]] = True
            cur = step[0]
            path.append(cur)
        return path

    loops, chains = [], []
    for start in range(len(coords)):
        if len(adj[start]) % 2 == 0:
            continue
        for nxt, e in adj[start]:
            if not used[e]:
                path = walk(start, e, nxt)
                chains.append([coords[i] for i in path])
    for start in range(len(coords)):
        for nxt, e in adj[start]:
            if not used[e]:
                path = walk(start, e, nxt)
                if path[0] == path[-1] and len(path) > 3:
                    loops.append([coords[i] for i in path[:-1]])
                else:
                    chains.append([coords[i] for i in path])
    return loops, chains, nodes


def _reference_features(corners: np.ndarray, d: np.ndarray) -> list:
    """The mesh feature at each endpoint of ``_crossing_segments``' rows, in
    its endpoint order: ("v", vertex) on the plane, ("e", lo, hi) crossed."""
    out = []
    for ids, dist in zip(corners.tolist(), np.sign(d).tolist()):
        on = [i for i in range(3) if dist[i] == 0]
        if len(on) == 2 and sum(dist) == 1:
            out += [("v", ids[on[0]]), ("v", ids[on[1]])]
        elif len(on) == 1 and sum(dist) == 0:
            a, b = (i for i in range(3) if i != on[0])
            out += [("v", ids[on[0]]), ("e", *sorted((ids[a], ids[b])))]
        elif not on and abs(sum(dist)) == 1:
            lone = next(i for i in range(3) if dist[i] == -sum(dist))
            out += [("e", *sorted((ids[lone], ids[i]))) for i in range(3) if i != lone]
    return out


def _slice_reference(tri_pts, tri_ids, z, weld_tol):
    """The coordinate-welding slicer at one plane, and whether its welds
    matched mesh features one to one (no two features joined, none split)."""
    result = SliceLoops(z=float(z))
    zmin = tri_pts[:, :, 2].min(axis=1, initial=np.inf)
    zmax = tri_pts[:, :, 2].max(axis=1, initial=-np.inf)
    cand = (zmin <= z) & (zmax >= z)
    if not cand.any():
        return result, True
    segs = _crossing_segments(tri_pts[cand], np.full(int(cand.sum()), float(z)))
    segs = segs[~np.isnan(segs[:, 0])]
    loops, chains, nodes = _weld_and_chain(segs.tolist(), weld_tol)
    features = _reference_features(tri_ids[cand], tri_pts[cand, :, 2] - z)
    assert len(features) == len(nodes)
    one_to_one = len(set(nodes)) == len(set(features)) == len(set(zip(nodes, features)))
    result.loops = [np.array(lp) for lp in loops]
    result.open_chains = [np.array(ch) for ch in chains]
    return result, one_to_one


def _probe_levels(mesh):
    """Every vertex height, the midpoints between them and heights outside."""
    zs = np.unique(mesh.vertices[:, 2])
    lo, hi = (zs[0], zs[-1]) if len(zs) else (0.0, 1.0)
    return np.unique(np.concatenate([zs, (zs[1:] + zs[:-1]) / 2,
                                     [lo - 1.0, lo - 1e-12, hi + 1e-12, hi + 1.0]]))


def _assert_same_polylines(got, want, atol):
    assert [a.shape for a in got] == [a.shape for a in want]
    if got:
        assert np.abs(np.concatenate(got) - np.concatenate(want)).max() <= atol


def _assert_matches_welder(mesh) -> int:
    """Compare the topological slicer with the welder at every probe level.

    Where the welder saw each mesh feature as one node, both give the same
    loops and chains, point for point within a few ulps of the mesh
    extent (a crossing may be computed from the other end of its edge).
    Returns the number of levels where the welder joined or split
    features, which are not compared.
    """
    vertices, index = _dedup_vertices(mesh.vertices)
    triangles = index[mesh.triangles]
    lo, hi = mesh.bounds()
    diag = float(np.linalg.norm(hi - lo))
    weld_tol = 1e-6 * diag if diag > 0 else 1e-6
    atol = 16 * np.finfo(float).eps * float(np.abs(vertices).max(initial=1.0))
    levels = _probe_levels(mesh)
    batch = slice_levels(vertices, triangles, levels)
    assert len(batch) == len(levels)
    welded_apart = 0
    for z, got in zip(levels, batch):
        want, one_to_one = _slice_reference(mesh.triangle_points, triangles, z, weld_tol)
        if not one_to_one:
            welded_apart += 1
            continue
        for section in (got, slice_mesh(mesh, z)):
            assert section.z == want.z
            _assert_same_polylines(section.loops, want.loops, atol)
            _assert_same_polylines(section.open_chains, want.open_chains, atol)
    return welded_apart


@settings(max_examples=30, deadline=None)
@given(box_unions(), st.sampled_from([0.0, 30.0, 45.0]), st.integers(0, 3),
       st.integers(0, 2 ** 31))
def test_slice_levels_matches_welder(mesh, angle, holes, seed):
    mesh = rotate_mesh(mesh, Rotation(angle, angle / 2, 0.0))
    # dropping faces leaves open chains for both slicers to report
    keep = np.random.default_rng(seed).permutation(len(mesh.triangles))[holes:]
    _assert_matches_welder(TriMesh(mesh.vertices, mesh.triangles[np.sort(keep)]))


def test_slice_levels_matches_welder_on_sphere_code():
    grid = random_code_grid(np.random.default_rng(4), n=5, density=0.5)
    params = EmbedParams(pitch=2.0, direction=unit_vector((0.2, 0.3, 0.93)), seed=3)
    assert _assert_matches_welder(spheres_to_mesh(grid_to_spheres(grid, params), 1)) == 0


def test_slice_levels_matches_welder_on_fixtures(fixture_corpus):
    for path in fixture_corpus["stl"]:
        _assert_matches_welder(rotate_mesh(parse_stl(path.read_bytes()),
                                           Rotation(30.0, 15.0, 0.0)))


@settings(max_examples=25, deadline=None)
@given(box_unions(), st.sampled_from([0.0, 30.0, 45.0]), st.integers(0, 2 ** 31))
def test_section_nodes_do_not_depend_on_triangle_order(mesh, angle, seed):
    mesh = rotate_mesh(mesh, Rotation(angle, angle / 2, 0.0))
    rng = np.random.default_rng(seed)
    # shuffle triangles and vertex numbering, and roll each triangle's corners
    perm = rng.permutation(len(mesh.vertices))
    inverse = np.argsort(perm)
    tris = inverse[mesh.triangles][rng.permutation(len(mesh.triangles))]
    tris = np.array([np.roll(t, k) for t, k in zip(tris, rng.integers(0, 3, len(tris)))])
    shuffled = TriMesh(mesh.vertices[perm], tris)

    def node_sets(m):
        v, index = _dedup_vertices(m.vertices)
        return [{p.tobytes() for poly in s.loops + s.open_chains for p in poly}
                for s in slice_levels(v, index[m.triangles], _probe_levels(mesh))]

    assert node_sets(shuffled) == node_sets(mesh)


def test_coincident_vertex_indices_make_no_self_loop():
    # vertex 8 repeats vertex 0 and replaces it in the y = 0 face; the sliver
    # (0, 8, 4) has two corners at one point, so each of its section
    # segments joins one feature to itself
    cube = box_mesh(0, 0, 0, 1, 1, 1)
    vertices = np.vstack([cube.vertices, cube.vertices[:1]])
    triangles = np.vstack([cube.triangles, [[0, 8, 4]]])
    triangles[4:6][triangles[4:6] == 0] = 8
    mesh = TriMesh(vertices, triangles)
    for z, points in ((0.0, 4), (0.5, 8)):
        section = slice_mesh(mesh, z)
        assert section.open_chains == []
        assert [len(lp) for lp in section.loops] == [points]
        closed = np.vstack([section.loops[0], section.loops[0][:1]])
        assert (np.linalg.norm(np.diff(closed, axis=0), axis=1) > 0).all()


def test_two_segment_cycle_is_an_open_chain():
    # a pillow of one triangle and its reverse: both faces cross the same two
    # edges, and a walk back to its start through only two points is no loop
    pillow = TriMesh([[0, 0, 0], [2, 0, 1], [0, 2, 2]], [[0, 1, 2], [0, 2, 1]])
    section = slice_mesh(pillow, 0.5)
    assert section.loops == []
    assert [len(ch) for ch in section.open_chains] == [3]
    assert _assert_matches_welder(pillow) == 0


def test_slice_levels_empty_triangle_set():
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    sections = slice_levels(empty.vertices, empty.triangles, [-1.0, 0.0, 2.5])
    assert [s.z for s in sections] == [-1.0, 0.0, 2.5]
    assert all(s.loops == [] and s.open_chains == [] for s in sections)
    assert _assert_matches_welder(empty) == 0


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


def _signed_volume_reference(mesh):
    """The volume as one einsum over all triangles formed it."""
    if not len(mesh.triangles):
        return 0.0
    p = mesh.triangle_points
    return float(np.einsum("ij,ij->", p[:, 0], np.cross(p[:, 1], p[:, 2])) / 6.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(0, 200), st.sampled_from([1, 7, 64, 1 << 12]),
       st.floats(-3, 3), st.booleans(), st.integers(0, 2 ** 31))
def test_signed_volume_has_the_bits_of_one_einsum(nverts, ntris, chunk, scale, rounded, seed):
    # T need not be a multiple of the chunk; rounded vertices give zero and
    # tied products, and so exercise the sign of zero
    rng = np.random.default_rng(seed)
    vertices = rng.normal(size=(nverts, 3)) * 10.0 ** scale
    if rounded:
        vertices = np.round(vertices)
    mesh = TriMesh(vertices, rng.integers(0, nverts, size=(ntris, 3)))
    expected = np.float64(_signed_volume_reference(mesh)).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshcore, "_VOLUME_CHUNK", chunk)
        assert np.float64(signed_volume(mesh)).tobytes() == expected


def test_signed_volume_of_a_large_mesh_has_the_bits_of_one_einsum():
    mesh = parse_stl(_torus_stl(100, 70))       # 14000 triangles, over three chunks
    assert len(mesh.triangles) % meshcore._VOLUME_CHUNK
    assert signed_volume(mesh) == _signed_volume_reference(mesh)


def test_point_cloud_requires_points():
    with pytest.raises(EmptyCloud):
        PointCloud(np.zeros((0, 3)))


def test_trimesh_invariant_validation():
    from dm_stegkit.errors import InvalidMesh
    with pytest.raises(InvalidMesh):
        TriMesh([[0, 0, 0], [1, 0, 0]], [[0, 1, 2]])       # index out of range
    # a repeated index is a zero-area triangle, kept as a collinear one is
    assert TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 1]]).triangles.tolist() \
        == [[0, 1, 1]]
    with pytest.raises(NonFiniteCoordinate):
        TriMesh([[0, 0, math.inf], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])


def test_write_xyz_parse_xyz_roundtrip():
    from dm_stegkit import write_xyz
    pts = np.array([[0.125, -3.5, 7.0], [1e-3, 2e2, -0.25]])
    text = write_xyz(pts, comments=["unit test"])
    assert text.startswith("# unit test\n")
    again = parse_xyz(text)
    assert np.allclose(again.points, pts)


# --- binary parse memory ---------------------------------------------------------

def _torus_stl(nu, nv):
    u, v = np.meshgrid(np.linspace(0, 2 * np.pi, nu, endpoint=False),
                       np.linspace(0, 2 * np.pi, nv, endpoint=False), indexing="ij")
    pts = np.stack([(3 + np.cos(v)) * np.cos(u), (3 + np.cos(v)) * np.sin(u), np.sin(v)], -1)
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    a, b = i * nv + j, (i + 1) % nu * nv + j
    c, d = (i + 1) % nu * nv + (j + 1) % nv, i * nv + (j + 1) % nv
    tris = np.concatenate([np.stack([a, b, c], -1), np.stack([a, c, d], -1)]).reshape(-1, 3)
    return write_stl_binary(TriMesh(pts.reshape(-1, 3), tris))


def test_binary_parse_peak_memory_is_bounded():
    import tracemalloc

    data = _torus_stl(200, 100)                 # 40k triangles, 2 MB
    tracemalloc.start()
    try:
        mesh = parse_stl(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mesh.vertices) == 20000
    assert peak < 4.5 * len(data)


@pytest.fixture(scope="module")
def torus_200k():
    return _torus_stl(400, 250)                 # 200k triangles, 10 MB


def test_binary_parse_holds_at_most_two_and_a_half_files(torus_200k):
    import tracemalloc

    tracemalloc.start()
    try:
        mesh = parse_stl(torus_200k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mesh.triangles) == 200_000
    # the record view is not copied, and the sort keys go before the ids
    assert peak <= 2.5 * len(torus_200k)


def test_signed_volume_holds_a_chunk_and_one_float_per_triangle(torus_200k):
    import tracemalloc

    mesh = parse_stl(torus_200k)
    tracemalloc.start()
    try:
        signed_volume(mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * len(torus_200k)


def test_parse_xyz_peak_memory_is_bounded():
    import tracemalloc

    rng = np.random.default_rng(5)
    text = "".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in rng.normal(size=(200_000, 3)))
    tracemalloc.start()
    try:
        cloud = parse_xyz(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cloud.points) == 200_000
    assert peak <= 12 * len(text)


def test_binary_write_peak_memory_is_bounded():
    import tracemalloc

    mesh = parse_stl(_torus_stl(200, 100))      # 40k triangles
    tracemalloc.start()
    try:
        data = write_stl_binary(mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data) == 84 + 50 * 40000
    assert peak < 4.0 * len(data)               # the output counts once


def test_binary_write_holds_the_output_and_one_chunk():
    import tracemalloc

    mesh = parse_stl(_torus_stl(200, 100))      # 40k triangles
    tracemalloc.start()
    try:
        data = write_stl_binary(mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the records are filled in place, a chunk of normals at a time
    assert isinstance(data, bytearray)
    assert peak <= 1.5 * len(data)


def test_binary_write_does_not_depend_on_the_chunk(monkeypatch):
    mesh = parse_stl(_torus_stl(40, 30))        # 2400 triangles
    data = write_stl_binary(mesh)
    for chunk in (1, 7, 2400, 1 << 20):
        monkeypatch.setattr(meshcore, "_STL_WRITE_CHUNK", chunk)
        assert write_stl_binary(mesh) == data


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(width=32, allow_nan=False), min_size=1, max_size=6),
       st.integers(1, 60), st.integers(0, 2 ** 31))
def test_binary_parse_matches_float64_dedup(pool, ntris, seed):
    # float32 corners from a small pool, -0.0 and infinities included
    rng = np.random.default_rng(seed)
    corners = np.array(pool, dtype=np.float32)[rng.integers(0, len(pool), size=(ntris * 3, 3))]
    rec = np.zeros(ntris, dtype=[("n", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")])
    rec["v"] = corners.reshape(ntris, 3, 3)
    data = b"\x00" * 80 + struct.pack("<I", ntris) + rec.tobytes()
    verts, inverse = _dedup_vertices(corners.astype(np.float64))
    from dm_stegkit.errors import InvalidMesh

    def outcome(build):
        try:
            mesh = build()
        except (InvalidMesh, NonFiniteCoordinate) as exc:
            return type(exc).__name__
        return mesh.vertices.tobytes(), mesh.triangles.tobytes()

    assert (outcome(lambda: parse_stl(data))
            == outcome(lambda: TriMesh(verts, inverse.reshape(-1, 3))))


# --- number grammar: ASCII decimals only ------------------------------------------

@pytest.mark.parametrize("number", ["1_0", "\u0661\u0662", "\uff11", "0x1"])
def test_xyz_rejects_numbers_outside_ascii_decimals(number):
    # float() reads "1_0" as 10 and Arabic-Indic or fullwidth digits as numbers
    with pytest.raises(BadLine, match="line 2: not a number") as err:
        parse_xyz(f"0 0 0\n{number} 2 3\n")
    assert err.value.line == 2


@pytest.mark.parametrize("number", ["1_0", "\u0661\u0662"])
def test_ascii_stl_rejects_numbers_outside_ascii_decimals(number):
    text = ASCII_ONE_FACET.replace("vertex 1 0 0", f"vertex {number} 0 0")
    with pytest.raises(MalformedAscii, match=f"line 5: bad number {number!r}") as err:
        parse_stl(text.encode("utf-8"))
    assert err.value.line == 5


@pytest.mark.parametrize("read, text, error", [
    (parse_xyz, "9" * 200_000 + "x 1 2", BadLine),
    (parse_xyz, "1 2 " + "9" * 200_000 + ".9e", BadLine),
    (lambda t: parse_stl(t.encode()),
     ASCII_ONE_FACET.replace("vertex 1 0 0", f"vertex {'9' * 200_000}# 0 0"), MalformedAscii),
])
def test_a_long_bad_number_fails_in_linear_time(read, text, error):
    # a number grammar that can split a digit run two ways tries every
    # split before it fails: minutes for 200k digits instead of milliseconds
    start = time.perf_counter()
    with pytest.raises(error, match="not a number|bad number"):
        read(text)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("text, points", [
    ("1 2 3\n-1.5e2,+.5,7.\n", [[1, 2, 3], [-150, 0.5, 7]]),
    ("# radius=0.5\r\n  1\t2,3 ,\r\n\n", [[1, 2, 3]]),
    ("1 2 3\r4 5 6", [[1, 2, 3], [4, 5, 6]]),          # a lone CR ends a line too
    ("\u00a01 2 3\u2028 4 5 6", [[1, 2, 3], [4, 5, 6]]),
    ("1 2 3\n# c\n4\u00a05 6\n7 8 9", [[1, 2, 3], [4, 5, 6], [7, 8, 9]]),   # plain head
    ("# \u00e9\n1 2 3", [[1, 2, 3]]),
    ("\ufeff1 2 3\n4 5 6", [[1, 2, 3], [4, 5, 6]]),       # one byte order mark is skipped
    ("\ufeff\n1 2 3", [[1, 2, 3]]),
])
def test_parse_xyz_plain_and_other_line_grammars(text, points):
    assert parse_xyz(text).points.tolist() == points


@pytest.mark.parametrize("text, line, message", [
    ("1 2 3\n1 2 3 4\n", 2, "expected 3 numbers"),
    ("1 2 3\n\n1 2 1e999\n", 3, "non-finite coordinate"),
    ("1 2 3\n1.2.3 2 3\n", 2, "not a number"),
    ("1 2 3\n,,,\n", 2, "expected 3 numbers"),
    ("# 1 2\r1 2\n", 2, "expected 3 numbers"),          # the comment ends at the CR
    ("1 2 3\r\n4 5 6\n7\u00a08 9\n1 2\n", 4, "expected 3 numbers"),
    ("1 2 3\n1.2.3 2 3\n\u00a01 2 3\n", 2, "not a number"),
    # a line with another token count is reported after the lines before it
    ("1 2 inf\n1 2\n", 1, "non-finite coordinate"),
    ("1 2 x\n1 2\n", 1, "not a number"),
    ("1 2 3\n\u0661 2 3\n", 2, "not a number"),
    ("\ufeff\ufeff1 2 3\n", 1, "not a number"),             # only one mark is skipped
    ("1 2 3\n\ufeff4 5 6\n", 2, "not a number"),
])
def test_parse_xyz_errors_name_their_line(text, line, message):
    with pytest.raises(BadLine, match=message) as err:
        parse_xyz(text)
    assert err.value.line == line


@pytest.mark.parametrize("token, value", [("0", 0), ("007", 7), ("+7", 7), ("-12", -12),
                                          ("18446744073709551616", 2 ** 64)])
def test_parse_integer_reads_a_sign_then_ascii_digits(token, value):
    assert parse_integer(token) == value


# int() alone reads the first four as 10, 1, 5 and 5
@pytest.mark.parametrize("token", ["1_0", "\u0661", " 5", "5\n", "", "+", "+-5", "1.0", "0x10"])
def test_parse_integer_refuses_other_spellings(token):
    with pytest.raises(ValueError, match="not an ASCII integer"):
        parse_integer(token)


# --- header-only STL reads ---------------------------------------------------------

def test_binary_stl_corners_are_none_unless_the_count_matches_the_length():
    data = write_stl_binary(box_mesh(0, 0, 0, 1, 1, 1))
    assert is_binary_stl(data) and _binary_stl_corners(data).shape == (12, 3, 3)
    for other in (data[:-1], data + b"\x00", data[:83], ASCII_ONE_FACET.encode()):
        assert not is_binary_stl(other)
        assert _binary_stl_corners(other) is None


def test_stl_header_reads_binary_without_copying_records():
    data = write_stl_binary(TriMesh(box_mesh(0, 0, 0, 1, 1, 1).vertices,
                                    box_mesh(0, 0, 0, 1, 1, 1).triangles, b"hdr"))
    assert stl_header(data) == b"hdr".ljust(80, b"\x00")
    corners = _binary_stl_corners(data)
    assert corners.shape == (12, 3, 3) and np.shares_memory(corners, np.frombuffer(data,
                                                                                   np.uint8))
    assert stl_header(ASCII_ONE_FACET.encode()) == b"\x00" * 80
    with pytest.raises(TruncatedFile):
        stl_header(data[:-1])


@pytest.mark.parametrize("i, j", [(0, 1), (1, 2), (0, 2)])
def test_stl_header_accepts_a_repeated_corner_as_parse_stl_does(i, j):
    data = bytearray(write_stl_binary(box_mesh(0, 0, 0, 1, 1, 1)))
    facet = 84 + 50 * 3 + 12                    # corners of facet 3
    data[facet + 12 * j:facet + 12 * j + 12] = data[facet + 12 * i:facet + 12 * i + 12]
    assert stl_header(bytes(data)) == bytes(data[:80])
    mesh = parse_stl(bytes(data))
    assert len(mesh.triangles) == 12
    assert mesh.triangles[3, i] == mesh.triangles[3, j]
    # -0.0 and +0.0 are distinct corners for dedup
    data[facet + 12 * j:facet + 12 * j + 4] = struct.pack("<f", -0.0)
    data[facet + 12 * i:facet + 12 * i + 4] = struct.pack("<f", 0.0)
    data[facet + 12 * j + 4:facet + 12 * j + 12] = data[facet + 12 * i + 4:facet + 12 * i + 12]
    assert stl_header(bytes(data)) == bytes(data[:80])
    assert len(parse_stl(bytes(data)).triangles) == 12


# --- XYZ text in pieces -----------------------------------------------------------

_XYZ_PIECE_TEXTS = [
    "# radius=0.5\r\n1 2 3\r\n4,5,6\n\n7 8 9",
    "\ufeff1 2 3\r4 5 6\r",
    "1 2 3\n" * 40 + "1 2\n" + "4 5 x\n",                  # a count error, then a bad number
    "1 2 3\n" * 40 + "4 5 x\n" + "1 2\n",                  # a bad number, then a count error
    "1 2 3\n" * 40 + "4 5 1e999\n",
    "1 2 3\u2028" * 30 + "# na\u00efve \u20ac\f4 5 6\x85 7\u00a08 9\n",
    "# only comments\n\n",
]


def _xyz_outcome(read):
    try:
        return "ok", read().points.tobytes()
    except (BadLine, EmptyCloud) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


@pytest.mark.parametrize("text", _XYZ_PIECE_TEXTS)
def test_parse_xyz_of_pieces_is_that_of_the_whole_text(monkeypatch, text):
    whole = _xyz_outcome(lambda: parse_xyz(text))
    for chunk in (1, 2, 3, 7, 1 << 16):
        monkeypatch.setattr(meshcore, "_CHUNK_CHARS", chunk)
        for size in (1, 2, 3, 5, len(text) + 1):
            pieces = (text[i:i + size] for i in range(0, len(text), size))
            assert _xyz_outcome(lambda: parse_xyz(pieces)) == whole, (chunk, size)


def _scan_file(path, points):
    rng = np.random.default_rng(8)
    path.write_text("".join(f"{x:.6f} {y:.6f} {z:.3f}\n"
                            for x, y, z in rng.uniform(-50, 50, size=(points, 3))))
    return path


def test_parse_xyz_of_an_open_file_reads_chunks_of_the_chunk_size(monkeypatch, tmp_path):
    # an open file yields one line at a time; the lines are held until a
    # chunk of _CHUNK_CHARS characters can be cut
    path = _scan_file(tmp_path / "scan.xyz", 20_000)
    lengths = []
    real = meshcore._line_chunks

    def chunks(pieces):
        for chunk in real(pieces):
            lengths.append(len(chunk))
            yield chunk

    monkeypatch.setattr(meshcore, "_line_chunks", chunks)
    with open(path) as fh:
        points = parse_xyz(fh).points
    assert len(lengths) > 2 and min(lengths[:-1]) >= meshcore._CHUNK_CHARS
    assert points.tobytes() == parse_xyz(path.read_text()).points.tobytes()


def test_parse_xyz_of_an_open_file_peaks_within_twice_the_file(tmp_path):
    import tracemalloc

    path = _scan_file(tmp_path / "scan.xyz", 100_000)
    with open(path) as fh:
        tracemalloc.start()
        try:
            cloud = parse_xyz(fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(cloud.points) == 100_000
    # 5.9 times the file when each line was a chunk and a float64 block
    assert peak <= 2 * path.stat().st_size, peak


def test_parse_xyz_holds_no_token_list(monkeypatch):
    # each chunk's tokens are converted as the chunk is read: a text in
    # small chunks never holds more than one chunk's tokens as str
    monkeypatch.setattr(meshcore, "_CHUNK_CHARS", 1 << 10)
    held = []
    real = meshcore._xyz_values

    def values(tokens, chunk, lineno):
        held.append(len(tokens))
        return real(tokens, chunk, lineno)

    monkeypatch.setattr(meshcore, "_xyz_values", values)
    assert len(parse_xyz("1.5 2.5 3.5\n" * 10_000).points) == 10_000
    assert sum(held) == 30_000 and max(held) < 300        # 86 lines of 12 characters
