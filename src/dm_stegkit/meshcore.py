"""Triangle-mesh primitives: STL/XYZ I/O, rigid rotation, planar slicing, volume.

All coordinates are millimetres. Values are plain dataclasses over numpy
arrays and are treated as immutable after construction.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadLine,
    EmptyCloud,
    InvalidMesh,
    MalformedAscii,
    NonFiniteCoordinate,
    TruncatedFile,
)

_STL_HEADER_LEN = 80
_STL_RECORD_LEN = 50


def parse_decimal(token: str) -> float:
    """``float(token)`` for a token, without whitespace, that is an ASCII decimal.

    ``float`` alone also reads PEP 515 underscores ("1_0" is 10) and
    non-ASCII digits; these raise ValueError here, as any non-number does.
    """
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII decimal: {token!r}")
    return float(token)


@dataclass
class TriMesh:
    """Indexed triangle soup.

    Vertices are finite and triangle indices in range; a zero-area
    triangle, collinear or repeating a vertex index, is kept like any other.
    ``header`` carries the 80 raw bytes of a binary STL source (zero-filled
    for meshes from other sources); it is the covert channel used by the
    header embedding functions.
    """

    vertices: np.ndarray                      # (n, 3) float64
    triangles: np.ndarray                     # (m, 3) int64
    header: bytes = b"\x00" * _STL_HEADER_LEN

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if len(self.header) < _STL_HEADER_LEN:
            self.header = self.header + b"\x00" * (_STL_HEADER_LEN - len(self.header))
        elif len(self.header) > _STL_HEADER_LEN:
            raise InvalidMesh(f"header longer than {_STL_HEADER_LEN} bytes")
        if not np.all(np.isfinite(self.vertices)):
            raise NonFiniteCoordinate("mesh vertices contain NaN/Inf")
        if self.triangles.size:
            if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
                raise InvalidMesh("triangle index out of range")

    @property
    def triangle_points(self) -> np.ndarray:
        """Vertex coordinates per triangle, shape (m, 3, 3)."""
        return self.vertices[self.triangles]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if not len(self.vertices):
            z = np.zeros(3)
            return z, z
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


@dataclass
class PointCloud:
    points: np.ndarray                        # (n, 3) float64

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not len(self.points):
            raise EmptyCloud("point cloud is empty")
        if not np.all(np.isfinite(self.points)):
            raise NonFiniteCoordinate("point cloud contains NaN/Inf")


@dataclass(frozen=True)
class Rotation:
    """Intrinsic x->y->z Euler rotation, degrees, about the origin."""

    rx: float = 0.0
    ry: float = 0.0
    rz: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rx", float(self.rx) % 360.0)
        object.__setattr__(self, "ry", float(self.ry) % 360.0)
        object.__setattr__(self, "rz", float(self.rz) % 360.0)

    def matrix(self) -> np.ndarray:
        ax, ay, az = (math.radians(a) for a in (self.rx, self.ry, self.rz))
        cx, sx = math.cos(ax), math.sin(ax)
        cy, sy = math.cos(ay), math.sin(ay)
        cz, sz = math.cos(az), math.sin(az)
        rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
        ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
        rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
        return rx @ ry @ rz

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.rx, self.ry, self.rz)


@dataclass
class SliceLoops:
    """Cross-section of a mesh at height z.

    ``loops`` are closed polylines (first point implicitly follows the
    last); ``open_chains`` are polylines that do not close, ending where
    the surface has a boundary or at a point shared by an odd number of
    segments. Each point is one mesh feature: an on-plane vertex or the
    crossing of an edge.
    """

    z: float
    loops: list = field(default_factory=list)          # list of (k, 2) arrays
    open_chains: list = field(default_factory=list)    # list of (k, 2) arrays


# --- STL parsing --------------------------------------------------------------

def parse_stl(data: bytes) -> TriMesh:
    """Parse binary or ASCII STL bytes into a deduplicated TriMesh.

    Binary is recognised by its declared triangle count matching the file
    length ("solid"-prefixed binary files exist in the wild, so the prefix
    alone is not trusted). Vertex dedup uses exact bit equality.
    """
    if is_binary_stl(data):
        return _parse_stl_binary(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    if text is not None and text.lstrip().lower().startswith("solid"):
        return _parse_stl_ascii(text)
    if len(data) >= _STL_HEADER_LEN + 4:
        (count,) = struct.unpack_from("<I", data, _STL_HEADER_LEN)
        raise TruncatedFile(count, len(data))
    raise MalformedAscii(1, "not an STL file (no solid keyword, too short for binary)")


def is_binary_stl(data: bytes) -> bool:
    """True when the declared triangle count matches the length of ``data``."""
    if len(data) < _STL_HEADER_LEN + 4:
        return False
    (count,) = struct.unpack_from("<I", data, _STL_HEADER_LEN)
    return len(data) == _STL_HEADER_LEN + 4 + _STL_RECORD_LEN * count


_STL_RECORD = np.dtype([("n", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")])


def stl_header(data: bytes) -> bytes:
    """The 80-byte header of STL bytes, after the checks ``parse_stl`` makes.

    A binary STL's records are validated without building the mesh; any
    other input is parsed by ``parse_stl``, whose mesh carries a zero header.
    """
    if is_binary_stl(data):
        _binary_stl_corners(data)
        return data[:_STL_HEADER_LEN]
    return parse_stl(data).header


def _binary_stl_corners(data: bytes) -> np.ndarray:
    """The (count, 3, 3) float32 corners of bytes that pass ``is_binary_stl``,
    a view of ``data``; raises NonFiniteCoordinate as parsing would."""
    (count,) = struct.unpack_from("<I", data, _STL_HEADER_LEN)
    rec = np.frombuffer(data, dtype=_STL_RECORD, count=count, offset=_STL_HEADER_LEN + 4)
    corners = rec["v"]  # stored normals ignored
    if not np.all(np.isfinite(corners)):
        raise NonFiniteCoordinate("binary STL contains non-finite vertex")
    return corners


def _parse_stl_binary(data: bytes) -> TriMesh:
    verts, tris = _dedup_vertices(_binary_stl_corners(data).reshape(-1, 3))
    return TriMesh(verts, tris.reshape(-1, 3), data[:_STL_HEADER_LEN])


def _ascii_floats(parts, n, lineno):
    if len(parts) != n:
        raise MalformedAscii(lineno, f"expected {n} numbers, got {len(parts)}")
    out = []
    for p in parts:
        try:
            v = parse_decimal(p)
        except ValueError:
            raise MalformedAscii(lineno, f"bad number {p!r}") from None
        out.append(v)
    return out


def _parse_stl_ascii(text: str) -> TriMesh:
    corners: list[tuple[float, float, float]] = []
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(n, ln) for n, ln in lines if ln]
    pos = 0

    def peek():
        return lines[pos] if pos < len(lines) else (lines[-1][0] + 1 if lines else 1, "")

    lineno, ln = peek()
    if not ln.lower().startswith("solid"):
        raise MalformedAscii(lineno, "expected 'solid'")
    pos += 1
    while True:
        lineno, ln = peek()
        low = ln.lower()
        if low.startswith("endsolid"):
            pos += 1
            break
        if not low.startswith("facet"):
            raise MalformedAscii(lineno, "expected 'facet normal' or 'endsolid'")
        parts = ln.split()
        if len(parts) < 2 or parts[1].lower() != "normal":
            raise MalformedAscii(lineno, "expected 'facet normal'")
        _ascii_floats(parts[2:], 3, lineno)  # normal value unused, grammar only
        pos += 1
        lineno, ln = peek()
        if ln.lower().replace(" ", "") != "outerloop":
            raise MalformedAscii(lineno, "expected 'outer loop'")
        pos += 1
        for _ in range(3):
            lineno, ln = peek()
            parts = ln.split()
            if not parts or parts[0].lower() != "vertex":
                raise MalformedAscii(lineno, "expected 'vertex'")
            x, y, z = _ascii_floats(parts[1:], 3, lineno)
            if not all(math.isfinite(v) for v in (x, y, z)):
                raise NonFiniteCoordinate(f"line {lineno}: non-finite vertex")
            corners.append((x, y, z))
            pos += 1
        lineno, ln = peek()
        if ln.lower() != "endloop":
            raise MalformedAscii(lineno, "expected 'endloop'")
        pos += 1
        lineno, ln = peek()
        if ln.lower() != "endfacet":
            raise MalformedAscii(lineno, "expected 'endfacet'")
        pos += 1
    if pos < len(lines):
        raise MalformedAscii(lines[pos][0], "content after 'endsolid'")
    arr = np.array(corners, dtype=np.float64).reshape(-1, 3)
    verts, tris = _dedup_vertices(arr)
    return TriMesh(verts, tris.reshape(-1, 3))


def _dedup_vertices(corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge bit-identical positions, keeping first-occurrence order.

    Rows are compared as bit patterns of their own width (float32 corners
    of a binary STL as u4, anything else as float64 and u8), so -0.0 and
    +0.0 stay distinct; only the kept rows are widened to float64, which
    is exact.
    """
    dtype = np.float32 if corners.dtype == np.float32 else np.float64
    corners = np.ascontiguousarray(corners, dtype=dtype).reshape(-1, 3)
    firsts, inverse = _first_occurrence_ids(corners.view(f"u{corners.itemsize}"))
    return corners[firsts].astype(np.float64, copy=False), inverse


def _first_occurrence_ids(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of an integer array by first occurrence.

    Returns (firsts, ids): the ascending row index of each number's first
    occurrence, and each row's number. A stable lexsort groups equal rows
    with each group's first occurrence at its head; the output never
    depends on the sort order.
    """
    if not len(rows):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.lexsort(rows.T[::-1])
    head = np.zeros(len(order), dtype=bool)     # sorted row differs from the one before
    head[0] = True
    for k in range(rows.shape[1]):
        col = rows[order, k]
        head[1:] |= col[1:] != col[:-1]
    firsts = order[head]                        # first occurrence of each group
    is_first = np.zeros(len(order), dtype=bool)
    is_first[firsts] = True
    index = np.cumsum(is_first) - 1             # number, read at first occurrences
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = index[firsts][np.cumsum(head) - 1]
    return np.nonzero(is_first)[0], ids


# --- STL writing --------------------------------------------------------------

def write_stl_binary(mesh: TriMesh) -> bytes:
    """Serialize to binary STL: 80-byte header, u32 count, 50-byte records.

    Facet normals are recomputed by the right-hand rule (zero vector for
    degenerate triangles); attribute bytes are zero.
    """
    tris = mesh.triangle_points.astype(np.float32)
    count = len(tris)
    e1 = tris[:, 1] - tris[:, 0]
    e2 = tris[:, 2] - tris[:, 0]
    normals = np.cross(e1.astype(np.float64), e2.astype(np.float64))
    norms = np.linalg.norm(normals, axis=1)
    safe = norms > 0
    normals[safe] /= norms[safe, None]
    normals[~safe] = 0.0
    rec = np.zeros(count, dtype=_STL_RECORD)
    rec["n"] = normals.astype(np.float32)
    rec["v"] = tris
    return mesh.header + struct.pack("<I", count) + rec.tobytes()


# --- XYZ point clouds ---------------------------------------------------------

# an XYZ text in the plain grammar: lines split by "\n" or "\r\n", each blank,
# a '#' comment or three tokens of the characters of ASCII decimals apart by
# spaces, tabs and commas. Token and separator characters are disjoint, so a
# line matches one way only.
_XYZ_TOKEN = r"[-+.0-9eE]+"
_XYZ_POINT = rf"[ \t,]*{_XYZ_TOKEN}[ \t,]+{_XYZ_TOKEN}[ \t,]+{_XYZ_TOKEN}[ \t,]*"
_XYZ_LINE = re.compile(rf"(?:{_XYZ_POINT}|[ \t]*(?:#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)?)\r?")
_XYZ_LINES = re.compile(rf"(?:{_XYZ_LINE.pattern}\n)*")
_XYZ_COMMENT = re.compile(r"^[ \t]*#.*", re.MULTILINE)


def _bulk_xyz_points(text: str) -> np.ndarray | None:
    """The (n, 3) points of a text whose every line is in the plain grammar,
    or None if a line is not or a token is not a finite decimal."""
    # a match, not a fullmatch, of the terminated lines: it stops at the
    # first line that is not plain instead of retrying every shorter prefix
    end = _XYZ_LINES.match(text).end()
    if not _XYZ_LINE.fullmatch(text, end):
        return None
    body = _XYZ_COMMENT.sub("", text) if "#" in text else text
    tokens = body.replace(",", " ").split()
    try:
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:      # decimal characters that are not a decimal
        return None
    return values.reshape(-1, 3) if np.isfinite(values).all() else None


def parse_xyz(text: str) -> PointCloud:
    """Parse whitespace/comma separated x y z lines; '#' starts a comment.

    A text that is entirely in the plain grammar is checked by regex and its
    tokens converted in bulk. Any other text, or one that holds a token that
    is not a finite decimal, is read line by line, so an error names its line.
    """
    pts = _bulk_xyz_points(text)
    if pts is None:
        pts = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 3:
                raise BadLine(lineno)
            try:
                p = [parse_decimal(v) for v in parts]
            except ValueError:
                raise BadLine(lineno, "not a number") from None
            if not all(math.isfinite(v) for v in p):
                raise BadLine(lineno, "non-finite coordinate")
            pts.append(p)
    if not len(pts):
        raise EmptyCloud("no data lines in XYZ input")
    return PointCloud(pts)


def write_xyz(points: np.ndarray, comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (comments or [])]
    lines += [f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}" for p in np.asarray(points)]
    return "\n".join(lines) + "\n"


# --- transforms and measures ----------------------------------------------------

def rotate_mesh(mesh: TriMesh, rotation: Rotation) -> TriMesh:
    """Rotate vertices about the origin; topology and header unchanged."""
    return TriMesh(mesh.vertices @ rotation.matrix().T, mesh.triangles.copy(), mesh.header)


def signed_volume(mesh: TriMesh) -> float:
    """Divergence-theorem sum of signed tetrahedra against the origin."""
    if not len(mesh.triangles):
        return 0.0
    p = mesh.triangle_points
    return float(np.einsum("ij,ij->", p[:, 0], np.cross(p[:, 1], p[:, 2])) / 6.0)


def mesh_volume(mesh: TriMesh) -> float:
    """Enclosed volume (mm^3) of a watertight, consistently oriented mesh.

    Returned as an absolute value; use ``signed_volume`` when the
    orientation sign matters.
    """
    return abs(signed_volume(mesh))


# --- planar slicing -------------------------------------------------------------

# triangle corners of each section feature: corners 0, 1, 2 (on the plane),
# then edges (0, 1), (0, 2), (1, 2) (ends strictly on opposite sides)
_FEATURE_CORNERS = np.array([[0, 0], [1, 1], [2, 2], [0, 1], [0, 2], [1, 2]])


def _section_paths(vertices: np.ndarray, triangles: np.ndarray, levels: np.ndarray):
    """Sections of an indexed mesh with ascending planes, as node paths.

    Nodes are mesh features, not welded coordinates (Minetto et al., "An
    optimal algorithm for 3D triangle mesh slicing", CAD 2017): an
    on-plane vertex, or an edge whose ends lie strictly on opposite sides
    of the plane, each at one level. A (triangle, level) pair with exactly
    two features is one segment between them, except an on-plane edge
    whose third vertex lies below, so the shared edge of two coplanar
    neighbours is contributed once. Nodes are numbered by first appearance
    in (level, triangle) order and walked by ``_walk``.

    Returns (xy, node_level, loops, chains): node coordinates (n, 2), each
    node's level index, and the loops and open chains as node lists.
    """
    z = vertices[:, 2]
    tz = z[triangles]
    first = np.searchsorted(levels, tz.min(axis=1), side="left")
    counts = np.searchsorted(levels, tz.max(axis=1), side="right") - first
    # every (triangle, level) pair whose z-range holds the level, level-major
    lev = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    order = np.argsort(lev, kind="stable")
    lev = lev[order]
    tri = np.repeat(np.arange(len(triangles)), counts)[order]
    s = np.sign(tz[tri] - levels[lev, None]).astype(np.int8)
    on = s == 0
    feature = np.concatenate([on, s[:, [0, 0, 1]] * s[:, [1, 2, 2]] < 0], axis=1)
    seg = (feature.sum(axis=1) == 2) & ~((on.sum(axis=1) == 2) & (s.sum(axis=1) < 0))
    rows, cols = np.nonzero(feature[seg])               # two per segment, in order
    ends = np.sort(triangles[tri[seg]][rows[:, None], _FEATURE_CORNERS[cols]], axis=1)
    # node key: (level, lower vertex, higher vertex); a vertex feature is (v, v)
    keys = np.column_stack([lev[seg][rows], ends])
    firsts, node = _first_occurrence_ids(keys)
    node_level, lo, hi = keys[firsts].T
    # an edge is crossed from its end below the plane, so every triangle
    # that shares it gives the same bits
    below = np.where(z[lo] < levels[node_level], lo, hi)
    above = np.where(below == lo, hi, lo)
    xy = vertices[below, :2]
    edge = below != above
    d0 = z[below[edge]] - levels[node_level[edge]]
    d1 = z[above[edge]] - levels[node_level[edge]]
    xy[edge] = xy[edge] + (vertices[above[edge], :2] - xy[edge]) * (d0 / (d0 - d1))[:, None]
    node = node.reshape(-1, 2)
    node = node[node[:, 0] != node[:, 1]]               # a feature joined to itself
    loops, chains = _walk(node[:, 0], node[:, 1], len(xy))
    return xy, node_level.tolist(), loops, chains


def _walk(a: np.ndarray, b: np.ndarray, nodes: int) -> tuple[list, list]:
    """Loops and open chains through the segments (a[e], b[e]), as node lists.

    A walk leaves each node by its first unused segment in segment order,
    and stops back at its start or where no unused segment is left.
    Odd-degree nodes start walks first, in node order, then any node with
    an unused segment; a walk back to its start through more than two
    nodes is a loop, every other walk an open chain.
    """
    # half-edges j by node, then segment: node[j] leaves by seg[j] to other[j]
    ends = np.column_stack([a, b]).ravel()
    order = np.argsort(ends, kind="stable")
    node = ends[order]
    other = np.column_stack([b, a]).ravel()[order].tolist()
    seg = (order // 2).tolist()
    first = np.searchsorted(node, np.arange(nodes + 1))
    odd = np.nonzero(np.diff(first) % 2)[0].tolist()
    first = first.tolist()
    used = [False] * len(a)

    def walk(start, j):
        path = [start]
        while True:
            used[seg[j]] = True
            cur = other[j]
            path.append(cur)
            if cur == start:
                return path
            for j in range(first[cur], first[cur + 1]):
                if not used[seg[j]]:
                    break
            else:
                return path

    loops, chains = [], []
    for start in odd:
        for j in range(first[start], first[start + 1]):
            if not used[seg[j]]:
                chains.append(walk(start, j))
    for j, start in enumerate(node.tolist()):
        if not used[seg[j]]:
            path = walk(start, j)
            if path[-1] == start and len(path) > 3:
                loops.append(path[:-1])
            else:
                chains.append(path)
    return loops, chains


def slice_levels(vertices: np.ndarray, triangles: np.ndarray, levels) -> list[SliceLoops]:
    """Slice an indexed mesh with ascending planes z = level; one SliceLoops each.

    Segments join only at shared mesh features, so corners with equal
    coordinates must share a vertex index, as ``_dedup_vertices`` output
    does.
    """
    levels = np.asarray(levels, dtype=np.float64).reshape(-1)
    results = [SliceLoops(z=float(z)) for z in levels]
    xy, node_level, loops, chains = _section_paths(vertices, triangles, levels)
    for path in loops:
        results[node_level[path[0]]].loops.append(xy[path])
    for path in chains:
        results[node_level[path[0]]].open_chains.append(xy[path])
    return results


def slice_mesh(mesh: TriMesh, z: float) -> SliceLoops:
    """Intersect the mesh with the plane Z=z and chain the result.

    Returns closed loops (one per cross-section connected component for
    well-formed solids) plus open chains where the surface has holes.
    Corners with bit-identical coordinates are joined first.
    """
    vertices, index = _dedup_vertices(mesh.vertices)
    return slice_levels(vertices, index[mesh.triangles], [z])[0]


def polygon_area(ring: np.ndarray) -> float:
    """Signed shoelace area of a closed 2D polyline (last->first implied)."""
    r = np.asarray(ring, dtype=np.float64)
    if len(r) < 3:
        return 0.0
    x, y = r[:, 0], r[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
