"""Triangle-mesh primitives: STL/XYZ I/O, rigid rotation, planar slicing, volume.

All coordinates are millimetres. Values are plain dataclasses over numpy
arrays and are treated as immutable after construction.
"""

from __future__ import annotations

import math
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


@dataclass
class TriMesh:
    """Indexed triangle soup.

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
            t = self.triangles
            if np.any((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])):
                raise InvalidMesh("triangle repeats a vertex index")

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
    last); ``open_chains`` are leftovers that could not be welded shut.
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
    if len(data) >= _STL_HEADER_LEN + 4:
        (count,) = struct.unpack_from("<I", data, _STL_HEADER_LEN)
        if len(data) == _STL_HEADER_LEN + 4 + _STL_RECORD_LEN * count:
            return _parse_stl_binary(data, count)
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


_STL_RECORD = np.dtype([("n", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")])


def _parse_stl_binary(data: bytes, count: int) -> TriMesh:
    header = data[:_STL_HEADER_LEN]
    rec = np.frombuffer(data, dtype=_STL_RECORD, count=count, offset=_STL_HEADER_LEN + 4)
    corners = rec["v"].reshape(count * 3, 3)  # stored normals ignored
    if not np.all(np.isfinite(corners)):
        raise NonFiniteCoordinate("binary STL contains non-finite vertex")
    verts, tris = _dedup_vertices(corners.astype(np.float64))
    return TriMesh(verts, tris.reshape(count, 3), header)


def _ascii_floats(parts, n, lineno):
    if len(parts) != n:
        raise MalformedAscii(lineno, f"expected {n} numbers, got {len(parts)}")
    out = []
    for p in parts:
        try:
            v = float(p)
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
    """Merge bit-identical positions, keeping first-occurrence order."""
    if not len(corners):
        return corners.reshape(0, 3), np.zeros(0, dtype=np.int64)
    raw = np.ascontiguousarray(corners).view([("", corners.dtype)] * 3).ravel()
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return corners[first[order]], rank[inverse]


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

def parse_xyz(text: str) -> PointCloud:
    """Parse whitespace/comma separated x y z lines; '#' starts a comment."""
    pts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 3:
            raise BadLine(lineno)
        try:
            p = [float(v) for v in parts]
        except ValueError:
            raise BadLine(lineno, "not a number") from None
        if not all(math.isfinite(v) for v in p):
            raise BadLine(lineno, "non-finite coordinate")
        pts.append(p)
    if not pts:
        raise EmptyCloud("no data lines in XYZ input")
    return PointCloud(np.array(pts, dtype=np.float64))


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


def default_weld_tol(mesh: TriMesh) -> float:
    lo, hi = mesh.bounds()
    diag = float(np.linalg.norm(hi - lo))
    return 1e-6 * diag if diag > 0 else 1e-6


# --- planar slicing -------------------------------------------------------------

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
    (loops, open_chains) as lists of coordinate-tuple lists.
    """
    inv = 1.0 / weld_tol
    tol2 = weld_tol * weld_tol
    cells: dict[tuple[int, int], int] = {}
    coords: list[tuple[float, float]] = []
    adj: list[list[tuple[int, int]]] = []

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
    return loops, chains


def slice_mesh(mesh: TriMesh, z: float, weld_tol: float | None = None) -> SliceLoops:
    """Intersect the mesh with the plane Z=z and chain the result.

    Returns closed loops (one per cross-section connected component for
    well-formed solids) plus any chains that failed to close within
    ``weld_tol`` (default: 1e-6 x bounding-box diagonal).
    """
    if weld_tol is None:
        weld_tol = default_weld_tol(mesh)
    if weld_tol <= 0:
        raise ValueError("weld_tol must be positive")
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


def polygon_area(ring: np.ndarray) -> float:
    """Signed shoelace area of a closed 2D polyline (last->first implied)."""
    r = np.asarray(ring, dtype=np.float64)
    if len(r) < 3:
        return 0.0
    x, y = r[:, 0], r[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
