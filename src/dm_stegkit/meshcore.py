"""Triangle-mesh primitives: STL/XYZ I/O, rigid rotation, planar slicing, volume.

All coordinates are millimetres. Values are plain dataclasses over numpy
arrays and are treated as immutable after construction.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field
from typing import Iterable

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
_STL_RECORD = np.dtype([("n", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")])
_STL_RECORD_LEN = _STL_RECORD.itemsize
# triangles whose records ``write_stl_binary`` fills at once: each float64
# (T, 3) array of its normals holds about 100 KB
_STL_WRITE_CHUNK = 1 << 12
# triangles whose signed tetrahedron volumes ``signed_volume`` forms at once
_VOLUME_CHUNK = 1 << 12


def _is_ascii_digits(text: str) -> bool:
    """True for one or more of the ASCII digits 0-9 and nothing else."""
    return text.isascii() and text.isdigit()


def parse_decimal(token: str) -> float:
    """``float(token)`` for a token, without whitespace, that is an ASCII decimal.

    ``float`` alone also reads PEP 515 underscores ("1_0" is 10), non-ASCII
    digits and surrounding whitespace; these raise ValueError here, as any
    non-number does.
    """
    if not token.isascii() or "_" in token or token != token.strip():
        raise ValueError(f"not an ASCII decimal: {token!r}")
    return float(token)


def parse_integer(token: str) -> int:
    """``int(token)`` for a token that is an optional sign, then ASCII digits.

    ``int`` alone also reads underscores, non-ASCII digits and surrounding
    whitespace; these raise ValueError here, as any non-integer does.
    """
    if not _is_ascii_digits(token[1:] if token[:1] in ("+", "-") else token):
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(token)


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


def _euler_factors(ax, ay, az) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (k, 3, 3) stacks of x, y and z factor matrices for the lists of
    angles ``ax``, ``ay`` and ``az``, in degrees: the ``Rotation`` of angles
    (ax[i], ay[j], az[l]) is x[i] @ y[j] @ z[l]."""
    cx, cy, cz = ([(math.cos(r), math.sin(r)) for r in map(math.radians, a)]
                  for a in (ax, ay, az))
    return (np.array([[[1, 0, 0], [0, c, -s], [0, s, c]] for c, s in cx]),
            np.array([[[c, 0, s], [0, 1, 0], [-s, 0, c]] for c, s in cy]),
            np.array([[[c, -s, 0], [s, c, 0], [0, 0, 1]] for c, s in cz]))


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
        rx, ry, rz = _euler_factors([self.rx], [self.ry], [self.rz])
        return rx[0] @ ry[0] @ rz[0]

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
    corners = _binary_stl_corners(data)
    if corners is not None:
        verts, tris = _dedup_vertices(corners)
        return TriMesh(verts, tris.reshape(-1, 3), data[:_STL_HEADER_LEN])
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        text = None
    if text is not None and text.lstrip()[:5].lower() == "solid":
        return _parse_stl_ascii(text)
    count, _ = _binary_stl_records(data)
    if count is not None:
        raise TruncatedFile(count, len(data))
    raise MalformedAscii(1, "not an STL file (no solid keyword, too short for binary)")


def _binary_stl_records(data: bytes) -> tuple[int | None, np.ndarray | None]:
    """The triangle count STL bytes declare (None when they are too short to
    declare one), and their records as a view of ``data`` when that count
    matches their length (else None)."""
    if len(data) < _STL_HEADER_LEN + 4:
        return None, None
    (count,) = struct.unpack_from("<I", data, _STL_HEADER_LEN)
    if len(data) != _STL_HEADER_LEN + 4 + _STL_RECORD_LEN * count:
        return count, None
    return count, np.frombuffer(data, dtype=_STL_RECORD, count=count, offset=_STL_HEADER_LEN + 4)


def is_binary_stl(data: bytes) -> bool:
    """True when the declared triangle count matches the length of ``data``."""
    return _binary_stl_records(data)[1] is not None


def stl_header(data: bytes) -> bytes:
    """The 80-byte header of STL bytes, after the checks ``parse_stl`` makes.

    A binary STL's records are validated without building the mesh; any
    other input is parsed by ``parse_stl``, whose mesh carries a zero header.
    """
    if _binary_stl_corners(data) is None:
        return parse_stl(data).header
    return data[:_STL_HEADER_LEN]


def _binary_stl_corners(data: bytes) -> np.ndarray | None:
    """The (count, 3, 3) float32 corners of binary STL bytes, a view of
    ``data``, or None for bytes that are not binary STL; raises
    NonFiniteCoordinate as parsing would."""
    records = _binary_stl_records(data)[1]
    if records is None:
        return None
    corners = records["v"]  # stored normals ignored
    bad = ~np.isfinite(corners).all(axis=(1, 2))
    if bad.any():
        raise NonFiniteCoordinate(f"facet {bad.argmax()}: binary STL contains non-finite vertex")
    return corners


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


# steps of the ASCII STL grammar, each a full match of a stripped, lower-cased
# line (\s and str.split agree on what whitespace is)
_ASCII_SOLID = re.compile("solid.*").fullmatch
_ASCII_FACET = re.compile(r"(?:facet|endsolid)(?:\s.*)?").fullmatch
_ASCII_OUTER_LOOP = re.compile(" *".join("outerloop")).fullmatch
_ASCII_VERTEX = re.compile(r"vertex(?:\s.*)?").fullmatch


def _parse_stl_ascii(text: str) -> TriMesh:
    corners: list[tuple[float, float, float]] = []
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(n, ln) for n, ln in lines if ln]
    end = (lines[-1][0] + 1 if lines else 1, "")
    nonblank = iter(lines)

    def expect(ok, message):
        """The next nonblank line, or ``end``, if ``ok`` holds for it in lower case."""
        lineno, ln = next(nonblank, end)
        if not ok(ln.lower()):
            raise MalformedAscii(lineno, message)
        return lineno, ln

    expect(_ASCII_SOLID, "expected 'solid'")
    while True:
        lineno, ln = expect(_ASCII_FACET, "expected 'facet normal' or 'endsolid'")
        if ln.lower().startswith("endsolid"):
            break
        parts = ln.split()
        if len(parts) < 2 or parts[1].lower() != "normal":
            raise MalformedAscii(lineno, "expected 'facet normal'")
        _ascii_floats(parts[2:], 3, lineno)  # normal value unused, grammar only
        expect(_ASCII_OUTER_LOOP, "expected 'outer loop'")
        for _ in range(3):
            lineno, ln = expect(_ASCII_VERTEX, "expected 'vertex'")
            x, y, z = _ascii_floats(ln.split()[1:], 3, lineno)
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
                raise NonFiniteCoordinate(f"line {lineno}: non-finite vertex")
            corners.append((x, y, z))
        expect("endloop".__eq__, "expected 'endloop'")
        expect("endfacet".__eq__, "expected 'endfacet'")
    expect("".__eq__, "content after 'endsolid'")
    arr = np.array(corners, dtype=np.float64).reshape(-1, 3)
    verts, tris = _dedup_vertices(arr)
    return TriMesh(verts, tris.reshape(-1, 3))


def _dedup_vertices(corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge bit-identical positions, keeping first-occurrence order.

    ``corners`` is an (..., 3) array whose rows are read in C order, such
    as the (T, 3, 3) record view of a binary STL, which is not copied.
    Rows are compared as bit patterns of their own width (float32 corners
    of a binary STL as u4, anything else as float64 and u8), so -0.0 and
    +0.0 stay distinct; only the kept rows are widened to float64, which
    is exact.
    """
    if corners.dtype != np.float32:
        corners = np.asarray(corners, dtype=np.float64)
    firsts, inverse = _first_occurrence_ids(corners.view(f"u{corners.itemsize}"))
    kept = corners[np.unravel_index(firsts, corners.shape[:-1])]
    return kept.astype(np.float64, copy=False), inverse


def _first_occurrence_ids(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of an (..., k) integer array by first occurrence.

    Rows are read in C order. Returns (firsts, ids): the ascending row
    index of each number's first occurrence, and each row's number. A
    stable lexsort on the columns groups equal rows with each group's
    first occurrence at its head; the first two columns of u4 rows sort as
    one u8 key. Heads are found one key at a time, the keys are released,
    and the U heads, ranked among themselves, number every row through the
    sort order. The output never depends on the sort order.
    """
    keys = [rows[..., j] for j in range(rows.shape[-1])]
    if rows.dtype == np.uint32 and len(keys) > 1:
        key = keys[0].astype(np.uint64)
        key <<= 32
        key |= keys[1]
        keys[:2] = [key]
    keys = [key.reshape(-1) for key in keys]
    n = len(keys[0])
    if not n:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    order = np.lexsort(keys[::-1])
    head = np.zeros(n, dtype=bool)              # sorted row differs from the one before
    head[0] = True
    for key in keys:
        col = key[order]
        head[1:] |= col[1:] != col[:-1]
    del keys, key, col
    heads = order[head]                         # each group's first occurrence
    by_first = np.argsort(heads)
    rank = np.empty(len(heads), dtype=np.int64)
    rank[by_first] = np.arange(len(heads))
    ids = np.empty(n, dtype=np.int64)
    ids[order] = np.repeat(rank, np.diff(np.flatnonzero(head), append=n))
    return heads[by_first], ids


# --- STL writing --------------------------------------------------------------

def write_stl_binary(mesh: TriMesh) -> bytearray:
    """Serialize to binary STL: 80-byte header, u32 count, 50-byte records,
    in one ``bytearray`` (equal to the same ``bytes``), returned uncopied.

    Corners are cast to float32 once; the records are filled in place
    ``_STL_WRITE_CHUNK`` triangles at a time, with facet normals recomputed
    from the float32 corners by the right-hand rule (zero vector for
    degenerate triangles); attribute bytes are zero.
    """
    tris = mesh.triangles
    out = bytearray(_STL_HEADER_LEN + 4 + _STL_RECORD_LEN * len(tris))
    out[:_STL_HEADER_LEN] = mesh.header
    struct.pack_into("<I", out, _STL_HEADER_LEN, len(tris))
    rec = np.frombuffer(out, dtype=_STL_RECORD, offset=_STL_HEADER_LEN + 4)
    corners = mesh.vertices.astype(np.float32)
    for lo in range(0, len(tris), _STL_WRITE_CHUNK):
        chunk = rec[lo:lo + _STL_WRITE_CHUNK]
        chunk["v"] = corners[tris[lo:lo + _STL_WRITE_CHUNK]]
        chunk["n"] = _unit_normals(chunk["v"])
    return out


def _unit_normals(v: np.ndarray) -> np.ndarray:
    """float64 right-hand-rule unit normals of the (T, 3, 3) corners ``v``,
    the zero vector for a degenerate triangle."""
    normals = np.cross((v[:, 1] - v[:, 0]).astype(np.float64),
                       (v[:, 2] - v[:, 0]).astype(np.float64))
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    return np.divide(normals, norms, out=np.zeros_like(normals), where=norms > 0)


# --- text lines and XYZ point clouds -------------------------------------------

_CHUNK_CHARS = 1 << 16     # characters per str.splitlines call in parse_xyz
# a line end that no later character can extend: "\r\n", "\n", or a "\r"
# that a character other than "\n" follows
_LINE_END = re.compile(r"\r\n|\n|\r(?=.)")


def _line_chunks(pieces: str | Iterable[str], size: int):
    """A text, one string or its pieces in order, in chunks of at least
    ``size`` characters that each end at a line end: each chunk ends just
    after the first ``"\r\n"``, ``"\n"`` or ``"\r"`` that makes it that long,
    and no cut falls inside a ``"\r\n"``. Pieces are held until they hold
    that many characters and the last one holds a line end; a last chunk,
    perhaps empty, holds what follows the last cut."""
    held, length = [], 0                    # pieces since the last cut, their length
    for piece in [pieces] if isinstance(pieces, str) else pieces:
        held.append(piece)
        length += len(piece)
        if length < size or not ("\n" in piece or "\r" in piece or held[0].endswith("\r")):
            continue                        # no new line end: a held "\r" may now end one
        text = "".join(held)
        del held[:], piece                  # hold the text once
        start = 0
        while match := _LINE_END.search(text, start + size - 1):
            chunk, start = text[start:match.end()], match.end()
            if len(text) - start < size:    # the last chunk here: keep only the rest
                text, start = text[start:], 0
            yield chunk
        held, length = [text[start:]], len(text) - start
    yield "".join(held)


def parse_xyz(text: str | Iterable[str], comment=None) -> PointCloud:
    """Parse whitespace/comma separated x y z lines; '#' starts a comment.

    ``text`` is one string or its pieces in order (a file's blocks, decoded
    one at a time), read in the chunks of ``_line_chunks``; one leading
    U+FEFF byte order mark is skipped. A chunk's data lines up to the first
    with another token count go to ``_xyz_values`` at once; that line is
    reported after every line before it has passed. ``comment(line, lineno)``,
    if given, sees each stripped comment line, also those after a data line
    at fault, so an error it raises comes first."""
    blocks, error, lineno = [], None, 0
    for k, chunk in enumerate(_line_chunks(text, _CHUNK_CHARS)):
        chunk = chunk if k else chunk.removeprefix("\ufeff")
        first, tokens, comma = lineno, [], "," in chunk
        for lineno, raw in enumerate(chunk.splitlines(), lineno + 1):
            parts = raw.split()
            if parts and parts[0][0] == "#":
                if comment is not None:
                    comment(raw.strip(), lineno)
            elif parts and error is None:
                if comma:
                    parts = raw.replace(",", " ").split()
                if len(parts) == 3:
                    tokens += parts
                else:
                    error = BadLine(lineno)
        if tokens:
            try:
                blocks.append(_xyz_values(tokens, chunk, first))
            except BadLine as exc:          # a line before this chunk's count error
                error = exc
        if error is not None and comment is None:
            break
    if error is not None:
        raise error
    if not blocks:
        raise EmptyCloud("no data lines in XYZ input")
    return PointCloud(np.concatenate(blocks).reshape(-1, 3))


def _xyz_values(tokens: list[str], chunk: str, lineno: int) -> np.ndarray:
    """The float64 values of the tokens of ``chunk``'s data lines (its first
    line follows line ``lineno``), in one ``float`` pass when they are ASCII
    without underscores, where ``float`` reads what ``parse_decimal`` reads;
    if that fails or is not finite, BadLine names the first line at fault."""
    joined = "".join(tokens)
    try:
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
        if joined.isascii() and "_" not in joined and np.isfinite(values).all():
            return values
    except ValueError:
        pass
    data = (n for n, raw in enumerate(chunk.splitlines(), lineno + 1)
            if (parts := raw.split()) and parts[0][0] != "#")
    for i, n in zip(range(0, len(tokens), 3), data):
        try:
            point = [parse_decimal(v) for v in tokens[i:i + 3]]
        except ValueError:
            raise BadLine(n, "not a number") from None
        if not all(map(math.isfinite, point)):
            raise BadLine(n, "non-finite coordinate")
    raise AssertionError("no faulty data line")


def write_xyz(points: np.ndarray, comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (comments or [])]
    lines += [f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}" for p in np.asarray(points)]
    return "\n".join(lines) + "\n"


# --- transforms and measures ----------------------------------------------------

def rotate_mesh(mesh: TriMesh, rotation: Rotation) -> TriMesh:
    """Rotate vertices about the origin; topology and header unchanged."""
    return TriMesh(mesh.vertices @ rotation.matrix().T, mesh.triangles.copy(), mesh.header)


def signed_volume(mesh: TriMesh) -> float:
    """Divergence-theorem sum of signed tetrahedra against the origin.

    Each triangle's a . (b x c) is formed ``_VOLUME_CHUNK`` triangles at a
    time and the T products are summed in triangle order, as one
    ``einsum("ij,ij->")`` over all of them would add them.
    """
    tris = mesh.triangles
    if not len(tris):
        return 0.0
    dots = np.empty(len(tris))
    for lo in range(0, len(tris), _VOLUME_CHUNK):
        p = mesh.vertices[tris[lo:lo + _VOLUME_CHUNK]]
        dots[lo:lo + _VOLUME_CHUNK] = np.einsum("ij,ij->i", p[:, 0], np.cross(p[:, 1], p[:, 2]))
    return float(np.add.accumulate(dots, out=dots)[-1] / 6.0)


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


def _level_ranges(tz: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per triangle with corner heights tz (m, 3): the first of the ascending
    levels at or above its lowest corner, and how many levels its z-range
    holds."""
    first = np.searchsorted(levels, tz.min(axis=1), side="left")
    return first, np.searchsorted(levels, tz.max(axis=1), side="right") - first


def _section_features(triangles: np.ndarray, nverts: int) -> tuple[int, np.ndarray]:
    """Number the section features of an indexed mesh with ``nverts`` vertices.

    Vertex v is feature v; edge (lo, hi) is nverts + its index among the
    mesh's distinct sorted edge pairs, each pair sorted as the integer
    lo * nverts + hi. Returns the feature count and each triangle's six
    feature ids, (T, 6), in ``_FEATURE_CORNERS`` order.
    """
    ends = triangles[:, _FEATURE_CORNERS[3:]]
    edges, edge_id = np.unique(ends.min(axis=2) * nverts + ends.max(axis=2), return_inverse=True)
    return nverts + len(edges), np.hstack([triangles, nverts + edge_id.reshape(-1, 3)])


def _section_paths(vertices: np.ndarray, triangles: np.ndarray,
                   features: tuple[int, np.ndarray], levels: np.ndarray,
                   ranges: tuple[np.ndarray, np.ndarray]):
    """Sections of an indexed mesh with planes z = level, as nodes and segments.

    Nodes are mesh features, not welded coordinates (Minetto et al., "An
    optimal algorithm for 3D triangle mesh slicing", CAD 2017): an
    on-plane vertex, or an edge whose ends lie strictly on opposite sides
    of the plane, each at one level. A (triangle, level) pair with exactly
    two features is one segment between them, except an on-plane edge
    whose third vertex lies below, so the shared edge of two coplanar
    neighbours is contributed once. Nodes are numbered by first appearance
    in (level, triangle) order, so each level's nodes and segments are
    contiguous runs in level order.

    ``features`` is ``_section_features`` of the triangles: the feature
    count F and each triangle's feature ids. A node is keyed by the one
    integer level * F + feature.

    ``ranges`` is the per-triangle (first, counts) of ``_level_ranges`` over
    ascending ``levels``. A caller that stacks copies of a mesh, each with
    its own ascending levels, passes each copy's ranges offset to its
    levels, so a copy meets only those, and the copy's feature ids: a
    level then names its copy, so node keys of different copies differ.

    Returns (xy, node_level, a, b): node coordinates (n, 2), each node's
    level index, and the segments (a[e], b[e]) in level order, without
    those that join a feature to itself.
    """
    count, ids = features
    z = vertices[:, 2]
    tz = z[triangles]
    first, counts = ranges
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
    tri = tri[seg][rows]
    keys = lev[seg][rows] * count + ids[tri, cols]
    firsts, node = _first_occurrence_ids(keys[:, None])
    node_level = keys[firsts] // count
    # the feature's two corners, equal for an on-plane vertex; an edge is
    # crossed from its end below the plane, so every triangle that shares
    # it gives the same bits
    e0, e1 = triangles[tri[firsts, None], _FEATURE_CORNERS[cols[firsts]]].T
    down = z[e0] < levels[node_level]
    below = np.where(down, e0, e1)
    above = np.where(down, e1, e0)
    xy = vertices[below, :2]
    edge = below != above
    at = levels[node_level]
    d0 = z[below] - at
    # a vertex is its own point: its fraction is never read
    frac = d0 / np.where(edge, d0 - (z[above] - at), 1.0)
    xy = np.where(edge[:, None], xy + (vertices[above, :2] - xy) * frac[:, None], xy)
    node = node.reshape(-1, 2)
    node = node[node[:, 0] != node[:, 1]]               # a feature joined to itself
    return xy, node_level, node[:, 0], node[:, 1]


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
    xy, node_level, a, b = _section_paths(vertices, triangles,
                                          _section_features(triangles, len(vertices)), levels,
                                          _level_ranges(vertices[triangles, 2], levels))
    loops, chains = _walk(a, b, len(xy))
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
