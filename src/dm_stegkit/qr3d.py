"""Bit matrices hidden as depth-jittered sphere clouds.

A true module (i, j) becomes a sphere on a square lattice spanned by a
deterministic basis perpendicular to a secret viewing direction, pushed a
random distance along that direction. Orthographic projection along the
secret direction collapses the jitter and restores the matrix; any other
view smears it. Recovery without the secret searches directions by how
well the projected centers fit a square lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadLine, DegenerateProjection, NonFiniteCoordinate, TooFewSpheres
from .meshcore import TriMesh, _first_occurrence_ids, _is_ascii_digits, parse_decimal, \
    parse_xyz, write_xyz

_U64 = (1 << 64) - 1

# Lattice scores at or above this lie outside the basin where each center
# snaps to one site: a search that ends there has found no lattice.
MISS_SCORE = 0.25

# Largest module grid side a projection may allocate (16 MB of bits), so a
# tiny pitch fails fast instead of asking for terabytes.
MAX_GRID_SIDE = 4096

# Most directions a coarse ring grid may hold (a step near 0.1 degrees), so
# a tiny coarse step fails fast instead of asking for terabytes.
MAX_RING_ROWS = 1 << 21


class SplitMix64:
    """Deterministic 64-bit generator (SplitMix64), identical on any host."""

    def __init__(self, seed: int):
        self.state = seed & _U64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _U64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        u = (self.next_u64() >> 11) * 2.0 ** -53
        return lo + (hi - lo) * u


# norms inside this range come from squares that neither overflow nor lose
# bits to underflow
_SAFE_NORM = (1e-150, 1e150)


def unit_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64).reshape(3)
    if not np.isfinite(v).all():
        raise ValueError("direction must be finite")
    with np.errstate(over="ignore", under="ignore"):
        n = float(np.linalg.norm(v))
    if not _SAFE_NORM[0] < n < _SAFE_NORM[1]:
        # the squared components may have over- or underflowed: rescale by
        # the largest first (only here, so ordinary directions keep their bits)
        big = float(np.abs(v).max())
        if big == 0:
            raise ValueError("zero direction vector")
        v = v / big
        n = float(np.linalg.norm(v))
    return v / n


@dataclass
class BitGrid:
    """Square boolean module matrix; row 0 is the top, column 0 the left."""

    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.ndim != 2 or self.bits.shape[0] != self.bits.shape[1]:
            raise ValueError("bit grid must be square")
        if self.bits.shape[0] < 2:
            raise ValueError("bit grid needs at least 2 modules per side")
        if not self.bits.any():
            raise ValueError("bit grid needs at least one true module")

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, BitGrid) and np.array_equal(self.bits, other.bits)


def grid_to_pbm(grid: BitGrid) -> str:
    rows = [" ".join("1" if b else "0" for b in row) for row in grid.bits]
    return f"P1\n{grid.n} {grid.n}\n" + "\n".join(rows) + "\n"


def grid_from_pbm(text: str) -> BitGrid:
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if not tokens or tokens[0] != "P1":
        raise ValueError("expected plain PBM (P1)")
    if len(tokens) < 3:
        raise ValueError("PBM header truncated")
    if not all(_is_ascii_digits(t) and int(t) > 0 for t in tokens[1:3]):
        raise ValueError(f"PBM header: width and height must be positive integers, "
                         f"got {tokens[1]!r} {tokens[2]!r}")
    w, h = int(tokens[1]), int(tokens[2])
    if w != h:
        raise ValueError(f"PBM header: bit grid must be square, got width {w} height {h}")
    digits = "".join(tokens[3:])
    if len(digits) != w * h or set(digits) - {"0", "1"}:
        raise ValueError("PBM pixel data does not match declared size")
    bits = np.array([c == "1" for c in digits], dtype=bool).reshape(h, w)
    return BitGrid(bits)


@dataclass
class EmbedParams:
    """Sphere-cloud layout: module pitch, sphere radius, depth jitter."""

    pitch: float
    direction: np.ndarray
    radius: float | None = None             # default 0.35 * pitch
    depth_jitter: float | None = None       # default 5 * pitch
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.pitch < math.inf:           # NaN fails too
            raise ValueError("pitch must be positive and finite")
        if self.radius is None:
            self.radius = 0.35 * self.pitch
        if self.depth_jitter is None:
            self.depth_jitter = 5.0 * self.pitch
        if not 0 < self.radius < self.pitch / 2:
            raise ValueError("radius must satisfy 0 < r < pitch/2")
        if not 0 <= self.depth_jitter < math.inf:
            raise ValueError("depth jitter must be finite and >= 0")
        self.direction = np.asarray(self.direction, dtype=np.float64).reshape(3)
        if not abs(np.linalg.norm(self.direction) - 1.0) <= 1e-9:    # NaN fails too
            raise ValueError("direction must be a finite unit vector (use unit_vector)")
        if not 0 <= int(self.seed) <= _U64:
            raise ValueError("seed must fit in 64 bits")


@dataclass
class SphereCloud:
    centers: np.ndarray                     # (n, 3) float64, finite
    radius: float = 0.0

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64).reshape(-1, 3)
        if not len(self.centers):
            raise ValueError("sphere cloud is empty")
        if not np.all(np.isfinite(self.centers)):
            raise NonFiniteCoordinate("sphere centers contain NaN/Inf")
        if not 0 <= self.radius < math.inf:         # NaN fails too
            raise ValueError("sphere radius must be finite and >= 0")


def _centers(cloud: SphereCloud | np.ndarray) -> np.ndarray:
    """The (n, 3) float64 centers of a cloud, or of an array checked as a
    SphereCloud checks its centers."""
    return (cloud if isinstance(cloud, SphereCloud) else SphereCloud(cloud)).centers


@dataclass
class DirectionSearchResult:
    direction: np.ndarray                   # unit, canonical hemisphere
    score: float
    estimated_pitch: float
    grid: BitGrid
    candidates_evaluated: int


# --- basis ---------------------------------------------------------------------

def _basis_many(dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed (u, w, v) frames for unit rows of ``dirs``.

    The reference axis is the standard axis least aligned with v (ties
    resolved x, then y, then z); u = normalize(a x v), w = v x u.
    """
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    a = np.eye(3)[np.argmin(np.abs(dirs), axis=1)]
    u = np.cross(a, dirs)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    w = np.cross(dirs, u)
    return u, w


def basis_for(v) -> tuple[np.ndarray, np.ndarray]:
    """In-plane orthonormal pair (u, w) for a unit viewing direction."""
    v = np.asarray(v, dtype=np.float64).reshape(3)
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:     # NaN fails too
        raise ValueError("direction must be a finite unit vector")
    u, w = _basis_many(v[None, :])
    return u[0], w[0]


# --- embedding -------------------------------------------------------------------

def grid_to_spheres(grid: BitGrid, params: EmbedParams) -> SphereCloud:
    """Place one sphere per true module, depth-jittered along the direction.

    Jitter values come from SplitMix64(seed), uniform in [-D, D], consumed
    in row-major true-module order, so clouds are reproducible bit-for-bit.
    A pitch or jitter so large that a center overflows raises
    NonFiniteCoordinate, with no floating-point warning on the way.
    """
    u, w = basis_for(params.direction)
    n = grid.n
    half = (n - 1) / 2.0
    rng = SplitMix64(params.seed)
    rows, cols = np.nonzero(grid.bits)
    offsets = np.array([rng.uniform(-params.depth_jitter, params.depth_jitter)
                        for _ in range(len(rows))])
    with np.errstate(over="ignore", invalid="ignore"):   # SphereCloud refuses the result
        centers = ((cols - half)[:, None] * params.pitch * u
                   + (half - rows)[:, None] * params.pitch * w
                   + offsets[:, None] * params.direction)
    return SphereCloud(centers, params.radius)


_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
    (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
    (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
], dtype=np.float64)
_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=np.int64)


def _unit_icosphere(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = _ICO_FACES
    for _ in range(subdivisions):
        # each face's edges ij, jk, ki; a midpoint is numbered at its edge's
        # first appearance
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        firsts, ids = _first_occurrence_ids(edges)
        mid = verts[edges[firsts, 0]] + verts[edges[firsts, 1]]
        ij, jk, ki = (len(verts) + ids).reshape(-1, 3).T
        verts = np.vstack([verts, mid / np.linalg.norm(mid, axis=1, keepdims=True)])
        i, j, k = faces.T
        faces = np.stack([i, ij, ki, j, jk, ij, k, ki, jk, ij, jk, ki], axis=1).reshape(-1, 3)
    return verts, faces


def spheres_to_mesh(cloud: SphereCloud, subdivisions: int = 2) -> TriMesh:
    """Tessellate every sphere as an icosphere; one watertight component each."""
    if not 0 <= subdivisions <= 4:
        raise ValueError("subdivisions must be in [0, 4]")
    if cloud.radius <= 0:
        raise ValueError("sphere cloud has no positive radius")
    uverts, ufaces = _unit_icosphere(subdivisions)
    nv = len(uverts)
    all_verts = (uverts[None, :, :] * cloud.radius
                 + cloud.centers[:, None, :]).reshape(-1, 3)
    all_faces = (ufaces[None, :, :]
                 + (np.arange(len(cloud.centers)) * nv)[:, None, None]).reshape(-1, 3)
    return TriMesh(all_verts, all_faces)


# --- recovery --------------------------------------------------------------------

def project_to_grid(cloud: SphereCloud | np.ndarray, v, pitch: float) -> BitGrid:
    """Snap centers projected along v onto a module grid of the given pitch.

    The tight bounding box of occupied cells defines the grid; a
    rectangular result is padded with empty modules to stay square. The
    centers are projected by ``_project``, as the search scores them.
    """
    centers = _centers(cloud)
    if not pitch > 0:
        raise ValueError("pitch must be positive")
    (cu,), (cw,) = _project(centers, unit_vector(v)[None])
    cols = np.rint((cu - cu.min()) / pitch)
    rows = np.rint((cw.max() - cw) / pitch)
    n = max(rows.max(), cols.max()) + 1
    if n > MAX_GRID_SIDE:
        raise DegenerateProjection(f"pitch {pitch:g} would need a grid side of {n:.4g} "
                                   f"modules, above the limit of {MAX_GRID_SIDE}")
    rows, cols, n = rows.astype(int), cols.astype(int), int(n)
    if n < 2:
        raise DegenerateProjection("projection collapses below a 2x2 grid")
    bits = np.zeros((n, n), dtype=bool)
    bits[rows, cols] = True
    return BitGrid(bits)


def _score_directions(points: np.ndarray, dirs: np.ndarray,
                      dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Lattice score and pitch of each direction row; ``dtype`` picks the scorer.

    float32 (``_score_coarse``, the coarse scan) only ranks directions. It
    picks its own patch of at most 64 centers and finds neighbours from each
    3-D pair difference d, formed in float64, as |d|^2 - (d.v)^2: one K=3
    product per batch, and no dependence on where the cloud sits (expanding
    |p_i - p_j|^2 in float32 loses the neighbours of a cloud far from the
    origin), and reads the pitch from adjacent pairs. float64
    (``_score_frames``, refine and polish, whose values are the outputs)
    keeps the gram form and the median nearest-neighbour pitch; both project
    with ``_project``, as ``project_to_grid`` does, then fit the lattice
    (``_fit_lattice``) and return float64 arrays.
    """
    if np.dtype(dtype) == np.float32:
        return _score_coarse(points, dirs)
    return _score_frames(points, dirs)[:2]


def _score_coarse(points: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float32 lattice score and pitch of each direction row, on at most
    ``_COARSE_SUBSAMPLE`` centers (beyond that, the patch nearest the
    centroid, chosen here), in batches whose (M, N, N) block holds at most
    ``_COARSE_BATCH_PAIRS`` entries, or one row where a row exceeds it. A
    row's score does not depend on its batch.
    """
    if len(points) > _COARSE_SUBSAMPLE:
        # one coherent patch, the centers nearest the centroid: modules keep
        # their lattice neighbours, so adjacent pairs still give the pitch
        # (a scattered subset has almost no adjacent modules)
        d2 = ((points - points.mean(axis=0)) ** 2).sum(axis=1)
        points = points[np.sort(np.argsort(d2, kind="stable")[:_COARSE_SUBSAMPLE])]
    # centred, so the float32 ulp is set by the cloud's size, not by its
    # distance from the origin (1.0 at 10^7 against a pitch of 2)
    centred = points - points.mean(axis=0)
    pts = centred.astype(np.float32)
    diffs = _pair_differences(points)
    central = np.argsort((centred ** 2).sum(axis=1), kind="stable")[:_PITCH_ROWS]
    extent = max(np.ptp(pts, axis=0).max(), 1.0)

    m, n = len(dirs), len(points)
    rows = max(1, _COARSE_BATCH_PAIRS // (n * n))
    block = np.empty(min(rows, m) * n * n, np.float32)
    score, pitch = np.empty(m), np.empty(m)
    for lo in range(0, m, rows):
        batch = dirs[lo:lo + rows]
        d2 = _pair_block(batch, diffs, block[:len(batch) * n * n].reshape(-1, n, n))
        nn_idx, nn_d2 = _nearest_neighbours(d2)
        part = np.sqrt(np.maximum(_adjacent_pitch_sq(d2, nn_d2, central), 0.0))
        cu, cw = _project(pts, batch)
        score[lo:lo + rows] = _fit_lattice(cu, cw, nn_idx, nn_d2, part, extent)[0]
        pitch[lo:lo + rows] = part
    return score, pitch


def _project(pts: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M, N) coordinates (cu, cw) of ``pts`` on each row's (u, w), in their
    precision, as broadcast multiply-adds: each row's bits are its own."""
    x, y, z = np.ascontiguousarray(pts.T)
    axes = np.concatenate(_basis_many(dirs)).astype(pts.dtype)     # u rows, then w rows
    uw = axes[:, 0, None] * x
    uw += axes[:, 1, None] * y
    uw += axes[:, 2, None] * z
    return uw[:len(dirs)], uw[len(dirs):]


def _pair_differences(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 3-D pair differences d = p_i - p_j, formed in float64 and cast to
    float32, as a (3, N^2) array, and |d|^2, with +inf where i == j."""
    p = np.asarray(points, dtype=np.float64)
    diff = (p[:, None, :] - p[None, :, :]).reshape(-1, 3).astype(np.float32)
    diff_sq = (diff * diff).sum(axis=1)
    diff_sq[::len(p) + 1] = np.inf
    return np.ascontiguousarray(diff.T), diff_sq


def _pair_block(dirs: np.ndarray, diffs: tuple[np.ndarray, np.ndarray],
                block: np.ndarray) -> np.ndarray:
    """The (M, N, N) float32 ``block`` filled with the squared projected
    distances |d|^2 - (d.v)^2 of ``diffs``, the ``_pair_differences`` of
    the points, along each direction row v (+inf where i == j)."""
    diff_t, diff_sq = diffs
    # einsum without ``optimize`` calls no BLAS: a row's bits are its own
    d2 = np.einsum("mk,kp->mp", np.asarray(dirs, np.float32), diff_t,
                   out=block.reshape(-1, len(diff_sq)))
    d2 *= d2
    np.subtract(diff_sq, d2, out=d2)
    return block


def _nearest_neighbours(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and squared distance, (M, N) each, of each projected center's
    nearest other center in the (M, N, N) block ``d2`` (+inf where i == j)."""
    nn_idx = np.argmin(d2, axis=2)
    return nn_idx, np.take_along_axis(d2, nn_idx[:, :, None], axis=2)[:, :, 0]


# the coarse pitch reads the pairs of the centers nearest the centroid whose
# distance lies within 0.7-1.3 times the median nearest-neighbour distance:
# adjacent modules, not the sqrt(2)-pitch diagonals
_PITCH_ROWS = 8
_ADJACENT_BAND = (0.49, 1.69)


def _adjacent_pitch_sq(d2: np.ndarray, nn_d2: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared lattice pitch per direction row: the mean squared distance of
    the adjacent pairs, those in the ``rows`` of the (M, N, N) block ``d2``
    within ``_ADJACENT_BAND`` times the median nearest-neighbour squared
    distance (that median where a row has no such pair).

    Off the true direction, depth blur scatters each center's neighbours
    about the pitch, so the nearest of them reads low while all of them
    average to it: 1.943 and 1.991 for a pitch of 2.0, 1.25 degrees off
    along a lattice diagonal. Each row of the block is read through a view,
    so the band costs a few (M, N) temporaries, and the +inf diagonal is
    masked, not multiplied.
    """
    med = np.median(nn_d2, axis=1)
    lo, hi = (f * med[:, None] for f in _ADJACENT_BAND)
    total = np.zeros_like(med)
    count = np.zeros_like(med)
    for i in rows.tolist():
        row = d2[:, i, :]
        band = row >= lo
        band &= row <= hi
        total += row.sum(axis=1, where=band)
        count += band.sum(axis=1)
    return np.divide(total, count, out=med, where=count > 0)


def _lattice_angle(cu: np.ndarray, cw: np.ndarray, nn_idx: np.ndarray,
                   nn_d2: np.ndarray, pitch: np.ndarray) -> np.ndarray:
    """In-plane lattice angle per direction row, in radians within pi/4
    either way: the fourth-harmonic circular mean of the headings from each
    projected center to its nearest neighbour. Its (M, N) temporaries are
    freed on return, before ``_fit_lattice`` forms the residuals.
    """
    dx = np.take_along_axis(cu, nn_idx, axis=1) - cu
    dy = np.take_along_axis(cw, nn_idx, axis=1) - cw
    ang4 = 4.0 * np.arctan2(dy, dx)
    # in-plane angle from pitch-length pairs only: axis-aligned neighbors
    # fold to 0 mod 90 exactly, while sqrt(2)/sqrt(5)-length pairs between
    # isolated modules would bias the circular mean; a row with no such pair
    # takes all of its pairs
    nn_d = np.sqrt(np.maximum(nn_d2, 0.0))
    near = np.abs(nn_d - pitch[:, None]) <= 0.2 * pitch[:, None]
    near |= ~near.any(axis=1, keepdims=True)
    cos_sum = np.where(near, np.cos(ang4), 0.0).sum(axis=1)
    sin_sum = np.where(near, np.sin(ang4), 0.0).sum(axis=1)
    return np.arctan2(sin_sum, cos_sum) / 4.0


def _fit_lattice(cu: np.ndarray, cw: np.ndarray, nn_idx: np.ndarray, nn_d2: np.ndarray,
                 pitch: np.ndarray, extent: float):
    """(score, pitch, phi, res_u, res_w) per direction row: the projected
    centers against the square lattice of ``pitch``, rotated by
    ``_lattice_angle``, anchored at the point nearest the centroid. The
    score is the RMS distance to the nearest site in pitch units (inf where
    the pitch falls below 1e-9 of ``extent``); the residuals are each
    center's offset from its site in pitch units, in the phi-rotated frame.
    """
    phi = _lattice_angle(cu, cw, nn_idx, nn_d2, pitch)
    c = np.cos(-phi)[:, None]
    s = np.sin(-phi)[:, None]
    ru = c * cu - s * cw
    rw = s * cu + c * cw

    centroid_u = ru.mean(axis=1, keepdims=True)
    centroid_w = rw.mean(axis=1, keepdims=True)
    anchor = np.argmin((ru - centroid_u) ** 2 + (rw - centroid_w) ** 2, axis=1)
    rows = np.arange(len(cu))
    au = ru[rows, anchor][:, None]
    aw = rw[rows, anchor][:, None]

    scale = np.where(pitch > 0, pitch, 1.0)[:, None]
    # in place: one (M, N) residual pair alive, not two
    fu, fw = ru, rw
    fu -= au
    fw -= aw
    fu /= scale
    fw /= scale
    fu -= np.rint(fu)
    fw -= np.rint(fw)
    score = np.sqrt((fu ** 2 + fw ** 2).mean(axis=1))
    score = np.where(pitch > 1e-9 * extent, score, np.inf)
    return score, pitch, phi, fu, fw


def _score_frames(points: np.ndarray, dirs: np.ndarray):
    """float64 ``_fit_lattice`` of each direction row: neighbours from the gram
    block of the projected points, and the pitch their median distance."""
    pts = np.asarray(points, dtype=np.float64)
    cu, cw = _project(pts, dirs)
    # |p_i - p_j|^2 per direction via one batched gram matmul
    proj = np.stack([cu, cw], axis=2)                    # (M, N, 2)
    d2 = proj @ proj.transpose(0, 2, 1)
    sq = (proj ** 2).sum(axis=2)
    d2 *= -2.0
    d2 += sq[:, :, None]
    d2 += sq[:, None, :]
    idx = np.arange(len(pts))
    d2[:, idx, idx] = np.inf
    nn_idx, nn_d2 = _nearest_neighbours(d2)
    pitch = np.sqrt(np.maximum(np.median(nn_d2, axis=1), 0.0))
    extent = max(np.ptp(pts, axis=0).max(), 1.0)
    return _fit_lattice(cu, cw, nn_idx, nn_d2, pitch, extent)


def lattice_score(cloud: SphereCloud | np.ndarray, v) -> tuple[float, float]:
    """Score one direction: (lattice residual, estimated pitch)."""
    centers = _centers(cloud)
    if len(centers) < 2:
        raise ValueError("lattice_score needs at least 2 centers")
    score, pitch = _score_directions(centers, unit_vector(v)[None, :])
    return float(score[0]), float(pitch[0])


def _polish_direction(points: np.ndarray, v: np.ndarray,
                      iterations: int = 3) -> np.ndarray:
    """Newton-style alignment once a direction is inside the true basin.

    With the direction off by a small in-plane error e, each center's
    snapped lattice residual is -(e.u, e.w) times its depth along v (plus
    a constant), so regressing residuals against depth recovers e
    directly. This sidesteps the compass search's stall on the V-shaped
    score valley. Directions outside the basin (score >= 0.25, where
    snapping is ambiguous) are returned unchanged.
    """
    for _ in range(iterations):
        score, pitch, phi, res_u, res_w = _score_frames(points, v[None, :])
        if not np.isfinite(score[0]) or score[0] >= MISS_SCORE:
            return v
        depth = points @ v
        if np.ptp(depth) < 1e-9 * max(np.ptp(points), 1.0):
            return v     # coplanar cloud: no depth leverage, nothing to fit
        design = np.column_stack([depth, np.ones_like(depth)])
        slope_u = np.linalg.lstsq(design, res_u[0] * pitch[0], rcond=None)[0][0]
        slope_w = np.linalg.lstsq(design, res_w[0] * pitch[0], rcond=None)[0][0]
        # slopes live in the phi-rotated frame; rotate back before applying
        cb, sb = math.cos(phi[0]), math.sin(phi[0])
        u, w = _basis_many(v[None, :])
        v = unit_vector(v + (cb * slope_u - sb * slope_w) * u[0]
                        + (sb * slope_u + cb * slope_w) * w[0])
    return v


def _canonical_rows(dirs: np.ndarray) -> np.ndarray:
    """Resolve the v/-v ambiguity per row: nonnegative z, then y, then x."""
    tol = 1e-12
    x, y, z = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    flip = (z < -tol) | ((np.abs(z) <= tol)
                         & ((y < -tol) | ((np.abs(y) <= tol) & (x < 0))))
    return np.where(flip[:, None], -dirs, dirs)


def _canonical_direction(v: np.ndarray) -> np.ndarray:
    return _canonical_rows(v[None, :])[0]


def _top_directions(scores: np.ndarray, dirs: np.ndarray, k: int) -> list[int]:
    """Indices of the k smallest (score, canonical direction) keys, in order.

    Equal keys keep index order, as a stable sort on the same keys would.
    """
    canon = _canonical_rows(dirs)
    order = np.lexsort((canon[:, 2], canon[:, 1], canon[:, 0], scores))
    return order[:k].tolist()


def _sph_dir(theta_deg: float, phi_deg: float) -> np.ndarray:
    t = math.radians(theta_deg)
    p = math.radians(phi_deg)
    return np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])


def _ring_grid(step: float) -> tuple[np.ndarray, np.ndarray]:
    """The pole, then rings theta = step, 2 step, ... <= 90 of k = ceil(360
    sin(theta) / step) rows ``_sph_dir(theta, 360 j / k)``, bit for bit, so
    ring neighbours are at most ``step`` apart (5268 rows at 2 degrees); and
    each row's refine start: theta, and phi snapped to a multiple of step / 2,
    so the pattern rings of all starts share one lattice and the refine memo.
    A step whose grid would hold more than ``MAX_RING_ROWS`` rows raises
    ValueError before any row is formed.
    """
    counts, total = [], 0
    # the rings np.arange makes below; each holds a row, so the limit is
    # passed within MAX_RING_ROWS + 1 rings (about 820 for a tiny step,
    # whose ring k holds about 2 pi k rows)
    for k in range(math.ceil(min((90.0 + 1e-9) / step, MAX_RING_ROWS + 1))):
        counts.append(max(1, math.ceil(360.0 * math.sin(math.radians(k * step)) / step)))
        total += counts[-1]
        if total > MAX_RING_ROWS:
            rows = max(total, 64800.0 / math.pi / step / step)     # 2 pi sr / step^2
            raise ValueError(f"coarse_step_deg {step:g} would need about {rows:.4g} "
                             f"directions, above the limit of {MAX_RING_ROWS}")
    thetas = np.arange(0.0, 90.0 + 1e-9, step)
    st, ct = (np.array([f(math.radians(t)) for t in thetas.tolist()])
              for f in (math.sin, math.cos))
    ring = np.repeat(np.arange(len(thetas)), counts)
    phi = np.concatenate([360.0 * np.arange(k) / k for k in counts])
    sp, cp = (np.fromiter(map(f, map(math.radians, phi)), float, len(phi))
              for f in (math.sin, math.cos))
    starts = np.column_stack([thetas[ring], np.rint(phi / (step / 2)) * (step / 2)])
    return np.column_stack([st[ring] * cp, st[ring] * sp, ct[ring]]), starts


_COARSE_SUBSAMPLE = 64
# direction x center-pair entries in the float32 pairwise block of one coarse
# batch: at 64 centers a block holds 512 directions (8 MB). The adjacent-pair
# pitch reads the block through views instead of copying rows, so the block
# and a few (M, N) temporaries are all a batch holds
_COARSE_BATCH_PAIRS = 1 << 21


def search_direction(cloud: SphereCloud | np.ndarray,
                     coarse_step_deg: float = 2.0,
                     refine_to_deg: float = 0.05) -> DirectionSearchResult:
    """Find the viewing direction by hemisphere scan plus local refinement.

    Coarse latitude rings are scored in cache-sized batches, with the same
    scores in any batch (the coarse scorer scores clouds beyond 64 centers on
    the 64 nearest their centroid, with the pitch from adjacent pairs), the 5
    best descend 3x3 step-halving pattern grids from lattice-snapped starts
    until the step drops below ``refine_to_deg``, and the least of the refine
    memo gets a regression polish before its projection (``_project``, as
    the scores) is returned. Each refine direction is scored once per search;
    ``candidates_evaluated`` still counts every pattern point visited. Ties
    break on the canonicalized direction, so results do not depend on
    evaluation order. The coarse scan scores in float32, refine and polish in
    float64 (see ``_score_directions``). Pitch estimation relies on adjacent
    occupied modules, so matrices missing much more than half their modules
    may defeat it.
    """
    for name, value in (("coarse_step_deg", coarse_step_deg), ("refine_to_deg", refine_to_deg)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    centers = _centers(cloud)
    if len(centers) < 4:
        raise TooFewSpheres(f"need at least 4 centers, got {len(centers)}")

    dirs, starts = _ring_grid(coarse_step_deg)
    evaluated = len(dirs)
    scores = _score_directions(centers, dirs, np.float32)[0]
    top = _top_directions(scores, dirs, 5)

    # direction bytes -> ((score, canonical direction), pitch, direction), in
    # any batch; every entry lies on a visited ring, so the least is the best
    memo: dict[bytes, tuple[tuple, float, np.ndarray]] = {}

    def ring_keys(gdirs: list[np.ndarray]) -> list[bytes]:
        keys = [d.tobytes() for d in gdirs]
        todo = {key: d for key, d in zip(keys, gdirs) if key not in memo}
        if todo:
            batch = np.array(list(todo.values()))
            gscores, gpitches = _score_directions(centers, batch)
            canon = _canonical_rows(batch)
            for k, (key, d) in enumerate(todo.items()):
                memo[key] = ((gscores[k], tuple(canon[k])), float(gpitches[k]), d)
        return keys

    for i in top:
        step = coarse_step_deg / 2.0
        cur = tuple(starts[i].tolist())
        while True:
            # pattern search: walk the 3x3 ring at this step until the
            # center is the local argmin, then halve the step
            for _ in range(16):
                grid_angles = [(cur[0] + dt * step, cur[1] + dp * step)
                               for dt in (-1, 0, 1) for dp in (-1, 0, 1)]
                gdirs = [_sph_dir(t, p) for t, p in grid_angles]
                keys = ring_keys(gdirs)
                evaluated += len(gdirs)
                kbest = min(range(len(gdirs)), key=lambda k: memo[keys[k]][0])
                moved = grid_angles[kbest] != cur
                cur = grid_angles[kbest]
                if not moved:
                    break
            if step < refine_to_deg:
                break
            step /= 2.0

    best_key, best_pitch, best_dir = min(memo.values(), key=lambda entry: entry[0])
    polished = _polish_direction(centers, unit_vector(best_dir))
    pscore, ppitch = _score_directions(centers, polished[None, :])
    evaluated += 1
    pkey = (float(pscore[0]), tuple(_canonical_direction(polished)))
    if pkey < best_key:
        best_key, best_pitch, best_dir = pkey, float(ppitch[0]), polished

    direction = _canonical_direction(unit_vector(best_dir))
    grid = project_to_grid(centers, direction, best_pitch)
    return DirectionSearchResult(
        direction=direction,
        score=float(best_key[0]),
        estimated_pitch=best_pitch,
        grid=grid,
        candidates_evaluated=evaluated,
    )


def cloud_to_xyz(cloud: SphereCloud) -> str:
    return write_xyz(cloud.centers, comments=[f"radius={cloud.radius:.9g}"])


def cloud_from_xyz(text: str) -> SphereCloud:
    radius = 0.0
    for lineno, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if s.startswith("#") and "radius=" in s:
            value = s.split("radius=", 1)[1].split()
            try:
                radius = parse_decimal(value[0])
            except (IndexError, ValueError):
                radius = math.nan               # refused below with the rest
            if not 0 <= radius < math.inf:
                raise BadLine(lineno, f"radius comment needs a number, finite and >= 0, "
                                      f"got {s!r}")
            break
    return SphereCloud(parse_xyz(text).points, radius)
