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
from typing import Iterable

import numpy as np

from . import recon
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
    tokens = [t for line in text.splitlines() for t in line.split("#", 1)[0].split()]
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


def _project(pts: np.ndarray, dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M, N) coordinates (cu, cw) of ``pts`` on each row's (u, w), as
    broadcast multiply-adds: each row's bits are its own."""
    x, y, z = np.ascontiguousarray(pts.T)
    axes = np.concatenate(_basis_many(dirs))        # u rows, then w rows
    uw = axes[:, 0, None] * x
    uw += axes[:, 1, None] * y
    uw += axes[:, 2, None] * z
    return uw[:len(dirs)], uw[len(dirs):]


def _lattice_angle(cu: np.ndarray, cw: np.ndarray, nn_idx: np.ndarray,
                   nn_d2: np.ndarray, pitch: np.ndarray) -> np.ndarray:
    """In-plane lattice angle per direction row, in radians within pi/4
    either way: the fourth-harmonic circular mean of the headings from each
    projected center to its nearest neighbour. Its (M, N) temporaries are
    freed on return, before ``_score_frames`` forms the residuals.
    """
    dx = np.take_along_axis(cu, nn_idx, axis=1) - cu
    dy = np.take_along_axis(cw, nn_idx, axis=1) - cw
    ang4 = 4.0 * np.arctan2(dy, dx)
    # in-plane angle from pitch-length pairs only: axis-aligned neighbors
    # fold to 0 mod 90 exactly, while sqrt(2)/sqrt(5)-length pairs between
    # isolated modules would bias the circular mean; a row with no such pair
    # takes all of its pairs
    nn_d = np.sqrt(nn_d2)
    near = np.abs(nn_d - pitch[:, None]) <= 0.2 * pitch[:, None]
    near |= ~near.any(axis=1, keepdims=True)
    cos_sum = np.where(near, np.cos(ang4), 0.0).sum(axis=1)
    sin_sum = np.where(near, np.sin(ang4), 0.0).sum(axis=1)
    return np.arctan2(sin_sum, cos_sum) / 4.0


def _score_frames(points: np.ndarray, dirs: np.ndarray):
    """(score, pitch, phi, res_u, res_w) per direction row, in float64: the
    centers projected by ``_project`` against the square lattice of
    ``pitch``, rotated by ``_lattice_angle``, anchored at the point nearest
    the centroid. Each projected center's nearest neighbour comes from one
    ``recon._nearest_neighbours`` search of all rows, in O(M N) memory, and
    the pitch is their median distance. The score is the RMS distance to
    the nearest site in pitch units (inf where the pitch falls below 1e-9 of
    the cloud's extent); the residuals are each center's offset from its
    site in pitch units, in the phi-rotated frame.
    """
    pts = np.asarray(points, dtype=np.float64)
    cu, cw = _project(pts, dirs)
    nn_idx, nn_d2 = recon._nearest_neighbours(np.stack([cu, cw], axis=2))
    pitch = np.sqrt(np.median(nn_d2, axis=1))
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
    score = np.where(pitch > 1e-9 * max(np.ptp(pts, axis=0).max(), 1.0), score, np.inf)
    return score, pitch, phi, fu, fw


def lattice_score(cloud: SphereCloud | np.ndarray, v) -> tuple[float, float]:
    """Score one direction: (lattice residual, estimated pitch)."""
    centers = _centers(cloud)
    if len(centers) < 2:
        raise ValueError("lattice_score needs at least 2 centers")
    score, pitch = _score_frames(centers, unit_vector(v)[None, :])[:2]
    return float(score[0]), float(pitch[0])


# Newton steps the polish takes from a direction inside the basin
_POLISH_ITERATIONS = 3


def _polish_direction(points: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Newton-style alignment once a direction is inside the true basin.

    With the direction off by a small in-plane error e, each center's
    snapped lattice residual is -(e.u, e.w) times its depth along v (plus
    a constant), so regressing residuals against depth recovers e
    directly. This sidesteps the compass search's stall on the V-shaped
    score valley. Directions outside the basin (score >= 0.25, where
    snapping is ambiguous) are returned unchanged.
    """
    for _ in range(_POLISH_ITERATIONS):
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


def _sph_dir(theta_deg: float, phi_deg: float) -> np.ndarray:
    t = math.radians(theta_deg)
    p = math.radians(phi_deg)
    return np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])


def _angles(v: np.ndarray) -> tuple[float, float]:
    """(theta, phi) in degrees of the unit v, as ``_sph_dir`` takes them."""
    return math.degrees(math.acos(min(1.0, max(-1.0, float(v[2]))))), \
        math.degrees(math.atan2(float(v[1]), float(v[0])))


def _ring_grid(step: float) -> np.ndarray:
    """The pole, then rings theta = step, 2 step, ... <= 90 of k = ceil(360
    sin(theta) / step) rows ``_sph_dir(theta, 360 j / k)``, bit for bit, so
    ring neighbours are at most ``step`` apart (5268 rows at 2 degrees). A
    step whose grid would hold more than ``MAX_RING_ROWS`` rows raises
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
    return np.column_stack([st[ring] * cp, st[ring] * sp, ct[ring]])


# direction rows x max(bins, centers) entries in one batch of the spectral
# pass: each array a batch forms holds about 1 MB or less
_SPECTRUM_BATCH = 1 << 17


def _spectral_scale(centred: np.ndarray) -> tuple[float, int, int]:
    """(r, bins, kmin) of the spectral pass over the ``centred`` points.

    r is the cloud's radius and d_min the least distance between two
    centers. The histograms span [-r, r] in the next power of two of at
    least 64 and 16 r / d_min bins, and keep the frequencies k >= kmin =
    ceil(2r / (1.05 d_min)): no two modules lie closer than the pitch, so
    lattice rows are at most about d_min apart, while the depth jitter
    alone gives broad low-frequency peaks. Coincident centers, and a cloud
    wider than 2 ``MAX_GRID_SIDE`` times d_min (which caps the bins at
    2^16), raise DegenerateProjection.
    """
    r = math.sqrt(float((centred ** 2).sum(axis=1).max()))
    d_min = math.sqrt(float(recon._nearest_neighbours(centred[None])[1].min()))
    if d_min == 0:
        raise DegenerateProjection("coincident sphere centers: no lattice to search")
    if r > MAX_GRID_SIDE * d_min:
        raise DegenerateProjection(f"cloud diameter {2 * r:.4g} is above {2 * MAX_GRID_SIDE} "
                                   f"times the least center distance {d_min:.4g}")
    bins = 1 << max(6, (math.ceil(16 * r / d_min) - 1).bit_length())
    return r, bins, math.ceil(2 * r / (1.05 * d_min))


def _spectral_peaks(centred: np.ndarray, dirs: np.ndarray,
                    scale: tuple[float, int, int]) -> np.ndarray:
    """Lattice-row periodicity of each direction row t: the largest |F_k| / N,
    k >= kmin, of the FFT of the histogram of t.p over the ``centred``
    points, binned as ``_spectral_scale`` gives. A t normal to one family
    of lattice rows and to v projects every center onto its row whatever
    its depth, so t.p is periodic there and only there. Rows are projected
    with ``_project``'s multiply-adds in batches of at most
    ``_SPECTRUM_BATCH`` entries; a row's peak does not depend on its batch.
    """
    r, bins, kmin = scale
    n = len(centred)
    x, y, z = np.ascontiguousarray(centred.T)
    rows = max(1, _SPECTRUM_BATCH // max(bins, n))
    peaks = np.empty(len(dirs))
    for lo in range(0, len(dirs), rows):
        t = dirs[lo:lo + rows]
        proj = t[:, 0, None] * x
        proj += t[:, 1, None] * y
        proj += t[:, 2, None] * z
        proj += r
        proj *= bins / (2 * r)
        idx = np.minimum(proj.astype(np.int64), bins - 1)
        idx += bins * np.arange(len(t))[:, None]
        hist = np.bincount(idx.ravel(), minlength=len(t) * bins).reshape(len(t), bins)
        peaks[lo:lo + len(t)] = np.abs(np.fft.rfft(hist, axis=1)[:, kmin:]).max(axis=1)
    return peaks / n


def _least_variance_axis(centred: np.ndarray) -> np.ndarray:
    """Unit normal of the least-squares plane of the ``centred`` points: the
    eigenvector of the least eigenvalue of their 3x3 scatter, which einsum
    sums without BLAS."""
    return np.linalg.eigh(np.einsum("ni,nj->ij", centred, centred))[1][:, 0]


def _rank(memo: dict, dirs: list[np.ndarray], rank) -> list[bytes]:
    """The memo keys (direction bytes) of ``dirs``. The directions ``memo``
    lacks are ranked in one batch by ``rank``, which gives one (value,
    payload) per row, and kept as ((value, canonical direction), payload,
    direction): each direction is ranked once, and ties break on the
    canonical direction, whatever the order of evaluation."""
    keys = [d.tobytes() for d in dirs]
    todo = {key: d for key, d in zip(keys, dirs) if key not in memo}
    if todo:
        batch = np.array(list(todo.values()))
        for (key, d), canon, (value, payload) in zip(todo.items(), _canonical_rows(batch),
                                                     rank(batch)):
            memo[key] = ((value, tuple(canon)), payload, d)
    return keys


def _pattern_walk(cur: tuple[float, float], step: float, stop: float, rank,
                  memo: dict) -> tuple[tuple[float, float], int]:
    """3x3 (theta, phi) pattern search from ``cur`` degrees for the least
    ``_rank`` key: walk the ring at this step until its centre is the
    least, then halve the step, until a ring below ``stop`` is walked.
    Returns the last centre and the pattern points visited."""
    visited = 0
    while True:
        for _ in range(16):
            angles = [(cur[0] + dt * step, cur[1] + dp * step)
                      for dt in (-1, 0, 1) for dp in (-1, 0, 1)]
            keys = _rank(memo, [_sph_dir(t, p) for t, p in angles], rank)
            visited += len(keys)
            best = min(range(len(keys)), key=lambda k: memo[keys[k]][0])
            moved = angles[best] != cur
            cur = angles[best]
            if not moved:
                break
        if step < stop:
            return cur, visited
        step /= 2.0


def search_direction(cloud: SphereCloud | np.ndarray,
                     coarse_step_deg: float = 2.0,
                     refine_to_deg: float = 0.05) -> DirectionSearchResult:
    """Find the viewing direction from lattice-plane periodicity, then refine.

    The spectral start is the indexing step of DPS (Steller, Bolotovsky &
    Rossmann, J. Appl. Cryst. 30 (1997) 1036): every row t of the coarse
    ring grid gets its ``_spectral_peaks`` value, in O(N) per row on all
    centers; t1 is the strongest row and t2 the strongest at least 20
    degrees from it, and each climbs a ``_pattern_walk`` from half the
    coarse step to below 1/64 of it. The start is whichever of t1 x t2 and
    the ``_least_variance_axis`` (the one candidate when the grid has no t2)
    ``_score_frames`` ranks lower. One float64 walk from the start, at a
    quarter of the coarse step halved until below ``refine_to_deg``, scores
    each direction once in a memo. The least of the memo gets a regression
    polish, ranked as one more memo entry, and the projection (``_project``,
    as the scores) of the least entry is returned. ``candidates_evaluated``
    counts the grid rows, every pattern point visited, the start candidates
    and the polish. Ties break on the canonicalized direction, so results
    do not depend on evaluation order. Pitch estimation relies on adjacent
    occupied modules, so matrices missing much more than half their
    modules may defeat it.
    """
    for name, value in (("coarse_step_deg", coarse_step_deg), ("refine_to_deg", refine_to_deg)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    centers = _centers(cloud)
    if len(centers) < 4:
        raise TooFewSpheres(f"need at least 4 centers, got {len(centers)}")

    dirs = _ring_grid(coarse_step_deg)
    centred = centers - centers.mean(axis=0)
    scale = _spectral_scale(centred)
    peaks = _spectral_peaks(centred, dirs, scale)
    evaluated = len(dirs)

    def peak(batch):
        return ((-p, None) for p in _spectral_peaks(centred, batch, scale))

    def lattice(batch):
        return zip(*_score_frames(centers, batch)[:2])

    # direction bytes -> ((value, canonical direction), payload, direction),
    # one memo for the peak walks and one for the refine
    normals: dict[bytes, tuple] = {}
    memo: dict[bytes, tuple] = {}
    starts = [_least_variance_axis(centred)]
    first = int(np.argmax(peaks))
    apart = np.abs((dirs * dirs[first]).sum(axis=1)) < math.cos(math.radians(20.0))
    if apart.any():
        second = int(np.argmax(np.where(apart, peaks, -np.inf)))
        ts = []
        for row in (first, second):
            end, visited = _pattern_walk(_angles(dirs[row]), coarse_step_deg / 2.0,
                                         coarse_step_deg / 64.0, peak, normals)
            evaluated += visited
            ts.append(_sph_dir(*end))
        starts.insert(0, unit_vector(np.cross(*ts)))

    keys = _rank(memo, starts, lattice)
    evaluated += len(keys)
    start = memo[min(keys, key=lambda key: memo[key][0])][2]
    evaluated += _pattern_walk(_angles(start), coarse_step_deg / 4.0, refine_to_deg,
                               lattice, memo)[1]

    best = min(memo.values(), key=lambda entry: entry[0])[2]
    evaluated += len(_rank(memo, [_polish_direction(centers, unit_vector(best))], lattice))
    best_key, best_pitch, best_dir = min(memo.values(), key=lambda entry: entry[0])
    direction = _canonical_direction(unit_vector(best_dir))
    grid = project_to_grid(centers, direction, best_pitch)
    return DirectionSearchResult(
        direction=direction,
        score=float(best_key[0]),
        estimated_pitch=float(best_pitch),
        grid=grid,
        candidates_evaluated=evaluated,
    )


def cloud_to_xyz(cloud: SphereCloud) -> str:
    return write_xyz(cloud.centers, comments=[f"radius={cloud.radius:.9g}"])


def cloud_from_xyz(text: str | Iterable[str]) -> SphereCloud:
    """The sphere cloud of ``parse_xyz(text)``, its radius from the first ``# radius=``
    comment (0 without one), read in the same pass; a bad one beats any bad data line."""
    radii = []

    def radius_comment(line: str, lineno: int):
        if not radii and "radius=" in line:
            value = line.split("radius=", 1)[1].split()
            try:
                radii.append(parse_decimal(value[0]))
            except (IndexError, ValueError):
                radii.append(math.nan)          # refused below with the rest
            if not 0 <= radii[0] < math.inf:
                raise BadLine(lineno, f"radius comment needs a number, finite and >= 0, "
                                      f"got {line!r}")

    return SphereCloud(parse_xyz(text, radius_comment).points, radii[0] if radii else 0.0)
