"""Point-cloud reconstruction and print-orientation defect scanning.

Layered XYZ scans are grouped by z, traced into per-layer outlines, and
lofted into a watertight mesh. The orientation scanner slices a mesh once
per distinct up-vector of a full Euler grid and ranks orientations by
cross-section fragmentation, which is the printability signal:
disconnected or open contours mean a broken toolpath.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLayer, EmptyCloud, TooFewPoints
from .meshcore import (
    PointCloud,
    Rotation,
    TriMesh,
    _crossing_segments,
    _weld_and_chain,
    default_weld_tol,
    polygon_area,
)

_OPEN_CHAIN_PENALTY = 10.0


@dataclass
class LayerStack:
    layers: list                            # [(z, (k, 2) xy array), ...], z ascending
    mean_spacing: float
    median_spacing: float

    @property
    def layer_count(self) -> int:
        return len(self.layers)


@dataclass
class OutlinePolygon:
    z: float
    ring: np.ndarray                        # (k, 2), counter-clockwise
    method: str                             # chained | convex_hull
    degenerate: bool = False

    @property
    def area(self) -> float:
        return abs(polygon_area(self.ring))


def group_layers(cloud: PointCloud, z_tol: float | None = None) -> LayerStack:
    """Partition points into layers; a z gap above z_tol starts a new layer.

    Default z_tol is half the median positive adjacent-z gap, which adapts
    to whatever layer height the scan used.
    """
    pts = cloud.points
    if not len(pts):
        raise EmptyCloud("cannot group an empty cloud")
    order = np.argsort(pts[:, 2], kind="stable")
    pts = pts[order]
    z = pts[:, 2]
    gaps = np.diff(z)
    if z_tol is None:
        positive = gaps[gaps > 0]
        z_tol = float(np.median(positive)) / 2.0 if len(positive) else 1e-6
    if z_tol <= 0:
        raise ValueError("z_tol must be positive")
    breaks = np.nonzero(gaps > z_tol)[0] + 1
    layers = []
    for chunk in np.split(np.arange(len(pts)), breaks):
        members = pts[chunk]
        layers.append((float(members[:, 2].mean()), members[:, :2].copy()))
    zs = [z for z, _ in layers]
    spacing = np.diff(zs)
    mean_sp = float(spacing.mean()) if len(spacing) else 0.0
    median_sp = float(np.median(spacing)) if len(spacing) else 0.0
    return LayerStack(layers, mean_sp, median_sp)


def _nearest_neighbor_median(pts: np.ndarray) -> float:
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(np.median(d2.min(axis=1))))


def _convex_hull(pts: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; counter-clockwise, no repeated endpoint."""
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def layer_outline(points: np.ndarray, z: float = 0.0) -> OutlinePolygon:
    """Trace one closed outline through a layer's points.

    Greedy nearest-neighbor chaining from the lowest (y, x) point; if the
    chain strands points or fails to close, the convex hull is used
    instead and the result notes which method produced it.
    """
    pts = np.unique(np.asarray(points, dtype=np.float64).reshape(-1, 2), axis=0)
    if len(pts) < 3:
        raise TooFewPoints(f"outline needs >= 3 distinct points, got {len(pts)}")
    med_nn = _nearest_neighbor_median(pts)
    jump_limit = 2.0 * med_nn

    start = int(np.lexsort((pts[:, 0], pts[:, 1]))[0])
    visited = np.zeros(len(pts), dtype=bool)
    chain = [start]
    visited[start] = True
    cur = pts[start]
    while True:
        d2 = ((pts - cur) ** 2).sum(axis=1)
        d2[visited] = np.inf
        nxt = int(np.argmin(d2))
        if not np.isfinite(d2[nxt]) or math.sqrt(d2[nxt]) > jump_limit:
            break
        visited[nxt] = True
        chain.append(nxt)
        cur = pts[nxt]

    scale = max(np.ptp(pts, axis=0).max(), 1e-12)
    area_floor = 1e-12 * scale * scale

    closes = np.linalg.norm(pts[chain[-1]] - pts[chain[0]]) <= jump_limit
    ring = pts[chain]
    if not (closes and len(chain) >= 3 and len(chain) >= 0.9 * len(pts)
            and abs(polygon_area(ring)) > area_floor):
        ring = _convex_hull(pts)
        method = "convex_hull"
        if len(ring) < 3:
            # collinear cloud: keep a zero-area ring over the sorted points
            ring = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    else:
        method = "chained"

    if polygon_area(ring) < 0:
        ring = ring[::-1]
    keep = np.ones(len(ring), dtype=bool)
    keep[1:] = np.any(ring[1:] != ring[:-1], axis=1)
    ring = ring[keep]
    degenerate = abs(polygon_area(ring)) <= area_floor
    return OutlinePolygon(z=z, ring=ring, method=method, degenerate=degenerate)


def _resample_ring(ring: np.ndarray, m: int) -> np.ndarray:
    """Arc-length resample to m points, starting at the vertex whose polar
    angle about the ring centroid is smallest (ties: radius, then index)."""
    centroid = ring.mean(axis=0)
    rel = ring - centroid
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    r2 = (rel ** 2).sum(axis=1)
    start = min(range(len(ring)), key=lambda i: (ang[i], r2[i], i))
    ring = np.roll(ring, -start, axis=0)
    closed = np.vstack([ring, ring[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    targets = total * np.arange(m) / m
    x = np.interp(targets, cum, closed[:, 0])
    y = np.interp(targets, cum, closed[:, 1])
    return np.column_stack([x, y])


def loft_layers(stack: LayerStack, resample_count: int = 128) -> TriMesh:
    """Join per-layer outlines into a closed surface.

    Adjacent rings are resampled to the same count and connected with quad
    strips (each split along its shorter diagonal); the bottom and top
    rings are capped with centroid fans, so the result is watertight by
    construction. Layers whose outline has no area raise DegenerateLayer.
    """
    if stack.layer_count < 2:
        raise ValueError("lofting needs at least 2 layers")
    rings = []
    for z, pts in stack.layers:
        outline = layer_outline(pts, z=z)
        if outline.degenerate:
            raise DegenerateLayer(z)
        rings.append((z, _resample_ring(outline.ring, resample_count)))

    m = resample_count
    verts = []
    for z, ring in rings:
        verts.append(np.column_stack([ring, np.full(len(ring), z)]))
    verts = np.vstack(verts)
    tris = []
    for layer in range(len(rings) - 1):
        base = layer * m
        top = base + m
        for i in range(m):
            j = (i + 1) % m
            p0, p1 = base + i, base + j
            q0, q1 = top + i, top + j
            d1 = np.linalg.norm(verts[p0] - verts[q1])
            d2 = np.linalg.norm(verts[p1] - verts[q0])
            if d1 <= d2:
                tris += [(p0, p1, q1), (p0, q1, q0)]
            else:
                tris += [(p0, p1, q0), (p1, q1, q0)]

    bottom_center = len(verts)
    top_center = len(verts) + 1
    z0, ring0 = rings[0]
    z1, ring1 = rings[-1]
    centers = np.array([
        [ring0[:, 0].mean(), ring0[:, 1].mean(), z0],
        [ring1[:, 0].mean(), ring1[:, 1].mean(), z1],
    ])
    verts = np.vstack([verts, centers])
    last = (len(rings) - 1) * m
    for i in range(m):
        j = (i + 1) % m
        tris.append((bottom_center, j, i))
        tris.append((top_center, last + i, last + j))
    return TriMesh(verts, np.array(tris, dtype=np.int64))


# --- orientation scanning ---------------------------------------------------------

@dataclass
class OrientationCandidate:
    rotation: Rotation
    mean_loops_per_layer: float
    max_open_chains: int
    bottom_layer_area: float
    fragmentation_score: float

    def to_dict(self) -> dict:
        return {
            "rotation": list(self.rotation.as_tuple()),
            "mean_loops_per_layer": self.mean_loops_per_layer,
            "max_open_chains": self.max_open_chains,
            "bottom_layer_area": self.bottom_layer_area,
            "fragmentation_score": self.fragmentation_score,
        }


@dataclass
class OrientationReport:
    angle_step_deg: float
    layer_height: float
    candidates: list = field(default_factory=list)   # sorted, best first

    @property
    def candidate_count(self) -> int:
        return len(self.candidates)

    def best(self) -> OrientationCandidate:
        return self.candidates[0]

    def to_json(self, top: int | None = None, pretty: bool = False) -> str:
        doc = {
            "angle_step_deg": self.angle_step_deg,
            "layer_height": self.layer_height,
            "candidate_count": self.candidate_count,
            "candidates": [c.to_dict() for c in
                           (self.candidates if top is None else self.candidates[:top])],
        }
        return json.dumps(doc, indent=2 if pretty else None)


def _slice_stats(tri_pts: np.ndarray, levels: np.ndarray, weld_tol: float):
    """Loop/open-chain counts per level plus the level-0 loop area."""
    zmin = tri_pts[:, :, 2].min(axis=1)
    zmax = tri_pts[:, :, 2].max(axis=1)
    lo = np.searchsorted(levels, zmin, side="left")
    hi = np.searchsorted(levels, zmax, side="right")
    counts = hi - lo
    total = int(counts.sum())
    nlevels = len(levels)
    if total == 0:
        return 0, 0, 0, 0.0
    rep = np.repeat(np.arange(len(tri_pts)), counts)
    cum = np.cumsum(counts)
    offsets = np.arange(total) - np.repeat(cum - counts, counts)
    lev = np.repeat(lo, counts) + offsets
    segs = _crossing_segments(tri_pts[rep], levels[lev])
    valid = ~np.isnan(segs[:, 0])
    segs = segs[valid]
    lev = lev[valid]
    order = np.argsort(lev, kind="stable")
    segs = segs[order].tolist()
    lev = lev[order]
    bounds = np.searchsorted(lev, np.arange(nlevels + 1))

    loops_total = 0
    open_layers = 0
    max_open = 0
    bottom_area = 0.0
    for k in range(nlevels):
        part = segs[bounds[k]:bounds[k + 1]]
        if not part:
            continue
        loops, chains = _weld_and_chain(part, weld_tol)
        loops_total += len(loops)
        if chains:
            open_layers += 1
            max_open = max(max_open, len(chains))
        if k == 0:
            bottom_area = sum(abs(polygon_area(np.asarray(lp))) for lp in loops)
    return loops_total, open_layers, max_open, bottom_area


def _layer_count(height: float, layer_height: float) -> int:
    """Layers that fit in ``height``; a height within 1e-9 layers of a whole
    multiple counts as that multiple, so rotation float noise cannot drop
    the top layer."""
    return max(1, math.floor(height / layer_height + 1e-9))


def orientation_scan(mesh: TriMesh, angle_step_deg: float = 15.0,
                     layer_height: float = 0.2) -> OrientationReport:
    """Slice the mesh in every grid orientation and rank by fragmentation.

    fragmentation_score = mean loops per layer + 10 x (fraction of layers
    with open chains). Lower is better; ties prefer the larger bottom
    layer, then the lexicographically smaller rotation.

    Slicing depends only on a rotation's third row (the up-vector): an
    in-plane spin about z leaves every layer's loops, open chains and area
    unchanged. Grid rotations are therefore grouped by up-vector, and each
    group is sliced once with its first rotation in (rx, ry, rz) order.
    """
    if not len(mesh.triangles):
        raise ValueError("cannot scan an empty mesh")
    if angle_step_deg <= 0 or 360.0 % angle_step_deg != 0:
        raise ValueError("angle_step_deg must divide 360")
    steps = np.arange(0.0, 360.0, angle_step_deg)
    weld_tol = default_weld_tol(mesh)
    verts = mesh.vertices
    faces = mesh.triangles

    groups = {}                             # up-vector -> (matrix, rotations)
    for rx in steps:
        for ry in steps:
            for rz in steps:
                rot = Rotation(rx, ry, rz)
                mat = rot.matrix()
                # + 0.0 folds -0.0 into +0.0
                key = tuple((np.round(mat[2], 9) + 0.0).tolist())
                groups.setdefault(key, (mat, []))[1].append(rot)

    candidates = []
    for mat, members in groups.values():
        rv = verts @ mat.T
        gz0 = rv[:, 2].min()
        nlayers = _layer_count(rv[:, 2].max() - gz0, layer_height)
        levels = gz0 + (np.arange(nlayers) + 0.5) * layer_height
        loops_total, open_layers, max_open, bottom_area = _slice_stats(
            rv[faces], levels, weld_tol)
        mean_loops = loops_total / nlayers
        frag = mean_loops + _OPEN_CHAIN_PENALTY * (open_layers / nlayers)
        for rot in members:
            candidates.append(OrientationCandidate(
                rotation=rot,
                mean_loops_per_layer=mean_loops,
                max_open_chains=max_open,
                bottom_layer_area=bottom_area,
                fragmentation_score=frag,
            ))

    def sig9(x: float) -> float:
        return float(f"{x:.9g}")

    # quantized keys so float noise between symmetry-equivalent rotations
    # cannot defeat the lexicographic tie-break
    candidates.sort(key=lambda c: (sig9(c.fragmentation_score),
                                   -sig9(c.bottom_layer_area),
                                   c.rotation.as_tuple()))
    return OrientationReport(angle_step_deg, layer_height, candidates)
