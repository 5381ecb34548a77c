"""Point-cloud reconstruction and print-orientation defect scanning.

Layered XYZ scans are grouped by z, traced into per-layer outlines, and
lofted into a watertight mesh. The orientation scanner slices a mesh once
per distinct up-vector of a full Euler grid and ranks orientations by
cross-section fragmentation, which is the printability signal:
disconnected or open contours mean a broken toolpath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateLayer, EmptyCloud, TooFewPoints
from .meshcore import (
    PointCloud,
    Rotation,
    TriMesh,
    _dedup_vertices,
    _euler_factors,
    _first_occurrence_ids,
    _level_ranges,
    _section_features,
    _section_paths,
    _walk,
    polygon_area,
)

_OPEN_CHAIN_PENALTY = 10.0
# (triangle, level) pairs per section build in the orientation scan; the
# build holds about 300 bytes per pair, so this bounds the scan's memory
_SCAN_BATCH_PAIRS = 8192
# rotations in one orientation grid, so k <= 101 angles per axis. The scan
# keeps a candidate of about 500 bytes per rotation (tracemalloc, 15-degree
# grid), so this bounds the report near 540 MB; a 1-degree grid would need
# 4.7e7 rotations
MAX_GRID_ROTATIONS = 1 << 20
# layers in one orientation's slice. Every level of a connected mesh crosses
# at least one triangle, so a rotation's section build holds at least one
# (triangle, level) pair of about 300 bytes per layer: this bounds that
# floor near 20 MB. 2^16 layers of 0.2 mm slice a part 13 m tall
MAX_SCAN_LAYERS = 1 << 16
# samples per lofted ring. The loft holds about 72 bytes per sample and layer
# (a vertex and a quad's two triangles), so this bounds a layer near 4.7 MB;
# 2^16 is 40 times the 1500 points of a dense scan's layer
MAX_RESAMPLE_COUNT = 1 << 16


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
    if not 0 < z_tol < math.inf:                    # NaN fails too
        raise ValueError("z_tol must be positive and finite")
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


# Pairs of points compared per vectorized block: the nearest-neighbour
# search's pairwise working set stays near 1 MB, and a small call is one block.
_PAIR_BLOCK = 1 << 15


def _brute_nearest(coords: np.ndarray, far: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and squared distance of the nearest other point in its row (the
    lowest index on ties) of each point ``far`` numbers in the (D, M, N)
    coordinates ``coords``, comparing every pair, in blocks of bounded size."""
    n = coords.shape[2]
    idx = np.empty(len(far), dtype=np.int64)
    out = np.empty(len(far))
    step = max(1, _PAIR_BLOCK // n)
    for s in range(0, len(far), step):
        row, col = np.divmod(far[s:s + step], n)
        # the terms of ((p_i - p_j) ** 2).sum(-1) in its order
        d2 = (coords[0, row, col, None] - coords[0, row]) ** 2
        for c in coords[1:]:
            d2 += (c[row, col, None] - c[row]) ** 2
        d2[np.arange(len(col)), col] = np.inf
        idx[s:s + step] = np.argmin(d2, axis=1)
        out[s:s + step] = d2[np.arange(len(col)), idx[s:s + step]]
    return idx, out


def _nearest_neighbours(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and squared distance, (M, N) each, of the nearest other point
    of each point in each row of the (M, N, D) float64 stack ``pts``. Ties
    go to the lowest index, as ``np.argmin`` gives them, and each distance
    has the bits of ``((p_i - p_j) ** 2).sum(-1)``.

    Each row is bucketed into its own grid of about one point per cell
    (Bentley, Stanat & Williams' fixed-radius search, Inf. Proc. Letters 6
    (1977) 209-212), and each point's nearest neighbour is sought in its 3^D
    block of cells. That block holds every point within one cell side, so a
    nearest candidate at most one side away is exact; only the points whose
    nearest candidate lies farther are compared with every point of their
    row. One stable argsort orders the cells of all rows, and pairs are
    compared in blocks of about ``_PAIR_BLOCK``: working memory is O(M N 3^D).
    """
    m, n, dim = pts.shape
    coords = np.ascontiguousarray(np.moveaxis(pts, 2, 0))      # (D, M, N)
    flat = coords.reshape(dim, m * n)
    lo = pts.min(axis=1)
    # about one point per cell in the span of the k widest axes, for the k
    # that gives the widest cell: at most n + 1 cells along any axis, O(n) in all
    wide = np.cumprod(-np.sort(lo - pts.max(axis=1), axis=1), axis=1)
    side = ((wide / n) ** (1.0 / np.arange(1, dim + 1))).max(axis=1)
    cells = ((pts - lo[:, None]) / np.where(side > 0, side, 1.0)[:, None, None])
    cells = cells.astype(np.int64) + 1          # floor; neighbour cells stay >= 0
    dims = cells.max(axis=1) + 2
    strides = np.ones((m, dim), dtype=np.int64)
    for k in range(dim - 2, -1, -1):
        strides[:, k] = strides[:, k + 1] * dims[:, k + 1]
    size = strides[:, 0] * dims[:, 0]           # cells of each row's grid
    key = np.einsum("mnd,md->mn", cells, strides) + (np.cumsum(size) - size)[:, None]
    order = np.argsort(key, axis=None, kind="stable")
    # the points of cell c are order[cell_first[c]:cell_first[c + 1]]
    cell_first = np.concatenate([[0], np.cumsum(np.bincount(key.ravel(), minlength=size.sum()))])
    shifts = np.indices((3,) * dim).reshape(dim, -1).T - 1
    near = (key[:, :, None] + np.einsum("kd,md->mk", shifts, strides)[:, None, :]).ravel()
    first = cell_first[near]
    counts = cell_first[near + 1] - first
    blk = len(shifts)
    # pairs of each point, from bounds[p] to bounds[p + 1]; >= 1 (itself)
    bounds = np.concatenate([[0], np.cumsum(counts.reshape(m * n, blk).sum(axis=1))])
    idx = np.empty(m * n, dtype=np.int64)
    best = np.empty(m * n)
    start = 0
    while start < m * n:
        # as many points as fit in one block of pairs, at least one
        stop = max(start + 1, int(np.searchsorted(
            bounds, bounds[start] + _PAIR_BLOCK, side="right")) - 1)
        cnt = counts[blk * start:blk * stop]
        pos = np.repeat(first[blk * start:blk * stop] - (np.cumsum(cnt) - cnt), cnt)
        pos += np.arange(len(pos))
        seg = np.repeat(np.arange(stop - start), np.diff(bounds[start:stop + 1]))
        i = seg + start
        j = order[pos]
        # the terms of ((p_i - p_j) ** 2).sum(-1) in its order
        d2 = (flat[0, i] - flat[0, j]) ** 2
        for c in flat[1:]:
            d2 += (c[i] - c[j]) ** 2
        d2[i == j] = np.inf
        cuts = bounds[start:stop] - bounds[start]
        best[start:stop] = low = np.minimum.reduceat(d2, cuts)
        idx[start:stop] = np.minimum.reduceat(np.where(d2 == low[seg], j, m * n), cuts)
        start = stop
    idx -= np.repeat(n * np.arange(m), n)       # index within the row
    # a candidate within the block is nearest only if no cell outside the
    # block can be closer; the margin absorbs rounding in the cell index
    far = np.nonzero(~(best <= np.repeat((side * (1.0 - 1e-6)) ** 2, n)))[0]
    idx[far], best[far] = _brute_nearest(coords, far)
    return idx.reshape(m, n), best.reshape(m, n)


def _nearest_neighbor_median(pts: np.ndarray) -> float:
    """Median distance from each point to its nearest other point."""
    return float(np.sqrt(np.median(_nearest_neighbours(pts[None])[1][0])))


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


def _greedy_chain(pts: np.ndarray, start: int, jump_limit: float) -> list:
    """Nearest-neighbour walk from ``start``: step to the nearest unvisited
    point (lowest index on equal squared distance) until it is farther than
    ``jump_limit`` or none is left.

    Unvisited points sit in grid buckets of side >= jump_limit, so every
    point within jump_limit of the current one lies in its 3x3 block of
    buckets and only those are searched; visited points leave their bucket.
    """
    extent = float(np.ptp(pts, axis=0).max())
    # the margin absorbs rounding in the cell index; the extent term keeps
    # the grid at most ~2**20 cells wide however small the jumps are
    side = max(jump_limit * (1.0 + 1e-6), extent * 2.0 ** -20)
    cells = np.floor((pts - pts.min(axis=0)) / side).astype(np.int64).tolist()
    buckets = {}
    for i, cell in enumerate(cells):
        buckets.setdefault(tuple(cell), []).append(i)
    xy = pts.tolist()
    chain = []
    cur = start
    while True:
        chain.append(cur)
        cx, cy = cells[cur]
        buckets[cx, cy].remove(cur)
        x, y = xy[cur]
        best_d2 = math.inf
        nxt = -1
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for j in buckets.get((gx, gy), ()):
                    dx = xy[j][0] - x
                    dy = xy[j][1] - y
                    d2 = dx * dx + dy * dy
                    if d2 < best_d2 or (d2 == best_d2 and j < nxt):
                        best_d2 = d2
                        nxt = j
        if nxt < 0 or math.sqrt(best_d2) > jump_limit:
            return chain
        cur = nxt


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
    chain = _greedy_chain(pts, start, jump_limit)

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
    start = int(np.lexsort((r2, ang))[0])      # stable: ties to the lower index
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
    construction. Layers whose outline has no area raise DegenerateLayer; a
    ``resample_count`` outside [3, ``MAX_RESAMPLE_COUNT``] raises ValueError
    before any outline is traced.
    """
    if stack.layer_count < 2:
        raise ValueError("lofting needs at least 2 layers")
    if resample_count < 3:
        raise ValueError(f"resample_count must be at least 3, got {resample_count}")
    if resample_count > MAX_RESAMPLE_COUNT:
        raise ValueError(f"resample_count {resample_count} is above the limit of "
                         f"{MAX_RESAMPLE_COUNT}")
    rings = []
    for z, pts in stack.layers:
        outline = layer_outline(pts, z=z)
        if outline.degenerate:
            raise DegenerateLayer(z)
        rings.append((z, _resample_ring(outline.ring, resample_count)))

    m = resample_count
    verts = np.vstack([np.column_stack([ring, np.full(len(ring), z)])
                       for z, ring in rings])
    i = np.arange(m)
    j = (i + 1) % m
    # quad (layer, i) joins p0, p1 on one ring to q0, q1 above them
    base = (np.arange(len(rings) - 1) * m)[:, None]
    p0, p1 = base + i, base + j
    q0, q1 = p0 + m, p1 + m
    # vecdot is the dot product np.linalg.norm takes of a single vector, so
    # the diagonals match a per-quad norm bit for bit
    e1 = verts[p0] - verts[q1]
    e2 = verts[p1] - verts[q0]
    short = (np.sqrt(np.vecdot(e1, e1)) <= np.sqrt(np.vecdot(e2, e2)))[..., None]
    strips = np.stack([
        np.where(short, np.stack([p0, p1, q1], axis=-1), np.stack([p0, p1, q0], axis=-1)),
        np.where(short, np.stack([p0, q1, q0], axis=-1), np.stack([p1, q1, q0], axis=-1)),
    ], axis=-2).reshape(-1, 3)

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
    caps = np.stack([
        np.stack([np.full(m, bottom_center), j, i], axis=-1),
        np.stack([np.full(m, top_center), last + i, last + j], axis=-1),
    ], axis=-2).reshape(-1, 3)
    return TriMesh(verts, np.vstack([strips, caps]).astype(np.int64))


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

    def to_dict(self, top: int | None = None) -> dict:
        if top is not None and top < 0:
            raise ValueError("top must be >= 0")
        return {
            "angle_step_deg": self.angle_step_deg,
            "layer_height": self.layer_height,
            "candidate_count": self.candidate_count,
            "candidates": [c.to_dict() for c in
                           (self.candidates if top is None else self.candidates[:top])],
        }


def _ring_counts(a: np.ndarray, b: np.ndarray, node_level: np.ndarray, nlevels: int):
    """Loops and open chains per level through the segments (a[e], b[e]),
    as ``_walk`` counts them, when every node on them has exactly two.

    Each component is then a cycle that one walk covers from any node:
    through more than two nodes a loop, through two an open chain.
    Incidence p is a node's end of segment p mod E. Leaving a node by one
    incidence and going on by the other segment at the far node permutes
    the incidences; its cycles run once around each component each way.
    Every incidence takes the lowest node on its cycle by pointer jumping
    (Shiloach and Vishkin, J. Algorithms 1982), so a component's lowest
    node is its one node whose incidences hold itself.
    """
    e = len(a)
    ends = np.concatenate([a, b])
    far = np.concatenate([b, a])
    pair = np.argsort(ends, kind="stable").reshape(-1, 2)    # a node's two incidences
    mate = np.empty(2 * e, dtype=np.intp)
    mate[pair[:, 0]], mate[pair[:, 1]] = pair[:, 1], pair[:, 0]
    jump = mate[(np.arange(2 * e) + e) % (2 * e)]
    low = ends
    # after k rounds low[p] is the lowest node over 2^k steps from p; it
    # stops changing once that is the whole cycle
    while not np.array_equal(nxt := np.minimum(low, low[jump]), low):
        low, jump = nxt, jump[jump]
    level = node_level[ends]
    components = np.bincount(level[low == ends], minlength=nlevels) // 2
    # both segments at a node lead to one node: a two-node component
    chains = np.bincount(level[far == far[mate]], minlength=nlevels) // 4
    return components - chains, chains


def _slice_stats(batch: list, triangles: np.ndarray, features: tuple[int, np.ndarray]) -> list:
    """Slice a batch of rotated copies of one mesh in one section build.

    ``batch`` holds (vertices, levels, ranges) per copy, its ranges from
    ``_level_ranges`` over its own levels; ``features`` is
    ``_section_features`` of the mesh. Returns, per copy: total loops,
    layers with open chains, the most open chains in one layer, and the
    loop area of its first level (a float, summed from 0.0 in walk order).

    Levels where a node has other than zero or two segments, and each
    copy's first level, are walked with ``_walk`` on their own segments;
    a walk never leaves its level, so it finds the paths it would on all
    levels. Every other level is counted by ``_ring_counts``.
    """
    verts, levels, spans = zip(*batch)
    size = np.array([len(lv) for lv in levels])
    starts = np.cumsum(size) - size
    nlevels = int(size.sum())
    faces = (triangles[None] + np.arange(len(batch))[:, None, None] * len(verts[0])).reshape(-1, 3)
    ranges = (np.concatenate([first + s for (first, _), s in zip(spans, starts.tolist())]),
              np.concatenate([counts for _, counts in spans]))
    count, ids = features
    xy, node_level, a, b = _section_paths(np.concatenate(verts), faces,
                                          (count, np.tile(ids, (len(batch), 1))),
                                          np.concatenate(levels), ranges)
    degree = np.bincount(a, minlength=len(xy)) + np.bincount(b, minlength=len(xy))
    walked = np.zeros(nlevels, dtype=bool)
    walked[node_level[(degree != 0) & (degree != 2)]] = True
    walked[starts] = True
    on_walk = walked[node_level[a]]
    loops, chains = _ring_counts(a[~on_walk], b[~on_walk], node_level, nlevels)
    walk_loops, walk_chains = _walk(a[on_walk], b[on_walk], len(xy))
    loops += np.bincount(node_level[[lp[0] for lp in walk_loops]], minlength=nlevels)
    chains += np.bincount(node_level[[ch[0] for ch in walk_chains]], minlength=nlevels)
    area = dict.fromkeys(starts.tolist(), 0.0)
    for lp in walk_loops:
        level = int(node_level[lp[0]])
        if level in area:
            area[level] += abs(polygon_area(xy[lp]))
    return list(zip(np.add.reduceat(loops, starts).tolist(),
                    np.add.reduceat((chains > 0).astype(np.int64), starts).tolist(),
                    np.maximum.reduceat(chains, starts).tolist(),
                    area.values()))


def _layer_count(height: float, layer_height: float) -> int:
    """Layers that fit in ``height``; a height within 1e-9 layers of a whole
    multiple counts as that multiple, so rotation float noise cannot drop
    the top layer. More than ``MAX_SCAN_LAYERS`` raise ValueError."""
    layers = float(height) / layer_height + 1e-9       # inf on overflow, refused below
    if not layers < MAX_SCAN_LAYERS + 1:
        raise ValueError(f"layer_height {layer_height:g} gives {layers:.4g} layers in one "
                         f"orientation, above the limit of {MAX_SCAN_LAYERS}")
    return max(1, math.floor(layers))


def _rotated_batches(vertices: np.ndarray, triangles: np.ndarray, matrices: list,
                    layer_height: float):
    """Each rotation's vertices, levels and level ranges, in order, grouped
    into batches whose (triangle, level) pairs fit ``_SCAN_BATCH_PAIRS``; a
    rotation above that budget is a batch of its own."""
    batch, pairs = [], 0
    for mat in matrices:
        rv = vertices @ mat.T
        gz0 = rv[:, 2].min()
        nlayers = _layer_count(rv[:, 2].max() - gz0, layer_height)
        levels = gz0 + (np.arange(nlayers) + 0.5) * layer_height
        ranges = _level_ranges(rv[:, 2][triangles], levels)
        n = int(ranges[1].sum())
        if batch and pairs + n > _SCAN_BATCH_PAIRS:
            yield batch
            batch, pairs = [], 0
        batch.append((rv, levels, ranges))
        pairs += n
    if batch:
        yield batch


def _grid_up_vectors(steps: list) -> tuple[np.ndarray, np.ndarray]:
    """Number the up-vectors of the grid rotations ``Rotation(rx, ry, rz)``,
    each angle from ``steps``, by first occurrence in (rx, ry, rz) order.

    Returns each rotation's number, in that order, and the matrix of each
    number's first rotation. Matrices are products of the factors of
    ``_euler_factors``, in the order ``Rotation.matrix`` multiplies them,
    so they have its bits; they are formed one rx slice of k^2 rotations at
    a time. An up-vector is keyed by its third row rounded to 9 decimals.
    """
    k = len(steps)
    rx, ry, rz = _euler_factors(steps, steps, steps)
    keys = np.empty((k, k * k, 3))
    for i in range(k):
        # + 0.0 folds -0.0 into +0.0
        keys[i] = np.round(((rx[i] @ ry)[:, None] @ rz)[:, :, 2].reshape(-1, 3), 9) + 0.0
    firsts, up = _first_occurrence_ids(keys.reshape(-1, 3).view(np.uint64))
    ix, iy, iz = np.unravel_index(firsts, (k, k, k))
    return up, rx[ix] @ ry[iy] @ rz[iz]


def orientation_scan(mesh: TriMesh, angle_step_deg: float = 15.0,
                     layer_height: float = 0.2) -> OrientationReport:
    """Slice the mesh in every grid orientation and rank by fragmentation.

    fragmentation_score = mean loops per layer + 10 x (fraction of layers
    with open chains). Lower is better; ties prefer the larger bottom
    layer, then the lexicographically smaller rotation.

    The grid holds k = 360 / angle_step_deg angles per axis, 360 j / k for
    j < k; a step is accepted when it is within 1e-9 relative of such a
    divisor of 360 and k^3 is at most ``MAX_GRID_ROTATIONS``. A layer height
    that cuts some orientation into more than ``MAX_SCAN_LAYERS`` layers
    raises ValueError before that orientation's levels are formed.

    Slicing depends only on a rotation's third row (the up-vector): an
    in-plane spin about z leaves every layer's loops, open chains and area
    unchanged. Each up-vector is therefore sliced once, with its first
    rotation in (rx, ry, rz) order; ``_grid_up_vectors`` finds them with
    broadcast matrix products. The mesh's section features are numbered
    once, by ``_section_features``. Consecutive up-vectors share one
    section build while their (triangle, level) pairs fit
    ``_SCAN_BATCH_PAIRS``, which bounds the scan's memory; loops and open
    chains are counted by ``_slice_stats`` without building most paths.
    """
    if not len(mesh.triangles):
        raise ValueError("cannot scan an empty mesh")
    k = round(360.0 / angle_step_deg) if 0 < angle_step_deg < math.inf else 0
    if k < 1 or abs(k * angle_step_deg - 360.0) > 1e-9 * 360.0:
        raise ValueError("angle_step_deg must divide 360")
    if k ** 3 > MAX_GRID_ROTATIONS:
        raise ValueError(f"angle_step_deg {angle_step_deg:g} gives {k ** 3} rotations, "
                         f"above the limit of {MAX_GRID_ROTATIONS}")
    if not 0 < layer_height < math.inf:
        raise ValueError(f"layer_height must be positive and finite, got {layer_height}")
    steps = (360.0 * np.arange(k) / k).tolist()
    verts, index = _dedup_vertices(mesh.vertices)
    faces = index[mesh.triangles]
    features = _section_features(faces, len(verts))
    up, up_matrices = _grid_up_vectors(steps)

    stats = []                              # per up-vector: mean loops, max open, area, score
    for batch in _rotated_batches(verts, faces, up_matrices, layer_height):
        for (_, levels, _), (loops, open_layers, max_open, bottom_area) in zip(
                batch, _slice_stats(batch, faces, features)):
            mean_loops = loops / len(levels)
            frag = mean_loops + _OPEN_CHAIN_PENALTY * (open_layers / len(levels))
            stats.append((mean_loops, max_open, bottom_area, frag))

    def sig9(x: float) -> float:
        return float(f"{x:.9g}")

    # keys quantized once per up-vector, so float noise between
    # symmetry-equivalent rotations cannot defeat the lexicographic
    # tie-break; lexsort is stable, and grid index order, (rx, ry, rz)
    # over ascending steps, is the lexicographic order of the angles
    frag_key = np.array([sig9(s[3]) for s in stats])[up]
    area_key = np.array([-sig9(s[2]) for s in stats])[up]
    order = np.lexsort((area_key, frag_key))
    ix, iy, iz = np.unravel_index(order, (k, k, k))
    candidates = [OrientationCandidate(Rotation(steps[a], steps[b], steps[c]), *stats[u])
                  for a, b, c, u in zip(ix.tolist(), iy.tolist(), iz.tolist(),
                                        up[order].tolist())]
    return OrientationReport(angle_step_deg, layer_height, candidates)
