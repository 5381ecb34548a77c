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
    to whatever layer height the scan used. The cloud is sorted by z once
    (stably) and each layer's xy is a view of that one sorted copy.
    """
    pts = cloud.points
    if not len(pts):
        raise EmptyCloud("cannot group an empty cloud")
    pts = pts[np.argsort(pts[:, 2], kind="stable")]
    gaps = np.diff(pts[:, 2])
    if z_tol is None:
        positive = gaps[gaps > 0]
        z_tol = float(np.median(positive)) / 2.0 if len(positive) else 1e-6
    if not 0 < z_tol < math.inf:                    # NaN fails too
        raise ValueError("z_tol must be positive and finite")
    breaks = np.nonzero(gaps > z_tol)[0] + 1
    layers = [(float(layer[:, 2].mean()), layer[:, :2]) for layer in np.split(pts, breaks)]
    spacing = np.diff([z for z, _ in layers])
    return LayerStack(layers, float(np.median(spacing)) if len(spacing) else 0.0)


# Pairs of points compared per vectorized block: the neighbour searches'
# pairwise working set stays near 1 MB, and a small call is one block.
_PAIR_BLOCK = 1 << 15
# Points per batch of layers whose outlines are traced together; a layer
# above it is a batch of its own. A batch peaks near 400 bytes per point
# under tracemalloc, so this bounds the outline pass near 6.5 MB
_OUTLINE_BATCH_POINTS = 1 << 14
# Entries of a point's list of near points, nearest first: however tight a
# cluster, the lists hold O(n) entries. A chain that finds every entry of a
# cut list visited takes the nearest unvisited point from a pass over the layer
_NEAR_LIST = 8


def _visit_pairs(flat: np.ndarray, who: np.ndarray, first: np.ndarray, counts: np.ndarray,
                 order: np.ndarray | None, visit) -> None:
    """Compare each point ``who[q]`` of the (D, P) coordinates ``flat`` with
    its candidates: the points ``order[first[q, k]:first[q, k] +
    counts[q, k]]`` for each k, in that order (the positions themselves when
    ``order`` is None).

    Calls ``visit(block, seg, cuts, i, j, d2)`` for runs ``who[block]`` whose
    pairs fit in about ``_PAIR_BLOCK`` (one point at least): pair e joins
    i[e] = who[block][seg[e]] to j[e], each point's pairs start at ``cuts``,
    and d2 has the bits of ``((p_i - p_j) ** 2).sum(-1)``. A block's arrays
    are released before the next is formed.
    """
    r = first.shape[1]
    bounds = np.concatenate([[0], np.cumsum(counts.sum(axis=1))])
    first, counts = first.ravel(), counts.ravel()
    start = 0
    while start < len(who):
        stop = max(start + 1, int(np.searchsorted(
            bounds, bounds[start] + _PAIR_BLOCK, side="right")) - 1)
        cnt = counts[r * start:r * stop]
        pos = np.repeat(first[r * start:r * stop] - (np.cumsum(cnt) - cnt), cnt)
        pos += np.arange(len(pos))
        seg = np.repeat(np.arange(stop - start), np.diff(bounds[start:stop + 1]))
        i = who[start:stop][seg]
        j = pos if order is None else order[pos]
        # the terms of ((p_i - p_j) ** 2).sum(-1) in its order
        d2 = (flat[0, i] - flat[0, j]) ** 2
        for c in flat[1:]:
            d2 += (c[i] - c[j]) ** 2
        visit(slice(start, stop), seg, bounds[start:stop] - bounds[start], i, j, d2)
        start = stop


def _nearest_among(flat: np.ndarray, who: np.ndarray, first: np.ndarray, counts: np.ndarray,
                   order: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Index and squared distance of the nearest other point (the lowest
    index on ties) of each point ``who[q]`` among its candidates, as
    ``_visit_pairs`` lists them; inf and the point itself where it has none."""
    idx = np.empty(len(who), dtype=np.int64)
    best = np.empty(len(who))

    def nearest(block, seg, cuts, i, j, d2):
        d2[i == j] = np.inf
        best[block] = low = np.minimum.reduceat(d2, cuts)
        idx[block] = np.minimum.reduceat(np.where(d2 == low[seg], j, flat.shape[1]), cuts)

    _visit_pairs(flat, who, first, counts, order, nearest)
    return idx, best


def _nearest_neighbours(pts: np.ndarray, sizes: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Index and squared distance of the nearest other point of each point
    in its row. Rows are those of the (M, N, D) float64 stack ``pts``, and
    the results are (M, N); or, given ``sizes``, consecutive runs of
    ``sizes[r] >= 1`` points of the (P, D) ``pts``, and the results are
    (P,). Indices count from the row's first point. Ties go to the lowest
    index, as ``np.argmin`` gives them, and each distance has the bits of
    ``((p_i - p_j) ** 2).sum(-1)``; a row's results do not depend on the
    other rows.

    Each row is bucketed into its own grid of about one point per cell
    (Bentley, Stanat & Williams' fixed-radius search, Inf. Proc. Letters 6
    (1977) 209-212), and each point's nearest neighbour is sought in its 3^D
    block of cells. That block holds every point within one cell side, so a
    nearest candidate at most one side away is exact; only the points whose
    nearest candidate lies farther are compared with every point of their
    row. One stable argsort orders the cells of all rows, and pairs are
    compared in blocks of about ``_PAIR_BLOCK``: working memory is O(P 3^D).
    """
    if sizes is None:
        m, n, dim = pts.shape
        idx, best = _nearest_neighbours(pts.reshape(m * n, dim), np.full(m, n))
        return idx.reshape(m, n), best.reshape(m, n)
    total, dim = pts.shape
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    row = np.repeat(np.arange(len(sizes)), sizes)
    flat = np.ascontiguousarray(pts.T)                          # (D, P)
    lo = np.minimum.reduceat(pts, starts, axis=0)
    # about one point per cell in the span of the k widest axes, for the k
    # that gives the widest cell: at most n + 1 cells along any axis, O(n) in all
    wide = np.cumprod(-np.sort(lo - np.maximum.reduceat(pts, starts, axis=0), axis=1), axis=1)
    side = ((wide / sizes[:, None]) ** (1.0 / np.arange(1, dim + 1))).max(axis=1)
    cells = (pts - lo[row]) / np.where(side > 0, side, 1.0)[row, None]
    cells = cells.astype(np.int64) + 1          # floor; neighbour cells stay >= 0
    dims = np.maximum.reduceat(cells, starts, axis=0) + 2
    strides = np.ones((len(sizes), dim), dtype=np.int64)
    for k in range(dim - 2, -1, -1):
        strides[:, k] = strides[:, k + 1] * dims[:, k + 1]
    size = strides[:, 0] * dims[:, 0]           # cells of each row's grid
    key = (cells * strides[row]).sum(axis=1) + (np.cumsum(size) - size)[row]
    order = np.argsort(key, kind="stable")
    # the points of cell c are order[cell_first[c]:cell_first[c + 1]]
    cell_first = np.concatenate([[0], np.cumsum(np.bincount(key, minlength=size.sum()))])
    shifts = np.indices((3,) * dim).reshape(dim, -1).T - 1
    # each point's 3^D cells, and then the cells after them, in one array
    near = (strides @ shifts.T)[row]
    near += key[:, None]
    first = cell_first[near]
    near += 1
    counts = cell_first[near]
    counts -= first
    del near
    idx, best = _nearest_among(flat, np.arange(total), first, counts, order)
    # a candidate within the block is nearest only if no cell outside the
    # block can be closer; the margin absorbs rounding in the cell index
    far = np.nonzero(~(best <= ((side * (1.0 - 1e-6)) ** 2)[row]))[0]
    idx[far], best[far] = _nearest_among(flat, far, starts[row[far], None], sizes[row[far], None])
    return idx - starts[row], best


def _nearest_neighbor_medians(pts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Median distance from each point to its nearest other point, per row
    of ``_nearest_neighbours(pts, sizes)``: the square root of the median
    squared distance, with ``np.median``'s bits."""
    d2 = _nearest_neighbours(pts, sizes)[1]
    d2 = d2[np.lexsort((d2, np.repeat(np.arange(len(sizes)), sizes)))]
    starts = np.cumsum(sizes) - sizes
    lo, hi = starts + (sizes - 1) // 2, starts + sizes // 2
    # np.median: the middle value, or the mean of the middle two
    return np.sqrt(np.where(lo == hi, d2[lo], (d2[lo] + d2[hi]) / 2))


def _nearest_neighbor_median(pts: np.ndarray) -> float:
    """Median distance from each point to its nearest other point."""
    return float(_nearest_neighbor_medians(pts, np.array([len(pts)]))[0])


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


def _near_lists(pts: np.ndarray, layer: np.ndarray, starts: np.ndarray, jump: np.ndarray):
    """For each of the distinct (P, 2) points ``pts``, held layer by layer
    (point p in layer ``layer[p]``, layer k from ``starts[k]``), the other
    points of its layer within ``jump[k]``, nearest first (the lowest index
    on equal squared distance), at most ``_NEAR_LIST`` of them.

    Returns memoryviews (bounds, near, cut): point p's list is
    ``near[bounds[p]:bounds[p + 1]]``, and ``cut[p]`` is set where it left
    points out. Each layer's grid has cells of side >= its jump (Bentley,
    Stanat & Williams' fixed-radius search), so every point within reach
    lies in the 3x3 block of a point's cell. A column of that block is a run
    of consecutive cell keys, found by ``np.searchsorted`` in the sorted
    keys, and pairs are compared in blocks of about ``_PAIR_BLOCK``.
    """
    lo = np.minimum.reduceat(pts, starts, axis=0)
    extent = (np.maximum.reduceat(pts, starts, axis=0) - lo).max(axis=1)
    # the margin absorbs rounding in the cell index; the extent term keeps
    # a grid at most ~2**20 cells wide however small the jumps are
    side = np.maximum(jump * (1.0 + 1e-6), extent * 2.0 ** -20)
    cells = np.floor((pts - lo[layer]) / side[layer, None]).astype(np.int64) + 1
    # a layer's keys follow the last layer's; a blank cell pads every side
    height = np.maximum.reduceat(cells[:, 1], starts) + 2
    span = (np.maximum.reduceat(cells[:, 0], starts) + 2) * height
    column = height[layer]
    key = (np.cumsum(span) - span)[layer] + cells[:, 0] * column + cells[:, 1]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    mid = key[:, None] + column[:, None] * np.array([-1, 0, 1])
    first = np.searchsorted(sorted_key, mid - 1, side="left")
    counts = np.searchsorted(sorted_key, mid + 1, side="right") - first
    reach = jump[layer]
    near, length, cut = [], [], []

    def within_reach(block, seg, cuts, i, j, d2):
        keep = (i != j) & (np.sqrt(d2) <= reach[i])
        seg, j, d2 = seg[keep], j[keep], d2[keep]
        j = j[np.lexsort((j, d2, seg))]
        within = np.bincount(seg, minlength=block.stop - block.start)
        rank = np.arange(len(j)) - np.repeat(np.cumsum(within) - within, within)
        near.append(j[rank < _NEAR_LIST])
        length.append(np.minimum(within, _NEAR_LIST))
        cut.append(within > _NEAR_LIST)

    _visit_pairs(np.ascontiguousarray(pts.T), np.arange(len(pts)), first, counts, order,
                 within_reach)
    bounds = np.concatenate([[0], np.cumsum(np.concatenate(length))])
    return memoryview(bounds), memoryview(np.concatenate(near)), memoryview(np.concatenate(cut))


def _chain_walk(pts: np.ndarray, layer: slice, start: int, jump_limit: float, lists,
                visited: bytearray) -> list:
    """Nearest-neighbour walk from ``start`` through the points ``pts[layer]``:
    step to the nearest unvisited point (lowest index on equal squared
    distance) until it is farther than ``jump_limit`` or none is left.

    ``lists`` are ``_near_lists`` of the layer with this jump limit, and
    ``visited`` marks the points of ``pts`` the walk has passed. The first
    unvisited entry of a point's list is the step; a list with none ends the
    chain, unless it was cut, when every point of the layer is compared.
    """
    bounds, near, cut = lists
    chain = []
    cur = start
    while True:
        chain.append(cur)
        visited[cur] = True
        for nxt in near[bounds[cur]:bounds[cur + 1]]:
            if not visited[nxt]:
                break
        else:
            nxt = _nearest_unvisited(pts, layer, cur, jump_limit, visited) if cut[cur] else -1
            if nxt < 0:
                return chain
        cur = nxt


def _nearest_unvisited(pts: np.ndarray, layer: slice, cur: int, jump_limit: float,
                       visited: bytearray) -> int:
    """The unvisited point of ``pts[layer]`` nearest ``pts[cur]`` (lowest
    index on equal squared distance), from one pass over the layer; -1 if it
    is farther than ``jump_limit`` or none is left."""
    d2 = ((pts[layer] - pts[cur]) ** 2).sum(axis=1)
    d2[np.frombuffer(visited, dtype=np.bool_)[layer]] = np.inf
    k = int(np.argmin(d2))
    return -1 if math.sqrt(d2[k]) > jump_limit else layer.start + k


def _greedy_chain(pts: np.ndarray, start: int, jump_limit: float) -> list:
    """``_chain_walk`` from ``start`` through one layer of distinct points."""
    n = len(pts)
    lists = _near_lists(pts, np.zeros(n, dtype=np.int64), np.zeros(1, dtype=np.int64),
                        np.array([jump_limit]))
    return _chain_walk(pts, slice(0, n), start, jump_limit, lists, bytearray(n))


def _outline_batch(layers: list):
    """The outlines of a batch of (z, (k, 2) float64 xy) layers, in order,
    as ``_layer_outlines`` traces them."""
    sizes = [len(xy) for _, xy in layers]
    pts = np.concatenate([xy for _, xy in layers])
    layer = np.repeat(np.arange(len(layers)), sizes)
    order = np.lexsort((pts[:, 1], pts[:, 0], layer))
    pts, layer = pts[order], layer[order]
    new = np.ones(len(pts), dtype=bool)
    new[1:] = (layer[1:] != layer[:-1]) | (pts[1:] != pts[:-1]).any(axis=1)
    # np.unique keeps either of two rows that differ only in the sign of a
    # zero; a layer where such rows met takes its rows from np.unique itself
    kept = np.maximum.accumulate(np.where(new, np.arange(len(new)), 0))
    signed = np.unique(layer[(pts.view(np.int64) != pts[kept].view(np.int64)).any(axis=1)])
    pts, layer = pts[new], layer[new]
    counts = np.bincount(layer, minlength=len(layers))
    starts = np.cumsum(counts) - counts
    for k in signed.tolist():
        pts[starts[k]:starts[k] + counts[k]] = np.unique(layers[k][1], axis=0)
    few = np.flatnonzero(counts < 3)
    traced = int(few[0]) if len(few) else len(layers)
    if traced:
        end = int(starts[traced]) if traced < len(layers) else len(pts)
        yield from _trace_outlines(pts[:end], layer[:end], counts[:traced],
                                   [z for z, _ in layers[:traced]])
    if traced < len(layers):
        raise TooFewPoints(f"outline needs >= 3 distinct points, got {counts[traced]}")


def _trace_outlines(pts: np.ndarray, layer: np.ndarray, counts: np.ndarray, zs: list):
    """The outlines of the layers of at least 3 distinct points ``pts``,
    sorted by (layer, x, y), layer k at height ``zs[k]``."""
    starts = np.cumsum(counts) - counts
    jump = 2.0 * _nearest_neighbor_medians(pts, counts)
    lists = _near_lists(pts, layer, starts, jump)
    # the chain starts at the lowest (y, x) point: the first of least y
    y = pts[:, 1]
    lowest = np.where(y == np.minimum.reduceat(y, starts)[layer], np.arange(len(y)), len(y))
    begins = np.minimum.reduceat(lowest, starts).tolist()
    visited = bytearray(len(pts))
    spans = [slice(a, a + n) for a, n in zip(starts.tolist(), counts.tolist())]
    chains = [_chain_walk(pts, span, begin, limit, lists, visited)
              for span, begin, limit in zip(spans, begins, jump.tolist())]
    # vecdot is the dot product np.linalg.norm takes of a single vector
    gap = pts[[c[-1] for c in chains]] - pts[[c[0] for c in chains]]
    closes = (np.sqrt(np.vecdot(gap, gap)) <= jump).tolist()
    scale = np.maximum((np.maximum.reduceat(pts, starts, axis=0)
                        - np.minimum.reduceat(pts, starts, axis=0)).max(axis=1), 1e-12)
    floors = (1e-12 * scale * scale).tolist()
    for z, span, chain, close, floor in zip(zs, spans, chains, closes, floors):
        ring = pts[chain]
        if (close and len(chain) >= 3 and len(chain) >= 0.9 * (span.stop - span.start)
                and abs(area := polygon_area(ring)) > floor):
            method = "chained"
        else:
            ring = _convex_hull(pts[span])
            method = "convex_hull"
            if len(ring) < 3:
                # collinear cloud: keep a zero-area ring over the sorted points
                ring = pts[span].copy()
            area = polygon_area(ring)
        if area < 0:
            ring = ring[::-1]
            area = polygon_area(ring)
        yield OutlinePolygon(z=z, ring=ring, method=method, degenerate=abs(area) <= floor)


def _layer_outlines(layers):
    """The outline of each (z, xy) layer of ``layers``, in order, as
    ``layer_outline`` traces one; TooFewPoints is raised where the first
    layer of fewer than 3 distinct points would be.

    Layers are traced in batches of about ``_OUTLINE_BATCH_POINTS`` points
    (a larger layer is a batch of its own). Each batch is deduplicated by one
    stable lexsort on (layer, x, y), gets every layer's median
    nearest-neighbour distance from one ``_nearest_neighbours`` call over
    ragged rows, and every point's ``_near_lists`` from one fixed-radius
    pass; only the chain walks and the per-ring areas run layer by layer.
    """
    batch, size = [], 0
    for z, xy in layers:
        xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        if batch and size + len(xy) > _OUTLINE_BATCH_POINTS:
            yield from _outline_batch(batch)
            batch, size = [], 0
        batch.append((z, xy))
        size += len(xy)
    if batch:
        yield from _outline_batch(batch)


def layer_outline(points: np.ndarray, z: float = 0.0) -> OutlinePolygon:
    """Trace one closed outline through a layer's points.

    The distinct points, in (x, y) order, are chained from the lowest (y, x)
    one: each step goes to the nearest unvisited point (lowest index on equal
    distance) while it is within twice the median nearest-neighbour
    distance. If the chain strands points or fails to close, the convex hull
    is used instead and the result notes which method produced it.
    """
    return next(_layer_outlines([(z, points)]))


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

    Outlines are those of ``layer_outline``, traced by ``_layer_outlines``
    in batches of layers of about ``_OUTLINE_BATCH_POINTS`` points, which
    bounds the pass's working memory. Adjacent rings are resampled to the
    same count and connected with quad strips (each split along its shorter
    diagonal); the bottom and top rings are capped with centroid fans, so
    the result is watertight by construction. The first layer, in z order,
    whose outline has no area raises DegenerateLayer, or TooFewPoints if it
    has fewer than 3 distinct points; a ``resample_count`` outside [3,
    ``MAX_RESAMPLE_COUNT``] raises ValueError before any outline is traced.
    """
    if stack.layer_count < 2:
        raise ValueError("lofting needs at least 2 layers")
    if resample_count < 3:
        raise ValueError(f"resample_count must be at least 3, got {resample_count}")
    if resample_count > MAX_RESAMPLE_COUNT:
        raise ValueError(f"resample_count {resample_count} is above the limit of "
                         f"{MAX_RESAMPLE_COUNT}")
    rings = []
    for outline in _layer_outlines(stack.layers):
        if outline.degenerate:
            raise DegenerateLayer(outline.z)
        rings.append((outline.z, _resample_ring(outline.ring, resample_count)))

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
