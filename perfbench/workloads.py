"""Seeded input generators, job lists and output checks for the benchmark.

Each workload is a list of CLI jobs. ``generate`` writes every input file
into a directory before anything is timed and returns the jobs, each with
the ground truth its output is checked against. The generators depend only
on numpy and the standard library, never on dm_stegkit, so a change to the
program cannot change its own inputs. The same seed gives the same bytes.

A job's check returns a list of problems; an empty list means it passed.
Problems come in two kinds:

* ``error``: the operation failed. It exited non-zero, or its output is
  malformed, contradicts the input, or differs between passes.
* ``miss``: a search ran correctly but did not recover the planted secret
  (``qr3d-search`` direction or grid) of a code above the 128-centre coarse
  subsample, where the search is known to lose the planted direction. This
  is an accuracy outcome of the program, not a broken operation. Misses
  count into ``fail_ratio`` beside errors and are never dropped.

A code small enough to be scored whole is always recovered, so a miss there
is an ``error``.
"""

from __future__ import annotations

import json
import math
import os
import string

import numpy as np

WORKLOADS = ("orient", "qr3d", "ingest")

# Input sizes. "full" is what the benchmark measures, scaled so that one
# pass takes a few seconds and a run holds many passes; "tiny" is for the
# self-tests and keeps every property a check relies on.
SIZES = {
    "full": {
        "orient_step_towers": 45, "orient_step_spheres": 90, "sphere_grid": 9,
        "qr3d_codes": ((13, 1), (21, 1), (33, 1)),      # (modules, codes)
        "torus_nu": 250, "torus_nv": 200,
        "gcode_layers": 50, "gcode_moves_per_layer": 240,
        "sparse_layers": 40, "sparse_points": 256,
        "dense_layers": 4, "dense_points": 1500,
        "vrml_triples": 10000, "vrml_message": 1000,
    },
    "tiny": {
        "orient_step_towers": 90, "orient_step_spheres": 120, "sphere_grid": 5,
        "qr3d_codes": ((7, 1),),
        "torus_nu": 24, "torus_nv": 16,
        "gcode_layers": 6, "gcode_moves_per_layer": 20,
        "sparse_layers": 6, "sparse_points": 40,
        "dense_layers": 3, "dense_points": 120,
        "vrml_triples": 200, "vrml_message": 20,
    },
}

QR3D_PITCH = 2.0
QR3D_JITTER = 5 * QR3D_PITCH
QR3D_DENSITY = 0.45
# qr3d-search scores clouds of more centres than this on a subsample; codes
# with at most this many modules set must be recovered exactly
QR3D_SUBSAMPLE = 128
ICOSPHERE_SUB2_TRIANGLES = 320


# --- file writers ----------------------------------------------------------------

_STL_RECORD = np.dtype([("n", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")])


def stl_bytes(verts: np.ndarray, faces: np.ndarray, header: bytes = b"") -> bytes:
    """Binary STL with zero normals (readers recompute or ignore them)."""
    rec = np.zeros(len(faces), dtype=_STL_RECORD)
    rec["v"] = verts[faces].astype(np.float32)
    return header[:80].ljust(80, b"\0") + len(faces).to_bytes(4, "little") + rec.tobytes()


def xyz_text(points: np.ndarray) -> str:
    return "".join(f"{x:.6f} {y:.6f} {z:.6f}\n" for x, y, z in points)


def pbm_text(bits: np.ndarray) -> str:
    rows = [" ".join("1" if b else "0" for b in row) for row in bits]
    return f"P1\n{len(bits)} {len(bits)}\n" + "\n".join(rows) + "\n"


# --- shapes ----------------------------------------------------------------------

_BOX_FACES = np.array([
    [0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7],
    [0, 1, 5], [0, 5, 4], [1, 2, 6], [1, 6, 5],
    [2, 3, 7], [2, 7, 6], [3, 0, 4], [3, 4, 7],
])


def boxes(spec) -> tuple[np.ndarray, np.ndarray]:
    """Outward-oriented axis-aligned boxes (x0, y0, z0, x1, y1, z1)."""
    verts, faces = [], []
    for i, (x0, y0, z0, x1, y1, z1) in enumerate(spec):
        verts.append([[x0, y0, z0], [x1, y0, z0], [x1, y1, z0], [x0, y1, z0],
                      [x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1]])
        faces.append(_BOX_FACES + 8 * i)
    return np.array(verts, dtype=float).reshape(-1, 3), np.vstack(faces)


# Two towers joined only by a top bridge: sliced along the bridge axis every
# layer is one loop, which makes that axis the unique best print direction.
TWO_TOWER_BRIDGE = [
    (0.0, 0.0, 0.0, 2.0, 2.0, 6.0),
    (8.0, 0.0, 0.0, 10.0, 2.0, 6.0),
    (1.45, 0.0, 4.04, 8.55, 2.0, 5.96),
]


def icosphere(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [(-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0), (0, -1, t), (0, 1, t),
             (0, -1, -t), (0, 1, -t), (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1)]
    verts = [tuple(np.array(v) / np.linalg.norm(v)) for v in verts]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
             (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
             (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
             (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]
    for _ in range(subdivisions):
        mid = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in mid:
                m = np.add(verts[i], verts[j])
                verts.append(tuple(m / np.linalg.norm(m)))
                mid[key] = len(verts) - 1
            return mid[key]

        new = []
        for i, j, k in faces:
            a, b, c = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new += [(i, a, c), (j, b, a), (k, c, b), (a, b, c)]
        faces = new
    return np.array(verts), np.array(faces)


def code_grid(rng: np.random.Generator, n: int, density: float = QR3D_DENSITY) -> np.ndarray:
    """n x n module matrix with exactly round(density n^2) true modules.

    The corners are always set, so the occupied box spans the grid (what a
    projection recovers); fixing the count keeps the work per seed equal.
    """
    ones = round(density * n * n)
    corners = [0, n - 1, n * (n - 1), n * n - 1]
    rest = np.setdiff1d(np.arange(n * n), corners)
    flat = np.zeros(n * n, dtype=bool)
    flat[corners] = True
    flat[rng.choice(rest, size=ones - 4, replace=False)] = True
    return flat.reshape(n, n)


def planted_direction(rng: np.random.Generator, min_axis_gap: float = 0.01) -> np.ndarray:
    """Random unit vector away from the in-plane basis-switch boundaries.

    The projection basis switches reference axis where the two smallest
    |components| tie; near a tie any finite error changes the frame.
    """
    while True:
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        a = np.sort(np.abs(v))
        if a[1] - a[0] > min_axis_gap:
            return v


def basis_for(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The toolkit's documented projection frame: reference axis is the
    standard axis least aligned with v (ties x, y, z); u = a x v / |a x v|,
    w = v x u."""
    a = np.eye(3)[int(np.argmin(np.abs(v)))]
    u = np.cross(a, v)
    u /= np.linalg.norm(u)
    return u, np.cross(v, u)


def project_bits(centers: np.ndarray, v: np.ndarray, pitch: float) -> np.ndarray:
    """Orthographic projection of centers along v snapped to a square grid."""
    u, w = basis_for(v)
    cu, cw = centers @ u, centers @ w
    cols = np.rint((cu - cu.min()) / pitch).astype(int)
    rows = np.rint((cw.max() - cw) / pitch).astype(int)
    n = max(rows.max(), cols.max()) + 1
    bits = np.zeros((n, n), dtype=bool)
    bits[rows, cols] = True
    return bits


def sphere_code_mesh(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Depth-jittered sphere code (pitch 2, jitter 5 x pitch, half the modules
    set) as subdivision-1 icospheres."""
    bits = code_grid(rng, n, 0.5)
    v = np.array([0.2, 0.3, 0.93])
    v /= np.linalg.norm(v)
    u, w = basis_for(v)
    rows, cols = np.nonzero(bits)
    half = (n - 1) / 2.0
    depth = rng.uniform(-QR3D_JITTER, QR3D_JITTER, size=len(rows))
    centers = ((cols - half)[:, None] * QR3D_PITCH * u
               + (half - rows)[:, None] * QR3D_PITCH * w + depth[:, None] * v)
    uv, uf = icosphere(1)
    verts = (uv[None] * 0.35 * QR3D_PITCH + centers[:, None]).reshape(-1, 3)
    faces = (uf[None] + (np.arange(len(centers)) * len(uv))[:, None, None]).reshape(-1, 3)
    return verts, faces


def torus(rng: np.random.Generator, nu: int, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed, outward-oriented torus grid: nu*nv vertices, 2*nu*nv triangles."""
    big = rng.uniform(40.0, 60.0)
    small = rng.uniform(8.0, 15.0)
    a = 2 * np.pi * np.arange(nu) / nu
    b = 2 * np.pi * np.arange(nv) / nv
    A, B = np.meshgrid(a, b, indexing="ij")
    ring = big + small * np.cos(B)
    verts = np.stack([ring * np.cos(A), ring * np.sin(A), small * np.sin(B)], axis=-1)
    verts = verts.reshape(-1, 3) + rng.uniform(-50.0, 50.0, size=3)
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    p00 = i * nv + j
    p10 = ((i + 1) % nu) * nv + j
    p01 = i * nv + (j + 1) % nv
    p11 = ((i + 1) % nu) * nv + (j + 1) % nv
    faces = np.concatenate([np.stack([p00, p10, p11], -1).reshape(-1, 3),
                            np.stack([p00, p11, p01], -1).reshape(-1, 3)])
    return verts, faces


def layered_frustum(rng: np.random.Generator, layers: int, points: int):
    """Elliptic frustum scanned as equal-z layers of outline points.

    Returns (points, analytic volume between the first and last layer).
    Outline points sit on the exact ellipse with a seeded phase and a small
    angular jitter per point.
    """
    a0 = rng.uniform(8.0, 12.0)
    b0 = a0 * rng.uniform(0.75, 1.0)
    top = rng.uniform(0.6, 0.9)             # top layer scale against the bottom
    dz = 0.2
    cx, cy = rng.uniform(-20.0, 20.0, size=2)
    out = []
    for k in range(layers):
        s = 1.0 + (top - 1.0) * k / (layers - 1)
        t = 2 * np.pi * (np.arange(points) + rng.uniform(-0.2, 0.2, size=points)
                         + rng.uniform()) / points
        out.append(np.column_stack([cx + a0 * s * np.cos(t), cy + b0 * s * np.sin(t),
                                    np.full(points, round(k * dz, 6))]))
    height = (layers - 1) * dz
    volume = math.pi * a0 * b0 * height * (1.0 + top + top * top) / 3.0
    return np.vstack(out), volume


def gcode_program(rng: np.random.Generator, layers: int, moves: int,
                  claim_factor: float) -> tuple[str, float, float]:
    """Slicer-style G-code and its exact extrusion total in mm.

    Absolute E (M82) for the first half of the layers, relative E (M83)
    after; ``G92 E0`` per layer, retraction before each travel, fan and
    temperature codes. E is tracked in integer units of 1e-5 mm so the truth
    is exact. The ``filament used`` claim is total x claim_factor.
    """
    lines = ["; generated by benchmark slicer 1.0", "M104 S210", "M140 S60",
             "G28", "G21", "G90", "M82", "M107"]
    total = 0                                # 1e-5 mm units, positive deltas only
    x, y = 100.0, 100.0
    retract = 80
    for layer in range(layers):
        relative = layer >= layers // 2
        if layer == layers // 2:
            lines.append("M83")
        if layer == 2:
            lines.append("M106 S255")
        lines.append(f";LAYER:{layer}")
        lines.append("G92 E0")
        lines.append(f"G0 F9000 X{x:.3f} Y{y:.3f} Z{0.2 * (layer + 1):.3f}")
        e = 0
        steps = rng.integers(100, 5000, size=moves)
        dxy = rng.uniform(-2.0, 2.0, size=(moves, 2))
        for k in range(moves):
            if k and k % 40 == 0:            # retract, travel, unretract
                e -= retract
                lines.append(f"G1 E{-retract / 1e5 if relative else e / 1e5:.5f} F2400")
                x, y = rng.uniform(50.0, 150.0, size=2)
                lines.append(f"G0 X{x:.3f} Y{y:.3f}")
                e += retract
                total += retract
                lines.append(f"G1 E{retract / 1e5 if relative else e / 1e5:.5f} F2400")
            x = min(max(x + dxy[k, 0], 0.0), 200.0)
            y = min(max(y + dxy[k, 1], 0.0), 200.0)
            de = int(steps[k])
            e += de
            total += de
            lines.append(f"G1 F1200 X{x:.3f} Y{y:.3f} E{de / 1e5 if relative else e / 1e5:.5f}")
        if layer % 10 == 0:
            lines.append(f"M104 S{205 + layer % 3}")
    truth = total / 1e5
    claim = round(truth * claim_factor, 2)
    lines += ["M107", "M104 S0", "G28 X0",
              f"; filament used [mm] = {claim:.2f}"]
    return "\n".join(lines) + "\n", truth, claim


def vrml_scene(rng: np.random.Generator, triples: int) -> str:
    """VRML97 export with one Color node of ``triples`` RGB rows."""
    rgb = rng.integers(1, 100, size=(triples, 3)) / 100.0
    colors = ",\n".join(f"          {r:.2f} {g:.2f} {b:.2f}" for r, g, b in rgb)
    return (
        "#VRML V2.0 utf8\n"
        "# synthetic export, do not edit\n"
        'WorldInfo { title "part {with braces} and # hash" }\n'
        "DEF Deformed Transform {\n"
        "  translation 0 0 0.5\n"
        "  children [\n"
        "    Shape {\n"
        "      appearance Appearance {\n"
        "        material Material { diffuseColor 0.66 0.66 0.66 }\n"
        "      }\n"
        "      geometry IndexedFaceSet {\n"
        "        coord Coordinate { point [ 0 0 0, 1 0 0, 0 1 0, 1.5e-1 .25 -0.5 ] }\n"
        "        coordIndex [ 0, 1, 2, -1, 1, 3, 2, -1 ]\n"
        "        color Color {\n"
        "          color [\n"
        f"{colors}\n"
        "          ]\n"
        "        }\n"
        "        colorPerVertex FALSE\n"
        "      }\n"
        "    }\n"
        "  ]\n"
        "}\n"
    )


def message(rng: np.random.Generator, length: int) -> str:
    """Printable ASCII text that starts with a letter (never a CLI option)."""
    alphabet = np.array(list(string.ascii_letters + string.digits + " .,:=/"))
    return "m" + "".join(rng.choice(alphabet, size=length - 1))


# --- workloads -------------------------------------------------------------------

def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _write(path: str, data: bytes | str) -> str:
    with open(path, "wb") as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)
    return path


def _job(name, metric, argv, check, truth, inputs=(), outputs=()):
    return {"name": name, "metric": metric, "argv": argv, "check": check,
            "truth": truth, "inputs": list(inputs), "outputs": list(outputs)}


def _orient(rng, size, d):
    jobs = []
    for name, (verts, faces), step, truth in (
        ("towers", boxes(TWO_TOWER_BRIDGE), size["orient_step_towers"], {"bridge_axis": True}),
        ("spheres", sphere_code_mesh(rng, size["sphere_grid"]), size["orient_step_spheres"], {}),
    ):
        path = _write(os.path.join(d, f"{name}.stl"), stl_bytes(verts, faces))
        truth["candidates"] = int(round(360 / step)) ** 3
        jobs.append(_job(f"orient-scan {name}", "orient_scan_s",
                         ["orient-scan", path, "--angle-step", str(step),
                          "--layer-height", "0.2", "--top", "10"],
                         "orient_scan", truth, [path]))
    return jobs


def _qr3d(rng, size, d):
    jobs = []
    for n, codes in size["qr3d_codes"]:
        for k in range(codes):
            bits = code_grid(rng, n)
            v = planted_direction(rng)
            embed_seed = int(rng.integers(0, 2 ** 31))
            stem = os.path.join(d, f"code{n}_{k}")
            pbm = _write(stem + ".pbm", pbm_text(bits))
            direction = ",".join(repr(float(c)) for c in v)
            truth = {"bits": pbm_text(bits), "spheres": int(bits.sum()),
                     "direction": [float(c) for c in v], "pitch": QR3D_PITCH,
                     "must_recover": int(bits.sum()) <= QR3D_SUBSAMPLE}
            jobs.append(_job(f"qr3d-embed n={n} #{k}", "qr3d_embed_s",
                             ["qr3d-embed", "--grid", pbm, f"--dir={direction}",
                              "--pitch", str(QR3D_PITCH), "--jitter", str(QR3D_JITTER),
                              "--seed", str(embed_seed), "--stl", stem + ".stl",
                              "--subdivisions", "2", "-o", stem + ".xyz"],
                             "qr3d_embed", truth, [pbm], [stem + ".xyz", stem + ".stl"]))
            jobs.append(_job(f"qr3d-search n={n} #{k}", "qr3d_search_s",
                             ["qr3d-search", stem + ".xyz", "-o", stem + "_found.pbm"],
                             "qr3d_search", truth, [stem + ".xyz"], [stem + "_found.pbm"]))
    return jobs


def _ingest(rng, size, d):
    jobs = []
    verts, faces = torus(rng, size["torus_nu"], size["torus_nv"])
    big = _write(os.path.join(d, "torus.stl"), stl_bytes(verts, faces, b"binary torus"))
    marked = os.path.join(d, "torus_marked.stl")
    header_msg = message(rng, 60)
    mesh_truth = {"triangles": len(faces), "vertices": len(verts), "message": header_msg}
    jobs.append(_job("stl-info", "stl_info_s", ["stl-info", big], "stl_info",
                     mesh_truth, [big]))
    jobs.append(_job("header-embed", "header_cycle_s",
                     ["header-embed", big, "--message", header_msg, "-o", marked],
                     "header_embed", mesh_truth, [big], [marked]))
    jobs.append(_job("header-extract", "header_cycle_s", ["header-extract", marked],
                     "payload", mesh_truth, [marked]))

    for name, factor in (("consistent", 1.0), ("mismatch", rng.uniform(1.1, 1.3))):
        text, total, claim = gcode_program(rng, size["gcode_layers"],
                                           size["gcode_moves_per_layer"], factor)
        path = _write(os.path.join(d, f"print_{name}.gcode"), text)
        jobs.append(_job(f"gcode-audit {name}", "gcode_audit_s", ["gcode-audit", path],
                         "gcode_audit", {"filament_mm": total, "claim_mm": claim,
                                         "verdict": name}, [path]))

    for name in ("sparse", "dense"):
        pts, volume = layered_frustum(rng, size[f"{name}_layers"], size[f"{name}_points"])
        path = _write(os.path.join(d, f"scan_{name}.xyz"), xyz_text(pts))
        out = os.path.join(d, f"scan_{name}.stl")
        jobs.append(_job(f"recon {name}", "recon_s", ["recon", path, "-o", out], "recon",
                         {"layers": size[f"{name}_layers"], "volume_mm3": volume},
                         [path], [out]))

    scene = _write(os.path.join(d, "scene.wrl"), vrml_scene(rng, size["vrml_triples"]))
    scene_marked = os.path.join(d, "scene_marked.wrl")
    vrml_msg = message(rng, size["vrml_message"])
    jobs.append(_job("vrml-embed", "vrml_cycle_s",
                     ["vrml-embed", scene, "--message", vrml_msg, "-o", scene_marked],
                     "vrml_embed", {"message": vrml_msg}, [scene], [scene_marked]))
    jobs.append(_job("vrml-extract", "vrml_cycle_s", ["vrml-extract", scene_marked],
                     "payload", {"message": vrml_msg}, [scene_marked]))
    return jobs


def generate(workload: str, seed: int, directory: str, size: str = "full") -> list[dict]:
    """Write the workload's inputs under ``directory`` and return its jobs."""
    make = {"orient": _orient, "qr3d": _qr3d, "ingest": _ingest}[workload]
    os.makedirs(directory, exist_ok=True)
    return make(_rng(seed, workload), SIZES[size], directory)


# --- output checks ---------------------------------------------------------------

PER_KIND = ("orient_scan_s", "qr3d_embed_s", "qr3d_search_s", "stl_info_s",
            "header_cycle_s", "gcode_audit_s", "recon_s", "vrml_cycle_s")


def _euler_matrix(rx: float, ry: float, rz: float) -> np.ndarray:
    """Intrinsic x->y->z rotation in degrees, as the toolkit documents it."""
    cx, sx = math.cos(math.radians(rx)), math.sin(math.radians(rx))
    cy, sy = math.cos(math.radians(ry)), math.sin(math.radians(ry))
    cz, sz = math.cos(math.radians(rz)), math.sin(math.radians(rz))
    mx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    my = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    mz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return mx @ my @ mz


def _read_xyz(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        rows = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    return np.array(rows, dtype=float).reshape(-1, 3)


def _bits_from_pbm(text: str) -> np.ndarray:
    tokens = text.split()
    n = int(tokens[1])
    return np.array([t == "1" for t in tokens[3:]], dtype=bool).reshape(n, n)


def check(job: dict, status: int, env: dict, memo: dict) -> list[tuple[str, str]]:
    """Problems with one job's output, as (kind, text) pairs; [] if it passed.

    ``memo`` persists across passes for the job, so a result that changes
    between passes is reported.
    """
    if status != 0 or "error" in env.get("result", {}):
        return [("error", f"exit {status}: {env.get('result')}")]
    res, truth = env["result"], job["truth"]
    out = []

    def need(ok: bool, text: str, kind: str = "error"):
        if not ok:
            out.append((kind, text))

    kind = job["check"]
    if kind == "orient_scan":
        need(res["candidate_count"] == truth["candidates"],
             f"candidate_count {res['candidate_count']} != {truth['candidates']}")
        top = json.dumps(res["candidates"])
        need(memo.setdefault("top", top) == top, "top-10 differs between passes")
        if truth.get("bridge_axis"):
            up = _euler_matrix(*res["candidates"][0]["rotation"])[2]
            need(abs(up[0]) > 0.99, f"best rotation puts the bridge at up.x={up[0]:.3f}")
    elif kind == "qr3d_embed":
        need(res["spheres"] == truth["spheres"], f"spheres {res['spheres']}")
        need(res["stl_triangles"] == truth["spheres"] * ICOSPHERE_SUB2_TRIANGLES,
             f"stl_triangles {res['stl_triangles']}")
        need(os.path.getsize(res["stl"]) == 84 + 50 * res["stl_triangles"],
             "STL size does not match its triangle count")
        planted = _bits_from_pbm(truth["bits"])
        seen = project_bits(_read_xyz(res["output"]), np.array(truth["direction"]),
                            truth["pitch"])
        need(seen.shape == planted.shape and bool((seen == planted).all()),
             "cloud does not project to the planted grid")
    elif kind == "qr3d_search":
        found = np.array(res["direction"])
        need(abs(np.linalg.norm(found) - 1.0) < 1e-9, "direction is not a unit vector")
        need(res["modules"] == len(_bits_from_pbm(res["pbm"])), "pbm size != modules")
        planted_dir = np.array(truth["direction"])
        cosang = min(1.0, abs(float(found @ planted_dir)))
        angle = math.degrees(math.acos(cosang))
        miss = "error" if truth["must_recover"] else "miss"
        need(angle <= 0.1, f"direction {angle:.2f} deg off", miss)
        if angle <= 0.1:
            # result.grid is mirrored whenever the canonical sign flips, so
            # compare the projection along the sign-aligned direction
            signed = found if found @ planted_dir > 0 else -found
            seen = project_bits(_read_xyz(job["inputs"][0]), signed, res["estimated_pitch"])
            planted = _bits_from_pbm(truth["bits"])
            need(seen.shape == planted.shape and bool((seen == planted).all()),
                 "projection along the found direction misses the planted grid", miss)
    elif kind == "stl_info":
        need(res["triangles"] == truth["triangles"], f"triangles {res['triangles']}")
        need(res["vertices"] == truth["vertices"], f"vertices {res['vertices']}")
    elif kind == "header_embed":
        need(os.path.getsize(res["output"]) == 84 + 50 * truth["triangles"],
             "marked STL size changed")
    elif kind == "payload":
        need(res["payload"].get("text") == truth["message"], "payload differs")
    elif kind == "gcode_audit":
        need(abs(res["computed_filament_mm"] - truth["filament_mm"]) <= 1e-6,
             f"filament {res['computed_filament_mm']} != {truth['filament_mm']}")
        need(res["declared_filament_mm"] == truth["claim_mm"],
             f"claim {res['declared_filament_mm']}")
        need(res["verdict"] == truth["verdict"], f"verdict {res['verdict']}")
    elif kind == "recon":
        need(res["layer_count"] == truth["layers"], f"layers {res['layer_count']}")
        rel = abs(res["volume_mm3"] - truth["volume_mm3"]) / truth["volume_mm3"]
        need(rel < 0.01, f"volume off by {rel:.2%}")
    elif kind == "vrml_embed":
        need(res["message_bytes"] == len(truth["message"]), "message length")
    else:
        raise ValueError(f"unknown check {kind!r}")
    return out
