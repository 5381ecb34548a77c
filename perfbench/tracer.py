"""Spans and counters around the toolkit's layer boundaries, for traced runs.

The tracer replaces module attributes that callers look up at call time
(``recon._weld_and_chain``, ``vrml.unframe_payload`` ...) with wrappers that
record a span: job id, name, start, end, parent. Nothing inside the program
changes. Spans stay in memory and are written out when the run ends.

A span's net time excludes the tracer's own counter hooks; its self time is
its net time minus that of its direct children. ``.s`` metrics sum the net
time of the outermost span of a name (a name nested in itself counts once),
``.self_s`` metrics sum self times. A wrapped name the program no longer
has is reported as absent, with the reason, instead of failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# Codes gcode._Toolpath.feed acts on; every other command is ignored by the
# replay (comment-only lines included).
_REPLAYED_CODES = {"G20", "G21", "G90", "G91", "M82", "M83", "G92", "G0", "G1", "G2", "G3"}


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _score_label(args, kwargs):
    dtype = _arg(args, kwargs, 2, "dtype", np.float64)
    return "qr3d.coarse" if np.dtype(dtype) == np.float32 else "qr3d.refine"


def _count_dirs(c, a, k, out):
    c[_score_label(a, k) + ".dirs"] += len(a[1])


def _count_orient(c, a, k, report):
    c["recon.orient.candidates"] += report.candidate_count
    ups = {tuple(np.round(cand.rotation.matrix()[2], 9) + 0.0) for cand in report.candidates}
    c["recon.orient.distinct_up"] += len(ups)


def _count_gcode(c, a, k, program):
    c["gcode.parse.lines"] += a[0].count("\n")
    c["gcode.commands"] += len(program.commands)
    c["gcode.ignored"] += sum(cmd.code not in _REPLAYED_CODES for cmd in program.commands)


def _count_dedup(c, a, k, out):
    c["meshcore.dedup.corners"] += len(a[0])
    c["meshcore.dedup.kept"] += len(out[0])


def _count_weld(c, a, k, out):
    c["meshcore.weld.segments"] += len(a[0])
    c["meshcore.weld.open_calls"] += bool(out[1])


def _count_outline(c, a, k, out):
    c["recon.outline.points"] += len(a[0])
    c["recon.outline.hull"] += out.method == "convex_hull"


def _count_loft(c, a, k, out):
    c["recon.loft.quads"] += (a[0].layer_count - 1) * _arg(a, k, 1, "resample_count", 128)


def _count_vrml(c, a, k, stream):
    c["vrml.parse.tokens"] += len(stream.tokens)
    c["vrml.parse.slots"] += len(stream.color_green_slots)


def _add(key, fn):
    def hook(c, a, k, out):
        c[key] += fn(a, k, out)
    return hook


# (module, attribute the caller looks up, span name, counter hook)
WRAPS = [
    ("meshcore", "parse_stl", "meshcore.parse_stl",
     _add("meshcore.parse_stl.triangles", lambda a, k, m: len(m.triangles))),
    ("meshcore", "_dedup_vertices", "meshcore.dedup", _count_dedup),
    ("meshcore", "write_stl_binary", "meshcore.write_stl",
     _add("meshcore.write_stl.triangles", lambda a, k, out: len(a[0].triangles))),
    ("meshcore", "parse_xyz", "meshcore.parse_xyz",
     _add("meshcore.parse_xyz.points", lambda a, k, pc: len(pc.points))),
    ("qr3d", "parse_xyz", "meshcore.parse_xyz",
     _add("meshcore.parse_xyz.points", lambda a, k, pc: len(pc.points))),
    ("meshcore", "signed_volume", "meshcore.volume", None),
    ("meshcore", "mesh_volume", "meshcore.volume", None),
    ("recon", "_crossing_segments", "meshcore.crossing",
     _add("meshcore.crossing.rows", lambda a, k, out: len(a[0]))),
    ("recon", "_weld_and_chain", "meshcore.weld", _count_weld),
    ("recon", "orientation_scan", "recon.orient", _count_orient),
    ("recon", "group_layers", "recon.group",
     _add("recon.group.layers", lambda a, k, st: st.layer_count)),
    ("recon", "layer_outline", "recon.outline", _count_outline),
    ("recon", "loft_layers", "recon.loft", _count_loft),
    ("recon", "_resample_ring", "recon.resample", None),
    ("qr3d", "grid_to_spheres", "qr3d.embed", None),
    ("qr3d", "spheres_to_mesh", "qr3d.mesh", None),
    ("qr3d", "_score_directions", _score_label, _count_dirs),
    ("qr3d", "_polish_direction", "qr3d.polish", None),
    ("qr3d", "search_direction", "qr3d.search",
     _add("qr3d.candidates_evaluated", lambda a, k, r: r.candidates_evaluated)),
    ("gcode", "parse_gcode", "gcode.parse", _count_gcode),
    ("gcode", "audit", "gcode.audit", None),
    ("gcode", "_replay", "gcode.replay", None),
    ("gcode", "z_profile", "gcode.zprofile", None),
    ("gcode", "metadata_claims", "gcode.claims", None),
    ("vrml", "parse_vrml", "vrml.parse", _count_vrml),
    ("vrml", "embed_green_digits", "vrml.embed", None),
    ("vrml", "extract_green_digits", "vrml.extract", None),
    ("stego", "frame_bytes", "stego.frame", None),
    ("vrml", "frame_payload", "stego.frame", None),
    ("stego", "unframe_payload", "stego.unframe",
     _add("stego.unframe.bits", lambda a, k, out: len(a[0]))),
    ("vrml", "unframe_payload", "stego.unframe",
     _add("stego.unframe.bits", lambda a, k, out: len(a[0]))),
]

# metric -> span name whose outermost net time it sums
SPAN_S = {
    "meshcore.parse_stl.s": "meshcore.parse_stl",
    "meshcore.dedup.s": "meshcore.dedup",
    "meshcore.write_stl.s": "meshcore.write_stl",
    "meshcore.parse_xyz.s": "meshcore.parse_xyz",
    "meshcore.volume.s": "meshcore.volume",
    "meshcore.crossing.s": "meshcore.crossing",
    "meshcore.weld.s": "meshcore.weld",
    "recon.group.s": "recon.group",
    "recon.outline.s": "recon.outline",
    "qr3d.embed.s": "qr3d.embed",
    "qr3d.mesh.s": "qr3d.mesh",
    "qr3d.coarse.s": "qr3d.coarse",
    "qr3d.refine.s": "qr3d.refine",
    "qr3d.polish.s": "qr3d.polish",
    "gcode.parse.s": "gcode.parse",
    "gcode.replay.s": "gcode.replay",
    "gcode.claims.s": "gcode.claims",
    "vrml.parse.s": "vrml.parse",
    "vrml.embed.s": "vrml.embed",
    "stego.frame.s": "stego.frame",
    "stego.unframe.s": "stego.unframe",
}
# metric -> span name whose self times it sums ("cli" is each job's root)
SELF_S = {
    "cli.self_s": "cli",
    "recon.orient.self_s": "recon.orient",
    "recon.loft.self_s": "recon.loft",
    "qr3d.search.self_s": "qr3d.search",
    "vrml.extract.self_s": "vrml.extract",
}
# metric -> span name whose spans it counts
CALLS = {
    "meshcore.weld.calls": "meshcore.weld",
    "recon.outline.calls": "recon.outline",
    "vrml.parse.calls": "vrml.parse",
}
# counter metric -> span name whose hook fills it
COUNTS = {
    "meshcore.parse_stl.triangles": "meshcore.parse_stl",
    "meshcore.write_stl.triangles": "meshcore.write_stl",
    "meshcore.parse_xyz.points": "meshcore.parse_xyz",
    "meshcore.crossing.rows": "meshcore.crossing",
    "meshcore.weld.segments": "meshcore.weld",
    "recon.orient.candidates": "recon.orient",
    "recon.group.layers": "recon.group",
    "recon.outline.points": "recon.outline",
    "recon.loft.quads": "recon.loft",
    "qr3d.coarse.dirs": "qr3d.coarse",
    "qr3d.refine.dirs": "qr3d.refine",
    "qr3d.candidates_evaluated": "qr3d.search",
    "gcode.parse.lines": "gcode.parse",
    "vrml.parse.tokens": "vrml.parse",
    "vrml.parse.slots": "vrml.parse",
    "stego.unframe.bits": "stego.unframe",
}
# ratio metric -> (numerator, denominator, span name); a counter ending in
# ".calls" is the number of spans of that name
RATIOS = {
    "meshcore.dedup.unique_ratio":
        ("meshcore.dedup.kept", "meshcore.dedup.corners", "meshcore.dedup"),
    "meshcore.weld.open_ratio":
        ("meshcore.weld.open_calls", "meshcore.weld.calls", "meshcore.weld"),
    "recon.orient.distinct_up_ratio":
        ("recon.orient.distinct_up", "recon.orient.candidates", "recon.orient"),
    "recon.outline.hull_ratio":
        ("recon.outline.hull", "recon.outline.calls", "recon.outline"),
    "gcode.ignored_ratio": ("gcode.ignored", "gcode.commands", "gcode.parse"),
    "gcode.replay.per_audit": ("gcode.replay.calls", "gcode.audit.calls", "gcode.replay"),
}
METRICS = tuple(SELF_S) + tuple(SPAN_S) + tuple(CALLS) + tuple(COUNTS) + tuple(RATIOS)


class Tracer:
    def __init__(self):
        # one column per span field, so recording a span allocates no
        # container the garbage collector would have to track
        self.job: list[int] = []
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []             # span index, -1 for a job root
        self.hook: list[float] = []             # counter-hook seconds inside the span
        self.counts: defaultdict = defaultdict(float)
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._restore = []
        self._job = -1

    def __len__(self) -> int:
        return len(self.name)

    def install(self):
        wrapped, missing = set(), {}
        for mod_name, attr, name, hook in WRAPS:
            module = importlib.import_module(f"dm_stegkit.{mod_name}")
            fn = getattr(module, attr, None)
            names = ("qr3d.coarse", "qr3d.refine") if callable(name) else (name,)
            if not callable(fn):
                for n in names:
                    missing.setdefault(n, []).append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, hook))
            self._restore.append((module, attr, fn))
            wrapped.update(names)
        for n, attrs in missing.items():
            if n not in wrapped:
                self.absent[n] = "no attribute " + ", ".join(attrs)

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _open(self, name: str) -> int:
        idx = len(self.name)
        self.job.append(self._job)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.hook.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            idx = self._open(name(args, kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counts, args, kwargs, out)
                spent = time.perf_counter() - self.end[idx]
                for i in self._stack:
                    self.hook[i] += spent
            return out
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def job_span(self, job_id: int):
        """One job's root span, named "cli"."""
        self._job = job_id
        idx = self._open("cli")
        try:
            yield
        finally:
            self._close(idx)

    def pass_metrics(self, first: int) -> dict:
        """Per-layer metrics over the spans from index ``first`` on, and the
        counters, which it resets."""
        n = len(self.name)
        net = [self.end[i] - self.start[i] - self.hook[i] for i in range(first, n)]
        child = [0.0] * len(net)
        for i in range(first, n):
            if self.parent[i] >= first:
                child[self.parent[i] - first] += net[i - first]
        outer = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        for i in range(first, n):
            name = self.name[i]
            calls[name] += 1
            own[name] += net[i - first] - child[i - first]
            p = self.parent[i]
            while p >= first and self.name[p] != name:
                p = self.parent[p]
            if p < first:
                outer[name] += net[i - first]
        c = self.counts
        for name, k in calls.items():
            c[name + ".calls"] = k
        out = {}
        out.update({m: outer[s] for m, s in SPAN_S.items()})
        out.update({m: own[s] for m, s in SELF_S.items()})
        out.update({m: calls[s] for m, s in CALLS.items()})
        out.update({m: c[m] for m in COUNTS})
        out.update({m: (c[a] / c[b] if c[b] else 0.0) for m, (a, b, _) in RATIOS.items()})
        out["bases"] = {k: c[k] for a, b, _ in RATIOS.values() for k in (a, b)}
        self.counts = defaultdict(float)
        return out

    def absent_metrics(self) -> dict[str, str]:
        """Metrics whose span the program no longer has, with the reason."""
        sources = {**SPAN_S, **SELF_S, **CALLS, **COUNTS,
                   **{m: r[2] for m, r in RATIOS.items()}}
        return {m: self.absent[s] for m, s in sources.items() if s in self.absent}

    def dump(self, path: str, job_names: list[str]):
        """Write the spans, times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        names = sorted(set(self.name))
        index = {s: i for i, s in enumerate(names)}
        us = [round((t - t0) * 1e6) for t in self.start]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["job", "name", "start_us", "end_us", "parent", "hook_us"],
                "names": names,
                "jobs": job_names,
                "spans": [[self.job[i], index[self.name[i]], us[i],
                           round((self.end[i] - t0) * 1e6), self.parent[i],
                           round(self.hook[i] * 1e6)] for i in range(len(self.name))],
            }, fh, separators=(",", ":"))
