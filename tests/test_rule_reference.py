"""Four rules that each had two implementations, against the code they
replaced: the qr3d regression polish (which re-derived the lattice frame of
``_score_frames``), the icosphere's midpoint numbering (a dict cache in place
of ``meshcore._first_occurrence_ids``), the VRML bracket check plus green
slot finder (two walks that read nesting differently) and the G-code replay
(a stateful toolpath class fed one command at a time, in place of array
operations over each run of moves, from text and from parsed programs).
Outputs must be identical bit for bit, and on well-formed VRML
the slots and on singly broken VRML the ``UnbalancedBrackets`` offset and
message must match."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dm_stegkit import EmbedParams, grid_to_spheres, parse_vrml, unit_vector
from dm_stegkit import audit, filament_length, gcode, meshcore, parse_gcode, qr3d, z_profile
from dm_stegkit.errors import UnbalancedBrackets
from dm_stegkit.gcode import _Z_QUANTUM, GcodeCommand, GcodeProgram
from dm_stegkit.vrml import _tokenize
from conftest import random_code_grid, random_unit_direction, vrml_scene
from test_parser_reference import _parse_gcode_reference


# --- the replaced code, kept as references -------------------------------------

def _unit_icosphere_reference(subdivisions):
    verts = qr3d._ICO_VERTS / np.linalg.norm(qr3d._ICO_VERTS, axis=1, keepdims=True)
    faces = qr3d._ICO_FACES
    verts = [tuple(v) for v in verts]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            idx = cache.get(key)
            if idx is None:
                a, b = verts[i], verts[j]
                m = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
                norm = math.sqrt(m[0] ** 2 + m[1] ** 2 + m[2] ** 2)
                verts.append((m[0] / norm, m[1] / norm, m[2] / norm))
                idx = len(verts) - 1
                cache[key] = idx
            return idx

        new_faces = []
        for i, j, k in faces:
            ij, jk, ki = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_faces += [(i, ij, ki), (j, jk, ij), (k, ki, jk), (ij, jk, ki)]
        faces = np.array(new_faces, dtype=np.int64)
    return np.array(verts), faces


def _coordinates_reference(points, axis):
    """The points' coordinates along ``axis`` as the scorers form them: the
    x, y and z terms added in that order, with no BLAS product."""
    return points[:, 0] * axis[0] + points[:, 1] * axis[1] + points[:, 2] * axis[2]


def _frame_reference(points, v):
    """The fit ``_score_frames`` made before it returned residuals: score,
    pitch and phi, plus the anchor (the rotated point nearest the centroid)."""
    score, pitch, phi, _, _ = qr3d._score_frames(points, v[None, :])
    u, w = qr3d._basis_many(v[None, :])
    pts = points.astype(np.float64)
    cu = _coordinates_reference(pts, u[0])[None, :]
    cw = _coordinates_reference(pts, w[0])[None, :]
    c = np.cos(-phi)[:, None]
    s = np.sin(-phi)[:, None]
    ru = c * cu - s * cw
    rw = s * cu + c * cw
    anchor = np.argmin((ru - ru.mean(axis=1, keepdims=True)) ** 2
                       + (rw - rw.mean(axis=1, keepdims=True)) ** 2, axis=1)
    return score, pitch, phi, ru[0, anchor], rw[0, anchor]


def _polish_direction_reference(points, v, iterations=3):
    for _ in range(iterations):
        score, pitch, phi, au, aw = _frame_reference(points, v)
        if not np.isfinite(score[0]) or score[0] >= qr3d.MISS_SCORE:
            return v
        u, w = qr3d._basis_many(v[None, :])
        u, w = u[0], w[0]
        cu = _coordinates_reference(points, u)
        cw = _coordinates_reference(points, w)
        depth = points @ v
        if np.ptp(depth) < 1e-9 * max(np.ptp(points), 1.0):
            return v
        c, s = math.cos(-phi[0]), math.sin(-phi[0])
        ru = c * cu - s * cw
        rw = s * cu + c * cw
        fu = (ru - au[0]) / pitch[0]
        fw = (rw - aw[0]) / pitch[0]
        res_u = (fu - np.rint(fu)) * pitch[0]
        res_w = (fw - np.rint(fw)) * pitch[0]
        design = np.column_stack([depth, np.ones_like(depth)])
        slope_u = np.linalg.lstsq(design, res_u, rcond=None)[0][0]
        slope_w = np.linalg.lstsq(design, res_w, rcond=None)[0][0]
        cb, sb = math.cos(phi[0]), math.sin(phi[0])
        du = cb * slope_u - sb * slope_w
        dw = sb * slope_u + cb * slope_w
        v = unit_vector(v + du * u + dw * w)
    return v


_BRACKET_PAIR = {"}": "{", "]": "["}


def _check_brackets_reference(tokens):
    stack = []
    for tok in tokens:
        if tok.kind != "punct":
            continue
        if tok.text in "{[":
            stack.append(tok)
        elif tok.text in "}]":
            if not stack or stack[-1].text != _BRACKET_PAIR[tok.text]:
                raise UnbalancedBrackets(tok.start, f"unexpected {tok.text!r}")
            stack.pop()
    if stack:
        raise UnbalancedBrackets(stack[-1].start, f"unclosed {stack[-1].text!r}")


def _find_green_slots_reference(tokens):
    slots = []
    sig = [i for i, t in enumerate(tokens) if t.kind != "comment"]
    for si, ti in enumerate(sig):
        tok = tokens[ti]
        if tok.kind != "keyword" or tok.text != "Color":
            continue
        if si + 1 >= len(sig) or tokens[sig[si + 1]].text != "{":
            continue
        depth = 0
        j = si + 1
        while j < len(sig):
            t = tokens[sig[j]]
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                if depth == 0:
                    break
            elif t.kind == "keyword" and t.text == "color" and depth == 1:
                if j + 1 < len(sig) and tokens[sig[j + 1]].text == "[":
                    j += 1
                    triple = []
                    while j + 1 < len(sig):
                        j += 1
                        t = tokens[sig[j]]
                        if t.text == "]":
                            break
                        if t.kind == "number":
                            triple.append(sig[j])
                            if len(triple) == 3:
                                green = tokens[triple[1]]
                                if green.value is not None and 0.0 <= green.value <= 1.0:
                                    slots.append(triple[1])
                                triple = []
            j += 1
    return slots


def _slots_reference(text):
    tokens = _tokenize(text)
    _check_brackets_reference(tokens)
    return _find_green_slots_reference(tokens)


class _Toolpath:
    """Replay state: positions in mm, modes, and accumulated measures."""

    MOVE_CODES = {"G0", "G1", "G2", "G3"}

    def __init__(self):
        self.x = self.y = self.z = 0.0
        self.e = 0.0
        self.xyz_absolute = True
        self.e_absolute = True
        self.scale = 1.0                     # 25.4 when units are inches
        self.extruded = 0.0
        self.travel = 0.0
        self.extruding_z = []                # quantized z keys of extruding moves

    def feed(self, cmd: GcodeCommand):
        code = cmd.code
        if code == "G20":
            self.scale = 25.4
        elif code == "G21":
            self.scale = 1.0
        elif code == "G90":
            self.xyz_absolute = True
        elif code == "G91":
            self.xyz_absolute = False
        elif code == "M82":
            self.e_absolute = True
        elif code == "M83":
            self.e_absolute = False
        elif code == "G92":
            for letter, attr in (("X", "x"), ("Y", "y"), ("Z", "z"), ("E", "e")):
                if letter in cmd.args:
                    setattr(self, attr, cmd.args[letter] * self.scale)
        elif code in self.MOVE_CODES:
            self._move(cmd.args)

    def _move(self, args: dict):
        nx, ny, nz = self.x, self.y, self.z
        for letter, cur in (("X", self.x), ("Y", self.y), ("Z", self.z)):
            if letter in args:
                val = args[letter] * self.scale
                val = val if self.xyz_absolute else cur + val
                if letter == "X":
                    nx = val
                elif letter == "Y":
                    ny = val
                else:
                    nz = val
        de = 0.0
        if "E" in args:
            val = args["E"] * self.scale
            if self.e_absolute:
                de = val - self.e
                self.e = val
            else:
                de = val
                self.e += val
        self.travel += math.dist((self.x, self.y, self.z), (nx, ny, nz))
        self.x, self.y, self.z = nx, ny, nz
        if de > 0:
            self.extruded += de
            self.extruding_z.append(round(self.z / _Z_QUANTUM))


def _replay_reference(program: GcodeProgram) -> _Toolpath:
    state = _Toolpath()
    for cmd in program:
        if cmd.code:
            state.feed(cmd)
    return state


def _z_levels_reference(state: _Toolpath) -> tuple[list[float], int, float]:
    """z_profile's result from an already replayed toolpath."""
    keys = sorted(set(state.extruding_z))
    levels = [round(k * _Z_QUANTUM, 6) for k in keys]
    return levels, len(levels), (levels[-1] if levels else 0.0)


def _outcome(fn, text):
    try:
        return fn(text)
    except UnbalancedBrackets as exc:
        return ("UnbalancedBrackets", exc.offset, str(exc))


# --- icosphere -------------------------------------------------------------------

@pytest.mark.parametrize("subdivisions", range(5))
def test_icosphere_matches_reference(subdivisions):
    verts, faces = qr3d._unit_icosphere(subdivisions)
    ref_verts, ref_faces = _unit_icosphere_reference(subdivisions)
    assert verts.dtype == ref_verts.dtype and faces.dtype == ref_faces.dtype
    assert verts.tobytes() == ref_verts.tobytes()
    assert faces.tobytes() == ref_faces.tobytes()


# --- polish ------------------------------------------------------------------------

def _criterion_3_cloud(k):
    rng = np.random.default_rng(9000 + k)
    grid = random_code_grid(rng, n=21)
    direction = random_unit_direction(rng)
    cloud = grid_to_spheres(grid, EmbedParams(pitch=2.0, direction=direction,
                                              depth_jitter=10.0, seed=k))
    return cloud.centers, direction


@pytest.mark.parametrize("k", range(20))
def test_polish_matches_reference_on_criterion_3_clouds(k):
    centers, direction = _criterion_3_cloud(k)
    rng = np.random.default_rng(k)
    for _ in range(3):
        # errors from about 2 degrees down to 0.02 degrees
        start = unit_vector(direction + rng.normal(scale=10 ** -rng.uniform(1.5, 3.5), size=3))
        polished = qr3d._polish_direction(centers, start)
        assert polished.tobytes() == _polish_direction_reference(centers, start).tobytes()


def test_polish_returns_a_coplanar_start_unchanged():
    rng = np.random.default_rng(22)
    direction = random_unit_direction(rng)
    centers = grid_to_spheres(random_code_grid(rng, n=15), EmbedParams(
        pitch=2.0, direction=direction, depth_jitter=0.0, seed=23)).centers
    start = unit_vector(direction)          # every center at the same depth
    assert qr3d._score_frames(centers, start[None, :])[0][0] < qr3d.MISS_SCORE
    assert qr3d._polish_direction(centers, start) is start
    assert _polish_direction_reference(centers, start) is start


def test_polish_returns_a_start_outside_the_basin_unchanged():
    centers, direction = _criterion_3_cloud(0)
    start = unit_vector(np.cross(direction, (1.0, 0.0, 0.0)))
    assert qr3d._score_frames(centers, start[None, :])[0][0] >= qr3d.MISS_SCORE
    assert qr3d._polish_direction(centers, start) is start
    assert _polish_direction_reference(centers, start) is start


# --- VRML bracket walk ---------------------------------------------------------------

_NUMBERS = st.sampled_from(["0.5", ".25", "1", "0", "1.0", "0.999", "1.5", "-0.2", "2e-1",
                            "+0.3", "7", "1e3"])
_GAPS = st.sampled_from([" ", ", ", "\n  ", " # note [ { \n", ",\n"])


@st.composite
def _color_node(draw):
    """A Color node: comments may sit between the keywords and brackets, and
    each list may end with a partial triple."""
    fields = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            numbers = draw(st.lists(_NUMBERS, max_size=3 * 6 + 2))
            body = "".join(n + draw(_GAPS) for n in numbers)
            fields.append(f"color{draw(_GAPS)}[ {body}]")
        else:
            fields.append("label 0.2 0.5 0.2")       # numbers outside a color list
    return f"Color{draw(_GAPS)}{{ {' '.join(fields)} }}"


_LEAVES = st.one_of(
    _color_node(),
    st.just('WorldInfo { title "a [ b { c" info [ "]" "}" ] }'),
    st.just("Shape { geometry IndexedFaceSet { coordIndex [ 0, 1, 2, -1 ] } }"),
    st.just("Material { diffuseColor 0.5 0.5 0.5 }"),
    st.just("Background { color [ 0.1 0.5 0.1 ] }"),     # a color list outside Color
    st.builds(lambda c: f"Shape {{ geometry IndexedFaceSet {{ color {c} "
                        f"colorPerVertex FALSE }} }}", _color_node()),
)
_NODES = st.recursive(
    _LEAVES,
    lambda children: st.builds(
        lambda name, kids, gap: f"DEF {name} Transform{gap}{{ children [ {' '.join(kids)} ] }}",
        st.sampled_from(["T", "Color"]), st.lists(children, max_size=3), _GAPS),
    max_leaves=8,
)
_SCENES = st.lists(_NODES, min_size=1, max_size=4).map(
    lambda nodes: "#VRML V2.0 utf8\n" + "\n".join(nodes) + "\n")


@settings(max_examples=300, deadline=None)
@given(_SCENES)
def test_green_slots_match_reference_on_well_formed_scenes(text):
    assert list(parse_vrml(text).color_green_slots) == _slots_reference(text)


def test_green_slots_match_reference_on_conftest_scenes():
    for seed in range(30):
        text = vrml_scene(triples=10 + 7 * seed, seed=seed, extras=bool(seed % 2))
        assert list(parse_vrml(text).color_green_slots) == _slots_reference(text)


@settings(max_examples=300, deadline=None)
@given(_SCENES, st.data())
def test_one_dropped_or_added_bracket_reports_as_reference(text, data):
    tokens = _tokenize(text)
    if data.draw(st.booleans()):
        brackets = [t for t in tokens if t.kind == "punct" and t.text in "{}[]"]
        tok = data.draw(st.sampled_from(brackets))
        broken = text[:tok.start] + " " + text[tok.end:]
    else:
        # anywhere after the header comment
        at = data.draw(st.sampled_from([t.start for t in tokens[1:]] + [len(text)]))
        broken = text[:at] + data.draw(st.sampled_from("{}[]")) + " " + text[at:]
    expected = _outcome(_slots_reference, broken)
    assert expected[0] == "UnbalancedBrackets"
    assert _outcome(lambda t: list(parse_vrml(t).color_green_slots), broken) == expected


# --- G-code replay -------------------------------------------------------------------

# every code the replay acts on, spelled with leading zeros and in lower case
# too, and codes it ignores; moves are half of the draws
_GCODE_CODES = st.one_of(
    st.sampled_from(["G0", "G1", "G2", "G3", "G00", "g1", "G01", "g03"]),
    st.sampled_from(["G20", "G21", "g20", "G90", "G91", "G091", "M82", "M83", "m83", "G92",
                     "g092", "G28", "M104", "G4", "G92.1"]),
)
_GCODE_VALUES = st.one_of(
    st.integers(-300, 300).map(str),
    st.integers(-300_000, 300_000).map(lambda n: f"{n / 1000:.3f}"),
    # Z levels on and next to the 1 um quantum's rounding boundaries
    st.sampled_from(["0.0005", "0.0015", "-0.0005", "0.2", ".2", "-0", "0.1999995"]),
)


@st.composite
def _gcode_line(draw):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(["; layer 1", ";filament used = 3mm", ";", "(note)"]))
    letters = [letter for letter in "XYZE" if draw(st.booleans())]
    letters += draw(st.lists(st.sampled_from("FIJS"), unique=True, max_size=2))
    words = [f"{letter}{draw(_GCODE_VALUES)}" for letter in draw(st.permutations(letters))]
    return " ".join([draw(_GCODE_CODES), *words])


_GCODE_PROGRAMS = st.lists(_gcode_line(), min_size=1, max_size=60).map("\n".join)


@settings(max_examples=500, deadline=None)
@given(_GCODE_PROGRAMS)
@example("M83\nG1 X1 E2\nG1 X2 E2\nM82\nG1 X3 E5")       # E position kept across modes
@example("G20\nG92 X1 E1\nG1 X2 E2 Z0.2")
def test_replay_matches_reference(text):
    program = parse_gcode(text)
    state = _replay_reference(program)
    assert filament_length(program).hex() == state.extruded.hex()
    assert audit(program).travel_mm.hex() == state.travel.hex()
    assert repr(z_profile(program)) == repr(_z_levels_reference(state))


# numbers on both sides of the columnar reader's exact path (15 and 16
# significant digits), signed zeros, bare points and leading zeros
_TEXT_VALUES = st.one_of(_GCODE_VALUES, st.sampled_from([
    "12345678901.2345", "123456789012.3456", "0.00000000000001", "0.000000000000001",
    "999999999999999", "9999999999999999", "-0", "-0.0", "-.0", ".5", "5.", "+.5", "-.25",
    "007.50", "000000000000000.5"]))


@st.composite
def _text_program(draw):
    """G-code text: upper- and lower-case letters, words with and without
    spaces, LF, CRLF and CR line ends and, in some programs, a comment on
    every line."""
    commented = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(1, 60))):
        letters = [letter for letter in "XYZE" if draw(st.booleans())]
        letters += draw(st.lists(st.sampled_from("FIJS"), unique=True, max_size=2))
        words = [draw(st.sampled_from([letter, letter.lower()])) + draw(_TEXT_VALUES)
                 for letter in draw(st.permutations(letters))]
        line = draw(st.sampled_from([" ", "", "\t"])).join([draw(_GCODE_CODES), *words])
        if commented or draw(st.integers(0, 5)) == 0:
            line += draw(st.sampled_from([" ; wall", ";", ";filament used = 3mm", " ;c;d"]))
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    return "".join(lines)


@settings(max_examples=200, deadline=None)
@given(_text_program())
@example("G1 X12345678901.2345 Y123456789012.3456 E.5\r\nG1X-0Y5.E+.5 ; wall\nG01 X007.50 e1\n")
@example("M83\nG1 X1 E2\nG92 E0\nG91\nG1 X1 E2\nG20\nG1 Z0.2 E1\nM82\nG1 X3 E5\nG90\nG1 X0 E6\n")
def test_text_replay_matches_reference(text):
    # the mode and G92 state carry across chunk, slice and run cuts
    program = GcodeProgram([GcodeCommand(*command) for command in _parse_gcode_reference(text)])
    state = _replay_reference(program)
    levels = _z_levels_reference(state)[0]
    with pytest.MonkeyPatch.context() as patch:
        for chunk, decode in ((1 << 16, 1 << 14), (1, 1), (7, 3), (64, 20), (200, 1 << 14)):
            patch.setattr(meshcore, "_CHUNK_CHARS", chunk)
            patch.setattr(gcode, "_DECODE_CHARS", decode)
            report = audit(text)
            assert report.computed_filament_mm.hex() == state.extruded.hex(), chunk
            assert report.travel_mm.hex() == state.travel.hex(), chunk
            assert report.z_levels == levels, chunk
