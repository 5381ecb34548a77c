"""The ingest parsers against the line-by-line parsers they replaced.

``parse_gcode`` decodes plain lines as numpy columns, a slice of text at
a time, and sends every other line to the word parser; ``parse_xyz``
converts the tokens of all its lines in one call and ``parse_vrml`` counts
the tokens and finds the green slots in one scan, building no tokens; its
reference tokenizes into dataclasses, with separators matched on their
own, then walks the tokens. On every input the result must equal the
reference's, or both must raise the same exception type with the same
message and line (for VRML, offset). The
references read numbers with ``float``, which also takes PEP 515
underscores and non-ASCII digits, so the generated inputs hold neither;
those cases have their own tests in test_gcode.py and test_meshcore.py.

The STL writer fills one record array in place and the ASCII STL reader
takes each line with one expect step; their references are the writer that
built the records from separate arrays and the reader that peeked and
advanced by hand. Both readers share ``_ascii_floats``, so mutated texts
may hold any token.
"""

import json
import math
import re
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dm_stegkit import TriMesh, audit, parse_gcode, parse_vrml, parse_xyz, write_stl_binary
from dm_stegkit.errors import (BadLine, EmptyCloud, MalformedAscii, MalformedNumber,
                               NonAsciiDigit, NonFiniteCoordinate, StegkitError,
                               UnbalancedBrackets)
from dm_stegkit.meshcore import _ascii_floats, _dedup_vertices, _parse_stl_ascii
from dm_stegkit.qr3d import EmbedParams, grid_to_spheres, spheres_to_mesh, unit_vector
from dm_stegkit.vrml import _tokenize
from conftest import random_code_grid, vrml_scene
from test_vrml import NESTED_COLOR


# --- the replaced parsers, kept as references ------------------------------------

_PAREN_COMMENT = re.compile(r"\([^()]*\)")
_GAP = r"(?:\s|\([^()]*\))*"
_MESSAGE_HEAD = re.compile(rf"{_GAP}(?:N\d*{_GAP})?M0*11[78](?=[\s()]|$|[^\W\d_])",
                           re.IGNORECASE)


def _parse_gcode_reference(text):
    commands = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        comment = None
        if ";" in line:
            line, comment = line.split(";", 1)
        message = _MESSAGE_HEAD.match(line)
        if message:
            _cut_checksum_reference(line[message.end():], lineno)
            line = message[0]
        if "(" in line or ")" in line:
            line = _PAREN_COMMENT.sub(" ", line)
            if "(" in line or ")" in line:
                raise MalformedNumber(lineno, "unbalanced '(' comment")
        if "*" in line and not message:
            line = _cut_checksum_reference(line, lineno)
        words = _split_words_reference(line, lineno)
        if words and words[0][0] == "N":
            if not words[0][1].isdigit():
                raise MalformedNumber(lineno, f"bad line number {words[0][1]!r}")
            words = words[1:]
        if not words:
            commands.append((lineno, "", {}, comment))
            continue
        letter, number = words[0]
        code = f"{letter}{_format_code_number_reference(number, lineno, letter)}"
        args = {}
        for letter, number in words[1:]:
            if letter in args:
                raise MalformedNumber(lineno, f"duplicate argument letter {letter}")
            args[letter] = _parse_float_reference(number, lineno, letter)
        commands.append((lineno, code, args, comment))
    return commands


def _cut_checksum_reference(text, lineno):
    if "*" in text:
        text, _, checksum = text.rpartition("*")
        if not checksum.strip().isdigit():
            raise MalformedNumber(lineno, f"bad checksum {checksum.strip()!r}")
    return text


def _split_words_reference(body, lineno):
    words = []
    for fieldtext in body.split():
        pos = 0
        while pos < len(fieldtext):
            letter = fieldtext[pos]
            if not letter.isalpha():
                raise MalformedNumber(lineno, f"unexpected character {letter!r}")
            pos += 1
            start = pos
            while pos < len(fieldtext) and not fieldtext[pos].isalpha():
                pos += 1
            words.append((letter.upper(), fieldtext[start:pos]))
    return words


def _parse_float_reference(number, lineno, letter):
    try:
        value = float(number)
    except ValueError:
        raise MalformedNumber(lineno, f"bad number for {letter}: {number!r}") from None
    if not math.isfinite(value):
        raise MalformedNumber(lineno, f"non-finite value for {letter}")
    return value


def _format_code_number_reference(number, lineno, letter):
    _parse_float_reference(number, lineno, letter)
    whole, dot, frac = number.partition(".")
    if len(whole) > 1 and whole.isdigit():
        number = (whole.lstrip("0") or "0") + dot + frac
    return number


def _parse_xyz_reference(text):
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
    return np.array(pts, dtype=np.float64)


@dataclass(frozen=True)
class _DataclassToken:
    kind: str
    start: int
    end: int
    text: str
    value: float | None = None


# a separator run is a match of its own, before the token alternatives
_SEPARATE_TOKEN_RE = re.compile(
    r"""
    [\s,]+
  | (?P<comment>\#[^\n\r]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>[-+]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][-+]?[0-9]+)?)
  | (?P<punct>[{}\[\]])
  | (?P<keyword>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<other>[\s\S])
    """,
    re.VERBOSE,
)


def _tokenize_reference(text):
    tokens = []
    for m in _SEPARATE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "other":
            kind = "punct"
        tok = m.group()
        tokens.append(_DataclassToken(kind, m.start(), m.end(), tok,
                                      float(tok) if kind == "number" else None))
    return tokens


_BRACKET_PAIR = {"}": "{", "]": "["}


def _walk_brackets(tokens):
    """Check bracket nesting and digits and return the green slots, in one pass."""
    slots = []
    stack = []      # (open token, opens a Color node, color list's partial triple or None)
    prev = ""       # text of the previous non-comment token
    for i, tok in enumerate(tokens):
        if tok.kind == "number":
            triple = stack[-1][2] if stack else None
            if triple is not None:
                triple.append(i)
                if len(triple) == 3:
                    if 0.0 <= tokens[triple[1]].value <= 1.0:
                        slots.append(triple[1])
                    triple.clear()
        elif tok.kind == "punct" and tok.text in "{[":
            in_node = bool(stack) and stack[-1][1]
            stack.append((tok, tok.text == "{" and prev == "Color",
                          [] if tok.text == "[" and prev == "color" and in_node else None))
        elif tok.kind == "punct" and tok.text in "}]":
            if not stack or stack[-1][0].text != _BRACKET_PAIR[tok.text]:
                raise UnbalancedBrackets(tok.start, f"unexpected {tok.text!r}")
            stack.pop()
        elif tok.kind == "punct" and tok.text.isdecimal():
            if (i and tokens[i - 1].kind == "number" and tokens[i - 1].end == tok.start
                    or i + 1 < len(tokens) and tokens[i + 1].kind == "number"
                    and tokens[i + 1].start == tok.end):
                raise NonAsciiDigit(tok.start, tok.text)
        if tok.kind != "comment":
            prev = tok.text
    if stack:
        raise UnbalancedBrackets(stack[-1][0].start, f"unclosed {stack[-1][0].text!r}")
    return slots


def _parse_vrml_reference(text):
    """Token count, slot indices, spans and texts, and warnings."""
    tokens = _tokenize_reference(text)
    slots = _walk_brackets(tokens)
    return (len(tokens), slots, [(tokens[i].start, tokens[i].end) for i in slots],
            [tokens[i].text for i in slots],
            [] if slots else ["no Color node with usable RGB triples found"])


# --- comparison -----------------------------------------------------------------

def _outcome(fn, text):
    """The value, or the exception's type, message and line."""
    try:
        return "ok", fn(text)
    except (MalformedNumber, BadLine, EmptyCloud) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def _gcode_new(text):
    return [(c.line_number, c.code, c.args, c.comment) for c in parse_gcode(text).commands]


def _xyz_new(text):
    return parse_xyz(text).points


def _same(new, ref):
    if new[0] != "ok" or ref[0] != "ok":
        return new == ref
    a, b = new[1], ref[1]
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


# --- G-code -----------------------------------------------------------------------

_GCODE_WORDS = [
    # codes, zero-padded codes, subcodes, line numbers, messages
    "G1", "G0", "g1", "G01", "G00", "M082", "M104", "G92.1", "G0.5", "T1", "G", "N10",
    "n7", "N1.5", "N", "M117", "m118", "M0117", "M1170", "M117Hello",
    # arguments: signs, fractions, empty, repeated, huge, malformed
    "X10", "Y-2.5", "E.5", "E1.", "F1200", "Z+3", "X", "X-", "X1.2.3", "X+-1", "Q",
    "E-0.8", "X" + "9" * 320, "S255", "X1e", "e5", "X0.0",
    # separators, comments, checksums, parens, commas, other text
    " ", " ", " ", "\t", "", ";", "; filament used = 10mm", ";c;d", "(c)", "(", ")",
    "(a(b)", "*12", "*x", "* 5", ",", "X1,Y2", "é", "\xa0", "hi", "5 * 3 = 15",
]
_GCODE_BREAKS = ["\n", "\n", "\n", "\r\n", "\r", "\n\n", "\x0b", " "]


@st.composite
def gcode_texts(draw):
    lines = draw(st.lists(st.lists(st.sampled_from(_GCODE_WORDS), max_size=7),
                          min_size=1, max_size=8))
    breaks = draw(st.lists(st.sampled_from(_GCODE_BREAKS), min_size=len(lines),
                           max_size=len(lines)))
    return "".join("".join(words) + br for words, br in zip(lines, breaks))


@settings(max_examples=400, deadline=None)
@given(gcode_texts())
def test_parse_gcode_matches_reference(text):
    assert _same(_outcome(_gcode_new, text), _outcome(_parse_gcode_reference, text))


# characters of G-code lines, with no underscore and no digit outside ASCII
_GCODE_ALPHABET = st.sampled_from(list("GMNTXYZEFgxe0123456789.+- \t;()*,\n\réq\xa0"))


@settings(max_examples=400, deadline=None)
@given(st.text(_GCODE_ALPHABET, max_size=60))
def test_parse_gcode_matches_reference_on_any_text(text):
    assert _same(_outcome(_gcode_new, text), _outcome(_parse_gcode_reference, text))


def _audit_outcome(source):
    """The report's JSON, or the error's type, message and line."""
    try:
        return "ok", json.dumps(audit(source() if callable(source) else source).to_dict())
    except MalformedNumber as exc:
        return type(exc).__name__, str(exc), exc.line


@settings(max_examples=400, deadline=None)
@given(st.one_of(gcode_texts(), st.text(_GCODE_ALPHABET, max_size=60)))
def test_audit_of_text_matches_audit_of_parsed_program_on_mutated_texts(text):
    assert _audit_outcome(text) == _audit_outcome(lambda: parse_gcode(text))


def test_parse_gcode_matches_reference_on_a_slicer_program():
    rng = np.random.default_rng(5)
    lines = ["; generated by slicer 1.0", "M104 S210", "G28", "G21", "G90", "M82", "M107"]
    for layer in range(4):
        lines += [f";LAYER:{layer}", "G92 E0", f"G0 F9000 X100 Y100 Z{0.2 * layer + 0.2:.3f}"]
        e = 0.0
        for x, y, de in rng.uniform([50, 50, 0.01], [150, 150, 0.05], size=(200, 3)):
            e += de
            lines.append(f"G1 F1200 X{x:.3f} Y{y:.3f} E{e:.5f}")
        lines += ["G1 E-0.8 F2400", "M106 S255", "M117 layer done"]
    lines += ["M107", "M104 S0", "G28 X0", "; filament used [mm] = 12.34"]
    text = "\n".join(lines) + "\n"
    assert _gcode_new(text) == _parse_gcode_reference(text)


# --- XYZ --------------------------------------------------------------------------

_XYZ_TOKENS = ["1", "-2.5", "+3", "1e3", "1E-3", ".5", "5.", "0", "-0", "1e999", "-1e999",
               "nan", "inf", "-Infinity", "x", "1.2.3", "e5", "1e", "--1", "#c", "# 1 2 3",
               "1#"]
_XYZ_SEPARATORS = [" ", " ", ",", ", ", "\t", "  ", ",,", "\xa0"]
_XYZ_BREAKS = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " "]


@st.composite
def xyz_lines(draw):
    kind = draw(st.sampled_from(["point", "point", "point", "comment", "blank", "tokens"]))
    lead = draw(st.sampled_from(["", "", " ", "\t", ",", "\xa0"]))
    if kind == "comment":
        body = "#" + draw(st.text(st.sampled_from(list("1 2,3#x\t\r\x0b ")), max_size=8))
    elif kind == "blank":
        body = draw(st.sampled_from(["", " ", "\t", ",", ",,"]))
    else:
        count = 3 if kind == "point" else draw(st.integers(0, 5))
        words = [draw(st.sampled_from(_XYZ_TOKENS[:8] if kind == "point" and draw(st.booleans())
                                      else _XYZ_TOKENS)) for _ in range(count)]
        seps = [draw(st.sampled_from(_XYZ_SEPARATORS)) for _ in range(count)]
        body = "".join(w + s for w, s in zip(words, seps))
    return lead + body


@st.composite
def xyz_texts(draw):
    lines = draw(st.lists(xyz_lines(), max_size=8))
    breaks = [draw(st.sampled_from(_XYZ_BREAKS)) for _ in lines]
    tail = draw(st.booleans())
    return "".join(line + br for line, br in zip(lines, breaks)) + ("" if tail else "1 2 3")


@settings(max_examples=500, deadline=None)
@given(xyz_texts())
def test_parse_xyz_matches_reference(text):
    assert _same(_outcome(_xyz_new, text), _outcome(_parse_xyz_reference, text))


def test_parse_xyz_matches_reference_on_a_sphere_cloud_file():
    rng = np.random.default_rng(3)
    text = "# radius=0.5\n" + "".join(f"{x:.9g} {y:.9g} {z:.9g}\n"
                                       for x, y, z in rng.normal(size=(200, 3)) * 1e3)
    assert _xyz_new(text).tobytes() == _parse_xyz_reference(text).tobytes()


# --- VRML tokens ------------------------------------------------------------------

def _fields(tokens):
    return [(t.kind, t.start, t.end, t.text, t.value) for t in tokens]


_VRML_ALPHABET = st.sampled_from(list('#"\\\n\r\t ,{}[]0123456789.eE+-aZColr~@\x00é'))
# whole words, numbers and nested nodes and lists, so that Color nodes,
# color lists and triples occur; lone brackets are rare
_VRML_PIECES = st.sampled_from(
    ["0.5", "0.25", "1", "1.5", "-0.5", ".75", "2e-1", "0."] * 4 + [" ", ", "] * 8
    + ["Color", "color", "Shape", "\n", "\r", "# c ", "# [\r", '"s]"', "\u0661", "\u0665",
       "~", "[ 0.9 0.9 0.9 ]", "{ 0.8 }", "Color { color [ 0.1 0.5 0.1 ] }",
       "Color # c\r { color [ ", " ] }", "{", "]"])
# nested nodes and lists, each opened after one of these words
_VRML_LEAVES = st.sampled_from(["0.5", "0.25", "1", "1.5", "-0.5", ".75", "0.", "\u0661",
                                "~", '"s]"', "# c\r", "# [\n", "color", "Color"])
_VRML_WORDS = st.sampled_from(["Color", "color", "Shape", "", "Color # c\n", "color #\r"])


def _vrml_nest(inner):
    body = st.lists(inner, max_size=8).map(" ".join)
    return st.tuples(_VRML_WORDS, st.sampled_from(["{}", "[]"]), body).map(
        lambda t: f"{t[0]} {t[1][0]} {t[2]} {t[1][1]}")


_VRML_TEXTS = (st.text(_VRML_ALPHABET, max_size=80)
               | st.lists(_VRML_PIECES, max_size=60).map("".join)
               | st.recursive(_VRML_LEAVES, _vrml_nest, max_leaves=40))


@settings(max_examples=300, deadline=None)
@given(st.text(_VRML_ALPHABET, max_size=80))
def test_tokenize_matches_reference(text):
    assert _fields(_tokenize(text)) == _fields(_tokenize_reference(text))


def test_tokenize_matches_reference_on_a_scene():
    text = vrml_scene(300)
    tokens = _tokenize(text)
    assert _fields(tokens) == _fields(_tokenize_reference(text))
    assert tokens[0] == ("comment", 0, len(text.split("\n")[0]), text.split("\n")[0], None)


def _vrml_outcome(fn, text):
    """The value, or the exception's type, message and offset."""
    try:
        return "ok", fn(text)
    except (UnbalancedBrackets, NonAsciiDigit) as exc:
        return type(exc).__name__, str(exc), exc.offset


def _parse_vrml_new(text):
    stream = parse_vrml(text)
    spans = list(zip(stream.slot_spans[::2], stream.slot_spans[1::2]))
    return (len(stream.tokens), list(stream.color_green_slots), spans,
            [text[a:b] for a, b in spans], stream.warnings)


def _assert_scan_matches_reference(text):
    new = _vrml_outcome(_parse_vrml_new, text)
    assert new == _vrml_outcome(_parse_vrml_reference, text)
    return new


@settings(max_examples=400, deadline=None)
@given(_VRML_TEXTS)
def test_parse_vrml_matches_tokenize_and_walk(body):
    head = "#VRML V2.0 utf8\nShape { color Color { color [ "
    _assert_scan_matches_reference("#VRML V2.0 utf8\n" + body)
    _assert_scan_matches_reference(head + body)
    _assert_scan_matches_reference(head + body + " ] } }")


@pytest.mark.parametrize("text", [
    NESTED_COLOR, NESTED_COLOR.replace("\n", "\r"), vrml_scene(300),
    "#VRML V2.0 utf8\nShape { color Color { color [ 0.\u0661 0.\u0665 0.\u0662 ] } }",
    "#VRML V2.0 utf8\nShape { color Color { color [ \u0661.5 0.5 0.2 ] } }",
    "#VRML V2.0 utf8\nColor { color [ 0.1 0.5 0.1 \u0661 0.2 0.5 0.2, 0.3\u0665 ] }",
    "#VRML V2.0 utf8\nColor { color [ 0.1 0.5 0.1 ] } ] \u0661.5",
    "#VRML V2.0 utf8\nColor { color [ 0.1 0.5 0.1 ] \n",
    "#VRML V2.0 utf8\nColor # node\r{ color # list\n[ 0.1 1 0.1, 0.2 1.5 0.2 ] }",
    "#VRML V2.0 utf8\nShape { color [ 0.1 0.5 0.1 ] } color [ 0.2 0.5 0.2 ]",
    "#VRML V2.0 utf8\nColor { color [ 0.1 0.5 [ 0.9 ] 0.1 { 0.8 } 0.2 0.4 0.2 ] }",
])
def test_parse_vrml_matches_tokenize_and_walk_on_scenes(text):
    _assert_scan_matches_reference(text)


# --- STL writer and ASCII STL reader ------------------------------------------------

_STL_RECORD = np.dtype([("n", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")])


def _write_stl_binary_reference(mesh):
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


def _parse_stl_ascii_reference(text):
    corners = []
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
        if low.split()[:1] == ["endsolid"]:
            pos += 1
            break
        if low.split()[:1] != ["facet"]:
            raise MalformedAscii(lineno, "expected 'facet normal' or 'endsolid'")
        parts = ln.split()
        if len(parts) < 2 or parts[1].lower() != "normal":
            raise MalformedAscii(lineno, "expected 'facet normal'")
        _ascii_floats(parts[2:], 3, lineno)
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


# coordinates that round to float32 infinity, to its largest finite value, to
# subnormals and to zero, with signed zeros
_STL_EXTREMES = [0.0, -0.0, 1.0, -2.5, 3.4028234e38, -3.4028235e38, 3.5e38, -1e39,
                 1.2e-38, 1e-45, -1e-45, 1e-46, 1e30, 1e-30]
_STL_COORDS = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(_STL_EXTREMES))


@st.composite
def stl_meshes(draw):
    verts = draw(st.lists(st.tuples(_STL_COORDS, _STL_COORDS, _STL_COORDS),
                          min_size=1, max_size=8))
    if draw(st.booleans()):                     # three points on one line
        scale = draw(st.sampled_from([1.0, 1e-40, 1e37, 3e38]))
        verts += [(0.0, 0.0, 0.0), (scale, 2 * scale, -scale), (2 * scale, 4 * scale, -2 * scale)]
    corner = st.integers(0, len(verts) - 1)
    tris = draw(st.lists(st.tuples(corner, corner, corner), max_size=12))
    if tris and draw(st.booleans()):            # a facet with all corners equal
        tris.append((tris[0][0],) * 3)
    header = draw(st.binary(max_size=80))
    return TriMesh(np.array(verts), np.array(tris, dtype=np.int64).reshape(-1, 3), header)


@settings(max_examples=400, deadline=None)
@given(stl_meshes())
def test_write_stl_binary_matches_reference(mesh):
    with np.errstate(all="ignore"):             # float32 overflow and 0/0 normals
        assert write_stl_binary(mesh) == _write_stl_binary_reference(mesh)


def test_write_stl_binary_matches_reference_on_a_sphere_code_and_the_empty_mesh():
    rng = np.random.default_rng(9)
    params = EmbedParams(pitch=2.0, direction=unit_vector([0.3, -0.5, 0.8]), seed=4)
    mesh = spheres_to_mesh(grid_to_spheres(random_code_grid(rng, 9), params), 1)
    assert write_stl_binary(mesh) == _write_stl_binary_reference(mesh)
    empty = TriMesh(np.zeros((0, 3)), np.zeros((0, 3)), b"\x07" * 80)
    assert write_stl_binary(empty) == _write_stl_binary_reference(empty) == b"\x07" * 80 + bytes(4)


def _ascii_stl(corners, case):
    lines = ["solid part"]
    for tri in corners:
        lines += ["facet normal 0 0 1", "outer loop"]
        lines += [f"vertex {x} {y} {z}" for x, y, z in tri]
        lines += ["endloop", "endfacet"]
    return [case(ln) for ln in lines + ["endsolid part"]]


# lines to insert or put in place of others: each keyword of the grammar, near
# misses of them, numbers that are not finite or not decimals, and blanks
_STL_LINES = [
    "solid", "solid x", "facet normal 0 0 1", "FACET NORMAL 1 0 0", "facet normal 1 2",
    "facetnormal 0 0 1", "facet 0 0 1", "facets normal 0 0 1", "facet normal nan 0 0",
    "facet normal 1_0 0 0", "outer loop", "outerloop", "outer  loop", "o uter loop",
    "outer loops", "vertex 1 2 3", "VERTEX 1e3 -2.5 .5", "vertex 1 2", "vertex 1 2 3 4",
    "vertex", "vertexx 1 2 3", "vertex nan 0 0", "vertex 0 inf 0", "vertex -INF 1 1",
    "vertex 1_0 2 3", "vertex x 2 3", "endloop", "end loop", "endfacet", "endsolid",
    "endsolid x", "end solid", "", " ", "\t", "garbage",
]


@st.composite
def ascii_stl_texts(draw):
    corners = draw(st.lists(st.lists(st.tuples(*[st.sampled_from(["0", "-1.5", "2", "1e3"])] * 3),
                                     min_size=3, max_size=3), max_size=3))
    if corners and draw(st.booleans()):         # a coordinate that is not a finite decimal
        vertex = list(corners[0][0])
        vertex[draw(st.integers(0, 2))] = draw(st.sampled_from(["nan", "inf", "-INF", "1_0", "x"]))
        corners[0][0] = tuple(vertex)
    case = draw(st.sampled_from([str, str.upper, str.title]))
    lines = _ascii_stl(corners, case)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "insert", "replace", "append", "swapcase",
                                     "space", "join"]))
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        line = draw(st.sampled_from(_STL_LINES))
        k = draw(st.integers(0, 12))
        if kind == "delete" and lines:
            del lines[at]
        elif kind == "insert":
            lines.insert(at, line)
        elif kind == "replace" and lines:
            lines[at] = line
        elif kind == "append":                  # text after endsolid
            lines.append(line)
        elif kind == "swapcase" and lines:
            lines[at] = lines[at].swapcase()
        elif kind == "space" and lines:         # "o uter loop", "ver tex 1 2 3"
            lines[at] = lines[at][:k] + " " + lines[at][k:]
        elif kind == "join" and lines:          # "vertex1 2 3", "endlop"
            lines[at] = lines[at][:k] + lines[at][k + 1:]
    indent = draw(st.sampled_from(["", "  ", "\t"]))
    breaks = draw(st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n \n"]))
    return breaks.join(indent + ln for ln in lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


def _stl_outcome(parse, text):
    """The mesh bytes, or the exception's type, message and line."""
    try:
        mesh = parse(text)
    except StegkitError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return mesh.vertices.tobytes(), mesh.triangles.tobytes(), mesh.header


@settings(max_examples=1500, deadline=None)
@given(ascii_stl_texts())
def test_parse_stl_ascii_matches_reference(text):
    assert _stl_outcome(_parse_stl_ascii, text) == _stl_outcome(_parse_stl_ascii_reference, text)


def test_parse_stl_ascii_matches_reference_on_a_sphere_code():
    rng = np.random.default_rng(2)
    params = EmbedParams(pitch=2.0, direction=unit_vector([1.0, 2.0, 2.0]), seed=1)
    mesh = spheres_to_mesh(grid_to_spheres(random_code_grid(rng, 7), params), 1)
    corners = [[map(repr, v) for v in tri] for tri in mesh.triangle_points.tolist()]
    text = "\n".join(_ascii_stl(corners, str)) + "\n"
    assert _parse_stl_ascii(text).triangle_points.tobytes() == mesh.triangle_points.tobytes()
    assert _stl_outcome(_parse_stl_ascii, text) == _stl_outcome(_parse_stl_ascii_reference, text)
