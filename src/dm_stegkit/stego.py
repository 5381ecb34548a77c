"""Covert payload channels: self-delimiting frames, the STL-header channel,
and the vertical-stroke Morse sketch codec.

Every channel carries the same frame layout so extraction can self-verify:

    magic "H3D1" | version (1) | length u16 BE | payload | CRC-32 BE

The CRC (IEEE polynomial) covers version, length, and payload.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    CrcMismatch,
    MalformedSketch,
    MessageTooLong,
    NoFrameFound,
    PayloadTooLarge,
    UnknownMorseSequence,
    UnsortedSegments,
    UnsupportedCharacter,
    UnsupportedVersion,
)
from .meshcore import _STL_HEADER_LEN, TriMesh

FRAME_MAGIC = b"\x48\x33\x44\x31"
FRAME_VERSION = 1
FRAME_OVERHEAD = 11  # magic + version + length + crc
_MAX_PAYLOAD = 0xFFFF
_STL_HEADER_CAPACITY = _STL_HEADER_LEN - FRAME_OVERHEAD


def frame_bytes(payload: bytes) -> bytes:
    """Wrap a payload in a magic/version/length/CRC frame."""
    if len(payload) > _MAX_PAYLOAD:
        raise PayloadTooLarge(f"payload is {len(payload)} bytes, max {_MAX_PAYLOAD}")
    body = bytes([FRAME_VERSION]) + len(payload).to_bytes(2, "big") + payload
    return FRAME_MAGIC + body + zlib.crc32(body).to_bytes(4, "big")


def bytes_to_bits(data: bytes) -> list[int]:
    """MSB-first bit expansion."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tolist()


def bits_to_bytes(bits) -> bytes:
    """MSB-first bit packing; trailing partial byte is dropped."""
    return _pack(np.fromiter(map(bool, bits), dtype=bool))


def _pack(bits: np.ndarray) -> bytes:
    return np.packbits(bits[:len(bits) - len(bits) % 8]).tobytes()


def frame_payload(payload: bytes) -> list[int]:
    """Frame a payload and serialize it MSB-first as a bit list."""
    return bytes_to_bits(frame_bytes(payload))


def unframe_payload(bits) -> bytes:
    """Locate and validate a frame inside a bit sequence.

    The magic is searched at bit offsets 0..7 and at byte-aligned offsets
    thereafter. A candidate whose version, length or CRC check fails is
    skipped and the scan goes on; the first candidate that validates is
    returned. If none does, the error of the candidate that got furthest
    (CRC over length over version, earliest on ties) is raised, or
    NoFrameFound when the magic occurs nowhere.
    """
    bits = np.fromiter(map(bool, bits), dtype=bool)
    best_error, best_stage = None, -1
    for data, k in _frame_starts([_pack(bits[o:]) for o in range(8)]):
        version = data[k + 4]
        length = int.from_bytes(data[k + 5:k + 7], "big")
        end = k + FRAME_OVERHEAD + length
        if version != FRAME_VERSION:
            stage, error = 0, UnsupportedVersion(version)
        elif end > len(data):
            stage, error = 1, NoFrameFound(
                f"frame declares {length} payload bytes beyond input")
        elif zlib.crc32(data[k + 4:end - 4]) == int.from_bytes(data[end - 4:end], "big"):
            return data[k + 7:end - 4]
        else:
            stage, error = 2, CrcMismatch("frame CRC check failed")
        if stage > best_stage:
            best_error, best_stage = error, stage
    if best_error is not None:
        raise best_error
    raise NoFrameFound("no frame magic located")


def _frame_starts(shifted):
    """(bytes, index) of each magic that has a full frame header behind it:
    the start of each bit-shifted stream, then the unshifted stream's
    later bytes."""
    for data in shifted:
        if len(data) >= FRAME_OVERHEAD and data.startswith(FRAME_MAGIC):
            yield data, 0
    data = shifted[0]
    k = data.find(FRAME_MAGIC, 1)
    while 0 < k <= len(data) - FRAME_OVERHEAD:
        yield data, k
        k = data.find(FRAME_MAGIC, k + 1)


# --- STL header channel --------------------------------------------------------

def stl_header_frame(message: bytes) -> bytes:
    """The 80-byte STL header that carries a framed message, zero-filled."""
    if len(message) > _STL_HEADER_CAPACITY:
        raise MessageTooLong(
            f"message is {len(message)} bytes, header holds {_STL_HEADER_CAPACITY}"
        )
    frame = frame_bytes(message)
    return frame + b"\x00" * (_STL_HEADER_LEN - len(frame))


def embed_stl_header(mesh: TriMesh, message: bytes) -> TriMesh:
    """Hide a framed message in the 80-byte STL header; geometry untouched."""
    return TriMesh(mesh.vertices.copy(), mesh.triangles.copy(), stl_header_frame(message))


def stl_header_payload(header: bytes) -> bytes:
    """Recover a framed message from 80 STL header bytes."""
    return unframe_payload(bytes_to_bits(header))


def extract_stl_header(mesh: TriMesh) -> bytes:
    """Recover a framed message from the STL header."""
    return stl_header_payload(mesh.header)


# --- Morse sketch codec ----------------------------------------------------------

MORSE_TABLE = {
    "A": ".-", "B": "-...", "C": "-.-.", "D": "-..", "E": ".", "F": "..-.",
    "G": "--.", "H": "....", "I": "..", "J": ".---", "K": "-.-", "L": ".-..",
    "M": "--", "N": "-.", "O": "---", "P": ".--.", "Q": "--.-", "R": ".-.",
    "S": "...", "T": "-", "U": "..-", "V": "...-", "W": ".--", "X": "-..-",
    "Y": "-.--", "Z": "--..",
    "0": "-----", "1": ".----", "2": "..---", "3": "...--", "4": "....-",
    "5": ".....", "6": "-....", "7": "--...", "8": "---..", "9": "----.",
}
_MORSE_REVERSE = {v: k for k, v in MORSE_TABLE.items()}


@dataclass(frozen=True)
class SketchSegment:
    """One vertical stroke: short strokes are dots, long strokes dashes."""

    x: float
    y0: float
    y1: float

    @property
    def length(self) -> float:
        return abs(self.y1 - self.y0)


@dataclass(frozen=True)
class MorseParams:
    """Standard Morse timing expressed in baseline units.

    A dot is one unit ``d`` long, a dash three; gaps are 1d inside a
    character, 3d between characters, 7d between words.
    """

    d: float = 1.0

    def __post_init__(self):
        if not 0 < self.d < math.inf:               # NaN fails too
            raise ValueError("unit d must be positive and finite")

    @property
    def dash(self) -> float:
        return 3.0 * self.d


def text_to_segments(text: str, params: MorseParams = MorseParams()) -> list[SketchSegment]:
    """Encode A-Z, 0-9, and spaces as a row of vertical strokes.

    A unit so large that a coordinate overflows raises ValueError.
    """
    d = params.d
    segments = []
    x = 0.0
    pending_gap = 0.0
    for ch in text.upper():
        if ch == " ":
            pending_gap = 7.0 * d
            continue
        code = MORSE_TABLE.get(ch)
        if code is None:
            raise UnsupportedCharacter(ch)
        if segments and pending_gap == 0.0:
            pending_gap = 3.0 * d
        for sym in code:
            x += pending_gap
            length = d if sym == "." else 3.0 * d
            segments.append(SketchSegment(x=x, y0=0.0, y1=length))
            x += length
            pending_gap = d
        pending_gap = 0.0
    if not math.isfinite(x):        # x only grows: it bounds every coordinate
        raise ValueError(f"unit d {d:g} overflows a stroke coordinate of this text")
    return segments


def _estimate_unit(segments, params: MorseParams) -> float:
    """Infer the timing unit from stroke lengths.

    When both dots and dashes are present the shortest stroke is one
    unit. A single length class is ambiguous at unknown scale, so the
    caller-supplied unit decides.
    """
    lengths = [s.length for s in segments]
    lo, hi = min(lengths), max(lengths)
    if lo > 0 and hi / lo >= 2.0:
        return lo
    return params.d


def segments_to_text(segments, params: MorseParams = MorseParams()) -> str:
    """Decode a stroke row back to text.

    Strokes shorter than 2 units read as dots, longer as dashes; gaps
    under 2 units continue a character, under 5 units separate characters,
    anything wider separates words.
    """
    segments = list(segments)
    if not segments:
        return ""
    xs = [s.x for s in segments]
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise UnsortedSegments("segments must be sorted by x")
    d = _estimate_unit(segments, params)
    gaps = [b.x - (a.x + a.length) for a, b in zip(segments, segments[1:])]
    marks = ["." if s.length < 2.0 * d else "-" for s in segments]
    seps = ["" if g < 2.0 * d else "/" if g >= 5.0 * d else " " for g in gaps]
    code = "".join(m + s for m, s in zip(marks, seps + [""]))
    symbols = code.replace("/", " ").split(" ")
    for position, symbol in enumerate(symbols):
        if symbol not in _MORSE_REVERSE:
            raise UnknownMorseSequence(position, symbol)
    return " ".join("".join(map(_MORSE_REVERSE.get, word.split(" ")))
                    for word in code.split("/"))


def segments_to_json(segments) -> list[dict]:
    return [{"x": s.x, "y0": s.y0, "y1": s.y1} for s in segments]


def segments_from_json(items) -> list[SketchSegment]:
    """Segments from decoded sketch JSON: a list of objects whose ``x``,
    ``y0`` and ``y1`` are finite numbers (not booleans or strings); any
    other input raises MalformedSketch, naming the item at fault."""
    if not isinstance(items, list):
        raise MalformedSketch(None, f"sketch must be a list of segments, got {type(items).__name__}")
    segments = []
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise MalformedSketch(index, f"segment must be an object, got {type(item).__name__}")
        segments.append(SketchSegment(*(_sketch_number(item, key, index)
                                         for key in ("x", "y0", "y1"))))
    return segments


def _sketch_number(item: dict, key: str, index: int) -> float:
    """``item[key]`` as a float, for a number that a float holds finitely."""
    if key not in item:
        raise MalformedSketch(index, f"missing key {key!r}")
    value = item[key]
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:               # an integer beyond the float range
            pass
    if not math.isfinite(number):
        raise MalformedSketch(index, f"{key} must be a finite number, got {value!r}")
    return number
