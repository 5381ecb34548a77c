"""Covert payload channels: self-delimiting frames, the STL-header channel,
and the vertical-stroke Morse sketch codec.

Every channel carries the same frame layout so extraction can self-verify:

    magic "H3D1" | version (1) | length u16 BE | payload | CRC-32 BE

The CRC (IEEE polynomial) covers version, length, and payload.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from .errors import (
    CrcMismatch,
    MessageTooLong,
    NoFrameFound,
    PayloadTooLarge,
    UnknownMorseSequence,
    UnsortedSegments,
    UnsupportedCharacter,
    UnsupportedVersion,
)
from .meshcore import TriMesh

FRAME_MAGIC = b"\x48\x33\x44\x31"
FRAME_VERSION = 1
FRAME_OVERHEAD = 11  # magic + version + length + crc
_MAX_PAYLOAD = 0xFFFF
_STL_HEADER_CAPACITY = 80 - FRAME_OVERHEAD


def frame_bytes(payload: bytes) -> bytes:
    """Wrap a payload in a magic/version/length/CRC frame."""
    if len(payload) > _MAX_PAYLOAD:
        raise PayloadTooLarge(f"payload is {len(payload)} bytes, max {_MAX_PAYLOAD}")
    body = bytes([FRAME_VERSION]) + len(payload).to_bytes(2, "big") + payload
    return FRAME_MAGIC + body + zlib.crc32(body).to_bytes(4, "big")


def bytes_to_bits(data: bytes) -> list[int]:
    """MSB-first bit expansion."""
    out = []
    for b in data:
        for k in range(7, -1, -1):
            out.append((b >> k) & 1)
    return out


def bits_to_bytes(bits) -> bytes:
    """MSB-first bit packing; trailing partial byte is dropped."""
    out = bytearray()
    acc = 0
    n = 0
    for bit in bits:
        acc = (acc << 1) | (1 if bit else 0)
        n += 1
        if n == 8:
            out.append(acc)
            acc = 0
            n = 0
    return bytes(out)


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
    bits = [1 if b else 0 for b in bits]
    magic = bytes_to_bits(FRAME_MAGIC)
    min_bits = FRAME_OVERHEAD * 8
    offsets = [o for o in range(8) if o + min_bits <= len(bits)]
    offsets += list(range(8, len(bits) - min_bits + 1, 8))
    best_error, best_stage = None, -1
    for off in offsets:
        if bits[off:off + 32] != magic:
            continue
        version = _bits_int(bits, off + 32, 8)
        length = _bits_int(bits, off + 40, 16)
        end = off + (FRAME_OVERHEAD + length) * 8
        if version != FRAME_VERSION:
            stage, error = 0, UnsupportedVersion(version)
        elif end > len(bits):
            stage, error = 1, NoFrameFound(
                f"frame declares {length} payload bytes beyond input")
        else:
            body = bits_to_bytes(bits[off + 32:off + 56 + length * 8])
            crc = _bits_int(bits, off + 56 + length * 8, 32)
            if zlib.crc32(body) == crc:
                return body[3:]
            stage, error = 2, CrcMismatch("frame CRC check failed")
        if stage > best_stage:
            best_error, best_stage = error, stage
    if best_error is not None:
        raise best_error
    raise NoFrameFound("no frame magic located")


def _bits_int(bits, off, n) -> int:
    val = 0
    for b in bits[off:off + n]:
        val = (val << 1) | b
    return val


# --- STL header channel --------------------------------------------------------

def embed_stl_header(mesh: TriMesh, message: bytes) -> TriMesh:
    """Hide a framed message in the 80-byte STL header; geometry untouched."""
    if len(message) > _STL_HEADER_CAPACITY:
        raise MessageTooLong(
            f"message is {len(message)} bytes, header holds {_STL_HEADER_CAPACITY}"
        )
    frame = frame_bytes(message)
    header = frame + b"\x00" * (80 - len(frame))
    return TriMesh(mesh.vertices.copy(), mesh.triangles.copy(), header)


def extract_stl_header(mesh: TriMesh) -> bytes:
    """Recover a framed message from the STL header."""
    return unframe_payload(bytes_to_bits(mesh.header))


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
        if self.d <= 0:
            raise ValueError("unit d must be positive")

    @property
    def dash(self) -> float:
        return 3.0 * self.d


def text_to_segments(text: str, params: MorseParams = MorseParams()) -> list[SketchSegment]:
    """Encode A-Z, 0-9, and spaces as a row of vertical strokes."""
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

    words: list[list[str]] = [[]]
    symbol = ""
    position = 0

    def close_symbol():
        nonlocal symbol, position
        if not symbol:
            return
        ch = _MORSE_REVERSE.get(symbol)
        if ch is None:
            raise UnknownMorseSequence(position, symbol)
        words[-1].append(ch)
        symbol = ""
        position += 1

    for i, seg in enumerate(segments):
        symbol += "." if seg.length < 2.0 * d else "-"
        if i + 1 == len(segments):
            break
        gap = segments[i + 1].x - (seg.x + seg.length)
        if gap < 2.0 * d:
            continue
        close_symbol()
        if gap >= 5.0 * d:
            words.append([])
    close_symbol()
    return " ".join("".join(w) for w in words)


def segments_to_json(segments) -> list[dict]:
    return [{"x": s.x, "y0": s.y0, "y1": s.y1} for s in segments]


def segments_from_json(items) -> list[SketchSegment]:
    return [SketchSegment(float(i["x"]), float(i["y0"]), float(i["y1"])) for i in items]
