"""The covert-channel decoders against the list-and-loop decoders they
replaced: the frame scanner, the Morse stroke decoder and the VRML green-digit
reader must return the same value, or raise the same exception with the same
message and attributes, on every input."""

import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dm_stegkit import (
    ChannelParams,
    MorseParams,
    SketchSegment,
    embed_green_digits,
    extract_green_digits,
    parse_vrml,
    segments_to_text,
    text_to_segments,
    unframe_payload,
)
from dm_stegkit.errors import (
    CrcMismatch,
    NoFrameFound,
    UnknownMorseSequence,
    UnsortedSegments,
    UnsupportedVersion,
)
from dm_stegkit.stego import (
    _MORSE_REVERSE,
    FRAME_MAGIC,
    FRAME_OVERHEAD,
    FRAME_VERSION,
    _estimate_unit,
    bits_to_bytes,
    bytes_to_bits,
    frame_bytes,
)
from conftest import vrml_scene


# --- the replaced decoders, kept as references ---------------------------------

def _bytes_to_bits_reference(data):
    out = []
    for b in data:
        for k in range(7, -1, -1):
            out.append((b >> k) & 1)
    return out


def _bits_to_bytes_reference(bits):
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


def _bits_int(bits, off, n):
    val = 0
    for b in bits[off:off + n]:
        val = (val << 1) | b
    return val


def _unframe_reference(bits):
    bits = [1 if b else 0 for b in bits]
    magic = _bytes_to_bits_reference(FRAME_MAGIC)
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
            body = _bits_to_bytes_reference(bits[off + 32:off + 56 + length * 8])
            crc = _bits_int(bits, off + 56 + length * 8, 32)
            if zlib.crc32(body) == crc:
                return body[3:]
            stage, error = 2, CrcMismatch("frame CRC check failed")
        if stage > best_stage:
            best_error, best_stage = error, stage
    if best_error is not None:
        raise best_error
    raise NoFrameFound("no frame magic located")


def _segments_to_text_reference(segments, params=MorseParams()):
    segments = list(segments)
    if not segments:
        return ""
    xs = [s.x for s in segments]
    if any(b < a for a, b in zip(xs, xs[1:])):
        raise UnsortedSegments("segments must be sorted by x")
    d = _estimate_unit(segments, params)

    words = [[]]
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


def _extract_green_digits_reference(text, params=ChannelParams()):
    stream = parse_vrml(text)
    bits = []
    for idx in stream.color_green_slots[params.start_slot:]:
        tok = stream.tokens[idx]
        _, dot, frac = tok.text.partition(".")
        if not dot:
            break
        stop = False
        for ch in frac:
            if ch == "0":
                bits.append(0)
            elif ch == "1":
                bits.append(1)
            else:
                stop = True
                break
        if stop:
            break
    return _unframe_reference(bits)


def _outcome(fn, *args):
    """The return value, or the exception's type, message and attributes."""
    try:
        return ("value", fn(*args))
    except Exception as exc:  # noqa: BLE001 - every outcome is compared
        attrs = {k: getattr(exc, k) for k in ("version", "position", "sequence")
                 if hasattr(exc, k)}
        return ("error", type(exc).__name__, str(exc), attrs)


# --- frame scanner ------------------------------------------------------------

@st.composite
def _frame_pieces(draw):
    kind = draw(st.sampled_from(["frame", "flipped", "stray", "random"]))
    if kind == "random":
        return draw(st.lists(st.integers(0, 1), max_size=48))
    if kind == "stray":
        head = FRAME_MAGIC + bytes([draw(st.sampled_from([1, 7, 9]))])
        return _bytes_to_bits_reference(head + draw(st.binary(max_size=10)))
    bits = _bytes_to_bits_reference(frame_bytes(draw(st.binary(max_size=12))))
    if kind == "flipped":
        bits[draw(st.integers(0, len(bits) - 1))] ^= 1
    return bits


@st.composite
def _streams(draw):
    """Good frames, frames with one bit flipped, stray magics with version 1,
    7 or 9 and random bits, each shifted by 0-15 bits, then maybe truncated."""
    stream = []
    for piece in draw(st.lists(_frame_pieces(), max_size=4)):
        stream += [draw(st.integers(0, 1))] * draw(st.integers(0, 15)) + piece
    if draw(st.booleans()):
        stream = stream[:draw(st.integers(0, len(stream)))]
    return stream


@settings(max_examples=400, deadline=None)
@given(_streams())
def test_unframe_matches_reference(bits):
    assert _outcome(unframe_payload, bits) == _outcome(_unframe_reference, bits)


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=12), st.binary(max_size=12),
       st.integers(0, 15), st.integers(0, 15), st.integers(0, 2))
def test_first_of_two_valid_frames_wins_as_in_reference(a, b, shift_a, shift_b, bad):
    first = _bytes_to_bits_reference(frame_bytes(a))
    if bad == 1:
        first[40] ^= 1          # a length field that no longer matches
    elif bad == 2:
        first[-1] ^= 1          # a CRC that no longer matches
    bits = [0] * shift_a + first + [1] * shift_b + _bytes_to_bits_reference(frame_bytes(b))
    assert _outcome(unframe_payload, bits) == _outcome(_unframe_reference, bits)


@settings(max_examples=300, deadline=None)
@given(st.lists(_frame_pieces(), min_size=2, max_size=3), st.integers(0, 15),
       st.lists(st.integers(0, 2), min_size=2, max_size=2))
def test_candidate_order_and_ties_as_in_reference(pieces, shift, gaps):
    # the first piece at a bit offset, the others byte-aligned behind it, so
    # every magic is a candidate and failures of one stage tie
    bits = [1] * shift + pieces[0]
    for piece, gap in zip(pieces[1:], gaps):
        bits += [0] * (-len(bits) % 8 + 8 * gap) + piece
    assert _outcome(unframe_payload, bits) == _outcome(_unframe_reference, bits)


@settings(max_examples=100, deadline=None)
@given(_streams(), st.sampled_from(["bool", "int", "tuple", "numpy", "scaled"]))
def test_unframe_reads_any_truthy_bits_as_reference(bits, form):
    seq = {
        "bool": lambda: [bool(b) for b in bits],
        "int": lambda: bits,
        "tuple": lambda: tuple(bits),
        "numpy": lambda: np.array(bits, dtype=np.uint8),
        "scaled": lambda: [5.0 * b for b in bits],
    }[form]()
    assert _outcome(unframe_payload, seq) == _outcome(_unframe_reference, bits)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=40), st.lists(st.integers(0, 3), max_size=70))
def test_bit_packing_matches_reference(data, bits):
    assert bytes_to_bits(data) == _bytes_to_bits_reference(data)
    assert bits_to_bytes(bits) == _bits_to_bytes_reference(bits)


# --- Morse decoder --------------------------------------------------------------

# multiples of the unit at and next to the 2d and 5d thresholds
_NEAR = [0.5, 1.0, 1.999, 2.0, 2.001, 3.0, 4.999, 5.0, 5.001, 7.0]


@st.composite
def _stroke_rows(draw):
    """Rows with stroke lengths and gaps at and near the thresholds, some
    strokes drawn downwards, overlapping strokes, and shuffled rows."""
    unit = draw(st.sampled_from([0.25, 1.0, 3.0]))
    rows, x = [], 0.0
    for _ in range(draw(st.integers(0, 14))):
        x += unit * draw(st.sampled_from(_NEAR + [0.0, -0.5]))
        length = unit * draw(st.sampled_from(_NEAR))
        y0 = draw(st.sampled_from([0.0, 2.5]))
        y1 = y0 - length if draw(st.booleans()) else y0 + length
        rows.append(SketchSegment(x, y0, y1))
        x += length
    if draw(st.integers(0, 4)) == 0:
        rows = draw(st.permutations(rows))
    return rows, MorseParams(draw(st.sampled_from([0.25, 1.0, 3.0])))


@settings(max_examples=600, deadline=None)
@given(_stroke_rows())
def test_morse_decoder_matches_reference(case):
    rows, params = case
    assert (_outcome(segments_to_text, rows, params)
            == _outcome(_segments_to_text_reference, rows, params))


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ", max_size=20),
       st.sampled_from([0.5, 1.0, 4.0]))
def test_morse_decoder_matches_reference_on_encoded_text(text, unit):
    rows = text_to_segments(text, MorseParams(unit))
    assert _outcome(segments_to_text, rows) == _outcome(_segments_to_text_reference, rows)


# --- VRML green-digit reader ----------------------------------------------------

_GREEN_TEXTS = ["0.5", "1", "0", "1.", "0.1012", "0.10e1", ".11", "0.000",
                "1.0", "0.1111119", "1e-1", "0.01", "0.9"]


@st.composite
def _marked_scenes(draw):
    """A scene with a framed payload in its greens, then up to four greens
    rewritten as other numbers."""
    params = ChannelParams(start_slot=draw(st.integers(0, 5)),
                           digits_per_value=draw(st.integers(1, 9)))
    scene = vrml_scene(200, seed=draw(st.integers(0, 3)))
    text = embed_green_digits(parse_vrml(scene), draw(st.binary(max_size=12)), params)
    stream = parse_vrml(text)
    slots = stream.color_green_slots
    picks = draw(st.lists(st.integers(0, len(slots) - 1), max_size=4, unique=True))
    text = stream.emit({slots[i]: draw(st.sampled_from(_GREEN_TEXTS)) for i in picks})
    return text, ChannelParams(start_slot=draw(st.sampled_from([params.start_slot, 0, 7])),
                               digits_per_value=params.digits_per_value)


@settings(max_examples=150, deadline=None)
@given(_marked_scenes())
def test_green_digit_reader_matches_reference(case):
    text, params = case
    assert (_outcome(extract_green_digits, text, params)
            == _outcome(_extract_green_digits_reference, text, params))
