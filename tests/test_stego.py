import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dm_stegkit import (
    MorseParams,
    SketchSegment,
    embed_stl_header,
    extract_stl_header,
    frame_payload,
    segments_from_json,
    segments_to_json,
    segments_to_text,
    text_to_segments,
    unframe_payload,
)
from dm_stegkit.errors import (
    CrcMismatch,
    MessageTooLong,
    NoFrameFound,
    PayloadTooLarge,
    UnknownMorseSequence,
    UnsortedSegments,
    UnsupportedCharacter,
    UnsupportedVersion,
)
from dm_stegkit.stego import MORSE_TABLE, bits_to_bytes, bytes_to_bits, frame_bytes
from conftest import box_mesh

# --- framing -----------------------------------------------------------------

def test_frame_sizes():
    assert len(frame_payload(b"HELLO")) == 16 * 8
    assert len(frame_payload(b"")) == 11 * 8


def test_frame_layout():
    frame = frame_bytes(b"AB")
    assert frame[:4] == b"H3D1"
    assert frame[4] == 1
    assert int.from_bytes(frame[5:7], "big") == 2
    assert frame[7:9] == b"AB"
    assert len(frame) == 13


def test_unframe_roundtrip():
    assert unframe_payload(frame_payload(b"HELLO")) == b"HELLO"


def test_unframe_all_zeros():
    with pytest.raises(NoFrameFound):
        unframe_payload([0] * 400)


def test_unframe_flipped_payload_bit():
    bits = frame_payload(b"HELLO")
    bits[60] ^= 1   # inside the payload region
    with pytest.raises(CrcMismatch):
        unframe_payload(bits)


def test_unframe_bad_version():
    frame = bytearray(frame_bytes(b"x"))
    frame[4] = 9
    with pytest.raises(UnsupportedVersion):
        unframe_payload([int(b) for byte in frame for b in f"{byte:08b}"])


def test_unframe_skips_candidate_that_fails_validation():
    # a stray magic with a bad version byte ahead of the real frame
    bits = bytes_to_bits(b"xxH3D1\x07zz") + frame_payload(b"hello")
    assert unframe_payload(bits) == b"hello"
    # a corrupt frame ahead of a good one
    bad = frame_payload(b"first")
    bad[60] ^= 1
    assert unframe_payload(bad + frame_payload(b"second")) == b"second"


def test_unframe_raises_furthest_failure():
    bad_crc = frame_payload(b"HELLO")
    bad_crc[60] ^= 1
    bad_version = bytes_to_bits(b"H3D1\x07") + [0] * 64
    with pytest.raises(CrcMismatch):
        unframe_payload(bad_version + bad_crc)
    with pytest.raises(CrcMismatch):
        unframe_payload(bad_crc + bad_version)
    with pytest.raises(UnsupportedVersion) as err:
        unframe_payload(bad_version)
    assert err.value.version == 7
    # a declared length past the end outranks a bad version
    too_long = bytes_to_bits(b"H3D1\x01\xff\xff") + [0] * 64
    with pytest.raises(NoFrameFound, match="beyond input"):
        unframe_payload(bad_version + too_long)


def test_unframe_finds_bit_shifted_frame():
    for shift in range(8):
        bits = [0] * shift + frame_payload(b"shift") + [0] * 5
        assert unframe_payload(bits) == b"shift"


def test_unframe_finds_byte_aligned_frame_deep_in_stream():
    bits = [0, 1, 0, 1] * 10 + frame_payload(b"deep")
    # 40 junk bits: frame starts byte-aligned inside the stream
    assert unframe_payload(bits) == b"deep"


def test_payload_too_large():
    with pytest.raises(PayloadTooLarge):
        frame_bytes(b"x" * 65536)


@settings(max_examples=80, deadline=None)
@given(st.binary(min_size=0, max_size=1024))
def test_frame_roundtrip_property(payload):
    assert unframe_payload(frame_payload(payload)) == payload


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=64), st.data())
def test_any_single_corrupted_byte_detected(payload, data):
    frame = bytearray(frame_bytes(payload))
    pos = data.draw(st.integers(0, len(frame) - 1))
    delta = data.draw(st.integers(1, 255))
    frame[pos] = (frame[pos] + delta) % 256
    bits = [int(b) for byte in frame for b in f"{byte:08b}"]
    with pytest.raises((CrcMismatch, NoFrameFound, UnsupportedVersion)):
        unframe_payload(bits)
    # a pristine copy still decodes
    good = [int(b) for byte in frame_bytes(payload) for b in f"{byte:08b}"]
    assert unframe_payload(good) == payload


def test_bits_to_bytes_drops_partial_byte():
    assert bits_to_bytes([1, 0, 0, 0, 0, 0, 0, 1, 1, 1]) == b"\x81"


# --- STL header channel --------------------------------------------------------

def test_header_embed_extract_roundtrip():
    mesh = box_mesh(0, 0, 0, 1, 1, 1)
    out = embed_stl_header(mesh, b"QWERTY")
    assert extract_stl_header(out) == b"QWERTY"


def test_header_embed_leaves_geometry_identical():
    mesh = box_mesh(0, 0, 0, 2, 2, 2)
    out = embed_stl_header(mesh, b"ip=10.0.0.7 user=fieldsvc")
    assert np.array_equal(out.vertices, mesh.vertices)
    assert np.array_equal(out.triangles, mesh.triangles)


def test_header_frame_layout_and_zero_fill():
    message = b"ip=10.0.0.7 user=ops23b"    # 23 bytes -> 34-byte frame
    assert len(message) == 23
    out = embed_stl_header(box_mesh(0, 0, 0, 1, 1, 1), message)
    assert out.header[:4] == b"H3D1"
    assert out.header[34:] == b"\x00" * 46
    assert extract_stl_header(out) == message


def test_header_capacity_boundary():
    mesh = box_mesh(0, 0, 0, 1, 1, 1)
    out = embed_stl_header(mesh, b"x" * 69)
    assert extract_stl_header(out) == b"x" * 69
    with pytest.raises(MessageTooLong):
        embed_stl_header(mesh, b"x" * 70)


def test_ordinary_slicer_header_has_no_frame():
    mesh = box_mesh(0, 0, 0, 1, 1, 1)
    mesh.header = b"exported by slicer 4.2 on 2026-01-01".ljust(80, b" ")
    with pytest.raises(NoFrameFound):
        extract_stl_header(mesh)


def test_header_with_magic_but_bad_crc():
    mesh = box_mesh(0, 0, 0, 1, 1, 1)
    frame = bytearray(frame_bytes(b"secret"))
    frame[-1] ^= 0xFF
    mesh.header = bytes(frame).ljust(80, b"\x00")
    with pytest.raises(CrcMismatch):
        extract_stl_header(mesh)


# --- Morse sketch codec -----------------------------------------------------------

def test_sos_segment_lengths():
    lengths = [s.length for s in text_to_segments("SOS")]
    assert lengths == [1, 1, 1, 3, 3, 3, 1, 1, 1]


def test_empty_text():
    assert text_to_segments("") == []
    assert segments_to_text([]) == ""


def test_word_gap_is_seven_units():
    segs = text_to_segments("E E")
    assert [s.length for s in segs] == [1, 1]
    assert segs[1].x - (segs[0].x + segs[0].length) == 7.0


def test_single_character_decode():
    segs = [SketchSegment(0, 0, 1), SketchSegment(2, 0, 3)]
    assert segments_to_text(segs) == "A"


def test_six_dots_is_unknown():
    segs = [SketchSegment(2 * i, 0, 1) for i in range(6)]
    with pytest.raises(UnknownMorseSequence) as err:
        segments_to_text(segs)
    assert err.value.sequence == "......"


def test_unsupported_character():
    with pytest.raises(UnsupportedCharacter):
        text_to_segments("WH@T")


def test_unsorted_segments_rejected():
    segs = [SketchSegment(5, 0, 1), SketchSegment(0, 0, 1)]
    with pytest.raises(UnsortedSegments):
        segments_to_text(segs)


def test_full_alphabet_roundtrip():
    text = " ".join(sorted(MORSE_TABLE))
    assert segments_to_text(text_to_segments(text)) == text
    assert segments_to_text(text_to_segments("RED7 BLUE4")) == "RED7 BLUE4"


_WORDS = st.lists(
    st.text(alphabet=sorted(MORSE_TABLE), min_size=1, max_size=8),
    min_size=1, max_size=4,
).map(" ".join)


@settings(max_examples=100, deadline=None)
@given(_WORDS)
def test_morse_roundtrip_property(text):
    assert segments_to_text(text_to_segments(text)) == text


@settings(max_examples=80, deadline=None)
@given(_WORDS, st.floats(min_value=1e-3, max_value=1e3))
def test_morse_scale_invariance(text, scale):
    # unit inference needs both stroke classes present
    text = "A " + text
    segs = text_to_segments(text)
    scaled = [SketchSegment(s.x * scale, s.y0 * scale, s.y1 * scale) for s in segs]
    assert segments_to_text(scaled) == text


def test_encoder_unit_parameter_scales_geometry():
    segs = text_to_segments("SOS", MorseParams(d=2.5))
    assert [s.length for s in segs] == [2.5] * 3 + [7.5] * 3 + [2.5] * 3
    assert segments_to_text(segs, MorseParams(d=2.5)) == "SOS"


def test_segments_json_roundtrip():
    segs = text_to_segments("JSON 42")
    again = segments_from_json(segments_to_json(segs))
    assert again == segs
    assert segments_to_text(again) == "JSON 42"
