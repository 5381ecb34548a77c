import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dm_stegkit import (
    ChannelParams,
    channel_capacity_bytes,
    embed_green_digits,
    extract_green_digits,
    parse_vrml,
)
from dm_stegkit.errors import (
    CrcMismatch,
    InsufficientSlots,
    MissingHeader,
    NoFrameFound,
    NonAsciiDigit,
    UnbalancedBrackets,
)
from dm_stegkit.stego import FRAME_OVERHEAD
from dm_stegkit.vrml import Token, _tokenize
from conftest import vrml_scene

TWO_TRIPLES = """#VRML V2.0 utf8
Shape {
  geometry IndexedFaceSet {
    color Color { color [ 0.9 0.5 0.1, 0.8 0.4 0.2 ] }
  }
}
"""


def test_two_triples_give_two_slots():
    stream = parse_vrml(TWO_TRIPLES)
    assert len(stream.color_green_slots) == 2
    assert [stream.tokens[i].text for i in stream.color_green_slots] == ["0.5", "0.4"]
    assert not stream.warnings


def test_file_without_color_node_warns():
    stream = parse_vrml("#VRML V2.0 utf8\nShape { geometry Box { size 1 2 3 } }\n")
    assert stream.color_green_slots == []
    assert stream.warnings


def test_wrong_header_rejected():
    with pytest.raises(MissingHeader):
        parse_vrml("#X3D V4.0 utf8\n")


def test_unbalanced_brackets_report_offset():
    text = "#VRML V2.0 utf8\nTransform { children [ ] \n"
    with pytest.raises(UnbalancedBrackets) as err:
        parse_vrml(text)
    assert text[err.value.offset] == "{"


def test_reemission_is_byte_identical():
    for seed in range(4):
        text = vrml_scene(triples=30 + seed, seed=seed)
        stream = parse_vrml(text)
        assert stream.emit() == text


def test_multiple_color_nodes_collect_in_order():
    text = TWO_TRIPLES.replace(
        "}\n",
        "}\nShape { geometry IndexedFaceSet { color Color "
        "{ color [ 0.1 0.2 0.3 ] } } }\n", 1)
    stream = parse_vrml(text)
    assert len(stream.color_green_slots) == 3
    assert stream.color_green_slots == sorted(stream.color_green_slots)


def test_embed_digit_mapping():
    # first frame byte is 0x48 -> bits 01001000: with 3 digits per value the
    # first two green tokens become 0.010 and 0.010
    text = vrml_scene(triples=80, seed=1)
    out = embed_green_digits(parse_vrml(text), b"", ChannelParams(digits_per_value=3))
    stream = parse_vrml(out)
    first = [stream.tokens[i].text for i in stream.color_green_slots[:2]]
    assert first == ["0.010", "0.010"]


def test_embed_respects_start_slot_and_pads_last_group():
    text = vrml_scene(triples=60, seed=2)
    params = ChannelParams(start_slot=5, digits_per_value=5)
    out = embed_green_digits(parse_vrml(text), b"7", params)
    stream = parse_vrml(out)
    used = -(-(FRAME_OVERHEAD + 1) * 8 // 5)
    slots = stream.color_green_slots
    rewritten = [stream.tokens[i].text for i in slots[5:5 + used]]
    assert all(t.startswith("0.") and set(t[2:]) <= {"0", "1"} and len(t) == 7
               for t in rewritten)
    before = [stream.tokens[i].text for i in slots[:5]]
    assert any(set(t[2:]) - {"0", "1"} for t in before)  # untouched colors
    assert extract_green_digits(out, params) == b"7"


def test_insufficient_slots_arithmetic():
    # a 128-bit frame over 10 slots at 6 digits needs ceil(128/6) = 22
    text = vrml_scene(triples=10, seed=3)
    with pytest.raises(InsufficientSlots) as err:
        embed_green_digits(parse_vrml(text), b"HELLO", ChannelParams())
    assert err.value.needed == 22
    assert err.value.available == 10


def test_roundtrip_over_200_slot_file():
    text = vrml_scene(triples=200, seed=4)
    out = embed_green_digits(parse_vrml(text), b"PART-77")
    assert extract_green_digits(out) == b"PART-77"


def test_pristine_file_has_no_frame():
    with pytest.raises(NoFrameFound):
        extract_green_digits(vrml_scene(triples=64, seed=5))


def test_flipped_green_digit_fails_crc():
    text = vrml_scene(triples=200, seed=6)
    out = embed_green_digits(parse_vrml(text), b"128.2 MPa")
    stream = parse_vrml(out)
    # flip one digit inside the payload region (after the 56-bit prefix of
    # magic+version+length): slot 10 holds bits 60..65
    tok = stream.tokens[stream.color_green_slots[10]]
    flipped = "1" if tok.text[2] == "0" else "0"
    bad = out[:tok.start + 2] + flipped + out[tok.start + 3:]
    with pytest.raises(CrcMismatch):
        extract_green_digits(bad)


def test_embed_touches_only_rewritten_spans():
    text = vrml_scene(triples=120, seed=7)
    stream = parse_vrml(text)
    out = embed_green_digits(stream, b"spans only")
    # rebuild the expected output from the original text and the new token
    # texts; any byte outside those spans must match the input
    new_stream = parse_vrml(out)
    changed = [
        (old.start, old.end, new_stream.tokens[i].text)
        for i, old in enumerate(stream.tokens)
        if new_stream.tokens[i].text != old.text
    ]
    rebuilt = []
    pos = 0
    for start, end, replacement in changed:
        rebuilt.append(text[pos:start])
        rebuilt.append(replacement)
        pos = end
    rebuilt.append(text[pos:])
    assert "".join(rebuilt) == out
    slot_set = set(stream.color_green_slots)
    assert all(i in slot_set for i, tok in enumerate(stream.tokens)
               if new_stream.tokens[i].text != tok.text)


def test_capacity_law_exact_boundary():
    text = vrml_scene(triples=40, seed=8)
    stream = parse_vrml(text)
    params = ChannelParams()
    cap = channel_capacity_bytes(stream, params)
    slots = len(stream.color_green_slots)
    assert cap == (slots * params.digits_per_value - FRAME_OVERHEAD * 8) // 8
    full = bytes(range(cap))
    out = embed_green_digits(stream, full, params)
    assert extract_green_digits(out, params) == full
    with pytest.raises(InsufficientSlots):
        embed_green_digits(stream, bytes(cap + 1), params)


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=0, max_size=40), st.integers(1, 9))
def test_roundtrip_property(payload, digits):
    text = vrml_scene(triples=400, seed=9)
    params = ChannelParams(digits_per_value=digits)
    out = embed_green_digits(parse_vrml(text), payload, params)
    assert extract_green_digits(out, params) == payload


def test_crlf_line_endings_preserved():
    text = vrml_scene(triples=80, seed=10).replace("\n", "\r\n")
    stream = parse_vrml(text)
    assert stream.emit() == text
    out = embed_green_digits(stream, b"crlf")
    assert "\r\n" in out
    assert extract_green_digits(out) == b"crlf"


def test_strings_and_comments_do_not_confuse_tokenizer():
    tricky = (
        "#VRML V2.0 utf8\n"
        '# a comment with { brackets ] and "quotes"\n'
        'WorldInfo { info [ "string with } brace and # hash" ] }\n'
        "Shape { geometry IndexedFaceSet { color Color { color [ 0 1 0 ] } } }\n"
    )
    stream = parse_vrml(tricky)
    assert len(stream.color_green_slots) == 1
    assert stream.emit() == tricky


# --- tokenizer against the two-regex reference -----------------------------------

_REF_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>[-+]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][-+]?[0-9]+)?)
  | (?P<punct>[{}\[\]])
  | (?P<keyword>[A-Za-z_][A-Za-z0-9_\-]*)
    """,
    re.VERBOSE,
)
_REF_SKIP_RE = re.compile(r"[\s,]+")


def _tokenize_reference(text):
    """Separator match, then token match, then one unknown character."""
    tokens = []
    pos = 0
    while pos < len(text):
        ws = _REF_SKIP_RE.match(text, pos)
        if ws:
            pos = ws.end()
            continue
        m = _REF_TOKEN_RE.match(text, pos)
        if m:
            kind = m.lastgroup
            value = float(m.group()) if kind == "number" else None
            tokens.append(Token(kind, m.start(), m.end(), m.group(), value))
            pos = m.end()
        else:
            tokens.append(Token("punct", pos, pos + 1, text[pos]))
            pos += 1
    return tokens


# escapes next to newlines and quotes, exponents, signs, unknown bytes
_VRML_ALPHABET = st.sampled_from(list('#"\\\n\r\t ,{}[]0123456789.eE+-_aZ~@\x00é'))


@settings(max_examples=400, deadline=None)
@given(st.text(_VRML_ALPHABET, max_size=60) | st.text(max_size=40))
def test_tokenizer_matches_two_regex_reference(text):
    assert _tokenize(text) == _tokenize_reference(text)


def test_tokenizer_matches_reference_on_scenes():
    for text in (vrml_scene(triples=2000, seed=4), TWO_TRIPLES,
                 '"a\\\n" b "c\\"d" # e\n"unterminated \\\n'):
        assert _tokenize(text) == _tokenize_reference(text)


def test_number_digits_are_ascii():
    # \d matched every Unicode decimal digit and float read them, so "0.\u0661"
    # was the number 0.1 and "1\u0662" the number 12
    assert _tokenize("0.\u0661 1\u0662") == [
        Token("number", 0, 2, "0.", 0.0), Token("punct", 2, 3, "\u0661"),
        Token("number", 4, 5, "1", 1.0), Token("punct", 5, 6, "\u0662")]


# --- slots of malformed nesting ------------------------------------------------------

_ROWS = ", ".join(["0.1 0.5 0.1"] * 40)
# a Color node inside another Color node's color list (not VRML97: a color
# list holds RGB triples only)
NESTED_COLOR = ("#VRML V2.0 utf8\nShape { geometry IndexedFaceSet { color Color { color [ "
                + _ROWS + ", 0.1 0.5 0.1, Color { color [ " + _ROWS
                + " ] }, 0.2 0.5 0.2 ] } } }\n")


@pytest.mark.parametrize("colour, offset", [("0.\u0661 0.\u0665 0.\u0662", 2),
                                            ("\u0661.5 0.5 0.2", 0)])
def test_number_running_into_a_non_ascii_digit_is_an_error(colour, offset):
    # "0.\u0665" was the number "0." then punct "\u0665", a green slot that
    # embedding rewrote, leaving the digit after the new fraction
    head = "#VRML V2.0 utf8\nShape { color Color { color [ "
    with pytest.raises(NonAsciiDigit, match=f"^offset {len(head) + offset}: "):
        parse_vrml(head + colour + " ] } }")


def test_color_node_nested_in_a_color_list_is_counted_once():
    stream = parse_vrml(NESTED_COLOR)
    # 42 triples directly in the outer list, 40 in the inner one
    assert len(stream.color_green_slots) == len(set(stream.color_green_slots)) == 82
    assert channel_capacity_bytes(stream) == 50
    with pytest.raises(InsufficientSlots):
        embed_green_digits(stream, bytes(range(60)))


def test_numbers_in_a_bracket_nested_in_a_color_list_are_not_colours():
    text = ("#VRML V2.0 utf8\nColor { color [ 0.1 0.5 0.1, [ 0.9 0.9 0.9 ], "
            "{ 0.8 0.8 0.8 } 0.2 0.4 0.2 ] }\n")
    stream = parse_vrml(text)
    assert [stream.tokens[i].text for i in stream.color_green_slots] == ["0.5", "0.4"]
