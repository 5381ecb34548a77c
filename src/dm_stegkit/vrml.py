"""Span-preserving VRML97 scanner and the green-intensity digit channel.

Payload bits become the literal fractional digits of the second (green)
component of each RGB triple inside ``Color { color [ ... ] }`` nodes.
One pass over the text counts the tokens and records where each green
slot lies; re-emission splices rewritten numbers into the original text at
those spans, so every byte outside them is preserved. Token objects are
built only when ``VrmlTokenStream.tokens`` is indexed.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InsufficientSlots, MissingHeader, NonAsciiDigit, UnbalancedBrackets
from .stego import FRAME_OVERHEAD, frame_payload, unframe_payload

VRML_HEADER = "#VRML V2.0"

# one match per token: the separators before it, then the token itself,
# which is the match's last group. The first five kinds start with distinct
# characters, numbers (the commonest) first; any other character is a
# one-character token, and the end of the text (\Z) takes the trailing
# separators in one match without a group, so no match backtracks. No
# DOTALL, so a string escape never spans a newline; a comment ends at a CR
# or LF as in VRML97; [0-9], as \d and float take any Unicode digit
_TOKEN_RE = re.compile(
    r"""
    [\s,]*
    (?:
        (?P<number>[-+]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][-+]?[0-9]+)?)
      | (?P<punct>[{}\[\]])
      | (?P<keyword>[A-Za-z_][A-Za-z0-9_\-]*)
      | (?P<comment>\#[^\n\r]*)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<other>[^\s,])
      | \Z
    )
    """,
    re.VERBOSE,
)
_PIECE_CHARS = 1 << 16      # most text characters in one of ``VrmlTokenStream.pieces``
# a number's fraction: the binary digits that lead it, then the rest
_BINARY_FRACTION_RE = re.compile(r"[^.]*\.([01]*)(.*)")


class Token(NamedTuple):
    kind: str            # keyword | number | punct | string | comment
    start: int
    end: int
    text: str
    value: float | None = None


class _TokenView(Sequence):
    """The tokens of a text whose count is known: built on first element access."""

    def __init__(self, text: str, count: int):
        self._text = text
        self._count = count
        self._tokens: list[Token] | None = None

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        if self._tokens is None:
            self._tokens = _tokenize(self._text)
        return self._tokens[index]


@dataclass
class VrmlTokenStream:
    """A parsed scene.

    ``tokens`` is a ``_TokenView``: its length is the scan's token count and
    its elements are built from ``text`` on first access. Each entry of
    ``color_green_slots`` (an ``array('q')``) is a slot's token index;
    ``slot_spans`` holds the slots' start and end offsets in turn.
    """

    text: str
    tokens: Sequence[Token]
    color_green_slots: array = field(default_factory=lambda: array("q"))
    warnings: list[str] = field(default_factory=list)
    slot_spans: array = field(default_factory=lambda: array("q"))

    def _span(self, index: int) -> tuple[int, int]:
        """Start and end offsets of token ``index``, from the scan for a slot."""
        k = bisect_left(self.color_green_slots, index)
        if k < len(self.color_green_slots) and self.color_green_slots[k] == index:
            return self.slot_spans[2 * k], self.slot_spans[2 * k + 1]
        tok = self.tokens[index]
        return tok.start, tok.end

    def pieces(self, replacements: dict[int, str]):
        """The text with the tokens listed by index substituted, in order: each
        substitute, and the text around them in slices of ``_PIECE_CHARS``."""
        pos = 0
        for idx in [*sorted(replacements), None]:
            start, end = (len(self.text), None) if idx is None else self._span(idx)
            for i in range(pos, start, _PIECE_CHARS):
                yield self.text[i:min(i + _PIECE_CHARS, start)]
            if idx is not None:
                yield replacements[idx]
                pos = end

    def emit(self, replacements: dict[int, str] | None = None) -> str:
        """Rebuild the file text, substituting tokens listed by index."""
        return "".join(self.pieces(replacements)) if replacements else self.text


@dataclass(frozen=True)
class ChannelParams:
    start_slot: int = 0
    digits_per_value: int = 6

    def __post_init__(self):
        if not 1 <= self.digits_per_value <= 9:
            raise ValueError("digits_per_value must be in [1, 9]")
        if self.start_slot < 0:
            raise ValueError("start_slot must be >= 0")


def parse_vrml(text: str) -> VrmlTokenStream:
    """Scan a VRML97 subset once: count its tokens and locate the green slots.

    No token objects are built; ``tokens`` of the result builds them on first
    access. Raises UnbalancedBrackets and NonAsciiDigit as described in
    ``_scan``.
    """
    if not text.startswith(VRML_HEADER):
        raise MissingHeader(f"expected a {VRML_HEADER!r} header line")
    count, slots, spans = _scan(text)
    stream = VrmlTokenStream(text, _TokenView(text, count), slots, slot_spans=spans)
    if not slots:
        stream.warnings.append("no Color node with usable RGB triples found")
    return stream


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            break                           # trailing separators, the end of the text
        start, end = m.span(kind)
        tok = m[kind]
        if kind == "other":
            kind = "punct"                  # unknown byte: kept so nothing is ever dropped
        tokens.append(Token(kind, start, end, tok, float(tok) if kind == "number" else None))
    return tokens


_BRACKET_PAIR = {"}": "{", "]": "["}


def _scan(text: str) -> tuple[int, array, array]:
    """Count the tokens, check bracket nesting and digits, find the green slots.

    Returns the token count, each slot's token index and the slots' start
    and end offsets in turn. A slot is the second number of each triple of
    numbers that are direct children of a ``[`` opened right after the
    keyword ``color``, where that ``[`` sits directly inside a ``{`` opened
    right after the keyword ``Color``, and whose value lies in [0, 1].
    Comments are skipped, so one may sit between a keyword and its bracket.
    Only the second number of a triple is converted with ``float``.

    A non-ASCII digit that touches a number raises NonAsciiDigit: the
    number would stop short of it and could be rewritten as a slot. The
    digit is checked against the number before it when the digit is read
    and against the number after it when that number is read; nothing read
    in between can raise, so the error raised is the first in the text.
    """
    slots, spans = array("q"), array("q")
    stack = []              # per open bracket: its match and the enclosing bracket's state
    node = False            # the innermost bracket opens a Color node
    colours = False         # it is the color list directly inside one
    seen = 0                # numbers of its running triple read so far
    green = None            # the triple's second number: (token index, match)
    word, word_at = "", -2  # the last keyword, and its index carried over comments
    number_at = -2          # index of the last number
    digit = None            # a non-ASCII digit with no number right before it
    digit_at = -2           # the index right after that digit
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        kind = m.lastgroup
        if kind == "number":
            if i == digit_at and m.start() == m.start(kind):
                raise NonAsciiDigit(digit.start("other"), digit["other"])
            number_at = i
            if colours:
                seen += 1
                if seen == 2:
                    green = i, m
                elif seen == 3:
                    seen = 0
                    at, g = green
                    if 0.0 <= float(g[kind]) <= 1.0:
                        slots.append(at)
                        spans.extend(g.span(kind))
        elif kind == "punct":
            ch = m[kind]
            if ch == "{" or ch == "[":
                after = word if word_at == i - 1 else ""
                stack.append((m, node, colours, seen, green))
                colours = ch == "[" and after == "color" and node
                node = ch == "{" and after == "Color"
                seen = 0
            elif not stack or stack[-1][0][kind] != _BRACKET_PAIR[ch]:
                raise UnbalancedBrackets(m.start(kind), f"unexpected {ch!r}")
            else:
                _, node, colours, seen, green = stack.pop()
        elif kind == "keyword":
            word, word_at = m[kind], i
        elif kind == "comment":
            if word_at == i - 1:
                word_at = i
        elif kind == "other":
            if m[kind].isdecimal():
                if number_at == i - 1 and m.start() == m.start(kind):
                    raise NonAsciiDigit(m.start(kind), m[kind])
                digit, digit_at = m, i + 1
        elif kind is None:
            break                           # trailing separators, the end of the text
    if stack:
        m = stack[-1][0]
        raise UnbalancedBrackets(m.start("punct"), f"unclosed {m['punct']!r}")
    return i, slots, spans                  # the end of the text matched last, after i tokens


def _slot_capacity_bits(stream: VrmlTokenStream, params: ChannelParams) -> int:
    return max(0, len(stream.color_green_slots) - params.start_slot) * params.digits_per_value


def channel_capacity_bytes(stream: VrmlTokenStream, params: ChannelParams = ChannelParams()) -> int:
    """Largest payload (bytes) the stream can carry after frame overhead."""
    return max(0, (_slot_capacity_bits(stream, params) - FRAME_OVERHEAD * 8) // 8)


def embed_green_digits(stream: VrmlTokenStream, payload: bytes,
                       params: ChannelParams = ChannelParams()) -> str:
    """Write a framed payload into green fractional digits; returns new text."""
    return stream.emit(green_digit_replacements(stream, payload, params))


def green_digit_replacements(stream: VrmlTokenStream, payload: bytes,
                             params: ChannelParams = ChannelParams()) -> dict[int, str]:
    """The green tokens that carry a framed payload, by token index.

    Each rewritten token becomes ``0.<digits>`` where the digits are the
    literal '0'/'1' payload bits, ``digits_per_value`` per token, the last
    group right-padded with '0'.
    """
    bits = frame_payload(payload)
    k = params.digits_per_value
    needed = -(-len(bits) // k)
    slots = stream.color_green_slots
    available = max(0, len(slots) - params.start_slot)
    if needed > available:
        raise InsufficientSlots(needed, available)
    replacements = {}
    for g in range(needed):
        group = bits[g * k:(g + 1) * k]
        digits = "".join(str(b) for b in group).ljust(k, "0")
        replacements[slots[params.start_slot + g]] = "0." + digits
    return replacements


def extract_green_digits(text: str, params: ChannelParams = ChannelParams()) -> bytes:
    """Read green fractional digits from ``start_slot`` on and unframe them.

    Digit collection stops at the first non-binary fractional digit, since
    an embedded region is contiguous. Each slot is read at its span in the
    text; no token objects are built.
    """
    spans = parse_vrml(text).slot_spans
    digits = []
    for k in range(2 * params.start_slot, len(spans), 2):
        m = _BINARY_FRACTION_RE.match(text, spans[k], spans[k + 1])
        if m is None:
            break
        digits.append(m[1])
        if m[2]:
            break
    return unframe_payload([ch == "1" for ch in "".join(digits)])
