"""Span-preserving VRML97 tokenizer and the green-intensity digit channel.

Payload bits become the literal fractional digits of the second (green)
component of each RGB triple inside ``Color { color [ ... ] }`` nodes.
Re-emission splices rewritten tokens into the original text, so every
byte outside the rewritten spans is preserved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InsufficientSlots, MissingHeader, UnbalancedBrackets
from .stego import FRAME_OVERHEAD, frame_payload, unframe_payload

VRML_HEADER = "#VRML V2.0"

# separators (unnamed) first, any other character last; no DOTALL, so a
# string escape never spans a newline; [0-9], as \d and float take any Unicode digit
_TOKEN_RE = re.compile(
    r"""
    [\s,]+
  | (?P<comment>\#[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>[-+]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][-+]?[0-9]+)?)
  | (?P<punct>[{}\[\]])
  | (?P<keyword>[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<other>[\s\S])
    """,
    re.VERBOSE,
)
# a number's fraction: the binary digits that lead it, then the rest
_BINARY_FRACTION_RE = re.compile(r"[^.]*\.([01]*)(.*)")


class Token(NamedTuple):
    kind: str            # keyword | number | punct | string | comment
    start: int
    end: int
    text: str
    value: float | None = None


@dataclass
class VrmlTokenStream:
    text: str
    tokens: list[Token]
    color_green_slots: list[int] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def emit(self, replacements: dict[int, str] | None = None) -> str:
        """Rebuild the file text, substituting tokens listed by index."""
        if not replacements:
            return self.text
        parts = []
        pos = 0
        for idx in sorted(replacements):
            tok = self.tokens[idx]
            parts.append(self.text[pos:tok.start])
            parts.append(replacements[idx])
            pos = tok.end
        parts.append(self.text[pos:])
        return "".join(parts)


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
    """Tokenize a VRML97 subset and locate the rewritable green slots."""
    if not text.startswith(VRML_HEADER):
        raise MissingHeader(f"expected a {VRML_HEADER!r} header line")
    tokens = _tokenize(text)
    stream = VrmlTokenStream(text=text, tokens=tokens, color_green_slots=_walk_brackets(tokens))
    if not stream.color_green_slots:
        stream.warnings.append("no Color node with usable RGB triples found")
    return stream


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "other":
            kind = "punct"                  # unknown byte: kept so nothing is ever dropped
        tok = m.group()
        tokens.append(Token(kind, m.start(), m.end(), tok,
                            float(tok) if kind == "number" else None))
    return tokens


_BRACKET_PAIR = {"}": "{", "]": "["}


def _walk_brackets(tokens: list[Token]) -> list[int]:
    """Check bracket nesting and return the green slots, in one pass.

    A slot is the second number of each triple of numbers that are direct
    children of a ``[`` opened right after the keyword ``color``, where that
    ``[`` sits directly inside a ``{`` opened right after the keyword
    ``Color``, and whose value lies in [0, 1]. Comments are skipped, so one
    may sit between a keyword and its bracket.
    """
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
        if tok.kind != "comment":
            prev = tok.text
    if stack:
        raise UnbalancedBrackets(stack[-1][0].start, f"unclosed {stack[-1][0].text!r}")
    return slots


def _slot_capacity_bits(stream: VrmlTokenStream, params: ChannelParams) -> int:
    return max(0, len(stream.color_green_slots) - params.start_slot) * params.digits_per_value


def channel_capacity_bytes(stream: VrmlTokenStream, params: ChannelParams = ChannelParams()) -> int:
    """Largest payload (bytes) the stream can carry after frame overhead."""
    return max(0, (_slot_capacity_bits(stream, params) - FRAME_OVERHEAD * 8) // 8)


def embed_green_digits(stream: VrmlTokenStream, payload: bytes,
                       params: ChannelParams = ChannelParams()) -> str:
    """Write a framed payload into green fractional digits; returns new text.

    Each rewritten token becomes ``0.<digits>`` where the digits are the
    literal '0'/'1' payload bits, ``digits_per_value`` per token, the last
    group right-padded with '0'.
    """
    bits = frame_payload(payload)
    k = params.digits_per_value
    needed = -(-len(bits) // k)
    slots = stream.color_green_slots[params.start_slot:]
    if needed > len(slots):
        raise InsufficientSlots(needed, len(slots))
    replacements = {}
    for g in range(needed):
        group = bits[g * k:(g + 1) * k]
        digits = "".join(str(b) for b in group).ljust(k, "0")
        replacements[slots[g]] = "0." + digits
    return stream.emit(replacements)


def extract_green_digits(text: str, params: ChannelParams = ChannelParams()) -> bytes:
    """Read green fractional digits from ``start_slot`` on and unframe them.

    Digit collection stops at the first non-binary fractional digit, since
    an embedded region is contiguous.
    """
    stream = parse_vrml(text)
    digits = []
    for idx in stream.color_green_slots[params.start_slot:]:
        m = _BINARY_FRACTION_RE.match(stream.tokens[idx].text)
        if m is None:
            break
        digits.append(m[1])
        if m[2]:
            break
    return unframe_payload([ch == "1" for ch in "".join(digits)])
