"""FDM G-code parsing, toolpath replay, and metadata auditing.

The audit compares filament usage declared in slicer comments against the
usage implied by replaying the extrusion axis, flagging files whose
metadata and toolpath disagree.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field

from .errors import AmbiguousClaims, MalformedNumber
from .meshcore import parse_decimal

_Z_QUANTUM = 1e-3  # mm; Z levels closer than this merge into one layer


@dataclass(frozen=True)
class GcodeCommand:
    line_number: int
    code: str                               # e.g. "G1", "M82"; "" for comment-only
    args: dict                              # letter -> float
    comment: str | None = None              # text after ';' (not including it)


@dataclass
class GcodeProgram:
    commands: list[GcodeCommand] = field(default_factory=list)

    def __iter__(self):
        return iter(self.commands)

    def __len__(self):
        return len(self.commands)


@dataclass
class ForensicsReport:
    computed_filament_mm: float
    declared_filament_mm: float | None
    travel_mm: float
    z_levels: list[float]
    max_z_mm: float
    layer_count: int
    discrepancy_ratio: float | None
    verdict: str                            # consistent | mismatch | no_claim
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, pretty: bool = False) -> str:
        return json.dumps(self.to_dict(), indent=2 if pretty else None)


_PAREN_COMMENT = re.compile(r"\([^()]*\)")
# the code word of an M117 (display) or M118 (echo) message, whose free text
# follows; the message head is the optional N word and this code, and
# ( ... ) comments may come before the code
_MESSAGE_CODE = r"[Mm]0*11[78]"
_GAP = r"(?:\s|\([^()]*\))*"
_MESSAGE_HEAD = re.compile(rf"{_GAP}(?:N\d*{_GAP})?{_MESSAGE_CODE}(?=[\s()]|$|[^\W\d_])",
                           re.IGNORECASE)
# the plain line: a line number, a code word other than N or a message code
# with an integer number, letter-and-decimal arguments, a checksum and a
# comment, each optional. A decimal has one spelling per parse, and so does
# a line, so a match that fails takes time linear in the line. The arguments
# are matched atomically (a lookahead, then a backreference to what it took):
# what may follow them (spaces, '*', ';' or the end) cannot continue a word,
# so a shorter run never helps.
_ARG_NUMBER = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
_ARG_WORD = re.compile(rf"([A-Za-z])({_ARG_NUMBER})")
_PLAIN_LINE = re.compile(r"(?:[Nn][0-9]+)?"
                         rf"(?:[ \t]*(?!{_MESSAGE_CODE}(?![0-9]))([A-MO-Za-mo-z])([0-9]+)"
                         rf"(?=((?:[ \t]*[A-Za-z]{_ARG_NUMBER})*))\3)?"
                         r"[ \t]*(?:\*[ \t]*[0-9]+[ \t]*)?(?:;(.*))?")


def parse_gcode(text: str) -> GcodeProgram:
    """Parse one command per nonempty line.

    Comment-only lines are kept as commands with an empty code; unknown
    codes are preserved verbatim so later rewrites lose nothing. As in
    RS274/NGC and RepRap firmware, a leading ``N`` line number, a trailing
    ``*`` checksum and ``( ... )`` comments are dropped. The text after an
    ``M117`` or ``M118`` code word is a message, not arguments; parentheses
    in it are text, but a trailing ``*`` still starts a checksum. Numbers
    are ASCII decimals.

    A plain line (an integer code word and ASCII letter-and-decimal
    arguments each given once, with an optional line number, checksum and
    ``;`` comment) is read by one regex match; every other line goes through
    ``_parse_line``.
    """
    commands = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        # a ( comment is never plain; the test is cheaper than a failed match
        plain = "(" not in line and _PLAIN_LINE.fullmatch(line)
        if plain:
            letter, number, argtext, comment = plain.groups()
            if letter is None:
                commands.append(GcodeCommand(lineno, "", {}, comment))
                continue
            code = letter.upper() + (number.lstrip("0") or "0")
            words = _ARG_WORD.findall(argtext)
            args = {a.upper(): float(v) for a, v in words}
            # a repeated letter or a number too large for a float (or a sum
            # that overflows) sends the line to _parse_line
            if len(args) == len(words) and math.isfinite(sum(args.values(), float(number))):
                commands.append(GcodeCommand(lineno, code, args, comment))
                continue
        commands.append(_parse_line(line, lineno))
    return GcodeProgram(commands)


def _parse_line(line: str, lineno: int) -> GcodeCommand:
    """One stripped, nonempty line, word by word; errors name ``lineno``."""
    comment = None
    if ";" in line:
        line, comment = line.split(";", 1)
    message = _MESSAGE_HEAD.match(line)
    if message:
        # message text may hold parentheses; only a *checksum is cut
        _cut_checksum(line[message.end():], lineno)
        line = message[0]
    if "(" in line or ")" in line:
        line = _PAREN_COMMENT.sub(" ", line)
        if "(" in line or ")" in line:
            raise MalformedNumber(lineno, "unbalanced '(' comment")
    if "*" in line and not message:
        line = _cut_checksum(line, lineno)
    words = _split_words(line, lineno)
    if words and words[0][0] == "N":
        if not _is_ascii_digits(words[0][1]):
            raise MalformedNumber(lineno, f"bad line number {words[0][1]!r}")
        words = words[1:]
    if not words:
        return GcodeCommand(lineno, "", {}, comment)
    letter, number = words[0]
    code = f"{letter}{_format_code_number(number, lineno, letter)}"
    args = {}
    for letter, number in words[1:]:
        if letter in args:
            raise MalformedNumber(lineno, f"duplicate argument letter {letter}")
        args[letter] = _parse_float(number, lineno, letter)
    return GcodeCommand(lineno, code, args, comment)


def _cut_checksum(text: str, lineno: int) -> str:
    """``text`` without a trailing ``*`` checksum, which must be ASCII digits."""
    if "*" in text:
        text, _, checksum = text.rpartition("*")
        if not _is_ascii_digits(checksum.strip()):
            raise MalformedNumber(lineno, f"bad checksum {checksum.strip()!r}")
    return text


def _is_ascii_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _split_words(body: str, lineno: int) -> list[tuple[str, str]]:
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


def _parse_float(number: str, lineno: int, letter: str) -> float:
    try:
        value = parse_decimal(number)
    except ValueError:
        raise MalformedNumber(lineno, f"bad number for {letter}: {number!r}") from None
    if not math.isfinite(value):
        raise MalformedNumber(lineno, f"non-finite value for {letter}")
    return value


def _format_code_number(number: str, lineno: int, letter: str) -> str:
    """Validate a command number and return its canonical spelling.

    Leading zeros of the integer part are dropped (``01`` -> ``1``,
    ``00`` -> ``0``, ``082`` -> ``82``); subcodes keep their fraction
    (``92.1``).
    """
    _parse_float(number, lineno, letter)
    whole, dot, frac = number.partition(".")
    if len(whole) > 1 and whole.isdigit():
        number = (whole.lstrip("0") or "0") + dot + frac
    return number


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


def _replay(program: GcodeProgram) -> _Toolpath:
    state = _Toolpath()
    for cmd in program:
        if cmd.code:
            state.feed(cmd)
    return state


def filament_length(program: GcodeProgram) -> float:
    """Total extruded filament in mm. Retraction moves do not subtract."""
    return _replay(program).extruded


def z_profile(program: GcodeProgram) -> tuple[list[float], int, float]:
    """Distinct Z levels visited while extruding, quantized to 1 um.

    Returns (sorted levels, layer count, max level); all empty/zero for
    travel-only programs.
    """
    return _z_levels(_replay(program))


def _z_levels(state: _Toolpath) -> tuple[list[float], int, float]:
    """z_profile's result from an already replayed toolpath."""
    keys = sorted(set(state.extruding_z))
    levels = [round(k * _Z_QUANTUM, 6) for k in keys]
    return levels, len(levels), (levels[-1] if levels else 0.0)


# Claim patterns scanned inside comments, case-insensitive. Suffix m means
# meters, in means inches; the bracket and colon forms are millimetres.
_NUM = r"([0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)"
_CLAIM_PATTERNS = [
    (re.compile(r"filament\s+used\s*=\s*" + _NUM + r"\s*mm\b", re.I), 1.0),
    (re.compile(r"filament\s+used\s*\[mm\]\s*=\s*" + _NUM, re.I), 1.0),
    (re.compile(r"filament\s+used\s*=\s*" + _NUM + r"\s*m\b", re.I), 1000.0),
    (re.compile(r"filament\s+used\s*=\s*" + _NUM + r"\s*in\b", re.I), 25.4),
    (re.compile(r"filament_used\s*:\s*" + _NUM, re.I), 1.0),
]


def metadata_claims(program: GcodeProgram) -> float | None:
    """Scan comments for filament-usage claims; first match wins.

    Raises AmbiguousClaims when further matches disagree with the first
    by more than 0.1%.
    """
    claims = []
    for cmd in program:
        if cmd.comment is None:
            continue
        for pattern, to_mm in _CLAIM_PATTERNS:
            match = pattern.search(cmd.comment)
            if match:
                claims.append(float(match.group(1)) * to_mm)
                break
    if not claims:
        return None
    first = claims[0]
    for other in claims[1:]:
        if abs(other - first) > 1e-3 * max(abs(first), 1e-12):
            raise AmbiguousClaims(claims)
    return first


def audit(program: GcodeProgram, mismatch_threshold: float = 0.02) -> ForensicsReport:
    """Cross-check declared filament use against the replayed toolpath."""
    state = _replay(program)
    levels, layer_count, max_z = _z_levels(state)
    warnings = []
    try:
        declared = metadata_claims(program)
    except AmbiguousClaims as exc:
        declared = None
        warnings.append(str(exc))
    ratio = None
    verdict = "no_claim"
    if declared is not None:
        ratio = state.extruded / declared if declared else math.inf
        verdict = "mismatch" if abs(1.0 - ratio) > mismatch_threshold else "consistent"
    return ForensicsReport(
        computed_filament_mm=state.extruded,
        declared_filament_mm=declared,
        travel_mm=state.travel,
        z_levels=levels,
        max_z_mm=max_z,
        layer_count=layer_count,
        discrepancy_ratio=ratio,
        verdict=verdict,
        warnings=warnings,
    )
