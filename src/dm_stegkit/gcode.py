"""FDM G-code parsing, toolpath replay, and metadata auditing.

The audit compares filament usage declared in slicer comments against the
usage implied by replaying the extrusion axis, flagging files whose
metadata and toolpath disagree.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .errors import AmbiguousClaims, MalformedNumber
from .meshcore import _is_ascii_digits, _line_chunks, parse_decimal

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


_PAREN_COMMENT = re.compile(r"\([^()]*\)")
# the code word of an M117 (display) or M118 (echo) message, whose free text
# follows; the message head is the optional N word and this code, and
# ( ... ) comments may come before the code
_MESSAGE_CODE = r"[Mm]0*11[78]"
_GAP = r"(?:\s|\([^()]*\))*"
_MESSAGE_HEAD = re.compile(rf"{_GAP}(?:N\d*{_GAP})?{_MESSAGE_CODE}(?=[\s()]|$|[^\W\d_])",
                           re.IGNORECASE)


def parse_gcode(text: str) -> GcodeProgram:
    """Parse one command per nonempty line.

    Comment-only lines are kept as commands with an empty code; unknown
    codes are preserved verbatim so later rewrites lose nothing. As in
    RS274/NGC and RepRap firmware, a leading ``N`` line number, a trailing
    ``*`` checksum and ``( ... )`` comments are dropped. The text after an
    ``M117`` or ``M118`` code word is a message, not arguments; parentheses
    in it are text, but a trailing ``*`` still starts a checksum. Numbers
    are ASCII decimals. The commands are built from the columns of
    ``_decode``, so they are those ``audit`` replays from the same text.
    """
    return GcodeProgram([GcodeCommand(*item) for item in _commands(text)])


def _commands(text: str | Iterable[str]):
    """Yield ``(line_number, code, args, comment)`` for each nonempty line.

    ``text`` is one string or the pieces of one, in order, such as the
    blocks of a file decoded one at a time, read in the chunks of
    ``_line_chunks``: no cut falls inside a line or a ``"\r\n"``, so the
    lines and their numbers are those of the whole text's ``splitlines()``,
    while only one chunk's lines are held. Each tuple is built from the
    chunk's ``_Columns``; a malformed line raises once every line before it
    has been yielded.
    """
    for cols in _chunk_columns(text):
        words = np.searchsorted(cols.word_command, np.arange(len(cols.line) + 1)).tolist()
        letters = cols.word_letter.tobytes().decode("ascii")
        values = cols.word_value.tolist()
        for i, (lineno, letter, number, start, end) in enumerate(zip(
                cols.line.tolist(), cols.letter.tolist(), cols.number.tolist(),
                cols.comment_start.tolist(), cols.comment_end.tolist())):
            if i in cols.parsed:
                cmd = cols.parsed[i]
                yield lineno, cmd.code, cmd.args, cmd.comment
                continue
            code = f"{chr(letter)}{number}" if letter else ""
            args = dict(zip(letters[words[i]:words[i + 1]], values[words[i]:words[i + 1]]))
            yield lineno, code, args, cols.text[start:end].rstrip() if start >= 0 else None
        if cols.error is not None:
            raise cols.error


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


# --- the columnar reader -------------------------------------------------------
#
# A plain line, read without _parse_line, is ASCII; before its first ';' it
# holds only words of a letter and a number ([+-]?(digits[.digits]|.digits),
# at most 15 digits), with spaces and tabs around them; its first word, the
# code, is an unsigned integer and neither N nor M117/M118; no argument
# letter repeats. Every other nonempty line goes to _parse_line.

_SPACE, _BREAK, _LETTER, _SIGN, _DOT, _DIGIT, _SEMI, _OTHER, _WIDE = range(9)
_MAX_DIGITS = 15        # m / 10**k is float(text) for m and 10**k below 2**53 (Clinger)
_POW10 = 10.0 ** np.arange(_MAX_DIGITS + 1)
_DECODE_CHARS = 16384     # characters of a chunk of _line_chunks decoded at once


def _class_table() -> bytes:
    """The class of each byte, for ``bytes.translate``; a code point from 128
    on is read as 255, and U+2028 and U+2029 as U+0085."""
    table = bytearray([_OTHER] * 128 + [_WIDE] * 128)
    for chars, cls in ((b" \t", _SPACE), (b"\n\r\v\f\x1c\x1d\x1e\x85", _BREAK),
                       (b"+-", _SIGN), (b".", _DOT), (b";", _SEMI)):
        for c in chars:
            table[c] = cls
    for first, last, cls in (("A", "Z", _LETTER), ("a", "z", _LETTER), ("0", "9", _DIGIT)):
        table[ord(first):ord(last) + 1] = bytes([cls]) * (ord(last) - ord(first) + 1)
    return bytes(table)


_CLASSES = _class_table()

# the codes the replay acts on, as (letter byte, number)
_REPLAYED = {f"{letter}{number}": (ord(letter), number)
             for letter, numbers in (("G", (0, 1, 2, 3, 20, 21, 90, 91, 92)), ("M", (82, 83)))
             for number in numbers}


class _Columns(NamedTuple):
    """The commands of a piece of G-code (its nonempty lines, in order) as columns."""
    line: np.ndarray                        # int64 line number
    letter: np.ndarray                      # uint8 code letter, upper case; 0 for none
    number: np.ndarray                      # int64 code number; -1 for none or another form
    word_command: np.ndarray                # int64 command of each argument (ascending in text)
    word_letter: np.ndarray                 # uint8 argument letter, upper case
    word_value: np.ndarray                  # float64 argument value
    comment_start: np.ndarray               # int64 start of each comment in text; -1 for none
    comment_end: np.ndarray                 # int64 end of each comment (its line) in text
    text: str                               # the piece
    parsed: dict                            # command index -> GcodeCommand of _parse_line
    claimable: list[str]                    # the comments that may hold a claim, in order
    error: MalformedNumber | None           # raised by the line after the last command


def _chunk_columns(text: str | Iterable[str]):
    """The ``_Columns`` of ``text`` in order, one for each nonempty chunk of
    ``_line_chunks`` at ``_DECODE_CHARS`` characters, so only the arrays of
    one chunk are held."""
    lineno = 0
    for chunk in _line_chunks(text, _DECODE_CHARS):
        if chunk:
            cols, lines = _decode(chunk, lineno)
            lineno += lines
            yield cols
            del cols                        # before the next chunk is decoded


def _decode(text: str, lineno: int) -> tuple[_Columns, int]:
    """The commands of ``text`` (nonempty, not cut inside a ``"\r\n"``),
    whose first line follows line ``lineno``, and its line count. A ``"\n"`` after
    a ``"\r"`` is read as a space, so the lines and their numbers are those
    of ``str.splitlines``. Plain lines are read with array operations, every
    other nonempty line by ``_parse_line``; at the first malformed line the
    columns stop and hold its error."""
    ascii_text = text.isascii()
    if ascii_text:
        raw = text.encode("ascii")
    else:
        wide = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
        codes = np.minimum(wide, 255).astype(np.uint8)
        codes[(wide == 0x2028) | (wide == 0x2029)] = 0x85
        raw = codes.tobytes()
    # character p of the text is at p + 1, after a break; so is a last break
    raw = b"\n" + raw if raw[-1] in b"\n\r\v\f\x1c\x1d\x1e\x85" else b"\n" + raw + b"\n"
    codes = np.frombuffer(raw, np.uint8)
    cls = np.frombuffer(bytearray(raw).translate(_CLASSES), np.uint8)
    if b"\r\n" in raw:                       # one line end: the "\n" is a space
        cls[1:][(codes[1:] == 10) & (codes[:-1] == 13)] = _SPACE
    breaks = (cls == _BREAK).nonzero()[0]
    starts, ends = breaks[:-1] + 1, breaks[1:]                 # of each line's characters
    lines = len(ends)
    bad = np.zeros(lines, bool)
    if not ascii_text:
        bad[ends.searchsorted((cls == _WIDE).nonzero()[0])] = True

    # a comment, from a line's first ';' to its break, is blanked to spaces
    semis = (cls == _SEMI).nonzero()[0]
    semi_line = ends.searchsorted(semis)
    first = np.empty(len(semis), bool)
    first[:1] = True
    np.not_equal(semi_line[1:], semi_line[:-1], out=first[1:])
    semis, semi_line = semis[first], semi_line[first]
    comment = np.full(lines, -1, np.int64)                     # the text after the ';'
    comment[semi_line] = semis
    edges = np.empty(2 * len(semis) + 2, np.int64)
    edges[0], edges[-1] = 0, len(cls)
    edges[1:-1:2], edges[2:-1:2] = semis, ends[semi_line]
    inside = np.zeros(len(edges) - 1, bool)
    inside[1::2] = True
    cls[inside.repeat(edges[1:] - edges[:-1])] = _SPACE

    # a line is not plain where a character stands outside a word: a number
    # character follows a letter (a sign only the letter), and a letter
    # comes before a number character
    is_letter = cls == _LETTER
    number = (cls - _SIGN) <= _DIGIT - _SIGN
    wrong = cls > _DIGIT
    wrong[1:] |= number[1:] & ((cls[:-1] - _LETTER) > _DIGIT - _LETTER)
    wrong[1:] |= (cls[1:] == _SIGN) & ~is_letter[:-1]
    wrong[:-1] |= is_letter[:-1] & ~number[1:]
    bad[ends.searchsorted(wrong.nonzero()[0])] = True
    for i in bad.nonzero()[0].tolist():
        cls[starts[i]:ends[i]] = _SPACE
    del semis, first, edges, inside, is_letter, number, wrong   # a chunk's arrays are its peak

    # the words of the other lines: a letter, then a number up to its last character
    letters = (cls == _LETTER).nonzero()[0]
    number = (cls - _SIGN) <= _DIGIT - _SIGN
    lasts = (number[:-1] > number[1:]).nonzero()[0]
    del number
    word_line = ends.searchsorted(letters)
    signed = cls[letters + 1] == _SIGN
    dots = (cls == _DOT).nonzero()[0]
    owner = lasts.searchsorted(dots)
    points = np.bincount(owner, minlength=len(letters))
    frac = np.zeros(len(letters), np.int64)                    # digits after the point
    frac[owner] = lasts[owner] - dots
    del dots, owner
    digits = lasts - letters
    digits -= signed
    digits -= points
    del lasts
    mantissa, width = _mantissas(codes[cls == _DIGIT] - ord("0"), digits)
    shift = np.maximum(width - digits, 0)
    code = mantissa / _POW10[shift]
    value = mantissa / _POW10[np.minimum(shift + frac, _MAX_DIGITS)]
    np.negative(value, out=value, where=codes[letters + 1] == ord("-"))
    letter = codes[letters] & 0xDF                             # upper case
    head = np.empty(len(letters), bool)                        # the code word of its line
    head[:1] = True
    np.not_equal(word_line[1:], word_line[:-1], out=head[1:])
    faulty = (digits < 1) | (digits > _MAX_DIGITS) | (points > 1)
    faulty |= head & ((letter == ord("N")) | signed | (points > 0)
                      | (letter == ord("M")) & ((code == 117) | (code == 118)))
    bad[word_line[faulty]] = True
    heads = head.nonzero()[0]
    if len(heads):                          # an argument letter seen twice in a line
        bits = np.left_shift(1, letter - ord("A"), dtype=np.int32)
        bits[heads] = 0
        args = np.empty(len(heads), np.int64)
        np.subtract(heads[1:], heads[:-1], out=args[:-1])
        args[-1] = len(letters) - heads[-1]
        repeated = np.bitwise_count(np.bitwise_or.reduceat(bits, heads)) < args - 1
        bad[word_line[heads[repeated]]] = True
    del signed, points, frac, digits, mantissa, shift, faulty

    # the other lines, by _parse_line, up to the first that is malformed
    parsed, error, stop = {}, None, lines
    for i in bad.nonzero()[0].tolist():
        line = text[starts[i] - 1:ends[i] - 1].strip()
        if line:
            try:
                parsed[i] = _parse_line(line, lineno + i + 1)
            except MalformedNumber as exc:
                error, stop = exc, i
                break
    command = comment >= 0
    command[word_line] = True
    command &= ~bad
    command[list(parsed)] = True
    command[stop:] = False
    command_lines = command.nonzero()[0]
    code_letter = np.zeros(lines, np.uint8)
    code_number = np.full(lines, -1, np.int64)
    for i, cmd in parsed.items():
        code_letter[i], code_number[i] = _REPLAYED.get(cmd.code, (0, -1))
        comment[i] = -1
    keep = ~bad[word_line] & (word_line < stop)
    word_line, letter, value, head, code = (
        word_line[keep], letter[keep], value[keep], head[keep], code[keep])
    code_letter[word_line[head]] = letter[head]
    code_number[word_line[head]] = code[head]
    arg = ~head

    # "filament", case-folded, is in every claim, and all of a plain line
    # that can hold it is its comment
    folded = raw.lower()
    hits, at = [], folded.find(b"filament")
    while at >= 0:
        hits.append(at)
        at = folded.find(b"filament", at + 8)
    hit_lines = ends.searchsorted(hits)
    claimable = {i: text[comment[i]:ends[i] - 1].rstrip()
                 for i in hit_lines[command[hit_lines] & ~bad[hit_lines]].tolist()}
    claimable.update((i, cmd.comment) for i, cmd in parsed.items() if cmd.comment is not None)
    return _Columns(
        line=command_lines + (lineno + 1), letter=code_letter[command_lines],
        number=code_number[command_lines], word_command=command_lines.searchsorted(word_line[arg]),
        word_letter=letter[arg], word_value=value[arg],
        comment_start=comment[command_lines], comment_end=ends[command_lines] - 1, text=text,
        parsed={int(command_lines.searchsorted(i)): cmd for i, cmd in parsed.items()},
        claimable=[claimable[i] for i in sorted(claimable)],
        error=error), lines


def _mantissas(digits: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, int]:
    """``digits``, their values in order, split into numbers of ``counts``
    digits each, read as integers times ``10**(width - count)``, exact in
    float64, and that width: the most digits of a number, at most
    ``_MAX_DIGITS``. A longer number's first ``width`` digits are read."""
    width = min(max(int(counts.max(initial=1)), 1), _MAX_DIGITS)
    padded = np.zeros(len(digits) + width, np.uint8)
    padded[:len(digits)] = digits
    windows = np.ndarray((len(digits) + 1, width), np.uint8, padded, strides=(1, 1))
    firsts = counts.cumsum()
    firsts -= counts
    window = windows[firsts]
    window *= np.arange(width, dtype=np.uint8) < np.minimum(counts, width).astype(np.uint8)[:, None]
    mantissa = np.zeros(len(counts))
    for column in window.T:
        mantissa *= 10
        mantissa += column
    return mantissa, width


def _program_columns(program: GcodeProgram) -> _Columns:
    """The commands of a parsed program as one ``_Columns``, with their X, Y,
    Z and E arguments, the only ones the replay reads. A NaN among them,
    which ``parse_gcode`` never gives, would read as no value, so it raises."""
    commands = program.commands
    keys = [_REPLAYED.get(cmd.code, (0, -1)) for cmd in commands]
    axes, named = [], []
    for letter in "XYZE":
        given = [cmd.args.get(letter) for cmd in commands]
        axes.append(np.array(given, np.float64))                # None is NaN
        named.append(np.flatnonzero(~np.isnan(axes[-1])))
        if len(given) - given.count(None) != len(named[-1]):
            line = next(cmd.line_number for cmd, value in zip(commands, given) if value != value)
            raise MalformedNumber(line, f"non-finite value for {letter}")
    return _Columns(
        line=np.array([cmd.line_number for cmd in commands], np.int64),
        letter=np.array([letter for letter, _ in keys], np.uint8),
        number=np.array([number for _, number in keys], np.int64),
        word_command=np.concatenate(named),
        word_letter=np.repeat(np.frombuffer(b"XYZE", np.uint8), [len(k) for k in named]),
        word_value=np.concatenate([values[k] for values, k in zip(axes, named)]),
        comment_start=np.full(len(commands), -1), comment_end=np.full(len(commands), -1),
        text="", parsed={}, claimable=[comment for cmd in commands if (comment := cmd.comment)
                                       is not None and _may_claim(comment)], error=None)


def _may_claim(comment: str) -> bool:
    """False for an ASCII comment without "filament", which no claim pattern
    matches; a non-ASCII one may match through case folding."""
    return not comment.isascii() or "filament" in comment.lower()


class _Replay(NamedTuple):
    """A replayed toolpath's measures and its comments' claims."""
    extruded: float                         # mm of filament, retractions not subtracted
    travel: float                           # mm, chord length for arcs
    z_levels: list[float]                   # sorted Z levels of extruding moves
    claims: list[float]                     # filament claims in mm, in file order


class _Toolpath:
    """The replay state, carried from one ``_Columns`` to the next."""

    def __init__(self):
        self.position = [0.0, 0.0, 0.0, 0.0]    # X, Y, Z, E in mm
        self.xyz_absolute = self.e_absolute = True
        self.scale = 1.0                        # 25.4 when units are inches
        self.extruded = self.travel = 0.0
        self.z_keys = set()                     # quantized z of extruding moves, as floats
        self.claims = []

    @np.errstate(over="ignore", invalid="ignore")       # _overflow names the line
    def feed(self, cols: _Columns):
        """Scan the comments that may hold a claim, then replay the commands.

        The scale and the XYZ and E modes each command runs in are carried
        forward from the last command that set them. A move names a
        position in absolute mode and a step in relative mode, and a ``G92``
        names a position; between two named positions an axis adds its
        steps in file order, so every sum has the bits of a replay command by
        command."""
        for comment in cols.claimable:
            for pattern, to_mm in _CLAIM_PATTERNS:
                match = pattern.search(comment)
                if match:
                    self.claims.append(float(match.group(1)) * to_mm)
                    break
        count = len(cols.line)
        if not count:
            return
        raw = np.full((4, count), np.nan)                       # X, Y, Z and E as written
        for row, letter in enumerate(b"XYZE"):
            named = cols.word_letter == letter
            raw[row, cols.word_command[named]] = cols.word_value[named]
        for i, cmd in cols.parsed.items():
            for row, letter in enumerate("XYZE"):
                if letter in cmd.args:
                    raw[row, i] = cmd.args[letter]
        g, m, number = cols.letter == ord("G"), cols.letter == ord("M"), cols.number
        move = g & (number >= 0) & (number <= 3)
        scale = _carried(g & (number == 20), g & (number == 21), 25.4, 1.0, self.scale)
        xyz_absolute = _carried(g & (number == 90), g & (number == 91), 1.0, 0.0,
                                self.xyz_absolute) == 1
        e_absolute = _carried(m & (number == 82), m & (number == 83), 1.0, 0.0,
                              self.e_absolute) == 1
        named = ~np.isnan(raw)
        absolute = np.empty((4, count), bool)
        absolute[:3], absolute[3] = xyz_absolute, e_absolute
        value = raw * scale
        setting = named & ((g & (number == 92)) | move & absolute)
        adding = named & move & ~absolute

        # the position after each command; column 0 holds the one before them
        track = np.empty((4, count + 1))
        track[:, 0] = self.position
        track[:, 1:] = np.where(setting, value, np.nan)
        last = np.where(np.isnan(track), 0, np.arange(count + 1))   # the last position set
        np.maximum.accumulate(last, axis=1, out=last)
        track = track[np.arange(4)[:, None], last]
        for row in adding.any(axis=1).nonzero()[0].tolist():
            steps = adding[row].nonzero()[0] + 1
            sets = setting[row].nonzero()[0] + 1
            starts = last[row, steps]                           # where each run starts
            for start in starts[np.append(True, starts[1:] != starts[:-1])].tolist():
                following = sets.searchsorted(start, "right")
                end = int(sets[following]) if following < len(sets) else count + 1
                run = track[row, start:end]
                run[1:] = np.where(adding[row, start:end - 1], value[row, start:end - 1], 0.0)
                np.add.accumulate(run, out=run)

        moves = move.nonzero()[0]
        before, after = track[:, moves], track[:, moves + 1]
        lengths = np.empty(len(moves) + 1)
        lengths[0] = self.travel
        lengths[1:] = np.fromiter(map(math.hypot, *(before[:3] - after[:3]).tolist()),
                                  float, len(moves))
        travel = np.add.accumulate(lengths)
        fed = np.where(named[3, moves], after[3] - before[3], 0.0)
        np.copyto(fed, value[3, moves], where=named[3, moves] & ~e_absolute[moves])
        extruding = fed > 0
        filament = np.concatenate(([self.extruded], fed[extruding]))
        np.add.accumulate(filament, out=filament)
        z_keys = np.rint(after[2, extruding] / _Z_QUANTUM)
        if not (math.isfinite(travel[-1]) and math.isfinite(filament[-1])
                and np.isfinite(track).all() and np.isfinite(z_keys).all()):
            _overflow(track, moves, travel, moves[extruding], filament, z_keys, cols.line)
        self.position = track[:, -1].tolist()
        self.scale = float(scale[-1])
        self.xyz_absolute, self.e_absolute = bool(xyz_absolute[-1]), bool(e_absolute[-1])
        self.travel, self.extruded = float(travel[-1]), float(filament[-1])
        new = np.empty(len(z_keys), bool)       # a key unlike the one before
        new[:1] = True
        np.not_equal(z_keys[1:], z_keys[:-1], out=new[1:])
        self.z_keys.update(z_keys[new].tolist())

    def result(self) -> _Replay:
        keys = sorted({int(k) for k in self.z_keys})
        return _Replay(self.extruded, self.travel,
                       [round(k * _Z_QUANTUM, 6) for k in keys], self.claims)


def _carried(on: np.ndarray, off: np.ndarray, on_value: float, off_value: float,
             first: float) -> np.ndarray:
    """For each command, the value in force once it has run: ``on_value``
    after the last command in ``on``, ``off_value`` after the last in
    ``off``, ``first`` before both."""
    changes = (on | off).nonzero()[0]
    if not len(changes):
        return np.full(len(on), first)
    last = changes.searchsorted(np.arange(len(on)), "right") - 1
    return np.where(last >= 0, np.where(on[changes], on_value, off_value)[last], first)


def _overflow(track, moves, travel, extruding, filament, z_keys, lines):
    """Raise for the first command after which a position, E, the travel,
    the filament or the Z level in microns is not finite."""
    count = track.shape[1] - 1
    bad = {"position": ~np.isfinite(track[:3, 1:]).all(axis=0),
           "E": ~np.isfinite(track[3, 1:])}
    for name, at, values in (("travel", moves, travel[1:]), ("filament", extruding, filament[1:]),
                             ("Z level", extruding, z_keys)):
        bad[name] = np.zeros(count, bool)
        bad[name][at] = ~np.isfinite(values)
    first = min(int(np.argmax(flags)) for flags in bad.values() if flags.any())
    name = next(name for name, flags in bad.items() if flags[first])
    raise MalformedNumber(int(lines[first]), f"{name} overflows")


def _replay(source: str | Iterable[str] | GcodeProgram) -> _Replay:
    """Replay G-code text, its pieces or a parsed program in one pass.

    The replay starts from the origin in absolute XYZ and E and millimetres;
    codes other than G0-G3, G20/G21, G90/G91, M82/M83 and G92 change
    nothing. Each comment gives at most one claim, from the first of
    ``_CLAIM_PATTERNS`` that it matches. Text is decoded a chunk at a time
    into ``_Columns`` and a program is turned into one; ``_Toolpath.feed``
    replays each with array operations whose sums run in file order, so no
    command is kept and every figure has the bits of a replay command by
    command. A move or ``G92`` after which a position, E, the travel, the
    filament or the Z level in microns is not finite raises
    ``MalformedNumber``, as does a malformed line, once every line before it
    has been replayed.
    """
    toolpath = _Toolpath()
    if isinstance(source, GcodeProgram):
        chunks = [_program_columns(source)]
    else:
        chunks = _chunk_columns(source)
    for cols in chunks:
        toolpath.feed(cols)
        if cols.error is not None:
            raise cols.error
        del cols                            # before the next is decoded
    return toolpath.result()


def filament_length(program: GcodeProgram) -> float:
    """Total extruded filament in mm. Retraction moves do not subtract."""
    return _replay(program).extruded


def z_profile(program: GcodeProgram) -> tuple[list[float], int, float]:
    """Distinct Z levels visited while extruding, quantized to 1 um.

    Returns (sorted levels, layer count, max level); all empty/zero for
    travel-only programs.
    """
    levels = _replay(program).z_levels
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


def _declared(claims: list[float]) -> float | None:
    """The first claim, or None; AmbiguousClaims when a later claim
    disagrees with the first by more than 0.1%."""
    if not claims:
        return None
    first = claims[0]
    for other in claims[1:]:
        if abs(other - first) > 1e-3 * max(abs(first), 1e-12):
            raise AmbiguousClaims(claims)
    return first


def metadata_claims(program: GcodeProgram) -> float | None:
    """Scan comments for filament-usage claims; first match wins.

    Raises AmbiguousClaims when further matches disagree with the first
    by more than 0.1%.
    """
    return _declared(_replay(program).claims)


def audit(source: str | Iterable[str] | GcodeProgram,
          mismatch_threshold: float = 0.02) -> ForensicsReport:
    """Cross-check declared filament use against the replayed toolpath.

    ``source`` is G-code text or its pieces in order, read in one streaming
    pass with no command kept, or a parsed program. The threshold is
    checked after the pass, so a malformed file reports its
    ``MalformedNumber`` whatever the threshold.
    """
    replay = _replay(source)
    if not 0 <= mismatch_threshold < math.inf:     # NaN fails too
        raise ValueError("mismatch threshold must be finite and >= 0")
    levels = replay.z_levels
    warnings = []
    try:
        declared = _declared(replay.claims)
    except AmbiguousClaims as exc:
        declared = None
        warnings.append(str(exc))
    ratio = None
    verdict = "no_claim"
    if declared is not None:
        if declared:
            ratio = replay.extruded / declared
        else:       # a 0 mm claim agrees with a toolpath that extrudes nothing
            ratio = 1.0 if replay.extruded == 0 else math.inf
        verdict = "mismatch" if abs(1.0 - ratio) > mismatch_threshold else "consistent"
    return ForensicsReport(
        computed_filament_mm=replay.extruded,
        declared_filament_mm=declared,
        travel_mm=replay.travel,
        z_levels=levels,
        max_z_mm=levels[-1] if levels else 0.0,
        layer_count=len(levels),
        discrepancy_ratio=ratio,
        verdict=verdict,
        warnings=warnings,
    )
