import json
import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dm_stegkit import gcode
from dm_stegkit import audit, filament_length, metadata_claims, parse_gcode, z_profile
from dm_stegkit.errors import AmbiguousClaims, MalformedNumber


def test_parse_move_with_comment():
    program = parse_gcode("G1 X10 E5 ; wall")
    (cmd,) = program.commands
    assert cmd.code == "G1"
    assert cmd.args == {"X": 10.0, "E": 5.0}
    assert cmd.comment == " wall"


def test_comment_only_line_is_retained():
    program = parse_gcode(";filament used = 3198.14mm")
    (cmd,) = program.commands
    assert cmd.code == ""
    assert cmd.comment == "filament used = 3198.14mm"


def test_malformed_number_reports_line():
    with pytest.raises(MalformedNumber) as err:
        parse_gcode("G1 X1Q")
    assert err.value.line == 1


def test_duplicate_argument_letter_rejected():
    with pytest.raises(MalformedNumber):
        parse_gcode("G1 X1 X2")


def test_spaceless_words_parse():
    program = parse_gcode("G1X10Y-2.5E0.4")
    assert program.commands[0].args == {"X": 10.0, "Y": -2.5, "E": 0.4}


@pytest.mark.parametrize("line", [
    "N10 G1 X1 E5",                 # RS274 line number
    "N10 G1 X1 E5*45",              # RepRap line number and checksum
    "G1 X1 E5 (move)",              # RS274 comment
    "n7G1(a)X1(b c)E5*3 ; tail",
])
def test_line_numbers_checksums_and_paren_comments_are_dropped(line):
    (cmd,) = parse_gcode(line).commands
    assert (cmd.code, cmd.args) == ("G1", {"X": 1.0, "E": 5.0})
    report = audit(parse_gcode(";filament used = 5mm\n" + line))
    assert report.computed_filament_mm == pytest.approx(5.0)
    assert report.verdict == "consistent"


def test_numbered_comment_only_line_is_retained():
    program = parse_gcode("N5 (start) ;filament used = 3mm\nN6")
    assert [(c.code, c.args, c.comment) for c in program.commands] == [
        ("", {}, "filament used = 3mm"), ("", {}, None)]


_MALFORMED_WORDS = [
    ("G1 X1 (move", "unbalanced"),
    ("G1 X1) E5", "unbalanced"),
    ("N10 G1 X1 E5*4x", "checksum"),
    ("N1.5 G1 X1", "line number"),
]


@pytest.mark.parametrize("line, message", _MALFORMED_WORDS)
def test_malformed_line_words_report_line(line, message):
    with pytest.raises(MalformedNumber, match=message) as err:
        parse_gcode("G21\n" + line)
    assert err.value.line == 2


def test_blank_lines_skipped_unknown_codes_kept():
    program = parse_gcode("\nM117 X0\n\nT1\n")
    assert [c.code for c in program.commands] == ["M117", "T1"]


def test_zero_padded_codes_are_canonical():
    program = parse_gcode("G00 X1\nG01 X2 E5\nM082\nG092.1\nG0.5\nT01")
    assert [c.code for c in program.commands] == ["G0", "G1", "M82", "G92.1", "G0.5", "T1"]
    # G01 is the same linear move as G1 and must extrude the same filament
    assert filament_length(parse_gcode("G01 X1 E5")) == pytest.approx(5.0)
    assert filament_length(parse_gcode("M083\nG01 E3\nG001 E4")) == pytest.approx(7.0)


def test_filament_absolute_deltas():
    assert filament_length(parse_gcode("M82\nG1 E5\nG1 E12")) == pytest.approx(12.0)


def test_filament_ignores_retractions():
    program = parse_gcode("M82\nG1 E12\nG1 E10\nG1 E15")
    assert filament_length(program) == pytest.approx(17.0)


def test_filament_relative_mode():
    assert filament_length(parse_gcode("M83\nG1 E3\nG1 E4")) == pytest.approx(7.0)


def test_filament_g92_reset():
    program = parse_gcode("M82\nG1 E10\nG92 E0\nG1 E4")
    assert filament_length(program) == pytest.approx(14.0)


def test_filament_inch_units():
    program = parse_gcode("G20\nM83\nG1 E1\nG21\nG1 E25.4")
    assert filament_length(program) == pytest.approx(50.8)


def test_empty_program_extrudes_nothing():
    assert filament_length(parse_gcode("")) == 0.0


def test_z_profile_two_layers():
    program = parse_gcode("G1 Z0.2\nG1 X5 E1\nG1 Z0.4\nG1 X0 E2")
    levels, count, max_z = z_profile(program)
    assert levels == [0.2, 0.4]
    assert count == 2
    assert max_z == pytest.approx(0.4)


def test_z_profile_travel_only():
    assert z_profile(parse_gcode("G0 X10\nG0 Z5\nG0 Y3")) == ([], 0, 0.0)


def test_z_profile_quantizes_micron_jitter():
    program = parse_gcode("G1 Z0.2000\nG1 X5 E1\nG1 Z0.2004\nG1 X0 E2")
    assert z_profile(program)[1] == 1


def test_claim_basic_mm():
    program = parse_gcode(";filament used = 4290.7mm")
    assert metadata_claims(program) == pytest.approx(4290.7)


def test_claim_absent():
    assert metadata_claims(parse_gcode("G1 X1 ; heading out")) is None


def test_claim_variants():
    assert metadata_claims(parse_gcode("; filament used [mm] = 123.4")) == pytest.approx(123.4)
    assert metadata_claims(parse_gcode(";filament used = 2.5m")) == pytest.approx(2500.0)
    assert metadata_claims(parse_gcode(";filament used = 2in")) == pytest.approx(50.8)
    assert metadata_claims(parse_gcode(";FILAMENT_USED: 55.5")) == pytest.approx(55.5)


def test_claims_conflict_is_ambiguous():
    program = parse_gcode(";filament used = 4290.7mm\n;filament used = 3198.14mm")
    with pytest.raises(AmbiguousClaims):
        metadata_claims(program)


def test_agreeing_claims_return_first():
    program = parse_gcode(";filament used = 100.0mm\n;filament used [mm] = 100.05")
    assert metadata_claims(program) == pytest.approx(100.0)


_MISMATCH_TEXT = ("; sliced for bench part\n"
                  ";filament used = 4290.7mm\n"
                  "G21\nG90\nM82\n"
                  "G1 Z0.2\n"
                  "G1 X50 Y0 E3198.14\n")


def _mismatch_scenario():
    return parse_gcode(_MISMATCH_TEXT)


def test_audit_mismatch_scenario():
    report = audit(_mismatch_scenario())
    assert report.verdict == "mismatch"
    # oracle: the ratio is just the division of the two numbers
    assert report.discrepancy_ratio == pytest.approx(3198.14 / 4290.7, rel=1e-12)
    assert report.discrepancy_ratio == pytest.approx(0.7454, abs=5e-5)


def test_audit_small_error_is_consistent():
    program = parse_gcode(";filament used = 100.0mm\nM82\nG1 E99.5")
    assert audit(program).verdict == "consistent"


@pytest.mark.parametrize("text, ratio, verdict", [
    (";filament used = 0mm\nG0 X1\n", 1.0, "consistent"),       # nothing claimed, none used
    (";filament used = 0mm\nM82\nG1 X5 E3.5\n", math.inf, "mismatch"),
])
def test_audit_of_a_zero_claim(text, ratio, verdict):
    for source in (parse_gcode(text), text):
        report = audit(source)
        assert (report.discrepancy_ratio, report.verdict) == (ratio, verdict)


def test_audit_without_claim():
    report = audit(parse_gcode("M82\nG1 E5"))
    assert report.verdict == "no_claim"
    assert report.declared_filament_mm is None


def test_audit_ambiguous_claims_warns_not_fails():
    text = ";filament used = 100mm\n;filament used = 200mm\nM82\nG1 E100"
    for source in (parse_gcode(text), text):
        report = audit(source)
        assert report.verdict == "no_claim"
        assert report.warnings == ["conflicting filament claims (mm): [100.0, 200.0]"]


def test_audit_report_json_fields():
    doc = json.dumps(audit(_mismatch_scenario()).to_dict())
    for key in ("computed_filament_mm", "declared_filament_mm", "travel_mm",
                "z_levels", "max_z_mm", "layer_count", "discrepancy_ratio", "verdict"):
        assert key in doc



def test_audit_replays_once_and_agrees_with_z_profile(monkeypatch):
    program = parse_gcode(";filament used = 3mm\nG1 Z0.2\nG1 X5 E1\nG1 Z0.4\nG1 X0 E2")
    replays = []
    replay = gcode._replay

    def counting_replay(prog):
        replays.append(prog)
        return replay(prog)

    monkeypatch.setattr(gcode, "_replay", counting_replay)
    report = audit(program)
    assert len(replays) == 1
    assert report.z_levels == [0.2, 0.4]
    levels, count, max_z = z_profile(program)
    assert (report.z_levels, report.layer_count, report.max_z_mm) == (levels, count, max_z)


_SLICER_TEXT = "\n".join([
    "; generated by desktop slicer 5.1",
    "; layer_height = 0.2",
    ";filament used [mm] = 45.8",
    "M140 S60",
    "M104 S210",
    "G28 ; home all",
    "M109 S210",
    "G21",
    "G90",
    "M82",
    "G92 E0",
    "G1 Z0.2 F3000",
    "G1 X20 Y20 E10.4 F1500",
    "G1 X40 E20.8",
    "G1 E18.8 F2400 ; retract",
    "G0 X0 Y0",
    "G1 E20.8 ; deretract",
    "G1 Z0.4",
    "G1 X20 E41.6",
    "G92 E0",
    "G1 E2.2 ; purge",
    "M104 S0",
    "M84",
])


def test_realistic_slicer_preamble_and_print():
    report = audit(parse_gcode(_SLICER_TEXT))
    # positive deltas only: 10.4 + 10.4 + 2.0 (deretract) + 20.8 + 2.2
    assert report.computed_filament_mm == pytest.approx(45.8)
    assert report.layer_count == 2
    assert report.z_levels == [0.2, 0.4]
    assert report.verdict == "consistent"
    assert report.discrepancy_ratio == pytest.approx(1.0, abs=1e-9)


# --- invariants -----------------------------------------------------------------

_E_MOVES = st.lists(st.floats(0, 50).map(lambda v: round(v, 3)), min_size=0, max_size=30)


@settings(max_examples=60, deadline=None)
@given(_E_MOVES)
def test_filament_invariant_under_comment_and_travel_insertion(deltas):
    base = "M83\n" + "\n".join(f"G1 X1 E{d}" for d in deltas)
    noisy_lines = ["M83"]
    for d in deltas:
        noisy_lines += ["; phase change", "G0 X-5 Y7", f"G1 X1 E{d}", "G0 Z0.6"]
    noisy = "\n".join(noisy_lines)
    assert filament_length(parse_gcode(noisy)) == pytest.approx(
        filament_length(parse_gcode(base)))
    assert filament_length(parse_gcode(base)) >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 40).map(lambda v: round(v, 3)), min_size=1, max_size=25))
def test_absolute_and_relative_E_agree(deltas):
    # oracle: replay the deltas directly, counting positive ones
    expected = sum(d for d in deltas if d > 0)
    relative = "M83\n" + "\n".join(f"G1 E{d}" for d in deltas)
    total = 0.0
    absolute_lines = ["M82"]
    for d in deltas:
        total = round(total + d, 9)
        absolute_lines.append(f"G1 E{total}")
    absolute = "\n".join(absolute_lines)
    assert filament_length(parse_gcode(relative)) == pytest.approx(expected, abs=1e-6)
    assert filament_length(parse_gcode(absolute)) == pytest.approx(expected, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.floats(90, 110), st.floats(0.001, 0.2), st.floats(0.001, 0.2))
def test_audit_verdict_monotone_in_threshold(declared, t1, t2):
    lo, hi = sorted((t1, t2))
    program = parse_gcode(f";filament used = {declared:.3f}mm\nM82\nG1 E100")
    verdict_lo = audit(program, mismatch_threshold=lo).verdict
    verdict_hi = audit(program, mismatch_threshold=hi).verdict
    if verdict_lo == "consistent":
        assert verdict_hi == "consistent"


# --- M117/M118 messages ------------------------------------------------------------

_MESSAGES = ["M117 Printing layer 1", "M117 Hello", "N3 M117 50% done*12"]


@pytest.mark.parametrize("line", _MESSAGES + ["m118 X0 echo", "N4M117E5 filament used = 9mm"])
def test_message_text_is_not_arguments(line):
    (cmd,) = parse_gcode(line).commands
    assert cmd.code in ("M117", "M118")
    assert cmd.args == {}


def test_message_lines_leave_audit_unchanged():
    base = ["; filament used = 30.0mm", "M82", "G1 Z0.2 X10 E10", "G1 X20 E30"]
    text = "\n".join(base[:2] + _MESSAGES + base[2:] + ["M117 Done ; end"])
    report, plain = audit(parse_gcode(text)), audit(parse_gcode("\n".join(base)))
    assert report.computed_filament_mm == pytest.approx(plain.computed_filament_mm)
    assert report.declared_filament_mm == plain.declared_filament_mm == pytest.approx(30.0)
    assert report.verdict == plain.verdict == "consistent"


def test_message_lines_still_check_line_number_and_checksum():
    for line, message in [("N M117 hi", "line number"), ("M117 hi*x", "checksum")]:
        with pytest.raises(MalformedNumber, match=message):
            parse_gcode(line)
    # a longer code or a subcode is not a message
    assert parse_gcode("M1170 X1").commands[0].args == {"X": 1.0}
    assert parse_gcode("M117.5 X1").commands[0].args == {"X": 1.0}


@pytest.mark.parametrize("line", ["M117 Hello (x", "M117 a) b", "M117 (x*12",
                                  "M118 (50%) done", "N3 (x) M117 hi", "M117(x) hi"])
def test_message_parentheses_are_text(line):
    (cmd,) = parse_gcode(line).commands
    assert cmd.code in ("M117", "M118")
    assert cmd.args == {}


def test_message_text_still_ends_at_a_checksum():
    for line in ("M117 (x*1x", "M117 5 * 3 = 15"):
        with pytest.raises(MalformedNumber, match="checksum"):
            parse_gcode(line)


# --- number grammar: ASCII decimals only ------------------------------------------

_NON_ASCII_NUMBERS = [
    ("G1 X1_0 E1", "bad number for X: '1_0'"),      # float() reads 10
    ("G0_1 X1", "bad number for G: '0_1'"),         # was kept as code G0_1
    ("G1 X\u0661\u0662", "bad number for X: '\u0661\u0662'"),   # Arabic-Indic 12
    ("G1 X\uff11", "bad number for X: '\uff11'"),  # fullwidth 1
    ("N\u0661 G1 X1", "bad line number '\u0661'"),
    ("N1 G1 X1*\u0661", "bad checksum '\u0661'"),
]


@pytest.mark.parametrize("line, message", _NON_ASCII_NUMBERS)
def test_numbers_are_ascii_decimals(line, message):
    with pytest.raises(MalformedNumber, match=message) as err:
        parse_gcode("G21\n" + line)
    assert err.value.line == 2


_LONG_BAD_NUMBERS = [
    ("G1 X" + "9" * 200_000 + "-", "X"),
    ("G" + "9" * 200_000 + "- X1", "G"),
    ("G1 X1." + "9" * 200_000 + "-", "X"),
    ("N5" + " " * 200_000 + "x", "X"),
]


@pytest.mark.parametrize("line, letter", _LONG_BAD_NUMBERS)
@pytest.mark.parametrize("read", [parse_gcode, audit])
def test_a_long_bad_number_fails_in_linear_time(read, line, letter):
    # a number grammar that can split a digit run two ways tries every
    # split before it fails: minutes for 200k digits instead of milliseconds
    start = time.perf_counter()
    with pytest.raises(MalformedNumber, match=f"bad number for {letter}"):
        read(line)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("line, x", [("G1 X0." + "0" * 100_000 + "1 E1", 0.0),
                                     ("G1 X2 E1 ;" + "c" * 100_000, 2.0)],
                         ids=["long number", "long comment"])
@pytest.mark.parametrize("read", [parse_gcode, audit])
def test_a_long_number_or_comment_reads_in_linear_time(read, line, x):
    # the columnar reader steps through at most 15 digits of a number; one
    # digit step per digit of the longest number would be quadratic
    text = ";filament used = 1mm\nM83\n" + line + "\nG1 X3 E2\n"
    start = time.perf_counter()
    result = read(text)
    assert time.perf_counter() - start < 2.0
    report = result if read is audit else audit(result)
    expected = audit(f";filament used = 1mm\nM83\nG1 X{x} E1\nG1 X3 E2\n")
    assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())


_PLAIN_CANDIDATES = [
    "G1 X1 Y-2.5 E.5 ; wall", "g01x+1.e0", "G1 X1 X2", "M0117 X1 ; c", "M104 S210;",
    ";LAYER:0", "G1 X" + "9" * 400, "G" + "9" * 400, "G1 X1e5", "G1\tX1\u2003Y2",
    "N12 G1 X1*85", "n3g1x2 * 7 ;c", "N5", "N5 *3", "*3", "N5 N6 G1", "N05 G1 X1 X2*1",
    "N5 M117 hi*2", "G1 X1 *", "G1 X1*12*13", "N1.5 G1",
]


@pytest.mark.parametrize("line", _PLAIN_CANDIDATES)
def test_plain_lines_read_as_the_word_parser_reads_them(line):
    try:
        expected = gcode._parse_line(line, 1)
    except MalformedNumber as exc:
        with pytest.raises(MalformedNumber) as err:
            parse_gcode(line)
        assert str(err.value) == str(exc)
        return
    assert parse_gcode(line).commands == [expected]


# --- one streaming pass: text and parsed programs agree ------------------------------

_PARITY_WORDS = ["X", "Y", "Z", "E", "I", "J", "F"]
_PARITY_VALUES = st.one_of(st.integers(-200, 200).map(str),
                           st.integers(-20_000, 20_000).map(lambda n: f"{n / 100:.2f}"))
_CLAIM_FORMS = [";filament used = {}mm", "; filament used [mm] = {}", ";filament used = {}m",
                ";filament used = {}in", ";FILAMENT_USED: {}", "G1 X1 ; filament used = {}mm"]


@st.composite
def _parity_line(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(st.sampled_from([
            "G20", "G21", "G90", "G91", "M82", "M83", "G28", "M104 S210", "; layer",
            "M117 filament used = 9mm", "m118 (50%) done", "N3 M117 hi*12",
            "(start) G1 X1 E1", "G1 X2 (move) E2 ; wall", "N7 G1 X1 E1*35"]))
    if kind == 1:
        # claims near one value, so programs with two of them are often
        # ambiguous and sometimes within the 0.1% that agrees
        value = draw(st.sampled_from(["100", "100.05", "100.2", "0.1", "3.5e1"]))
        return draw(st.sampled_from(_CLAIM_FORMS)).format(value)
    code = draw(st.sampled_from(["G0", "G1", "G01", "G2", "G3", "G92", "g1"]))
    letters = draw(st.lists(st.sampled_from(_PARITY_WORDS), unique=True, max_size=4))
    return " ".join([code, *(f"{letter}{draw(_PARITY_VALUES)}" for letter in letters)])


_PARITY_PROGRAMS = st.lists(st.tuples(_parity_line(), st.sampled_from(["\n", "\n", "\r\n"])),
                            min_size=1, max_size=40).map(
    lambda lines: "".join(line + br for line, br in lines))


@settings(max_examples=300, deadline=None)
@given(_PARITY_PROGRAMS)
def test_audit_of_text_matches_audit_of_parsed_program(text):
    assert json.dumps(audit(text).to_dict()) == json.dumps(audit(parse_gcode(text)).to_dict())


def _error(fn):
    with pytest.raises(MalformedNumber) as err:
        fn()
    return type(err.value), str(err.value), err.value.line


@pytest.mark.parametrize("line", [line for line, _ in _MALFORMED_WORDS + _NON_ASCII_NUMBERS
                                  + _LONG_BAD_NUMBERS]
                         + ["N M117 hi", "M117 hi*x", "M117 (x*1x", "M117 5 * 3 = 15"]
                         + _PLAIN_CANDIDATES)
def test_audit_of_text_raises_as_the_parser_does(line):
    text = ";filament used = 5mm\nG21\n\n" + line + "\nG1 X1 E5\n"
    try:
        parse_gcode(text)
    except MalformedNumber:
        assert _error(lambda: audit(text)) == _error(lambda: audit(parse_gcode(text)))
        assert _error(lambda: audit(text))[2] == 4
    else:
        assert json.dumps(audit(text).to_dict()) == json.dumps(audit(parse_gcode(text)).to_dict())


# every line break str.splitlines knows; "\r\n" is one break
_BREAKS = ["\r\n", "\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_chunked_reading_keeps_the_lines_of_splitlines(monkeypatch):
    text = "".join(f"G1 X{k} E1{br}" + ("\r\n" if k % 3 == 0 else "")
                   for k, br in enumerate(_BREAKS))
    whole = list(gcode._commands(text))
    assert len(whole) == len(_BREAKS)
    assert [lineno for lineno, *_ in whole] == [
        n for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    bad = text + "G1 X1_0\n"
    # a chunk of every size from 1 character up puts each break, and each
    # half of every "\r\n", at the end of the first chunk's nominal size
    for size in range(1, len(bad) + 2):
        monkeypatch.setattr(gcode, "_DECODE_CHARS", size)
        assert list(gcode._commands(text)) == whole, size
        with pytest.raises(MalformedNumber) as err:
            audit(bad)
        assert err.value.line == len(bad.splitlines())
    # so does the text in pieces of every size, as a file decoded block by block
    monkeypatch.undo()
    for size in range(1, len(bad) + 2):
        pieces = [text[i:i + size] for i in range(0, len(text), size)]
        assert list(gcode._commands(iter(pieces))) == whole, size
        with pytest.raises(MalformedNumber) as err:
            audit(bad[i:i + size] for i in range(0, len(bad), size))
        assert err.value.line == len(bad.splitlines())


# a replay whose position, E, travel, filament or Z level in microns is not
# finite names the first line after which it is not
_OVERFLOWS = [
    ("G1 Z" + "9" * 306 + " E1", 1, "Z level overflows"),      # Z / 0.001 overflows
    ("G91\nG1 X" + "9" * 308 + "\nG1 X" + "9" * 308, 3, "position overflows"),
]


@pytest.mark.parametrize("text, line, message", _OVERFLOWS)
def test_a_replay_that_overflows_names_its_line(text, line, message):
    for source in (text, parse_gcode(text)):
        with pytest.raises(MalformedNumber, match=message) as err:
            audit(source)
        assert err.value.line == line


@pytest.mark.parametrize("text, line, message", [
    ("G20\nG92 X" + "9" * 307, 2, "position overflows"),
    ("G20\nG92 E" + "9" * 307 + "\nG1 E1", 2, "E overflows"),
    ("M83\nG1 X1 E" + "9" * 308 + "\nG1 X2 E" + "9" * 308, 3, "E overflows"),
    ("G1 X-" + "9" * 308 + "\nG1 X" + "9" * 308, 2, "travel overflows"),
    ("M82\nG1 E-" + "9" * 308 + "\nG1 E" + "9" * 308, 3, "filament overflows"),
    (";filament used = 1mm\nG1 X1 E1\nG1 Z" + "9" * 306 + " E2\nG1 X1_0\n", 3, "Z level"),
])
def test_each_measure_that_overflows_names_its_line(text, line, message):
    # the first faulty line is reported, malformed or overflowing
    for source in (text, text.splitlines(keepends=True)):
        with pytest.raises(MalformedNumber, match=message) as err:
            audit(source)
        assert err.value.line == line


def test_a_hand_built_program_with_a_nan_argument_is_refused():
    # the replay reads NaN as a word not given; parse_gcode never yields one
    program = gcode.GcodeProgram([gcode.GcodeCommand(1, "G1", {"X": 1.0}),
                                  gcode.GcodeCommand(2, "G1", {"X": math.nan, "E": 1.0})])
    with pytest.raises(MalformedNumber, match="non-finite value for X") as err:
        audit(program)
    assert err.value.line == 2


# every program above whose audit the command line can report: the CLI tests
# audit each, with other line breaks, as a file read in blocks
AUDIT_PROGRAMS = [
    _MISMATCH_TEXT, _SLICER_TEXT, "", "\n\n", "G1 X10 E5 ; wall", ";filament used = 3198.14mm",
    "N5 (start) ;filament used = 3mm\nN6", "\nM117 X0\n\nT1\n",
    "G00 X1\nG01 X2 E5\nM082\nG092.1\nG0.5\nT01", "G20\nM83\nG1 E1\nG21\nG1 E25.4",
    "G1 Z0.2000\nG1 X5 E1\nG1 Z0.2004\nG1 X0 E2", ";filament used = 100.0mm\nM82\nG1 E99.5",
    ";filament used = 0mm\nG0 X1\n", ";filament used = 0mm\nM82\nG1 X5 E3.5\n",
    ";filament used = 100mm\n;filament used = 200mm\nM82\nG1 E100",
    ";filament used = 100.0mm\n;filament used [mm] = 100.05",
    "; filament used = 30.0mm\nM82\n" + "\n".join(_MESSAGES) + "\nG1 Z0.2 X10 E10\nM117 Done",
    *(";filament used = 5mm\nG21\n\n" + line + "\nG1 X1 E5\n"
      for line in [line for line, _ in _MALFORMED_WORDS + _NON_ASCII_NUMBERS + _LONG_BAD_NUMBERS]
      + ["N M117 hi", "M117 hi*x", "M117 (x*1x", "M117 5 * 3 = 15"] + _PLAIN_CANDIDATES),
    *(text for text, _, _ in _OVERFLOWS),
]


def test_audit_of_an_open_file_reads_chunks_of_the_chunk_size(monkeypatch, tmp_path):
    # an open file yields one line at a time; the lines are held until a
    # chunk of _DECODE_CHARS characters can be cut
    path = tmp_path / "p.gcode"
    path.write_text(_SLICER_TEXT + "\n" + "".join(f"G1 X{k % 90} Y{k % 70} E0.1 ; wall\n"
                                                 for k in range(12_000)))
    lengths = []
    real = gcode._line_chunks

    def chunks(pieces, size):
        for chunk in real(pieces, size):
            lengths.append(len(chunk))
            yield chunk

    monkeypatch.setattr(gcode, "_line_chunks", chunks)
    with open(path, newline="") as fh:
        report = audit(fh)
    assert len(lengths) > 2 and min(lengths[:-1]) >= gcode._DECODE_CHARS
    assert json.dumps(report.to_dict()) == json.dumps(audit(path.read_text()).to_dict())


def test_audit_of_text_holds_no_command_per_line():
    lines = [";filament used = 4000mm", "G21", "G90", "M83"]
    for k in range(100_000 - len(lines)):
        if k % 500 == 0:
            lines.append(f"G1 Z{0.2 * (k // 500 + 1):.3f} ; layer")
        else:
            lines.append(f"G1 X{k % 200}.5 Y{k % 97}.25 E0.04 ; wall")
    text = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        report = audit(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.layer_count == 200
    assert report.declared_filament_mm == 4000.0
    # a parsed program of these lines peaks at about 72 MB
    assert peak <= 2 * 2 ** 20, peak


def test_audit_of_cr_only_text_holds_no_copy_of_it():
    # a text whose lines end in a lone "\r" is cut into chunks as one with
    # "\n" is; a whole-text chunk of this 2 MB string peaked at 2.6 MB
    lines = [";filament used = 1000mm", "M83"] + [f"G1 X{k % 200} Y{k % 150} E0.01"
                                                 for k in range(99_998)]
    text = "\r".join(lines) + "\r"
    tracemalloc.start()
    try:
        report = audit(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.dumps(report.to_dict()) == json.dumps(audit(text.replace("\r", "\n")).to_dict())
    assert peak < 2 ** 20, peak
