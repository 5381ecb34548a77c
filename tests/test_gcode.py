import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _mismatch_scenario():
    return parse_gcode(
        "; sliced for bench part\n"
        ";filament used = 4290.7mm\n"
        "G21\nG90\nM82\n"
        "G1 Z0.2\n"
        "G1 X50 Y0 E3198.14\n"
    )


def test_audit_mismatch_scenario():
    report = audit(_mismatch_scenario())
    assert report.verdict == "mismatch"
    # oracle: the ratio is just the division of the two numbers
    assert report.discrepancy_ratio == pytest.approx(3198.14 / 4290.7, rel=1e-12)
    assert report.discrepancy_ratio == pytest.approx(0.7454, abs=5e-5)


def test_audit_small_error_is_consistent():
    program = parse_gcode(";filament used = 100.0mm\nM82\nG1 E99.5")
    assert audit(program).verdict == "consistent"


def test_audit_without_claim():
    report = audit(parse_gcode("M82\nG1 E5"))
    assert report.verdict == "no_claim"
    assert report.declared_filament_mm is None


def test_audit_ambiguous_claims_warns_not_fails():
    program = parse_gcode(";filament used = 100mm\n;filament used = 200mm\nM82\nG1 E100")
    report = audit(program)
    assert report.verdict == "no_claim"
    assert report.warnings


def test_audit_report_json_fields():
    doc = audit(_mismatch_scenario()).to_json()
    for key in ("computed_filament_mm", "declared_filament_mm", "travel_mm",
                "z_levels", "max_z_mm", "layer_count", "discrepancy_ratio", "verdict"):
        assert key in doc


def test_realistic_slicer_preamble_and_print():
    text = "\n".join([
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
    report = audit(parse_gcode(text))
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
