import hashlib
import json
import struct
import zlib

import numpy as np
import pytest

from dm_stegkit import __version__, audit, grid_from_pbm, mesh_volume, orientation_scan, \
    parse_gcode, parse_stl, unit_vector, write_stl_binary
from dm_stegkit import meshcore
from dm_stegkit.cli import run
from conftest import box_mesh, two_tower_bridge, vrml_scene


def invoke(capsys, *argv):
    status = run(list(argv))
    out = capsys.readouterr().out
    return status, json.loads(out)


@pytest.fixture()
def cube_stl(tmp_path):
    path = tmp_path / "cube.stl"
    path.write_bytes(write_stl_binary(box_mesh(0, 0, 0, 10, 10, 10)))
    return path


def test_stl_info(capsys, cube_stl):
    status, doc = invoke(capsys, "stl-info", str(cube_stl))
    assert status == 0
    assert doc["subcommand"] == "stl-info"
    assert doc["result"]["triangles"] == 12
    assert doc["result"]["volume_mm3"] == pytest.approx(1000.0)
    assert str(cube_stl) in doc["inputs"]


def test_header_embed_extract_cycle(capsys, tmp_path, cube_stl):
    out = tmp_path / "hidden.stl"
    status, doc = invoke(capsys, "header-embed", str(cube_stl),
                         "--message", "ip=10.0.0.7 user=ops", "-o", str(out))
    assert status == 0
    status, doc = invoke(capsys, "header-extract", str(out))
    assert status == 0
    assert doc["result"]["payload"]["text"] == "ip=10.0.0.7 user=ops"
    # geometry untouched
    assert mesh_volume(parse_stl(out.read_bytes())) == pytest.approx(1000.0)


def test_header_embed_keeps_binary_body_bytes(capsys, tmp_path):
    # stored normal (0, 0, 0.5) and a colour attribute: a rewrite would
    # renormalize the one and zero the other
    facet = struct.pack("<12fH", 0, 0, 0.5, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0x7C1F)
    cover = tmp_path / "cover.stl"
    cover.write_bytes(b"exporter v1".ljust(80, b"\x00") + struct.pack("<I", 1) + facet)
    out = tmp_path / "marked.stl"
    status, _ = invoke(capsys, "header-embed", str(cover), "--message", "hi", "-o", str(out))
    assert status == 0
    data, marked = cover.read_bytes(), out.read_bytes()
    assert len(marked) == len(data)
    assert marked[80:] == data[80:]
    assert marked[:80] != data[:80]
    status, doc = invoke(capsys, "header-extract", str(out))
    assert doc["result"]["payload"]["text"] == "hi"


def test_header_embed_writes_ascii_cover_as_binary(capsys, tmp_path):
    cover = tmp_path / "cover.stl"
    cover.write_text("solid t\nfacet normal 0 0 1\nouter loop\nvertex 0 0 0\n"
                     "vertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\nendsolid t\n")
    out = tmp_path / "marked.stl"
    status, doc = invoke(capsys, "header-embed", str(cover), "--message", "hi", "-o", str(out))
    assert status == 0
    mesh = parse_stl(out.read_bytes())
    assert out.read_bytes() == write_stl_binary(mesh)
    assert mesh.header.hex() == doc["result"]["header_hex"]


def _legacy_envelope(subcommand, path, result, warnings=()):
    """The envelope as the CLI printed it through report.to_json()."""
    return json.dumps({
        "tool": "dm-stegkit", "version": __version__, "subcommand": subcommand,
        "inputs": {str(path): f"{zlib.crc32(path.read_bytes()):08x}"},
        "result": result, "warnings": list(warnings),
    }) + "\n"


@pytest.mark.parametrize("text", [
    ";filament used = 0mm\nM82\nG1 X5 Z0.2 E3.5\n",                      # ratio Infinity
    ";filament used = 4mm\n;filament_used: 9\nG1 X5 Z0.2 E3.5\n",          # ambiguous
    "G1 X5 Z0.2 E3.5\nG1 X9 Z0.4 E4\n",                                    # no claim
])
def test_gcode_audit_envelope_matches_to_json(capsys, tmp_path, text):
    path = tmp_path / "part.gcode"
    path.write_text(text)
    report = audit(parse_gcode(text))
    legacy = json.loads(report.to_json())
    legacy.pop("warnings")
    assert run(["gcode-audit", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == _legacy_envelope("gcode-audit", path, legacy, report.warnings)
    if "= 0mm" in text:
        assert '"discrepancy_ratio": Infinity' in out


def test_orient_scan_envelope_matches_to_json(capsys, tmp_path):
    path = tmp_path / "towers.stl"
    path.write_bytes(write_stl_binary(two_tower_bridge()))
    report = orientation_scan(parse_stl(path.read_bytes()), 90.0, 0.2)
    assert run(["orient-scan", str(path), "--angle-step", "90", "--top", "5"]) == 0
    legacy = json.loads(report.to_json(top=5))
    assert capsys.readouterr().out == _legacy_envelope("orient-scan", path, legacy)


def test_header_extract_pristine_is_domain_error(capsys, cube_stl):
    status, doc = invoke(capsys, "header-extract", str(cube_stl))
    assert status == 1
    assert doc["result"]["error"] == "NoFrameFound"


def test_gcode_audit_mismatch(capsys, tmp_path):
    path = tmp_path / "bad.gcode"
    path.write_text(";filament used = 4290.7mm\nM82\nG1 X5 Z0.2 E3198.14\n")
    status, doc = invoke(capsys, "gcode-audit", str(path))
    assert status == 0
    assert doc["result"]["verdict"] == "mismatch"
    assert doc["result"]["discrepancy_ratio"] == pytest.approx(0.7454, abs=1e-3)


def test_vrml_cycle(capsys, tmp_path):
    src = tmp_path / "part.wrl"
    src.write_text(vrml_scene(triples=200, seed=31))
    out = tmp_path / "marked.wrl"
    status, doc = invoke(capsys, "vrml-embed", str(src),
                         "--message", "128.2 MPa", "-o", str(out))
    assert status == 0
    assert doc["result"]["slots_total"] == 200
    status, doc = invoke(capsys, "vrml-extract", str(out))
    assert status == 0
    assert doc["result"]["payload"]["text"] == "128.2 MPa"


def test_morse_cycle(capsys, tmp_path):
    out = tmp_path / "sketch.json"
    status, doc = invoke(capsys, "morse-encode", "SOS 123", "-o", str(out))
    assert status == 0
    status, doc = invoke(capsys, "morse-decode", str(out))
    assert status == 0
    assert doc["result"]["text"] == "SOS 123"


def test_qr3d_embed_search_cycle(capsys, tmp_path):
    rng = np.random.default_rng(32)
    bits = rng.random((13, 13)) < 0.5
    bits[0, 0] = bits[0, -1] = bits[-1, 0] = bits[-1, -1] = True
    pbm = tmp_path / "code.pbm"
    pbm.write_text("P1\n13 13\n" + "\n".join(
        " ".join("1" if b else "0" for b in row) for row in bits) + "\n")
    cloud_path = tmp_path / "code.xyz"
    status, doc = invoke(capsys, "qr3d-embed", "--grid", str(pbm),
                         "--dir", "0.2,-0.5,0.9", "--pitch", "2", "--seed", "7",
                         "-o", str(cloud_path))
    assert status == 0
    assert doc["result"]["spheres"] == int(bits.sum())

    status, doc = invoke(capsys, "qr3d-search", str(cloud_path))
    assert status == 0
    planted = unit_vector((0.2, -0.5, 0.9))
    found = np.array(doc["result"]["direction"])
    angle = np.degrees(np.arccos(min(1.0, abs(float(np.dot(found, planted))))))
    assert angle <= 0.1

    grid_out = tmp_path / "seen.pbm"
    status, doc = invoke(capsys, "qr3d-project", str(cloud_path),
                         "--dir", "0.2,-0.5,0.9", "--pitch", "2",
                         "-o", str(grid_out))
    assert status == 0
    assert np.array_equal(grid_from_pbm(grid_out.read_text()).bits, bits)


def test_qr3d_search_recovers_diagonal_direction(capsys, tmp_path):
    rng = np.random.default_rng(33)
    bits = rng.random((17, 17)) < 0.5
    bits[0, 0] = bits[0, -1] = bits[-1, 0] = bits[-1, -1] = True
    pbm = tmp_path / "code.pbm"
    pbm.write_text("P1\n17 17\n" + "\n".join(
        " ".join("1" if b else "0" for b in row) for row in bits) + "\n")
    cloud_path = tmp_path / "code.xyz"
    invoke(capsys, "qr3d-embed", "--grid", str(pbm), "--dir", "1,1,1",
           "--pitch", "2", "--seed", "7", "-o", str(cloud_path))
    status, doc = invoke(capsys, "qr3d-search", str(cloud_path))
    assert status == 0
    planted = unit_vector((1.0, 1.0, 1.0))
    found = np.array(doc["result"]["direction"])
    angle = np.degrees(np.arccos(min(1.0, abs(float(np.dot(found, planted))))))
    assert angle <= 0.1
    assert doc["warnings"] == []


def test_qr3d_search_warns_on_lattice_free_cloud(capsys, tmp_path):
    path = tmp_path / "noise.xyz"
    points = np.random.default_rng(34).uniform(-10.0, 10.0, size=(60, 3))
    path.write_text("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in points.tolist()))
    status, doc = invoke(capsys, "qr3d-search", str(path))
    assert status == 0
    assert doc["result"]["score"] >= 0.25
    (warning,) = doc["warnings"]
    assert "no lattice direction was found" in warning


def test_qr3d_embed_writes_sphere_mesh(capsys, tmp_path):
    pbm = tmp_path / "g.pbm"
    pbm.write_text("P1\n2 2\n1 1\n1 0\n")
    xyz = tmp_path / "g.xyz"
    stl = tmp_path / "g.stl"
    status, doc = invoke(capsys, "qr3d-embed", "--grid", str(pbm), "--dir", "0,0,1",
                         "--pitch", "2", "--subdivisions", "0",
                         "-o", str(xyz), "--stl", str(stl))
    assert status == 0
    assert doc["result"]["stl_triangles"] == 3 * 20
    mesh = parse_stl(stl.read_bytes())
    assert len(mesh.triangles) == 60


def test_qr3d_embed_env_seed(capsys, tmp_path, monkeypatch):
    pbm = tmp_path / "g.pbm"
    pbm.write_text("P1\n2 2\n1 0\n0 1\n")
    a = tmp_path / "a.xyz"
    b = tmp_path / "b.xyz"
    monkeypatch.setenv("DM_STEGKIT_SEED", "41")
    invoke(capsys, "qr3d-embed", "--grid", str(pbm), "--dir", "0,0,1",
           "--pitch", "2", "-o", str(a))
    status, doc = invoke(capsys, "qr3d-embed", "--grid", str(pbm), "--dir", "0,0,1",
                         "--pitch", "2", "-o", str(b))
    assert doc["result"]["seed"] == 41
    assert a.read_text() == b.read_text()


def test_recon_subcommand(capsys, tmp_path):
    import math
    rows = []
    for i in range(21):
        z = i * 0.5
        for k in range(64):
            t = 2 * math.pi * k / 64
            rows.append(f"{5*math.cos(t):.6f} {5*math.sin(t):.6f} {z:.6f}")
    src = tmp_path / "scan.xyz"
    src.write_text("# scan\n" + "\n".join(rows) + "\n")
    out = tmp_path / "rebuilt.stl"
    status, doc = invoke(capsys, "recon", str(src), "-o", str(out))
    assert status == 0
    assert doc["result"]["layer_count"] == 21
    analytic = math.pi * 25 * 10
    assert doc["result"]["volume_mm3"] == pytest.approx(analytic, rel=0.01)
    assert out.exists()


def test_orient_scan_subcommand(capsys, tmp_path):
    path = tmp_path / "towers.stl"
    path.write_bytes(write_stl_binary(two_tower_bridge()))
    status, doc = invoke(capsys, "orient-scan", str(path),
                         "--angle-step", "90", "--top", "3")
    assert status == 0
    assert doc["result"]["candidate_count"] == 64
    assert len(doc["result"]["candidates"]) == 3
    best = doc["result"]["candidates"][0]
    assert best["fragmentation_score"] <= doc["result"]["candidates"][1]["fragmentation_score"]


def test_reports_are_deterministic(capsys, tmp_path, cube_stl):
    s1, d1 = invoke(capsys, "stl-info", str(cube_stl))
    s2, d2 = invoke(capsys, "stl-info", str(cube_stl))
    assert (s1, d1) == (s2, d2)


def test_qr3d_project_degenerate_is_domain_error(capsys, tmp_path):
    path = tmp_path / "line.xyz"
    path.write_text("0 0 0\n0 0 5\n0 0 9\n")
    status, doc = invoke(capsys, "qr3d-project", str(path),
                         "--dir", "0,0,1", "--pitch", "2")
    assert status == 1
    assert doc["result"]["error"] == "DegenerateProjection"


# float alone reads "1_0" as 10 and the Arabic-Indic one as 1
@pytest.mark.parametrize("comment", ["# radius=", "# radius=abc", "# radius=1_0",
                                     "# radius=\u0661"])
def test_qr3d_search_bad_radius_comment_is_domain_error(capsys, tmp_path, comment):
    path = tmp_path / "cloud.xyz"
    path.write_text("# sphere cloud\n" + comment + "\n0 0 0\n2 0 0\n0 2 0\n2 2 1\n")
    status, doc = invoke(capsys, "qr3d-search", str(path))
    assert status == 1
    assert doc["result"]["error"] == "ValueError"
    assert doc["result"]["message"].startswith("line 2: radius")


def test_qr3d_embed_negative_pbm_size_is_domain_error(capsys, tmp_path):
    pbm = tmp_path / "g.pbm"
    pbm.write_text("P1\n-2 -2\n1 1 1 1\n")
    status, doc = invoke(capsys, "qr3d-embed", "--grid", str(pbm), "--dir", "0,0,1",
                         "--pitch", "1", "-o", str(tmp_path / "c.xyz"))
    assert status == 1
    assert doc["result"]["error"] == "ValueError"
    assert "PBM header" in doc["result"]["message"]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        run(["no-such-command"])
    assert err.value.code == 2


def test_missing_file_is_domain_error(capsys):
    status, doc = invoke(capsys, "stl-info", "/nonexistent/path.stl")
    assert status == 1
    assert "error" in doc["result"]


def _sphere_code_xyz(capsys, tmp_path):
    grid = tmp_path / "g.pbm"
    grid.write_text("P1\n3 3\n1 0 1\n0 1 1\n1 1 1\n")
    out = tmp_path / "g.xyz"
    status, _ = invoke(capsys, "qr3d-embed", "--grid", str(grid), "--dir", "0.3,-0.5,0.8",
                       "--pitch", "2", "--seed", "7", "-o", str(out))
    assert status == 0
    return grid, out


def _layered_xyz(tmp_path):
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    rows = [f"{5 * np.cos(a):.6f} {5 * np.sin(a):.6f} {z:.1f}"
            for z in (0.0, 0.5, 1.0) for a in t]
    path = tmp_path / "layers.xyz"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("case", [
    ("qr3d-search", "--refine-to", "inf"), ("qr3d-search", "--coarse-step", "0"),
    ("orient-scan", "--layer-height", "0"), ("orient-scan", "--layer-height", "-0.2"),
    ("qr3d-embed", "--dir", "nan,0,1"), ("recon", "--resample", "2"),
])
def test_bad_numeric_arguments_are_envelope_errors(capsys, tmp_path, cube_stl, case):
    verb, flag, value = case
    grid, xyz = _sphere_code_xyz(capsys, tmp_path)
    out = tmp_path / "out"
    argv = {
        "qr3d-search": ["qr3d-search", str(xyz)],
        "orient-scan": ["orient-scan", str(cube_stl), "--angle-step", "90"],
        "qr3d-embed": ["qr3d-embed", "--grid", str(grid), "--pitch", "2", "-o", str(out)],
        "recon": ["recon", str(_layered_xyz(tmp_path)), "-o", str(out)],
    }[verb]
    status, doc = invoke(capsys, *argv, f"{flag}={value}")
    assert status == 1
    assert doc["result"]["error"] == "ValueError"
    assert not out.exists()


def test_qr3d_directions_at_extreme_scales(capsys, tmp_path):
    # squaring these components over- or underflows; the direction is (1, 1, 0)
    grid, xyz = tmp_path / "g.pbm", tmp_path / "g.xyz"
    grid.write_text("P1\n3 3\n1 0 1\n0 1 1\n1 1 1\n")
    status, doc = invoke(capsys, "qr3d-embed", "--grid", str(grid), "--dir", "1e-200,1e-200,0",
                         "--pitch", "2", "--seed", "7", "-o", str(xyz))
    assert status == 0, doc
    status, doc = invoke(capsys, "qr3d-project", str(xyz), "--dir", "1e200,1e200,0",
                         "--pitch", "2")
    assert status == 0, doc
    assert doc["result"]["pbm"] == grid.read_text()


@pytest.mark.parametrize("verb", ["qr3d-embed", "qr3d-project"])
@pytest.mark.parametrize("part", ["1_0", "\u0661"])
def test_direction_parts_are_ascii_decimals(capsys, tmp_path, verb, part):
    # float alone reads "1_0" as 10 and an Arabic-Indic one as 1
    grid, xyz = _sphere_code_xyz(capsys, tmp_path)
    out = tmp_path / "out"
    argv = {"qr3d-embed": ["qr3d-embed", "--grid", str(grid), "--pitch", "2"],
            "qr3d-project": ["qr3d-project", str(xyz), "--pitch", "2"]}[verb]
    status, doc = invoke(capsys, *argv, f"--dir=1,{part},0", "-o", str(out))
    assert status == 1
    assert doc["result"] == {"error": "ValueError",
                             "message": f"not an ASCII decimal: {part!r}"}
    assert not out.exists()


def test_qr3d_project_grid_above_side_limit_is_domain_error(capsys, tmp_path):
    _, xyz = _sphere_code_xyz(capsys, tmp_path)
    status, doc = invoke(capsys, "qr3d-project", str(xyz), "--dir", "0,0,1", "--pitch", "1e-6")
    assert status == 1
    assert doc["result"]["error"] == "DegenerateProjection"
    assert "pitch 1e-06" in doc["result"]["message"]


# --- header verbs on binary STL: records validated, mesh not built ----------------

_ASCII_COVER = ("solid t\nfacet normal 0 0 1\nouter loop\nvertex 0 0 0\n"
                "vertex 1 0 0\nvertex 0 1 0\nendloop\nendfacet\nendsolid t\n")


def _bad_binary_cover(kind):
    data = bytearray(write_stl_binary(box_mesh(0, 0, 0, 10, 10, 10)))
    corner = 84 + 50 * 5 + 12 + 12                  # facet 5, second corner
    if kind == "nan":
        data[corner + 4:corner + 8] = struct.pack("<f", float("nan"))
    else:
        del data[-10:]
    return bytes(data)


@pytest.mark.parametrize("verb", ["header-embed", "header-extract"])
@pytest.mark.parametrize("kind, error", [("nan", "NonFiniteCoordinate"),
                                         ("truncated", "TruncatedFile")])
def test_header_verbs_reject_bad_binary_cover_as_parse_stl_does(capsys, tmp_path, verb,
                                                                kind, error):
    cover, out = tmp_path / "cover.stl", tmp_path / "marked.stl"
    cover.write_bytes(_bad_binary_cover(kind))
    with pytest.raises(Exception) as parsed:
        parse_stl(cover.read_bytes())
    argv = [verb, str(cover)] + (["--message", "hi", "-o", str(out)]
                                 if verb == "header-embed" else [])
    status, doc = invoke(capsys, *argv)
    assert status == 1
    assert doc["result"] == {"error": error, "message": str(parsed.value)}
    assert type(parsed.value).__name__ == error
    assert not out.exists()


def test_header_verbs_accept_a_repeated_corner_as_parse_stl_does(capsys, tmp_path):
    data = bytearray(write_stl_binary(box_mesh(0, 0, 0, 10, 10, 10)))
    corner = 84 + 50 * 5 + 12 + 12                  # facet 5, second corner
    data[corner:corner + 12] = data[corner - 12:corner]
    cover, out = tmp_path / "cover.stl", tmp_path / "marked.stl"
    cover.write_bytes(bytes(data))
    status, doc = invoke(capsys, "stl-info", str(cover))
    assert status == 0
    assert (doc["result"]["triangles"], doc["result"]["vertices"]) == (12, 8)
    status, doc = invoke(capsys, "header-embed", str(cover), "--message", "hi", "-o", str(out))
    assert status == 0
    assert out.read_bytes()[80:] == bytes(data[80:])
    status, doc = invoke(capsys, "header-extract", str(out))
    assert status == 0
    assert doc["result"]["payload"]["text"] == "hi"


@pytest.mark.parametrize("cover_kind, error", [("nan", "NonFiniteCoordinate"),
                                               ("ascii", "MalformedAscii"),
                                               ("good", "MessageTooLong")])
def test_header_embed_checks_the_cover_before_the_message(capsys, tmp_path, cover_kind,
                                                          error):
    cover = tmp_path / "cover.stl"
    cover.write_bytes(_bad_binary_cover("nan") if cover_kind == "nan"
                      else _ASCII_COVER.replace("endloop", "endlop").encode()
                      if cover_kind == "ascii"
                      else write_stl_binary(box_mesh(0, 0, 0, 1, 1, 1)))
    status, doc = invoke(capsys, "header-embed", str(cover), "--message", "m" * 70,
                         "-o", str(tmp_path / "marked.stl"))
    assert status == 1
    assert doc["result"]["error"] == error


# sha-256 of what the line-by-line parser's build of header-embed wrote for
# these covers and the message "marked bytes"
_MARKED_SHA256 = {
    "binary": "afbab5c506360478002beeb34c0f40e7435f0359a410504e025707289e123068",
    "ascii": "51afa556aed0c8c66d528dc8839a7ad471abb2bb71d22ec1cbae5859abec78ce",
}


@pytest.mark.parametrize("cover_kind", ["binary", "ascii"])
def test_header_embed_output_bytes_are_unchanged(capsys, tmp_path, cover_kind):
    cover, out = tmp_path / "cover.stl", tmp_path / "marked.stl"
    cover.write_bytes(write_stl_binary(box_mesh(0, 0, 0, 10, 10, 10))
                      if cover_kind == "binary" else _ASCII_COVER.encode())
    status, doc = invoke(capsys, "header-embed", str(cover), "--message", "marked bytes",
                         "-o", str(out))
    assert status == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _MARKED_SHA256[cover_kind]
    assert out.read_bytes()[:80].hex() == doc["result"]["header_hex"]
    status, doc = invoke(capsys, "header-extract", str(out))
    assert doc["result"]["payload"]["text"] == "marked bytes"


def test_header_verbs_do_not_build_a_binary_mesh(capsys, tmp_path, cube_stl, monkeypatch):
    def no_dedup(*_):
        raise AssertionError("the header verbs built the mesh")

    monkeypatch.setattr(meshcore, "_dedup_vertices", no_dedup)
    out = tmp_path / "marked.stl"
    status, doc = invoke(capsys, "header-embed", str(cube_stl), "--message", "hi",
                         "-o", str(out))
    assert status == 0, doc
    status, doc = invoke(capsys, "header-extract", str(out))
    assert status == 0, doc
    assert doc["result"]["payload"]["text"] == "hi"
