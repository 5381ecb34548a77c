import hashlib
import json
import struct
import warnings
import zlib

import numpy as np
import pytest

from dm_stegkit import __version__, audit, grid_from_pbm, mesh_volume, orientation_scan, \
    parse_gcode, parse_stl, unit_vector, write_stl_binary
from dm_stegkit import cli, meshcore
from dm_stegkit.cli import run
from conftest import box_mesh, two_tower_bridge, vrml_scene
from test_gcode import AUDIT_PROGRAMS


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
    """The envelope of ``result``, as json.dumps of a report's ``to_dict()`` prints it."""
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
    legacy = json.loads(json.dumps(report.to_dict()))
    legacy.pop("warnings")
    assert run(["gcode-audit", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == _legacy_envelope("gcode-audit", path, legacy, report.warnings)
    if "= 0mm" in text:
        assert '"discrepancy_ratio": Infinity' in out


@pytest.mark.parametrize("text, result", [
    # the file is read before the threshold is checked: a malformed file
    # reports its line whatever the threshold
    ("; filament used = 10mm\nM82\nG1 X1_0 E1\n",
     {"error": "MalformedNumber", "message": "line 3: bad number for X: '1_0'"}),
    ("; filament used = 10mm\nM82\nG1 Z0.2 X10 E30\n",
     {"error": "ValueError", "message": "mismatch threshold must be finite and >= 0"}),
])
def test_gcode_audit_reads_the_file_before_the_threshold(capsys, tmp_path, text, result):
    path = tmp_path / "p.gcode"
    path.write_text(text)
    assert run(["gcode-audit", str(path), "--threshold", "nan"]) == 1
    assert capsys.readouterr().out == _legacy_envelope("gcode-audit", path, result)


def _outputs(capsys, argv, outputs=()):
    """The CLI's stdout for ``argv`` and the bytes of each file in
    ``outputs`` (None for one not written), each file removed after."""
    run(argv)
    written = []
    for path in outputs:
        written.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    return capsys.readouterr().out, written


def _whole_text_outputs(monkeypatch, capsys, argv, outputs=()):
    """``_outputs`` when each text file is read and decoded whole, here."""
    with monkeypatch.context() as m:
        m.setattr(cli._Run, "stream_text",
                  lambda run, p, consume: consume(run.read_bytes(p).decode("utf-8")))
        return _outputs(capsys, argv, outputs)


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\f"])
def test_streamed_audit_envelopes_match_the_whole_text_audit(capsys, tmp_path, monkeypatch, brk):
    path = tmp_path / "p.gcode"
    argv = ["gcode-audit", str(path)]
    for program in AUDIT_PROGRAMS:
        # multi-byte characters, which blocks of 1, 2, 3 and 5 bytes cut
        lines = ["; na\u00efve \u20ac \U0001F600 M117", *program.splitlines()]
        path.write_bytes((brk.join(lines) + brk).encode())
        whole = _whole_text_outputs(monkeypatch, capsys, argv)
        for block in (1, 2, 3, 5, 1 << 16) if len(program) < 1000 else (4096,):
            monkeypatch.setattr(cli, "_READ_BLOCK", block)
            assert _outputs(capsys, argv) == whole, (program[:80], block)


@pytest.mark.parametrize("data", [
    b"\xff;filament used = 5mm\nG1 X1 E5\n",
    b";filament used = 5mm\nG1 X1 E5\n; caf\xc3",                     # cut short at the end
    b"; filament used = 5mm\nG1 X1_0 E5\n" + b"G1 X1 E1\n" * 50 + b"; \xed\xa0\x80\n",
    b"; \xe2\x82\xac ok\n; \xe2\x82 G1\n",
], ids=["first-byte", "cut-short", "after-a-malformed-line", "cut-sequence"])
def test_streamed_audit_of_invalid_utf8_is_the_whole_file_error(capsys, tmp_path,
                                                                monkeypatch, data):
    # the decode error comes first, even after a malformed line (third case)
    path = tmp_path / "p.gcode"
    path.write_bytes(data)
    argv = ["gcode-audit", str(path)]
    whole = _whole_text_outputs(monkeypatch, capsys, argv)
    assert '"error": "UnicodeDecodeError"' in whole[0]
    for block in (1, 2, 3, 1 << 16):
        monkeypatch.setattr(cli, "_READ_BLOCK", block)
        assert run(argv) == 1
        assert capsys.readouterr().out == whole[0], block


# characters of 2, 3 and 4 bytes, which blocks of 1, 2, 3 and 5 bytes cut
_MULTIBYTE = "na\u00efve \u20ac \U0001F600"


def _text_verb_inputs(verb, path, out):
    """Texts for ``verb``, each with ``_MULTIBYTE`` in it, one it reads and
    then ones it refuses, and the argv that reads ``path`` and writes ``out``."""
    from dm_stegkit import qr3d, stego, vrml

    cloud = qr3d.cloud_to_xyz(qr3d.grid_to_spheres(grid_from_pbm(_SMOKE_PBM), qr3d.EmbedParams(
        pitch=2, direction=unit_vector([0.3, -0.5, 0.8]), seed=7)))
    radius, centres = cloud.split("\n", 1)
    cloud = f"{radius}\n# {_MULTIBYTE}\n{centres}"
    scene = vrml_scene(triples=40, seed=3).replace("\n", f"\n# {_MULTIBYTE}\n", 1)
    if verb == "recon":
        t = np.linspace(0, 2 * np.pi, 24, endpoint=False)
        scan = f"# {_MULTIBYTE}\n" + "".join(f"{5 * np.cos(a):.6f}, {5 * np.sin(a):.6f} {z}\n"
                                              for z in (0, 0.5, 1) for a in t)
        texts = [scan, "\ufeff" + scan, scan + "1 2 x\n", scan + "1 2\n# 1 2\n",
                 scan.replace("5.000000", "1e999", 1) + "1 2\n"]
        return texts, ["recon", str(path), "--resample", "16", "-o", str(out)]
    if verb in ("qr3d-search", "qr3d-project"):
        # a BOM before the radius comment on line 1; a bad radius comment after
        # a bad data line, which it still comes before
        texts = [cloud, "\ufeff" + cloud, cloud + "1 2 3 4\n", "\ufeff# radius=nan\n" + centres,
                 "1 2\n# radius=-1\n" + centres]
        argv = ([verb, str(path), "-o", str(out)] if verb == "qr3d-search" else
                [verb, str(path), "--dir", "0.3,-0.5,0.8", "--pitch", "2", "-o", str(out)])
        return texts, argv
    if verb == "qr3d-embed":
        pbm = _SMOKE_PBM.replace("\n", f"\n# {_MULTIBYTE}\n", 1)
        return [pbm, pbm[:-4]], ["qr3d-embed", "--grid", str(path), "--dir", "0.3,-0.5,0.8",
                                 "--pitch", "2", "--seed", "7", "-o", str(out)]
    if verb == "vrml-embed":
        return [scene, scene.replace("[", "{", 1)], ["vrml-embed", str(path), "--message", "hi",
                                                     "-o", str(out)]
    if verb == "vrml-extract":
        marked = vrml.embed_green_digits(vrml.parse_vrml(scene), b"hi")
        return [marked, scene], ["vrml-extract", str(path)]
    sketch = [{**item, "note": _MULTIBYTE} for item in
              stego.segments_to_json(stego.text_to_segments("SOS 73"))]
    return ([json.dumps(sketch, indent=1, ensure_ascii=False), json.dumps(sketch)[:-3]],
            ["morse-decode", str(path)])


_TEXT_VERBS = ["recon", "qr3d-search", "qr3d-project", "qr3d-embed", "vrml-embed",
               "vrml-extract", "morse-decode"]


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\f"])
@pytest.mark.parametrize("verb", _TEXT_VERBS)
def test_streamed_text_verbs_match_the_whole_text_read(capsys, tmp_path, monkeypatch, verb, brk):
    # every text verb besides gcode-audit (above): envelopes and written files
    path, out = tmp_path / "input", tmp_path / "output"
    texts, argv = _text_verb_inputs(verb, path, out)
    statuses = set()
    for text in texts:
        path.write_bytes(text.replace("\n", brk).encode())
        whole = _whole_text_outputs(monkeypatch, capsys, argv, [out])
        statuses.add('"error"' in whole[0])
        for block in (1, 2, 3, 5, 1 << 16):
            monkeypatch.setattr(cli, "_READ_BLOCK", block)
            assert _outputs(capsys, argv, [out]) == whole, (text[:40], block)
        monkeypatch.undo()
    assert statuses == {False, True} or brk == "\f"     # \f is no JSON space, and VRML comments run on


@pytest.mark.parametrize("case", [
    lambda data: b"\xff" + data,
    lambda data: data + b"\xc3",                                          # cut short at the end
    lambda data: b"1 2\n" + data + b"\xed\xa0\x80\n",
    lambda data: data.replace(b"\n", b"\n# \xe2\x82 \n", 1),
], ids=["first-byte", "cut-short", "after-a-malformed-line", "cut-sequence"])
@pytest.mark.parametrize("verb", _TEXT_VERBS)
def test_streamed_text_verbs_of_invalid_utf8_are_the_whole_file_error(capsys, tmp_path,
                                                                      monkeypatch, verb, case):
    path, out = tmp_path / "input", tmp_path / "output"
    texts, argv = _text_verb_inputs(verb, path, out)
    path.write_bytes(case(texts[0].encode()))
    whole = _whole_text_outputs(monkeypatch, capsys, argv, [out])
    assert '"error": "UnicodeDecodeError"' in whole[0] and whole[1] == [None]
    for block in (1, 2, 3, 1 << 16):
        monkeypatch.setattr(cli, "_READ_BLOCK", block)
        assert _outputs(capsys, argv, [out]) == whole, block


@pytest.mark.parametrize("read", ["parse_xyz", "cloud_from_xyz"])
def test_xyz_read_through_stream_text_holds_no_copy_of_the_file(tmp_path, read):
    import tracemalloc

    from dm_stegkit import qr3d

    rng = np.random.default_rng(8)
    path = tmp_path / "scan.xyz"
    path.write_text("# radius=0.5\n" + "".join(f"{x:.6f} {y:.6f} {z:.1f}\n" for x, y, z in
                                               rng.uniform(-50, 50, size=(100_000, 3))))
    consume = meshcore.parse_xyz if read == "parse_xyz" else qr3d.cloud_from_xyz
    tracemalloc.start()
    try:
        cloud = cli._Run("recon").stream_text(str(path), consume)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(getattr(cloud, "points", None) if read == "parse_xyz" else cloud.centers) == 100_000
    # the chunks' float64 values and their concatenation; the whole-text
    # read held the bytes, the str and a str per token
    assert peak <= 2.5 * path.stat().st_size, peak


@pytest.mark.parametrize("brk", ["\n", "\r"])
def test_streamed_audit_holds_no_copy_of_the_file(capsys, tmp_path, brk):
    import tracemalloc

    path = tmp_path / "long.gcode"
    path.write_bytes(brk.join(["; filament used = 3990mm", "M83"]
                              + [f"G1 X{k % 200} Y{k % 150} E0.1 ; wall" for k in range(39_900)]
                              ).encode())
    tracemalloc.start()
    try:
        assert run(["gcode-audit", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["result"]["verdict"] == "consistent"
    # 0.6 MB for the parser and one chunk's lines on this 0.9 MB file; the
    # whole-text read held the bytes and the str, twice the file
    assert peak <= 0.75 * path.stat().st_size, peak


def test_stream_text_holds_no_read_block_while_consume_works(tmp_path):
    # each block's bytes go once they are decoded: while the consumer works
    # on a piece, nothing allocated where stream_text reads a block is live
    import inspect
    import tracemalloc

    lines, first = inspect.getsourcelines(cli._Run.stream_text)
    read_line = first + next(k for k, line in enumerate(lines) if "fh.read(" in line)
    path = tmp_path / "text.txt"
    path.write_bytes(b"x" * (5 * cli._READ_BLOCK // 2))
    live = []

    def consume(pieces):
        for piece in pieces:
            traces = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, cli.__file__, read_line)])
            live.append((len(piece), sum(stat.size for stat in traces.statistics("lineno"))))

    tracemalloc.start()
    try:
        cli._Run("recon").stream_text(str(path), consume)
    finally:
        tracemalloc.stop()
    block = cli._READ_BLOCK
    assert live == [(block, 0), (block, 0), (block // 2, 0), (0, 0)]


def test_header_embed_holds_one_copy_of_the_cover(capsys, tmp_path):
    import tracemalloc

    cover, out = tmp_path / "cover.stl", tmp_path / "marked.stl"
    n = 40_000
    cover.write_bytes(bytes(80) + struct.pack("<I", n) + struct.pack("<12fH", *range(12), 0) * n)
    tracemalloc.start()
    try:
        assert run(["header-embed", str(cover), "--message", "hi", "-o", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_bytes()[80:] == cover.read_bytes()[80:]
    # the bytes read, and not a joined copy of them
    assert peak <= 1.5 * cover.stat().st_size, peak


def test_orient_scan_envelope_matches_to_json(capsys, tmp_path):
    path = tmp_path / "towers.stl"
    path.write_bytes(write_stl_binary(two_tower_bridge()))
    report = orientation_scan(parse_stl(path.read_bytes()), 90.0, 0.2)
    assert run(["orient-scan", str(path), "--angle-step", "90", "--top", "5"]) == 0
    legacy = json.loads(json.dumps(report.to_dict(top=5)))
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


def test_qr3d_embed_bad_subdivisions_writes_no_file(capsys, tmp_path):
    pbm = tmp_path / "g.pbm"
    pbm.write_text("P1\n2 2\n1 1\n1 0\n")
    xyz = tmp_path / "g.xyz"
    stl = tmp_path / "g.stl"
    status, doc = invoke(capsys, "qr3d-embed", "--grid", str(pbm), "--dir", "0,0,1",
                         "--pitch", "2", "--subdivisions", "5",
                         "-o", str(xyz), "--stl", str(stl))
    assert status == 1
    assert doc["result"]["error"] == "ValueError"
    assert "subdivisions" in doc["result"]["message"]
    assert not xyz.exists() and not stl.exists()

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


def test_xyz_verbs_skip_one_byte_order_mark(capsys, tmp_path):
    pbm, cloud, scan = tmp_path / "g.pbm", tmp_path / "cloud.xyz", tmp_path / "scan.xyz"
    pbm.write_text(_SMOKE_PBM)
    invoke(capsys, "qr3d-embed", "--grid", str(pbm), "--dir", "0.3,-0.5,0.8", "--pitch", "2",
           "--seed", "7", "-o", str(cloud))
    assert cloud.read_text().startswith("# radius=")
    scan.write_text("".join(f"{x} {y} {z}\n" for z in range(6)
                            for x, y in [(0, 0), (4, 0), (5, 3), (2, 6), (-1, 3)]))
    for path in (cloud, scan):
        (tmp_path / f"bom_{path.name}").write_bytes(b"\xef\xbb\xbf" + path.read_bytes())

    def result(*argv):
        status, doc = invoke(capsys, *argv)
        assert status == 0, doc
        doc["result"].pop("output", None)
        return doc["result"]

    assert (result("qr3d-search", str(cloud))
            == result("qr3d-search", str(tmp_path / "bom_cloud.xyz")))
    assert (result("recon", str(scan), "-o", str(tmp_path / "a.stl"))
            == result("recon", str(tmp_path / "bom_scan.xyz"), "-o", str(tmp_path / "b.stl")))
    assert (tmp_path / "a.stl").read_bytes() == (tmp_path / "b.stl").read_bytes()
    # the radius comment after the mark is read: a NaN radius on line 1 is refused
    bad = tmp_path / "bom_nan.xyz"
    bad.write_bytes(b"\xef\xbb\xbf# radius=nan\n" + cloud.read_bytes().split(b"\n", 1)[1])
    status, doc = invoke(capsys, "qr3d-search", str(bad))
    assert status == 1
    assert doc["result"]["error"] == "BadLine"
    assert doc["result"]["message"].startswith("line 1: radius comment needs a number")


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


# float alone reads "1_0" as 10 and the Arabic-Indic one as 1; a NaN radius
# surfaced later as NaN mesh vertices
@pytest.mark.parametrize("comment", ["# radius=", "# radius=abc", "# radius=1_0",
                                     "# radius=\u0661", "# radius=nan", "# radius=inf",
                                     "# radius=1e400", "# radius=-1"])
def test_qr3d_search_bad_radius_comment_is_domain_error(capsys, tmp_path, comment):
    path = tmp_path / "cloud.xyz"
    path.write_text("# sphere cloud\n" + comment + "\n0 0 0\n2 0 0\n0 2 0\n2 2 1\n")
    status, doc = invoke(capsys, "qr3d-search", str(path))
    assert status == 1
    assert doc["result"]["error"] == "BadLine"
    assert doc["result"]["message"].startswith("line 2: radius comment needs a number")


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


def test_a_usage_error_leaves_the_next_run_as_it_was(capsys, cube_stl):
    # the parser is built once per process: a run after usage errors parses
    # its verb as the first run did
    _, before = invoke(capsys, "stl-info", str(cube_stl))
    for argv in (["no-such-command"], ["stl-info"], ["header-embed", str(cube_stl), "-o", "x.stl"],
                 ["orient-scan", str(cube_stl), "--top", "1_0"]):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
    capsys.readouterr()
    status, after = invoke(capsys, "stl-info", str(cube_stl))
    assert status == 0 and after == before
    assert cli.build_parser() is cli.build_parser()


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
    ("qr3d-search", "--coarse-step", "0.001"), ("orient-scan", "--angle-step", "1"),
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


# each was accepted, refused for another option's sake or left numpy's error
# without an envelope: NaN read as a consistent audit and as NaN jitter, Morse
# units and z tolerances, a negative --top as "all but the last three", a
# Morse unit whose strokes overflow written as Infinity, and a layer height or
# a resample count that asks for terabytes
@pytest.mark.parametrize("verb, flag, value, message", [
    ("gcode-audit", "--threshold", "nan", "mismatch threshold"),
    ("gcode-audit", "--threshold", "inf", "mismatch threshold"),
    ("qr3d-embed", "--jitter", "nan", "depth jitter"),
    ("qr3d-embed", "--jitter", "inf", "depth jitter"),
    ("qr3d-embed", "--pitch", "nan", "pitch"), ("qr3d-embed", "--pitch", "inf", "pitch"),
    ("morse-encode", "--unit", "nan", "unit d"), ("morse-encode", "--unit", "inf", "unit d"),
    ("recon", "--z-tol", "nan", "z_tol"), ("recon", "--z-tol", "inf", "z_tol"),
    ("orient-scan", "--top", "-3", "top"),
    ("morse-encode", "--unit", "1e308", "unit d"),
    ("orient-scan", "--layer-height", "1e-12", "layer_height"),
    ("recon", "--resample", "1000000000000", "resample_count"),
])
def test_nan_and_out_of_range_options_are_value_errors(capsys, tmp_path, cube_stl, verb, flag,
                                                       value, message):
    grid, _ = _sphere_code_xyz(capsys, tmp_path)
    gcode_path = tmp_path / "p.gcode"
    gcode_path.write_text("; filament used = 10mm\nM82\nG1 Z0.2 X10 E30\n")
    out = tmp_path / "out"
    argv = {
        "gcode-audit": ["gcode-audit", str(gcode_path)],
        "qr3d-embed": ["qr3d-embed", "--grid", str(grid), "--dir", "0,0,1", "--pitch", "2",
                       "-o", str(out)],
        "morse-encode": ["morse-encode", "SOS", "-o", str(out)],
        "recon": ["recon", str(_layered_xyz(tmp_path)), "-o", str(out)],
        "orient-scan": ["orient-scan", str(cube_stl), "--angle-step", "90"],
    }[verb]
    status, doc = invoke(capsys, *argv, f"{flag}={value}")
    assert status == 1
    assert doc["result"]["error"] == "ValueError"
    assert doc["result"]["message"].startswith(message)
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


# --- one rule per input value: numbers, Morse sketches, sphere centres ---------------

_SMOKE_PBM = ("P1\n7 7\n1 0 1 1 0 0 1\n0 1 1 0 1 0 0\n1 1 0 1 0 1 1\n0 0 1 1 1 0 1\n"
              "1 0 0 1 0 1 0\n0 1 1 0 1 1 0\n1 0 1 0 0 1 1\n")


# float() and int() alone read each of these: underscores, non-ASCII digits
# and surrounding whitespace
@pytest.mark.parametrize("argv", [
    ["qr3d-embed", "--grid", "g.pbm", "--dir", "0,0,1", "--pitch", "1_0", "-o", "c.xyz"],
    ["qr3d-embed", "--grid", "g.pbm", "--dir", "0,0,1", "--pitch", "٢", "-o", "c.xyz"],
    ["qr3d-embed", "--grid", "g.pbm", "--dir", "0,0,1", "--pitch", "2", "--seed", "1_0",
     "-o", "c.xyz"],
    ["gcode-audit", "p.gcode", "--threshold", "0_1"],
    ["orient-scan", "m.stl", "--angle-step", "９０"],
    ["orient-scan", "m.stl", "--top", "1_0"],
    ["vrml-extract", "s.wrl", "--digits", " 6"],
    ["recon", "s.xyz", "--resample", "١٢٨", "-o", "r.stl"],
    ["qr3d-embed", "--grid", "g.pbm", "--dir", "0,0,1", "--pitch", " 2", "-o", "c.xyz"],
    ["qr3d-search", "c.xyz", "--coarse-step", "2\t"],
])
def test_numeric_options_outside_ascii_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        run(argv)
    assert err.value.code == 2
    assert "invalid parse_" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["4_1", "٤١", " 41"])
def test_env_seed_outside_ascii_is_domain_error(capsys, tmp_path, monkeypatch, seed):
    pbm, out = tmp_path / "g.pbm", tmp_path / "c.xyz"
    pbm.write_text(_SMOKE_PBM)
    monkeypatch.setenv("DM_STEGKIT_SEED", seed)
    status, doc = invoke(capsys, "qr3d-embed", "--grid", str(pbm), "--dir", "0,0,1",
                         "--pitch", "2", "-o", str(out))
    assert status == 1
    assert doc["result"]["error"] == "ValueError"
    assert "not an ASCII integer" in doc["result"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("options", [("--pitch", "2", "--jitter", "1e308"),
                                     ("--pitch", "1e308", "--jitter", "0")])
def test_qr3d_embed_with_non_finite_centres_writes_no_file(capsys, tmp_path, options):
    pbm, out = tmp_path / "g.pbm", tmp_path / "c.xyz"
    pbm.write_text(_SMOKE_PBM)
    # the overflow is reported by the envelope alone: no RuntimeWarning
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        status, doc = invoke(capsys, "qr3d-embed", "--grid", str(pbm), "--dir", "0,0,1",
                             *options, "-o", str(out))
    assert status == 1
    assert doc["result"]["error"] == "NonFiniteCoordinate"
    assert not out.exists()


@pytest.mark.parametrize("sketch, message", [
    ('{"x": 1}', "sketch must be a list of segments, got dict"),
    ("[1, 2]", "item 0: segment must be an object, got int"),
    ('[{"x": 0, "y0": 0, "y1": 1}, "x"]', "item 1: segment must be an object, got str"),
    ('[{"x": 1}]', "item 0: missing key 'y0'"),
    ('[{"x": true, "y0": 0, "y1": 1}]', "item 0: x must be a finite number, got True"),
    ('[{"x": 0, "y0": 0, "y1": 1}, {"x": 2, "y0": 0, "y1": "1_0"}]',
     "item 1: y1 must be a finite number, got '1_0'"),
    ('[{"x": 0, "y0": null, "y1": 1}]', "item 0: y0 must be a finite number, got None"),
    ('[{"x": NaN, "y0": 0, "y1": 1}]', "item 0: x must be a finite number, got nan"),
    ('[{"x": 0, "y0": 0, "y1": -Infinity}]', "item 0: y1 must be a finite number, got -inf"),
    pytest.param('[{"x": 0, "y0": 0, "y1": 1' + "0" * 400 + "}]",
                 "item 0: y1 must be a finite number", id="integer-beyond-float"),
])
def test_morse_decode_malformed_sketch_is_domain_error(capsys, tmp_path, sketch, message):
    path = tmp_path / "sketch.json"
    path.write_text(sketch)
    status, doc = invoke(capsys, "morse-decode", str(path))
    assert status == 1
    assert doc["result"]["error"] == "MalformedSketch"
    assert doc["result"]["message"].startswith(message)
