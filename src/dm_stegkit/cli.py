"""Command-line interface: every toolkit operation as a verb subcommand.

Each run prints a single JSON report envelope on stdout:

    {"tool": ..., "version": ..., "subcommand": ..., "inputs": {...},
     "result": {...}, "warnings": [...]}

Exit status is 0 on success, 1 on a domain error (reported inside the
envelope), and 2 on usage errors. Input files are never modified; outputs
go only where -o points. DM_STEGKIT_SEED overrides default seeds.

Numbers follow one ASCII rule, on the command line as in files: numeric
options and ``--dir`` parts are read by ``meshcore.parse_decimal`` and
integer options by ``meshcore.parse_integer``, so an underscore or a
non-ASCII digit is a usage error (exit 2); in DM_STEGKIT_SEED it is a
domain error (exit 1). Sphere centres must be finite. A Morse sketch is a
JSON list of objects whose x, y0 and y1 are finite numbers; anything else
is a MalformedSketch naming the item.
"""

from __future__ import annotations

import argparse
import codecs
import json
import os
import sys
import zlib

import numpy as np

from . import __version__, gcode, meshcore, qr3d, recon, stego, vrml
from .errors import StegkitError


# bytes ``_Run.stream_text`` reads and decodes at a time
_READ_BLOCK = 1 << 16


def _write(path: str, parts):
    """Write ``parts`` to ``path`` in order: bytes, or str encoded one by one."""
    with open(path, "wb") as fh:
        for part in parts:
            fh.write(part.encode("utf-8") if isinstance(part, str) else part)


def _payload_repr(data: bytes) -> dict:
    out = {"hex": data.hex(), "length": len(data)}
    try:
        out["text"] = data.decode("utf-8")
    except UnicodeDecodeError:
        pass
    return out


def _parse_direction(text: str) -> np.ndarray:
    parts = [meshcore.parse_decimal(p) for p in text.replace(",", " ").split()]
    if len(parts) != 3:
        raise ValueError("direction must be three numbers, e.g. 1,1,1")
    return qr3d.unit_vector(parts)


def _default_seed() -> int:
    env = os.environ.get("DM_STEGKIT_SEED")
    return meshcore.parse_integer(env) if env else 0


class _Run:
    """Collects inputs/warnings while a subcommand executes."""

    def __init__(self, subcommand: str):
        self.subcommand = subcommand
        self.inputs: dict[str, str] = {}
        self.warnings: list[str] = []

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as fh:
            data = fh.read()
        self.inputs[path] = f"{zlib.crc32(data):08x}"
        return data

    def stream_text(self, path: str, consume):
        """``consume(pieces)`` on the file's UTF-8 text, decoded one block of
        ``_READ_BLOCK`` bytes at a time; a consumer that needs one str passes
        ``"".join``. The CRC is recorded once every byte has been read, the
        rest of the file is read after an error of ``consume``, and a file that
        is not UTF-8 raises the error of a whole-file decode (CRC recorded)
        before any error of ``consume``.
        """
        with open(path, "rb") as fh:
            decode = codecs.getincrementaldecoder("utf-8")().decode

            def pieces():
                crc = 0
                while block := fh.read(_READ_BLOCK):
                    crc = zlib.crc32(block, crc)
                    yield decode(block)
                yield decode(b"", final=True)
                self.inputs[path] = f"{crc:08x}"

            blocks = pieces()
            try:
                try:
                    return consume(blocks)
                finally:
                    for _ in blocks:                # the rest: its CRC and decoding
                        pass
            except UnicodeDecodeError:
                self.read_bytes(path).decode("utf-8")   # raises the whole-file error
                raise

    def envelope(self, result: dict) -> dict:
        return {
            "tool": "dm-stegkit",
            "version": __version__,
            "subcommand": self.subcommand,
            "inputs": self.inputs,
            "result": result,
            "warnings": self.warnings,
        }


# --- subcommand handlers -----------------------------------------------------

def _cmd_stl_info(run: _Run, args) -> dict:
    mesh = meshcore.parse_stl(run.read_bytes(args.file))
    lo, hi = mesh.bounds()
    vol = meshcore.signed_volume(mesh)
    return {
        "triangles": int(len(mesh.triangles)),
        "vertices": int(len(mesh.vertices)),
        "header_hex": mesh.header.hex(),
        "volume_mm3": abs(vol),
        "negative_orientation": vol < 0,
        "bounds_min": lo.tolist(),
        "bounds_max": hi.tolist(),
    }


def _cmd_header_embed(run: _Run, args) -> dict:
    data = run.read_bytes(args.file)
    message = args.message.encode("utf-8")
    # the cover is checked before the message: a binary cover is validated,
    # not parsed, and keeps every byte after the header; an ASCII cover is
    # parsed and rewritten as binary
    if meshcore.is_binary_stl(data):
        meshcore.stl_header(data)
    else:
        data = meshcore.write_stl_binary(meshcore.parse_stl(data))
    header = stego.stl_header_frame(message)
    # the cover is not copied: the header, then a view of the rest
    _write(args.output, (header, memoryview(data)[len(header):]))
    return {"output": args.output, "message_bytes": len(message),
            "header_hex": header.hex()}


def _cmd_header_extract(run: _Run, args) -> dict:
    header = meshcore.stl_header(run.read_bytes(args.file))
    return {"payload": _payload_repr(stego.stl_header_payload(header))}


def _cmd_gcode_audit(run: _Run, args) -> dict:
    report = run.stream_text(args.file, lambda pieces: gcode.audit(
        pieces, mismatch_threshold=args.threshold))
    run.warnings.extend(report.warnings)
    doc = report.to_dict()
    doc.pop("warnings")
    return doc


def _cmd_vrml_embed(run: _Run, args) -> dict:
    stream = vrml.parse_vrml(run.stream_text(args.file, "".join))
    run.warnings.extend(stream.warnings)
    params = vrml.ChannelParams(start_slot=args.start_slot, digits_per_value=args.digits)
    replacements = vrml.green_digit_replacements(stream, args.message.encode("utf-8"), params)
    _write(args.output, stream.pieces(replacements))
    return {
        "output": args.output,
        "slots_total": len(stream.color_green_slots),
        "capacity_bytes": vrml.channel_capacity_bytes(stream, params),
        "message_bytes": len(args.message.encode("utf-8")),
    }


def _cmd_vrml_extract(run: _Run, args) -> dict:
    text = run.stream_text(args.file, "".join)
    params = vrml.ChannelParams(start_slot=args.start_slot, digits_per_value=args.digits)
    return {"payload": _payload_repr(vrml.extract_green_digits(text, params))}


def _cmd_morse_encode(run: _Run, args) -> dict:
    segments = stego.text_to_segments(args.text, stego.MorseParams(d=args.unit))
    doc = stego.segments_to_json(segments)
    if args.output:
        _write(args.output, [json.dumps(doc)])
    return {"segments": doc, "count": len(doc)}


def _cmd_morse_decode(run: _Run, args) -> dict:
    segments = stego.segments_from_json(json.loads(run.stream_text(args.file, "".join)))
    return {"text": stego.segments_to_text(segments, stego.MorseParams(d=args.unit))}


def _cmd_qr3d_embed(run: _Run, args) -> dict:
    grid = qr3d.grid_from_pbm(run.stream_text(args.grid, "".join))
    params = qr3d.EmbedParams(
        pitch=args.pitch,
        direction=_parse_direction(args.direction),
        radius=args.radius,
        depth_jitter=args.jitter,
        seed=args.seed if args.seed is not None else _default_seed(),
    )
    cloud = qr3d.grid_to_spheres(grid, params)
    # the mesh checks --subdivisions, so it is built before any file is written
    mesh = qr3d.spheres_to_mesh(cloud, args.subdivisions) if args.stl else None
    _write(args.output, [qr3d.cloud_to_xyz(cloud)])
    result = {
        "output": args.output,
        "spheres": int(len(cloud.centers)),
        "pitch": params.pitch,
        "radius": params.radius,
        "depth_jitter": params.depth_jitter,
        "seed": params.seed,
    }
    if args.stl:
        _write(args.stl, [meshcore.write_stl_binary(mesh)])
        result["stl"] = args.stl
        result["stl_triangles"] = int(len(mesh.triangles))
    return result


def _cmd_qr3d_project(run: _Run, args) -> dict:
    cloud = run.stream_text(args.file, qr3d.cloud_from_xyz)
    grid = qr3d.project_to_grid(cloud, _parse_direction(args.direction), args.pitch)
    pbm = qr3d.grid_to_pbm(grid)
    if args.output:
        _write(args.output, [pbm])
    return {"modules": grid.n, "true_modules": int(grid.bits.sum()), "pbm": pbm}


def _cmd_qr3d_search(run: _Run, args) -> dict:
    cloud = run.stream_text(args.file, qr3d.cloud_from_xyz)
    result = qr3d.search_direction(cloud, coarse_step_deg=args.coarse_step,
                                   refine_to_deg=args.refine_to)
    pbm = qr3d.grid_to_pbm(result.grid)
    if args.output:
        _write(args.output, [pbm])
    if result.score >= qr3d.MISS_SCORE:
        run.warnings.append(f"best lattice score {result.score:.3g} >= {qr3d.MISS_SCORE}: "
                            "no lattice direction was found; direction and grid are "
                            "unreliable")
    return {
        "direction": result.direction.tolist(),
        "score": result.score,
        "estimated_pitch": result.estimated_pitch,
        "candidates_evaluated": result.candidates_evaluated,
        "modules": result.grid.n,
        "pbm": pbm,
    }


def _cmd_recon(run: _Run, args) -> dict:
    cloud = run.stream_text(args.file, meshcore.parse_xyz)
    stack = recon.group_layers(cloud, z_tol=args.z_tol)
    mesh = recon.loft_layers(stack, resample_count=args.resample)
    _write(args.output, [meshcore.write_stl_binary(mesh)])
    return {
        "output": args.output,
        "points": int(len(cloud.points)),
        "layer_count": stack.layer_count,
        "median_spacing": stack.median_spacing,
        "volume_mm3": meshcore.mesh_volume(mesh),
        "triangles": int(len(mesh.triangles)),
    }


def _cmd_orient_scan(run: _Run, args) -> dict:
    mesh = meshcore.parse_stl(run.read_bytes(args.file))
    report = recon.orientation_scan(mesh, angle_step_deg=args.angle_step,
                                    layer_height=args.layer_height)
    return report.to_dict(top=args.top)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dm-stegkit",
        description="Steganography and forensics toolkit for digital "
                    "manufacturing file formats.",
    )
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON report")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("stl-info", help="mesh statistics and header bytes")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_stl_info)

    p = sub.add_parser("header-embed", help="hide a message in the STL header")
    p.add_argument("file")
    p.add_argument("--message", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_header_embed)

    p = sub.add_parser("header-extract", help="recover a message from the STL header")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_header_extract)

    p = sub.add_parser("gcode-audit", help="audit G-code metadata against its toolpath")
    p.add_argument("file")
    p.add_argument("--threshold", type=meshcore.parse_decimal, default=0.02,
                   help="relative mismatch tolerance (default 0.02)")
    p.set_defaults(handler=_cmd_gcode_audit)

    p = sub.add_parser("vrml-embed", help="hide a message in green color digits")
    p.add_argument("file")
    p.add_argument("--message", required=True)
    p.add_argument("--start-slot", type=meshcore.parse_integer, default=0)
    p.add_argument("--digits", type=meshcore.parse_integer, default=6,
                   help="fractional digits per color value (default 6)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_vrml_embed)

    p = sub.add_parser("vrml-extract", help="recover a message from green color digits")
    p.add_argument("file")
    p.add_argument("--start-slot", type=meshcore.parse_integer, default=0)
    p.add_argument("--digits", type=meshcore.parse_integer, default=6)
    p.set_defaults(handler=_cmd_vrml_extract)

    p = sub.add_parser("morse-encode", help="encode text as a stroke sketch")
    p.add_argument("text")
    p.add_argument("--unit", type=meshcore.parse_decimal, default=1.0)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_morse_encode)

    p = sub.add_parser("morse-decode", help="decode a stroke sketch JSON file")
    p.add_argument("file")
    p.add_argument("--unit", type=meshcore.parse_decimal, default=1.0)
    p.set_defaults(handler=_cmd_morse_decode)

    p = sub.add_parser("qr3d-embed", help="turn a PBM bit grid into a sphere cloud")
    p.add_argument("--grid", required=True, help="plain PBM (P1) module matrix")
    p.add_argument("--dir", dest="direction", required=True,
                   help="viewing direction, e.g. 1,1,1 (normalized)")
    p.add_argument("--pitch", type=meshcore.parse_decimal, required=True)
    p.add_argument("--radius", type=meshcore.parse_decimal, default=None)
    p.add_argument("--jitter", type=meshcore.parse_decimal, default=None,
                   help="depth jitter amplitude (default 5 x pitch)")
    p.add_argument("--seed", type=meshcore.parse_integer, default=None)
    p.add_argument("--stl", help="also write an icosphere mesh STL here")
    p.add_argument("--subdivisions", type=meshcore.parse_integer, default=2)
    p.add_argument("-o", "--output", required=True, help="XYZ output path")
    p.set_defaults(handler=_cmd_qr3d_embed)

    p = sub.add_parser("qr3d-project", help="project a cloud along a known direction")
    p.add_argument("file", help="XYZ sphere centers")
    p.add_argument("--dir", dest="direction", required=True)
    p.add_argument("--pitch", type=meshcore.parse_decimal, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_qr3d_project)

    p = sub.add_parser("qr3d-search", help="recover the viewing direction by search")
    p.add_argument("file", help="XYZ sphere centers")
    p.add_argument("--coarse-step", type=meshcore.parse_decimal, default=2.0)
    p.add_argument("--refine-to", type=meshcore.parse_decimal, default=0.05)
    p.add_argument("-o", "--output", help="write the recovered grid as PBM")
    p.set_defaults(handler=_cmd_qr3d_search)

    p = sub.add_parser("recon", help="reconstruct a mesh from a layered XYZ cloud")
    p.add_argument("file")
    p.add_argument("--z-tol", type=meshcore.parse_decimal, default=None)
    p.add_argument("--resample", type=meshcore.parse_integer, default=128)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_recon)

    p = sub.add_parser("orient-scan", help="rank print orientations by fragmentation")
    p.add_argument("file")
    p.add_argument("--angle-step", type=meshcore.parse_decimal, default=15.0)
    p.add_argument("--layer-height", type=meshcore.parse_decimal, default=0.2)
    p.add_argument("--top", type=meshcore.parse_integer, default=10,
                   help="candidates to include in the report (default 10)")
    p.set_defaults(handler=_cmd_orient_scan)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runctx = _Run(args.subcommand)
    try:
        result = args.handler(runctx, args)
        status = 0
    except (StegkitError, OSError, ValueError) as exc:
        result = {"error": type(exc).__name__, "message": str(exc)}
        status = 1
    envelope = runctx.envelope(result)
    print(json.dumps(envelope, indent=2 if args.pretty else None))
    return status


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
