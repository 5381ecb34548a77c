"""Command-line interface: every toolkit operation as a verb subcommand.

Each run prints a single JSON report envelope on stdout:

    {"tool": ..., "version": ..., "subcommand": ..., "inputs": {...},
     "result": {...}, "warnings": [...]}

Exit status is 0 on success, 1 on a domain error (reported inside the
envelope), and 2 on usage errors. Input files are never modified; outputs
go only where -o points. DM_STEGKIT_SEED overrides default seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import zlib

import numpy as np

from . import __version__, gcode, meshcore, qr3d, recon, stego, vrml
from .errors import StegkitError


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(path: str, data: bytes):
    with open(path, "wb") as fh:
        fh.write(data)


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
    return int(env) if env else 0


class _Run:
    """Collects inputs/warnings while a subcommand executes."""

    def __init__(self, subcommand: str):
        self.subcommand = subcommand
        self.inputs: dict[str, str] = {}
        self.warnings: list[str] = []

    def read_bytes(self, path: str) -> bytes:
        data = _read_bytes(path)
        self.inputs[path] = f"{zlib.crc32(data):08x}"
        return data

    def read_text(self, path: str) -> str:
        return self.read_bytes(path).decode("utf-8")

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
    _write_bytes(args.output, header + data[len(header):])
    return {"output": args.output, "message_bytes": len(message),
            "header_hex": header.hex()}


def _cmd_header_extract(run: _Run, args) -> dict:
    header = meshcore.stl_header(run.read_bytes(args.file))
    return {"payload": _payload_repr(stego.stl_header_payload(header))}


def _cmd_gcode_audit(run: _Run, args) -> dict:
    program = gcode.parse_gcode(run.read_text(args.file))
    report = gcode.audit(program, mismatch_threshold=args.threshold)
    run.warnings.extend(report.warnings)
    doc = report.to_dict()
    doc.pop("warnings")
    return doc


def _cmd_vrml_embed(run: _Run, args) -> dict:
    text = run.read_text(args.file)
    stream = vrml.parse_vrml(text)
    run.warnings.extend(stream.warnings)
    params = vrml.ChannelParams(start_slot=args.start_slot,
                                digits_per_value=args.digits)
    out_text = vrml.embed_green_digits(stream, args.message.encode("utf-8"), params)
    _write_bytes(args.output, out_text.encode("utf-8"))
    return {
        "output": args.output,
        "slots_total": len(stream.color_green_slots),
        "capacity_bytes": vrml.channel_capacity_bytes(stream, params),
        "message_bytes": len(args.message.encode("utf-8")),
    }


def _cmd_vrml_extract(run: _Run, args) -> dict:
    text = run.read_text(args.file)
    params = vrml.ChannelParams(start_slot=args.start_slot,
                                digits_per_value=args.digits)
    return {"payload": _payload_repr(vrml.extract_green_digits(text, params))}


def _cmd_morse_encode(run: _Run, args) -> dict:
    segments = stego.text_to_segments(args.text, stego.MorseParams(d=args.unit))
    doc = stego.segments_to_json(segments)
    if args.output:
        _write_bytes(args.output, json.dumps(doc).encode("utf-8"))
    return {"segments": doc, "count": len(doc)}


def _cmd_morse_decode(run: _Run, args) -> dict:
    items = json.loads(run.read_text(args.file))
    segments = stego.segments_from_json(items)
    text = stego.segments_to_text(segments, stego.MorseParams(d=args.unit))
    return {"text": text}


def _cmd_qr3d_embed(run: _Run, args) -> dict:
    grid = qr3d.grid_from_pbm(run.read_text(args.grid))
    params = qr3d.EmbedParams(
        pitch=args.pitch,
        direction=_parse_direction(args.direction),
        radius=args.radius,
        depth_jitter=args.jitter,
        seed=args.seed if args.seed is not None else _default_seed(),
    )
    cloud = qr3d.grid_to_spheres(grid, params)
    _write_bytes(args.output, qr3d.cloud_to_xyz(cloud).encode("utf-8"))
    result = {
        "output": args.output,
        "spheres": int(len(cloud.centers)),
        "pitch": params.pitch,
        "radius": params.radius,
        "depth_jitter": params.depth_jitter,
        "seed": params.seed,
    }
    if args.stl:
        mesh = qr3d.spheres_to_mesh(cloud, args.subdivisions)
        _write_bytes(args.stl, meshcore.write_stl_binary(mesh))
        result["stl"] = args.stl
        result["stl_triangles"] = int(len(mesh.triangles))
    return result


def _cmd_qr3d_project(run: _Run, args) -> dict:
    cloud = qr3d.cloud_from_xyz(run.read_text(args.file))
    grid = qr3d.project_to_grid(cloud, _parse_direction(args.direction), args.pitch)
    pbm = qr3d.grid_to_pbm(grid)
    if args.output:
        _write_bytes(args.output, pbm.encode("utf-8"))
    return {"modules": grid.n, "true_modules": int(grid.bits.sum()), "pbm": pbm}


def _cmd_qr3d_search(run: _Run, args) -> dict:
    cloud = qr3d.cloud_from_xyz(run.read_text(args.file))
    result = qr3d.search_direction(cloud, coarse_step_deg=args.coarse_step,
                                   refine_to_deg=args.refine_to)
    pbm = qr3d.grid_to_pbm(result.grid)
    if args.output:
        _write_bytes(args.output, pbm.encode("utf-8"))
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
    cloud = meshcore.parse_xyz(run.read_text(args.file))
    stack = recon.group_layers(cloud, z_tol=args.z_tol)
    mesh = recon.loft_layers(stack, resample_count=args.resample)
    _write_bytes(args.output, meshcore.write_stl_binary(mesh))
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
    p.add_argument("--threshold", type=float, default=0.02,
                   help="relative mismatch tolerance (default 0.02)")
    p.set_defaults(handler=_cmd_gcode_audit)

    p = sub.add_parser("vrml-embed", help="hide a message in green color digits")
    p.add_argument("file")
    p.add_argument("--message", required=True)
    p.add_argument("--start-slot", type=int, default=0)
    p.add_argument("--digits", type=int, default=6,
                   help="fractional digits per color value (default 6)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_vrml_embed)

    p = sub.add_parser("vrml-extract", help="recover a message from green color digits")
    p.add_argument("file")
    p.add_argument("--start-slot", type=int, default=0)
    p.add_argument("--digits", type=int, default=6)
    p.set_defaults(handler=_cmd_vrml_extract)

    p = sub.add_parser("morse-encode", help="encode text as a stroke sketch")
    p.add_argument("text")
    p.add_argument("--unit", type=float, default=1.0)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_morse_encode)

    p = sub.add_parser("morse-decode", help="decode a stroke sketch JSON file")
    p.add_argument("file")
    p.add_argument("--unit", type=float, default=1.0)
    p.set_defaults(handler=_cmd_morse_decode)

    p = sub.add_parser("qr3d-embed", help="turn a PBM bit grid into a sphere cloud")
    p.add_argument("--grid", required=True, help="plain PBM (P1) module matrix")
    p.add_argument("--dir", dest="direction", required=True,
                   help="viewing direction, e.g. 1,1,1 (normalized)")
    p.add_argument("--pitch", type=float, required=True)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--jitter", type=float, default=None,
                   help="depth jitter amplitude (default 5 x pitch)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stl", help="also write an icosphere mesh STL here")
    p.add_argument("--subdivisions", type=int, default=2)
    p.add_argument("-o", "--output", required=True, help="XYZ output path")
    p.set_defaults(handler=_cmd_qr3d_embed)

    p = sub.add_parser("qr3d-project", help="project a cloud along a known direction")
    p.add_argument("file", help="XYZ sphere centers")
    p.add_argument("--dir", dest="direction", required=True)
    p.add_argument("--pitch", type=float, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_qr3d_project)

    p = sub.add_parser("qr3d-search", help="recover the viewing direction by search")
    p.add_argument("file", help="XYZ sphere centers")
    p.add_argument("--coarse-step", type=float, default=2.0)
    p.add_argument("--refine-to", type=float, default=0.05)
    p.add_argument("-o", "--output", help="write the recovered grid as PBM")
    p.set_defaults(handler=_cmd_qr3d_search)

    p = sub.add_parser("recon", help="reconstruct a mesh from a layered XYZ cloud")
    p.add_argument("file")
    p.add_argument("--z-tol", type=float, default=None)
    p.add_argument("--resample", type=int, default=128)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_recon)

    p = sub.add_parser("orient-scan", help="rank print orientations by fragmentation")
    p.add_argument("file")
    p.add_argument("--angle-step", type=float, default=15.0)
    p.add_argument("--layer-height", type=float, default=0.2)
    p.add_argument("--top", type=int, default=10,
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
