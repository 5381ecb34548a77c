"""dm-stegkit: steganography, forensics, and reverse-engineering tools for
digital manufacturing file formats (STL, G-code, VRML, XYZ point clouds)."""

__version__ = "0.1.0"

from . import errors
from .gcode import ForensicsReport, GcodeCommand, GcodeProgram, audit, filament_length, \
    metadata_claims, parse_gcode, z_profile
from .meshcore import PointCloud, Rotation, SliceLoops, TriMesh, mesh_volume, \
    parse_stl, parse_xyz, polygon_area, rotate_mesh, signed_volume, slice_mesh, \
    write_stl_binary, write_xyz
from .qr3d import BitGrid, DirectionSearchResult, EmbedParams, SphereCloud, basis_for, \
    cloud_from_xyz, cloud_to_xyz, grid_from_pbm, grid_to_pbm, grid_to_spheres, \
    lattice_score, project_to_grid, search_direction, spheres_to_mesh, unit_vector
from .recon import LayerStack, OrientationReport, OutlinePolygon, group_layers, \
    layer_outline, loft_layers, orientation_scan
from .stego import MorseParams, SketchSegment, embed_stl_header, extract_stl_header, \
    frame_payload, segments_from_json, segments_to_json, segments_to_text, \
    text_to_segments, unframe_payload
from .vrml import ChannelParams, VrmlTokenStream, channel_capacity_bytes, \
    embed_green_digits, extract_green_digits, parse_vrml

__all__ = [
    "errors",
    "ForensicsReport", "GcodeCommand", "GcodeProgram", "audit", "filament_length",
    "metadata_claims", "parse_gcode", "z_profile",
    "PointCloud", "Rotation", "SliceLoops", "TriMesh", "mesh_volume",
    "parse_stl", "parse_xyz", "polygon_area", "rotate_mesh", "signed_volume",
    "slice_mesh", "write_stl_binary", "write_xyz",
    "BitGrid", "DirectionSearchResult", "EmbedParams", "SphereCloud", "basis_for",
    "cloud_from_xyz", "cloud_to_xyz", "grid_from_pbm", "grid_to_pbm",
    "grid_to_spheres", "lattice_score", "project_to_grid", "search_direction",
    "spheres_to_mesh", "unit_vector",
    "LayerStack", "OrientationReport", "OutlinePolygon", "group_layers",
    "layer_outline", "loft_layers", "orientation_scan",
    "MorseParams", "SketchSegment", "embed_stl_header", "extract_stl_header",
    "frame_payload", "segments_from_json", "segments_to_json", "segments_to_text",
    "text_to_segments", "unframe_payload",
    "ChannelParams", "VrmlTokenStream", "channel_capacity_bytes",
    "embed_green_digits", "extract_green_digits", "parse_vrml",
    "__version__",
]
