"""Exception hierarchy shared by all dm-stegkit modules."""


class StegkitError(Exception):
    """Base class for all domain errors raised by this package."""


# --- mesh / point-cloud parsing ---------------------------------------------

class TruncatedFile(StegkitError):
    """Binary STL whose length disagrees with its declared triangle count."""

    def __init__(self, declared: int, actual_len: int):
        self.declared = declared
        self.actual_len = actual_len
        super().__init__(
            f"binary STL declares {declared} triangles "
            f"(needs {84 + 50 * declared} bytes) but file is {actual_len} bytes"
        )


class MalformedAscii(StegkitError):
    """ASCII STL grammar violation."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class NonFiniteCoordinate(StegkitError):
    """NaN or infinite coordinate encountered while parsing geometry."""


class InvalidMesh(StegkitError):
    """Triangle mesh violating structural invariants (bad indices, etc.)."""


class BadLine(StegkitError):
    """XYZ point file line that is not three numbers."""

    def __init__(self, line: int, message: str = "expected 3 numbers"):
        self.line = line
        super().__init__(f"line {line}: {message}")


class EmptyCloud(StegkitError):
    """Point cloud with no points where at least one is required."""


# --- G-code ------------------------------------------------------------------

class MalformedNumber(StegkitError):
    """G-code word whose numeric part does not parse."""

    def __init__(self, line: int, message: str = "malformed number"):
        self.line = line
        super().__init__(f"line {line}: {message}")


class AmbiguousClaims(StegkitError):
    """Conflicting filament-usage claims found in G-code comments."""

    def __init__(self, claims_mm):
        self.claims_mm = list(claims_mm)
        super().__init__(f"conflicting filament claims (mm): {self.claims_mm}")


# --- VRML --------------------------------------------------------------------

class MissingHeader(StegkitError):
    """File does not start with a #VRML V2.0 header line."""


class UnbalancedBrackets(StegkitError):
    """Mismatched {} or [] in a VRML file."""

    def __init__(self, offset: int, message: str = "unbalanced bracket"):
        self.offset = offset
        super().__init__(f"offset {offset}: {message}")


class NonAsciiDigit(StegkitError):
    """Non-ASCII digit touching a number in a VRML file."""

    def __init__(self, offset: int, digit: str):
        self.offset = offset
        super().__init__(f"offset {offset}: non-ASCII digit {digit!r} runs into a number")


class InsufficientSlots(StegkitError):
    """Not enough rewritable color slots for the requested payload."""

    def __init__(self, needed: int, available: int):
        self.needed = needed
        self.available = available
        super().__init__(f"need {needed} color slots, only {available} available")


# --- payload framing ---------------------------------------------------------

class PayloadTooLarge(StegkitError):
    """Payload exceeds the 16-bit length field of a frame."""


class MessageTooLong(StegkitError):
    """Framed message does not fit the 80-byte STL header."""


class NoFrameFound(StegkitError):
    """No valid frame magic located in the scanned bits."""


class CrcMismatch(StegkitError):
    """Frame located but its CRC-32 check failed."""


class UnsupportedVersion(StegkitError):
    """Frame located but carries an unknown version byte."""

    def __init__(self, version: int):
        self.version = version
        super().__init__(f"unsupported frame version {version}")


# --- Morse sketch codec ------------------------------------------------------

class UnsupportedCharacter(StegkitError):
    """Character outside the A-Z / 0-9 / space alphabet."""

    def __init__(self, char: str):
        self.char = char
        super().__init__(f"unsupported character {char!r}")


class UnknownMorseSequence(StegkitError):
    """Dot/dash sequence with no table entry."""

    def __init__(self, position: int, sequence: str):
        self.position = position
        self.sequence = sequence
        super().__init__(f"symbol {position}: unknown sequence {sequence!r}")


class UnsortedSegments(StegkitError):
    """Sketch segments not sorted by baseline position."""


class MalformedSketch(StegkitError):
    """Sketch JSON that is not a list of {x, y0, y1} objects of finite numbers."""

    def __init__(self, item: int | None, message: str):
        self.item = item
        super().__init__(message if item is None else f"item {item}: {message}")


# --- sphere-cloud codes ------------------------------------------------------

class DegenerateProjection(StegkitError):
    """Projection collapses the cloud below a 2x2 module grid."""


class TooFewSpheres(StegkitError):
    """Direction search requires at least 4 sphere centers."""


# --- reconstruction ----------------------------------------------------------

class TooFewPoints(StegkitError):
    """Outline extraction requires at least 3 points."""


class DegenerateLayer(StegkitError):
    """Layer whose outline has no usable area."""

    def __init__(self, z: float):
        self.z = z
        super().__init__(f"degenerate outline at z={z}")
