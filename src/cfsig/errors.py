"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CfsigError(Exception):
    """Base class for all errors raised by this package."""


class GraphSyntaxError(CfsigError):
    """Malformed DOT or GraphML input."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)


class DuplicateEdgeError(CfsigError):
    """The same directed edge was declared more than once."""


class UnknownEntryError(CfsigError):
    """No unambiguous entry node could be resolved."""


class InvalidMutationError(CfsigError):
    """Mutation operands do not refer to existing graph elements."""


class InvalidGraphError(CfsigError):
    """A graph is not a valid CFG: a block is unreachable from the entry or loops on itself."""


class InvalidKeyError(CfsigError):
    """Cipher key outside the cipher's key space."""


class MalformedPlaintextError(CfsigError):
    """Decrypted bytes do not parse as a signature (wrong key or corruption)."""


class TransportError(CfsigError):
    """A frame could not be delivered or decoded."""


class ScenarioError(CfsigError):
    """Cluster scenario file is invalid or names missing inputs."""
