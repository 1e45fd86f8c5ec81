"""Shared exception types for the stochprobe package."""

from __future__ import annotations


class StochprobeError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(StochprobeError):
    """A tree, path, or instance is malformed relative to its contract."""


class UnknownActionError(StructuralError):
    """A policy references an action id the instance does not define."""


class ParameterError(StochprobeError, ValueError):
    """A knob or argument is outside its documented range."""


class HintError(ParameterError):
    """A reference-scale hint does not apply to the given instance."""


class ClampError(StochprobeError):
    """A discretization produced probability mass outside [0, 1]."""


class ParseError(StochprobeError, ValueError):
    """Serialized input violates the schema; the message names the field."""


class UsageError(StochprobeError):
    """The command line was invoked with an unknown or inconsistent request."""


class CapacityError(StochprobeError):
    """A configured combinatorial cap was exceeded; raised as soon as it
    is, with ``states_explored`` the number of states (or topologies)
    touched by then."""

    def __init__(self, message: str, *, states_explored: int = 0):
        super().__init__(message)
        self.states_explored = states_explored
