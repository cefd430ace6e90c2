"""Exception hierarchy shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package."""

    code = "engine-error"


class InputRejected(EngineError, ValueError):
    """Raised when an operation receives data that violates its contract."""

    code = "input-rejected"


class NotFound(EngineError):
    """Raised when a referenced entity (track, node, frame) does not exist."""

    code = "not-found"


class NoAlignedFrame(EngineError):
    """Raised when no frame was operator-visible at the requested time."""

    code = "no-aligned-frame"


class FormatError(EngineError, ValueError):
    """Raised when a serialized payload cannot be parsed or fails its schema."""

    code = "format-error"
