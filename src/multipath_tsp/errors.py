"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class InstanceError(ToolkitError):
    """Invalid instance or solution data.

    `code` is a stable machine-readable tag: one of "malformed-json",
    "schema", "index-out-of-range", "self-loop", "duplicate-edge",
    "duplicate-commodity", "duplicate-terminal", "disconnected", "not-vrp".
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code

    def __reduce__(self):
        # `args` holds only the message; pickling (e.g. out of a bench worker) needs the code too
        return type(self), (self.code, str(self))


class LpError(ToolkitError):
    """LP solve failed (backend infeasibility or cut-round limit)."""


class DecompositionError(ToolkitError):
    """Greedy flow decomposition stalled on a residual that is not a flow."""


class OracleLimitError(ToolkitError):
    """Instance exceeds the exact oracle's size limits."""


class GenerationError(ToolkitError):
    """Random instance generation failed within the retry budget."""


class InternalError(ToolkitError):
    """An invariant the solvers guarantee was violated; signals a bug."""
