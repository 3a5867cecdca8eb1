"""Exception hierarchy shared by all modules. The base class and
``SchemaError`` are the trusted checker's own (``check`` imports nothing
from the package)."""

from . import check

QuasicauseError = check.QuasicauseError
SchemaError = check.SchemaError


class TypeMismatch(QuasicauseError):
    """Wire signatures do not line up for the requested composition."""


class InvalidProbability(QuasicauseError):
    """A mixing weight lies outside [0, 1]."""


class InvalidPermutation(QuasicauseError):
    """Not a bijection on the wire positions."""


class UnboundGenerator(QuasicauseError):
    """A diagram leaf names a process that is not bound."""


class WrongKind(QuasicauseError):
    """A wire kind is not supported by the requested predicate or theory."""


class UnknownType(QuasicauseError):
    """The system type is not served by this theory or registry."""


class OutOfRange(QuasicauseError):
    """A wing label or subset lies outside {1..m}."""


class FrameDeficient(QuasicauseError):
    """A channel frame fails its affine rank requirement (fatal)."""


class NotNonSignalling(QuasicauseError):
    """Operation requires a non-signalling channel."""


class ResidualTooLarge(QuasicauseError):
    """A reconstruction residual exceeds the working tolerance."""


class SignatureMismatch(QuasicauseError):
    """Two processes that should share a signature do not."""


class InvalidAssemblage(QuasicauseError):
    """An assemblage violates positivity, normalization or no-signalling."""


class TooLarge(QuasicauseError):
    """A dense matrix or flat index would exceed the size the library builds."""
