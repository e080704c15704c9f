"""Exception types shared across the package."""


class DelcertError(Exception):
    """Base class for all package-specific errors."""


class SchemeMismatchError(DelcertError, ValueError):
    """Two token sequences with different tokenization schemes were combined."""


class GuardError(DelcertError, ValueError):
    """A brute-force or automaton scale guard was exceeded."""


class TransportError(DelcertError, RuntimeError):
    """The external classifier process failed at the protocol level.

    Distinct from a classification result: a transport error means no
    trustworthy labels were obtained at all.
    """


class UsageError(DelcertError):
    """The options cannot be acted on: a required choice is missing, or a
    classifier command cannot be started."""


class DataFormatError(DelcertError, ValueError):
    """A dataset, lexicon or model file could not be parsed."""
