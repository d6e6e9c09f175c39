"""Exception types shared across the package, and `context`, which names a refusal's file, song or line."""

import contextlib


class DemixEvalError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidInputError(DemixEvalError, ValueError):
    """An argument violates an operation's contract (shape, range, emptiness)."""


class AudioFormatError(DemixEvalError):
    """Not a RIFF/WAVE file, or the header is malformed."""


class UnsupportedCodecError(AudioFormatError):
    """The WAVE encoding is not PCM 16-bit, PCM 24-bit, or IEEE float 32-bit."""


class CorruptFileError(AudioFormatError):
    """The data chunk is truncated or does not hold whole frames."""


class ManifestError(DemixEvalError):
    """A dataset manifest failed validation."""


class UndefinedMetricError(DemixEvalError):
    """The metric has no defined value for this input, e.g. a silent reference."""


class UndefinedCorrelationError(DemixEvalError):
    """Correlation is undefined: constant sequence or too few points."""


class MissingEstimateError(DemixEvalError):
    """A required stem estimate was not provided."""


class MissingSubmissionError(DemixEvalError):
    """A submission tree is missing estimate files for selected songs."""


class EvaluationError(DemixEvalError):
    """One or more songs failed to evaluate; the message lists every failure."""


@contextlib.contextmanager
def context(prefix: str):
    """Re-raise a DemixEvalError from the block as its own type, message led by prefix; others pass untouched."""
    try:
        yield
    except DemixEvalError as exc:
        raise type(exc)(prefix + str(exc)) from None
