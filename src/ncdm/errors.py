"""Exception types shared across the package."""


class NcdmError(Exception):
    """Base class for all ncdm errors."""


class DegenerateInputError(NcdmError):
    """Input is structurally valid but has no meaningful distance.

    Raised for empty or too-small multisets and for zero denominators.
    A zero denominator signals corrupt inputs (real compressors always
    emit headers), so it is reported rather than coerced to 0.
    """


class CardinalityLimitError(NcdmError):
    """Exact multiset distance requested above the subset-enumeration cap."""


class SeparatorCollisionError(NcdmError):
    """An element contains the separator byte in text framing mode."""


class BackendUnavailableError(NcdmError):
    """A compressor backend cannot run or violated its output contract."""


class CorpusError(NcdmError, ValueError):
    """An input file or a labeled corpus cannot be read, parsed or used."""
