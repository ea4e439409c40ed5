"""Exception hierarchy for the vmac library.

Errors are grouped by the layer that raises them: trace ingestion,
rate measurement, statistics, and experiment configuration.
"""


class VmacError(Exception):
    """Base class for all vmac errors."""


# -- trace ingestion / synthesis -------------------------------------------

class TraceError(VmacError):
    """Base class for trace file and synthesis problems."""


class MalformedLine(TraceError):
    def __init__(self, path, line_no, text):
        self.path = path
        self.line_no = line_no
        self.text = text
        super().__init__(f"{path}: line {line_no}: malformed frame record: {text!r}")


class EmptyTrace(TraceError):
    def __init__(self, path):
        super().__init__(f"{path}: trace contains no frames")


class MissingFps(TraceError):
    def __init__(self, path):
        super().__init__(
            f"{path}: no '# fps=' directive in file and no fps override given"
        )


class BoundsTooTight(TraceError):
    """No integer frame size fits inside the requested rate bounds."""


class ByteOverflow(VmacError):
    """A byte sum could leave the int64 range, so it would not stay exact."""


# -- rate measurement -------------------------------------------------------

class MixedFps(VmacError):
    """Flows with different frame rates share no common slot grid."""


class WindowOutOfRange(VmacError):
    """The measurement window extends before slot 0."""


class RateOverflow(VmacError):
    """A rate in bits/s exceeds the largest double."""


class InsufficientHistory(VmacError):
    """A trace is shorter than the requested measurement window."""


# -- bounds ------------------------------------------------------------------

class DegenerateRanges(VmacError):
    """All per-flow rate ranges have zero width; the bound is undefined."""


# -- statistics ---------------------------------------------------------------

class ZeroMean(VmacError):
    """A ratio-to-mean statistic was requested for a series with mean <= 0."""


class TooShort(VmacError):
    """The series has too few values for the requested statistic."""


class SeriesOverflow(VmacError):
    """A series' sum or a squared deviation leaves the double range."""

    def __init__(self, count):
        super().__init__(f"the sum or a squared deviation of a series of "
                         f"{count} values exceeds the largest double")


# -- experiments --------------------------------------------------------------

class EmptyLibrary(VmacError):
    """No traces available to draw flows from."""


class ClassMissing(VmacError):
    def __init__(self, content_class):
        self.content_class = content_class
        super().__init__(
            f"no trace of content class {content_class.value} in library"
        )
