"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class EmptyCorpusError(PipelineError):
    pass


class IdOutOfRangeError(PipelineError):
    pass


class ShapeMismatchError(PipelineError):
    pass


class InputTooShortError(PipelineError):
    pass


class BatchTooSmallError(PipelineError):
    pass


class NotNormalizedError(PipelineError):
    pass


class NotEnoughPointsError(PipelineError):
    pass


class NoVulnerableSamplesError(PipelineError):
    pass


class TooFewSamplesError(PipelineError):
    pass


class CorpusFormatError(PipelineError):
    pass


class IncompatibleSpecError(PipelineError):
    pass


class DivergenceError(PipelineError):
    """Training loss went non-finite; carries the offending step index."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class VersionMismatchError(PipelineError):
    def __init__(self, found, expected, kind):
        super().__init__(f"{kind} file format version {found}, this build reads {expected}")
        self.found = found
        self.expected = expected


class ChecksumMismatchError(PipelineError):
    pass


class SpecCorruptError(PipelineError):
    pass


class VocabHashMismatchError(PipelineError):
    def __init__(self, ours, theirs):
        super().__init__(f"vocabulary hash mismatch: {ours} vs {theirs}")
        self.ours = ours
        self.theirs = theirs


class EmptyMatrixError(PipelineError):
    pass
