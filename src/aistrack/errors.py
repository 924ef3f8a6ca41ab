"""Exception hierarchy shared across the pipeline."""


class AistrackError(Exception):
    """Base class for all pipeline errors."""


class MalformedRow(AistrackError):
    """A bad row of an input file: `line N: reason`, led by the file's path
    once `path` is set."""

    def __init__(self, line_no, reason):
        super().__init__(line_no, reason)
        self.line_no = line_no
        self.reason = reason
        self.path = None

    def __str__(self):
        where = f"line {self.line_no}" if self.path is None else f"{self.path}: line {self.line_no}"
        return f"{where}: {self.reason}"


class OutOfRange(MalformedRow):
    def __init__(self, field, value, line_no):
        super().__init__(line_no, f"{field}={value!r} out of range")
        self.field = field
        self.value = value


class TrackTooShort(AistrackError):
    pass


class NonFiniteActivation(AistrackError):
    pass


class CacheMismatch(AistrackError):
    pass


class ChecksumMismatch(AistrackError):
    pass


class VersionMismatch(AistrackError):
    pass


class MissingFile(AistrackError):
    pass


class BadManifest(AistrackError):
    pass


class BadModel(AistrackError):
    pass


class TimeBeforeTraining(AistrackError):
    pass


class RolloutTooLong(AistrackError):
    pass


class UnknownObjectId(AistrackError):
    pass


class IoFailure(AistrackError):
    pass


class BadConfig(AistrackError):
    pass


class IncompleteDecisions(AistrackError):
    pass
