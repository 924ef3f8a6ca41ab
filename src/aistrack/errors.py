"""Exception hierarchy shared across the pipeline."""


class AistrackError(Exception):
    """Base class for all pipeline errors."""


class MalformedRow(AistrackError):
    def __init__(self, line_no, reason):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class OutOfRange(AistrackError):
    def __init__(self, field, value, line_no=None):
        loc = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"{field}={value!r} out of range{loc}")
        self.field = field
        self.value = value
        self.line_no = line_no


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
