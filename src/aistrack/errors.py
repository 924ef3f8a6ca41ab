"""Exception hierarchy shared across the pipeline, and the output writes
that turn an OSError into IoFailure."""

from pathlib import Path


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


class TrackTooShort(AistrackError):
    pass


class NonFiniteActivation(AistrackError):
    """A NaN or infinite network output; `row` is its vessel's index on the
    network's vessel axis."""

    def __init__(self, message, row: int):
        super().__init__(message)
        self.row = row


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


class BadWeights(BadModel):
    """A weights file that does not fit its fleet file, or holds a
    non-finite value."""


class WeightOutOfRange(AistrackError):
    """A finite weight beyond the range of the dtype a rollout runs in."""


class TimeBeforeTraining(AistrackError):
    pass


class RolloutTooLong(AistrackError):
    pass


class GridTooLong(AistrackError):
    pass


class UnknownObjectId(AistrackError):
    pass


class IoFailure(AistrackError):
    pass


class BadConfig(AistrackError):
    pass


class IncompleteDecisions(AistrackError):
    pass


def output_dir(path) -> Path:
    """Directory `path`, created with its parents if it does not exist;
    IoFailure if it cannot be."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except FileExistsError as exc:  # a file of that name
        raise IoFailure(f"cannot create directory {path}: a file is in the way") from exc
    except OSError as exc:
        raise IoFailure(f"cannot create directory {path}: {exc.strerror or exc}") from exc
    return path


def write_output(path, data) -> None:
    """Write an output file of text, as UTF-8 whatever the locale, bytes or
    a list of byte buffers, written one after another, creating its
    directory first; IoFailure if it cannot be written."""
    path = Path(path)
    output_dir(path.parent)
    try:
        if isinstance(data, str):
            path.write_text(data, encoding="utf-8")
        else:
            with path.open("wb") as f:
                for chunk in [data] if isinstance(data, bytes) else data:
                    f.write(chunk)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc.strerror or exc}") from exc
