"""Parsing, validation and per-vessel grouping of raw AIS CSV logs, and the
reading of every other CSV file the CLI takes.

The AIS schema is `OBJECT_ID,VID,SEQUENCE_DTTM,LAT,LON,SPEED,COURSE` with
timestamps in strict ISO-8601 Zulu form at one-second resolution. Every CSV
read here (AIS rows, and the OBJECT_ID pairs of truth and decisions files)
follows `_read_rows`' rules: the csv module splits it, the header is line 1,
columns are matched case-insensitively by name and may appear in any order,
a column read appears once in the header, each row has as many fields as
the header, and an OBJECT_ID appears once.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
import re
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import NamedTuple

from .errors import MalformedRow, OutOfRange

HEADER = ("OBJECT_ID", "VID", "SEQUENCE_DTTM", "LAT", "LON", "SPEED", "COURSE")

_TIME_FMT = "%Y-%m-%dT%H:%M:%SZ"

# The |LAT| and |LON| bounds of a row, in degrees.
LAT_LON_BOUNDS = (90.0, 180.0)

# The label of an observation assigned to no vessel.
NEW_TRACK = "NEW"

# What a VID may not hold: a CSV delimiter or quote, since it goes into the
# CSV fields the pipeline writes, a path separator, or a control character.
_VID_FORBIDDEN = re.compile(r'[,"/\\\x00-\x1f\x7f-\x9f]')

# A line with its "\n", or a last piece without one: what io.StringIO(text)
# iterates over, without its copy of the text at 4 bytes a character.
_LINE = re.compile(r"[^\n]*\n|[^\n]+")


@functools.lru_cache(maxsize=4096)
def parse_timestamp(text: str) -> int:
    """Strict ISO-8601 Zulu, every field zero-padded as `format_timestamp`
    writes it, -> epoch seconds (UTC). Memoised: a fleet's messages share
    few distinct timestamps. A bad text raises on every call, since
    exceptions are not cached."""
    epoch = int(datetime.strptime(text, _TIME_FMT).replace(tzinfo=timezone.utc).timestamp())
    if format_timestamp(epoch) != text:  # strptime alone takes '2020-3-1T0:0:0Z'
        raise ValueError(f"time data {text!r} is not zero-padded {_TIME_FMT!r}")
    return epoch


@functools.lru_cache(maxsize=4096)
def format_timestamp(epoch: int) -> str:
    """Epoch seconds (UTC) -> strict ISO-8601 Zulu, the inverse of
    parse_timestamp. Memoised like it: rows are written in time order, so
    the rows that share a timestamp format it once. The fields are written
    zero-padded, since strftime's %Y does not pad a year before 1000."""
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % datetime.fromtimestamp(epoch, tz=timezone.utc).timetuple()[:6]


class AisMessage(NamedTuple):
    """One decoded CSV row, a named tuple in HEADER's column order.

    speed is tenths of knots, course tenths of degrees in [0, 3600),
    t is epoch seconds (UTC, one-second resolution). A row is a plain
    tuple too: it compares equal to the tuple of its fields, unpacks as
    one, and the pipeline builds and reads it by position.
    """

    object_id: int
    vessel_id: str
    t: int
    lat: float
    lon: float
    speed: float
    course: float

    def validate(self, line_no: int) -> None:
        lat_bound, lon_bound = LAT_LON_BOUNDS
        if self.object_id <= 0:
            raise OutOfRange("OBJECT_ID", self.object_id, line_no)
        if not -lat_bound <= self.lat <= lat_bound:
            raise OutOfRange("LAT", self.lat, line_no)
        if not -lon_bound <= self.lon <= lon_bound:
            raise OutOfRange("LON", self.lon, line_no)
        if not 0.0 <= self.speed < math.inf:
            raise OutOfRange("SPEED", self.speed, line_no)
        if not 0.0 <= self.course < 3600.0:
            raise OutOfRange("COURSE", self.course, line_no)


# Sort key of rows in time order, ties broken by OBJECT_ID: (t, object_id).
time_order = operator.itemgetter(2, 0)


@dataclass
class RawTrack:
    """Chronological message sequence from one vessel (ties broken by object_id)."""

    vessel_id: str
    messages: list[AisMessage] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.messages)


@dataclass
class ParseStats:
    rows: int = 0
    skipped: int = 0


def _resolve_header(fields: list[str], names: tuple[str, ...]) -> list[int]:
    """The index in `fields` of each of `names`, in `names` order; each
    must appear once, matched case-insensitively."""
    upper = [f.strip().upper() for f in fields]
    for name in names:
        if name not in upper:
            raise MalformedRow(1, f"missing column {name}")
        if upper.count(name) > 1:
            raise MalformedRow(1, f"column {name} appears {upper.count(name)} times")
    return [upper.index(name) for name in names]


def vessel_id_fault(vid: str) -> str | None:
    """Why `vid` cannot be a vessel id: it is empty, has surrounding
    whitespace, equals NEW_TRACK or holds a forbidden character; None if it
    can be one."""
    if not vid:
        return "empty VID"
    if vid != vid.strip():
        return f"VID {vid!r} has surrounding whitespace"
    if vid == NEW_TRACK:
        return f"VID {vid!r} is the new-track label"
    bad = _VID_FORBIDDEN.search(vid)
    return f"VID {vid!r} holds {bad.group()!r}" if bad else None


def _csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """csv.reader's rows, each with the physical line it starts on (a quoted
    field may span lines); a line it cannot split (a field over its size
    limit, or a NUL before Python 3.11) is a MalformedRow."""
    reader = csv.reader(map(re.Match.group, _LINE.finditer(text)))
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from exc


def _read_rows(
    text: str, names: tuple[str, ...], parse_row: Callable[[tuple[str, ...], int], tuple], strict: bool,
    stats: ParseStats | None,
) -> list:
    """parse_row(fields, line_no) of each non-blank row after the header,
    its fields being the columns `names` in that order. The header is line
    1's row; each later row has as many fields as it. parse_row returns a
    tuple whose first item is the row's OBJECT_ID, which no earlier row may
    hold. Strict mode raises on the first bad row; lenient mode skips bad
    rows, counts them in `stats`, and a skipped row claims no OBJECT_ID.
    Errors name the physical line a row starts on; a line the csv module
    cannot split ends reading in either mode."""
    reader = _csv_rows(text)
    try:
        _, header = next(reader)
    except StopIteration:
        raise MalformedRow(1, "empty input, header required")
    columns = operator.itemgetter(*_resolve_header(header, names))
    out = []
    first_line: dict[int, int] = {}  # OBJECT_ID -> line it was accepted on
    for line_no, row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if stats is not None:
            stats.rows += 1
        try:
            if len(row) != len(header):
                raise MalformedRow(line_no, f"expected {len(header)} fields, got {len(row)}")
            record = parse_row(columns(row), line_no)
            object_id = record[0]
            if object_id in first_line:
                first = first_line[object_id]
                raise MalformedRow(line_no, f"duplicate OBJECT_ID {object_id} (first on line {first})")
        except MalformedRow:  # OutOfRange included
            if strict:
                raise
            if stats is not None:
                stats.skipped += 1
            continue
        first_line[object_id] = line_no
        out.append(record)
    return out


def parse_csv(text: str, strict: bool = True, stats: ParseStats | None = None) -> list[AisMessage]:
    """Parse a Table-1 style CSV by `_read_rows`' rules: strict mode raises
    on the first bad row, lenient mode skips it, keeping the first row of a
    repeated OBJECT_ID. A row is bad if a field does not parse, a value is
    out of range or its VID is one `vessel_id_fault` rejects; each distinct
    VID is checked once."""
    good_vids: set[str] = set()

    def message(fields: tuple[str, ...], line_no: int) -> AisMessage:
        object_id, vid, t, lat, lon, speed, course = fields
        vid = vid.strip()
        try:
            msg = AisMessage(int(object_id), vid, parse_timestamp(t.strip()),
                             float(lat), float(lon), float(speed), float(course))
        except (ValueError, OverflowError) as exc:
            raise MalformedRow(line_no, str(exc)) from exc
        msg.validate(line_no)
        if vid not in good_vids:
            fault = vessel_id_fault(vid)
            if fault:
                raise MalformedRow(line_no, fault)
            good_vids.add(vid)
        return msg

    return _read_rows(text, HEADER, message, strict, stats)


def object_id_pairs(text: str, names: tuple[str, str]) -> list[tuple[int, str]]:
    """(OBJECT_ID, label) of each row of a CSV file whose columns `names`
    hold an integer OBJECT_ID and a label, read strictly by `_read_rows`'
    rules; the label is stripped, as a VID is, and may not be empty."""

    def pair(fields: tuple[str, str], line_no: int) -> tuple[int, str]:
        object_id, label = fields
        if not label.strip():
            raise MalformedRow(line_no, f"empty {names[1]}")
        try:
            return int(object_id), label.strip()
        except ValueError:
            raise MalformedRow(line_no, f"OBJECT_ID {object_id!r} is not an integer") from None

    return _read_rows(text, names, pair, strict=True, stats=None)


def serialize_csv(messages: list[AisMessage]) -> str:
    """Inverse of parse_csv at full stored precision (repr round-trips floats)."""
    lines = [",".join(HEADER)]
    for object_id, vid, t, lat, lon, speed, course in messages:
        lines.append(
            f"{object_id},{vid},{format_timestamp(t)},"
            f"{float(lat)!r},{float(lon)!r},{float(speed)!r},{float(course)!r}"
        )
    return "\n".join(lines) + "\n"


def group_tracks(messages: list[AisMessage]) -> list[RawTrack]:
    """One RawTrack per distinct vessel_id, each sorted by (t, object_id)."""
    by_vessel: dict[str, list[AisMessage]] = {}
    for m in messages:
        by_vessel.setdefault(m.vessel_id, []).append(m)
    tracks = []
    for vid in sorted(by_vessel):
        msgs = sorted(by_vessel[vid], key=time_order)
        tracks.append(RawTrack(vessel_id=vid, messages=msgs))
    return tracks
