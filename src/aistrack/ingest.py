"""Parsing, validation and per-vessel grouping of raw AIS CSV logs.

The CSV schema is `OBJECT_ID,VID,SEQUENCE_DTTM,LAT,LON,SPEED,COURSE` with
timestamps in strict ISO-8601 Zulu form at one-second resolution. Columns are
matched case-insensitively by name and may appear in any order.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import operator
import re
from collections.abc import Iterator
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


@functools.lru_cache(maxsize=4096)
def parse_timestamp(text: str) -> int:
    """Strict ISO-8601 Zulu -> epoch seconds (UTC). Memoised: a fleet's
    messages share few distinct timestamps. A bad text raises on every call,
    since exceptions are not cached."""
    dt = datetime.strptime(text, _TIME_FMT).replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


@functools.lru_cache(maxsize=4096)
def format_timestamp(epoch: int) -> str:
    """Epoch seconds (UTC) -> strict ISO-8601 Zulu, the inverse of
    parse_timestamp. Memoised like it: rows are written in time order, so
    the rows that share a timestamp format it once."""
    return datetime.fromtimestamp(epoch, tz=timezone.utc).strftime(_TIME_FMT)


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


def _resolve_header(fields: list[str]) -> list[int]:
    """The index in `fields` of each HEADER column, in HEADER order."""
    upper = [f.strip().upper() for f in fields]
    for name in HEADER:
        if name not in upper:
            raise MalformedRow(1, f"missing column {name}")
    return [upper.index(name) for name in HEADER]


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
    reader = csv.reader(io.StringIO(text))
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from exc


def parse_csv(text: str, strict: bool = True, stats: ParseStats | None = None) -> list[AisMessage]:
    """Parse a Table-1 style CSV. Strict mode raises on the first bad row;
    lenient mode skips bad rows and counts them in `stats`. Errors name the
    physical line a row starts on. A repeated OBJECT_ID is a bad row;
    lenient mode keeps its first row. So is a VID that `vessel_id_fault`
    rejects; each distinct VID is checked once. A line the csv module cannot
    split ends parsing in either mode."""
    reader = _csv_rows(text)
    try:
        _, header = next(reader)
    except StopIteration:
        raise MalformedRow(1, "empty input, header required")
    i_oid, i_vid, i_t, i_lat, i_lon, i_speed, i_course = _resolve_header(header)
    out: list[AisMessage] = []
    first_line: dict[int, int] = {}  # OBJECT_ID -> line it was accepted on
    good_vids: set[str] = set()
    for line_no, row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if stats is not None:
            stats.rows += 1
        try:
            if len(row) != len(header):
                raise MalformedRow(line_no, f"expected {len(header)} fields, got {len(row)}")
            try:
                object_id, vid = int(row[i_oid]), row[i_vid].strip()
                msg = AisMessage(
                    object_id,
                    vid,
                    parse_timestamp(row[i_t].strip()),
                    float(row[i_lat]),
                    float(row[i_lon]),
                    float(row[i_speed]),
                    float(row[i_course]),
                )
            except (ValueError, OverflowError) as exc:
                raise MalformedRow(line_no, str(exc)) from exc
            msg.validate(line_no)
            if vid not in good_vids:
                fault = vessel_id_fault(vid)
                if fault:
                    raise MalformedRow(line_no, fault)
                good_vids.add(vid)
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
        out.append(msg)
    return out


def object_id_pairs(text: str, header: tuple[str, ...], exact: bool) -> list[tuple[int, str]]:
    """(OBJECT_ID, second field) of each non-blank line after the header of
    a comma-separated file whose first field is an integer OBJECT_ID. A
    header that does not start with the names in `header` (matched
    case-insensitively), a row with fewer fields than `header` names (or
    more, if `exact`), a non-integer OBJECT_ID, or a repeated one is a
    MalformedRow naming its line."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    header_line, names = lines[0] if lines else (1, "")
    if [name.strip().upper() for name in names.split(",")[: len(header)]] != list(header):
        raise MalformedRow(header_line, f"header must start with {','.join(header)}")
    n_fields = len(header)
    out = []
    first_line: dict[int, int] = {}  # OBJECT_ID -> its line
    for line_no, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) < n_fields or (exact and len(fields) > n_fields):
            expected = n_fields if exact else f"at least {n_fields}"
            raise MalformedRow(line_no, f"expected {expected} fields, got {len(fields)}")
        try:
            object_id = int(fields[0])
        except ValueError:
            raise MalformedRow(line_no, f"OBJECT_ID {fields[0]!r} is not an integer") from None
        if object_id in first_line:
            raise MalformedRow(line_no, f"duplicate OBJECT_ID {object_id} (first on line {first_line[object_id]})")
        first_line[object_id] = line_no
        out.append((object_id, fields[1]))
    return out


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
