import csv
import io
import math

import pytest
from hypothesis import example, given, strategies as st

from aistrack.errors import MalformedRow, OutOfRange
from aistrack.ingest import (
    AisMessage,
    ParseStats,
    _csv_rows,
    format_timestamp,
    group_tracks,
    object_id_pairs,
    parse_csv,
    parse_timestamp,
    serialize_csv,
)
from aistrack.synth import BASE_EPOCH

HEADER = "OBJECT_ID,VID,SEQUENCE_DTTM,LAT,LON,SPEED,COURSE"

TABLE_ROWS = """\
1,10807db4,2020-02-29T22:00:01Z,37.85671667,23.53735,0,0
2,203d4b0c,2020-02-29T22:00:01Z,37.9483,23.64101667,0,349.9
3,50ee2bf4,2020-02-29T22:00:01Z,37.93902333,23.66884833,0,228.3
4,8b998a42,2020-02-29T22:00:01Z,37.93884,23.66863333,0,0.1
5,3265e660,2020-02-29T22:00:02Z,37.93147167,23.68042667,0,170.1
"""


def test_parse_first_row():
    msgs = parse_csv(HEADER + "\n" + TABLE_ROWS)
    assert len(msgs) == 5
    m = msgs[0]
    assert m.object_id == 1
    assert m.vessel_id == "10807db4"
    assert m.lat == 37.85671667
    assert m.lon == 23.53735
    assert m.speed == 0.0
    assert m.course == 0.0
    assert m.t == parse_timestamp("2020-02-29T22:00:01Z")


def test_header_only_gives_empty_list():
    assert parse_csv(HEADER + "\n") == []


def test_out_of_range_lat_strict():
    bad = HEADER + "\n1,aa,2020-02-29T22:00:01Z,91.0,0,0,0\n"
    with pytest.raises(OutOfRange) as exc:
        parse_csv(bad)
    assert (exc.value.line_no, exc.value.reason) == (2, "LAT=91.0 out of range")


def test_wrong_column_count_reports_line_number():
    bad = HEADER + "\n1,aa,2020-02-29T22:00:01Z,10.0,0,0\n"
    with pytest.raises(MalformedRow) as exc:
        parse_csv(bad)
    assert exc.value.line_no == 2


def test_error_names_the_physical_line_a_row_starts_on():
    # row 2's quoted LAT spans lines 2-3 (float() strips its newline), so
    # the LAT 95 row is the third row but starts on line 4
    text = HEADER + '\n1,aa,2020-02-29T22:00:01Z,"10.0\n",0,0,0\n2,aa,2020-02-29T22:00:06Z,95,0,0,0\n'
    with pytest.raises(OutOfRange) as exc:
        parse_csv(text)
    assert str(exc.value) == "line 4: LAT=95.0 out of range"
    duplicate = text.replace(",95,", ",11,").replace("\n2,", "\n1,")
    with pytest.raises(MalformedRow, match="^line 4: duplicate OBJECT_ID 1 \\(first on line 2\\)$"):
        parse_csv(duplicate)


def test_lenient_mode_skips_and_counts():
    text = (
        HEADER
        + "\n1,aa,2020-02-29T22:00:01Z,10.0,0,0,0\n"
        + "2,bb,not-a-time,10.0,0,0,0\n"
        + "3,cc,2020-02-29T22:00:03Z,95.0,0,0,0\n"
    )
    stats = ParseStats()
    msgs = parse_csv(text, strict=False, stats=stats)
    assert [m.object_id for m in msgs] == [1]
    assert stats.skipped == 2


def test_duplicate_object_id_rejected_or_skipped():
    text = (
        HEADER
        + "\n7,aa,2020-02-29T22:00:01Z,10.0,0,0,0\n"
        + "8,bb,2020-02-29T22:00:02Z,11.0,0,0,0\n"
        + "7,cc,2020-02-29T22:00:03Z,12.0,0,0,0\n"
    )
    with pytest.raises(MalformedRow) as exc:
        parse_csv(text)
    assert exc.value.line_no == 4 and "line 2" in exc.value.reason
    stats = ParseStats()
    msgs = parse_csv(text, strict=False, stats=stats)
    assert [(m.object_id, m.vessel_id) for m in msgs] == [(7, "aa"), (8, "bb")]
    assert stats.skipped == 1
    # a skipped row claims no OBJECT_ID: the later row that repeats it is kept
    msgs = parse_csv(text.replace(",10.0,", ",95.0,"), strict=False)
    assert [(m.object_id, m.vessel_id) for m in msgs] == [(8, "bb"), (7, "cc")]


# One VID of each class parse_csv rejects, as its CSV field, and the reason.
BAD_VIDS = [
    ("NEW", "VID 'NEW' is the new-track label"),
    ('"  "', "empty VID"),
    ('"a,b"', "VID 'a,b' holds ','"),
    ('"q""x"', "VID 'q\"x' holds '\"'"),
    ("x/y", "VID 'x/y' holds '/'"),
    ("x\\y", "VID 'x\\\\y' holds '\\\\'"),
    ("t\x01", "VID 't\\x01' holds '\\x01'"),
    ('"a\nb"', "VID 'a\\nb' holds '\\n'"),
]


@pytest.mark.parametrize("field, reason", BAD_VIDS, ids=["new_track", "empty", "comma", "quote", "slash",
                                                         "backslash", "control", "newline"])
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_vid_the_pipeline_cannot_carry_is_bad_row(field, reason, strict):
    text = (
        HEADER
        + "\n1,aa,2020-02-29T22:00:01Z,10.0,0,0,0\n"
        + f"2,{field},2020-02-29T22:00:02Z,11.0,0,0,0\n"
        + f"3,{field},2020-02-29T22:00:03Z,12.0,0,0,0\n"
    )
    if strict:
        with pytest.raises(MalformedRow) as exc:
            parse_csv(text)
        assert (exc.value.line_no, exc.value.reason) == (3, reason)
    else:
        stats = ParseStats()
        assert [m.object_id for m in parse_csv(text, strict=False, stats=stats)] == [1]
        assert (stats.rows, stats.skipped) == (3, 2)


def _stringio_rows(text):
    """csv.reader(io.StringIO(text))'s rows, each with the line it starts
    on (1, then one past the previous row's line_num), and the line_num and
    message of the error that ends it, if one does."""
    reader = csv.reader(io.StringIO(text))
    rows, start = [], 1
    try:
        for row in reader:
            rows.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:
        return rows, (reader.line_num, str(exc))
    return rows, None


def _own_rows(text):
    """`_csv_rows(text)`'s rows, and the line and reason of the error that
    ends it, if one does."""
    rows = []
    try:
        rows.extend(_csv_rows(text))
    except MalformedRow as exc:
        return rows, (exc.line_no, exc.reason)
    return rows, None


# Line breaks that str.splitlines splits at and StringIO does not, in a
# field outside quotes and inside them.
@pytest.mark.parametrize("brk", ["\r", "\r\n", "\x0c", "\x85", "\u2028"])
@pytest.mark.parametrize("field", ["x{}y", '"x{}y"'], ids=["unquoted", "quoted"])
def test_csv_rows_keep_stringio_line_breaks(brk, field):
    text = f"a,b\n{field.format(brk)},z\n1,2\n"
    assert _own_rows(text) == _stringio_rows(text)


@given(st.text(alphabet='a1,"\n\r\x0c\x85\u2028\x1c ', max_size=40))
@example("")
@example("a,b")  # no trailing newline
@example('a,"b\nc"\nd,e\n')  # a quoted newline
@example('a,"b\n')  # a quoted field the text ends inside
def test_csv_rows_are_those_read_from_stringio(text):
    assert _own_rows(text) == _stringio_rows(text)


def test_unsplittable_line_rejected_in_both_modes():
    text = HEADER + "\n1,aa,2020-02-29T22:00:01Z,10.0,0,0,0\n" + '2,"' + "x" * 200_000 + '"\n'
    for strict in (True, False):
        with pytest.raises(MalformedRow, match="field larger than field limit") as exc:
            parse_csv(text, strict=strict)
        assert exc.value.line_no == 3


def test_object_id_pairs():
    text = 'OBJECT_ID,VID\n\n7,aa\n 8 ," bb"\n'
    assert object_id_pairs(text, ("OBJECT_ID", "VID")) == [(7, "aa"), (8, "bb")]
    for bad, reason in [("7", "expected 2 fields, got 1"), ("7,aa,x", "expected 2 fields, got 3"),
                        ("7.0,aa", "OBJECT_ID '7.0' is not an integer"),
                        ("8,cc", "duplicate OBJECT_ID 8 (first on line 4)"),
                        ("9,", "empty VID"), ('9," "', "empty VID")]:
        with pytest.raises(MalformedRow) as exc:
            object_id_pairs(text + bad + "\n", ("OBJECT_ID", "VID"))
        assert (exc.value.line_no, exc.value.reason) == (5, reason)


@pytest.mark.parametrize("text", ["VID,OBJECT_ID\naa,7\n", 'X,"VID",object_id\n"1,2",aa,7\n'])
def test_object_id_pairs_columns_found_by_name(text):
    assert object_id_pairs(text, ("OBJECT_ID", "VID")) == [(7, "aa")]


PAIR_HEADER_FAULTS = {
    "": "empty input, header required",
    "\n\n": "missing column OBJECT_ID",  # the header is line 1, as in an AIS file
    "OBJECT_ID,ASSIGNED_VID\n7,aa\n": "missing column VID",
    "7,aa\n": "missing column OBJECT_ID",
}


@pytest.mark.parametrize("text", list(PAIR_HEADER_FAULTS))
def test_object_id_pairs_header_must_match(text):
    with pytest.raises(MalformedRow) as exc:
        object_id_pairs(text, ("OBJECT_ID", "VID"))
    assert (exc.value.line_no, exc.value.reason) == (1, PAIR_HEADER_FAULTS[text])


@pytest.mark.parametrize("read", [parse_csv, lambda text: object_id_pairs(text, ("OBJECT_ID", "VID"))],
                         ids=["ais", "pairs"])
def test_header_is_the_first_line_of_every_csv(read):
    text = HEADER + "\n1,aa,2020-02-29T22:00:01Z,10.0,0,0,0\n"
    assert len(read(text)) == 1
    with pytest.raises(MalformedRow) as exc:
        read("\n" + text)
    assert (exc.value.line_no, exc.value.reason) == (1, "missing column OBJECT_ID")


@pytest.mark.parametrize("speed", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_speed_rejected(speed):
    bad = HEADER + f"\n1,aa,2020-02-29T22:00:01Z,10.0,0,{speed},0\n"
    with pytest.raises(OutOfRange) as exc:
        parse_csv(bad)
    assert exc.value.reason == f"SPEED={float(speed)!r} out of range"
    stats = ParseStats()
    assert parse_csv(bad, strict=False, stats=stats) == []
    assert stats.skipped == 1


def test_columns_resolved_by_name_any_order():
    text = "LAT,LON,SPEED,COURSE,OBJECT_ID,VID,SEQUENCE_DTTM\n10.5,20.5,1,2,9,zz,2020-02-29T22:00:01Z\n"
    (m,) = parse_csv(text)
    assert (m.object_id, m.vessel_id, m.lat, m.lon) == (9, "zz", 10.5, 20.5)


def test_missing_column_rejected():
    with pytest.raises(MalformedRow):
        parse_csv("OBJECT_ID,VID,SEQUENCE_DTTM,LAT,LON,SPEED\n")


def test_strict_timestamp_format():
    bad = HEADER + "\n1,aa,2020-02-29 22:00:01,10.0,0,0,0\n"
    with pytest.raises(MalformedRow):
        parse_csv(bad)


def test_repeated_timestamp_parsed_once_and_bad_one_raises_every_time():
    stamp = "2021-06-01T12:34:56Z"
    before = parse_timestamp.cache_info()
    rows = "".join(f"{i},v{i},{stamp},10.0,0,0,0\n" for i in range(1, 6))
    msgs = parse_csv(HEADER + "\n" + rows)
    after = parse_timestamp.cache_info()
    assert {m.t for m in msgs} == {1622550896}
    assert after.hits - before.hits >= 4
    bad = "".join(f"{i},v{i},2021-06-01 12:34:56,10.0,0,0,0\n" for i in (6, 7))
    stats = ParseStats()
    assert parse_csv(HEADER + "\n" + bad, strict=False, stats=stats) == []
    assert stats.skipped == 2
    for _ in range(2):
        with pytest.raises(ValueError):
            parse_timestamp("2021-06-01 12:34:56")


@pytest.mark.parametrize(
    "epoch, text",
    [
        (BASE_EPOCH, "2020-03-01T00:00:00Z"),
        (BASE_EPOCH - 1, "2020-02-29T23:59:59Z"),
        (BASE_EPOCH - 86400, "2020-02-29T00:00:00Z"),
        (1577836799, "2019-12-31T23:59:59Z"),
        (1577836800, "2020-01-01T00:00:00Z"),
        (-62135596800, "0001-01-01T00:00:00Z"),
        (-30627458704, "0999-06-15T12:34:56Z"),
        (253402300799, "9999-12-31T23:59:59Z"),
    ],
)
def test_memoised_format_timestamp_equals_uncached_and_round_trips(epoch, text):
    before = format_timestamp.cache_info()
    assert format_timestamp(epoch) == format_timestamp(epoch) == format_timestamp.__wrapped__(epoch) == text
    assert format_timestamp.cache_info().hits - before.hits >= 1
    assert parse_timestamp(text) == epoch


msg_strategy = st.builds(
    AisMessage,
    object_id=st.integers(min_value=1, max_value=10**9),
    vessel_id=st.text(alphabet="0123456789abcdef", min_size=1, max_size=8),
    t=st.integers(min_value=0, max_value=2**31 - 1),
    lat=st.floats(min_value=-90, max_value=90, allow_nan=False),
    lon=st.floats(min_value=-180, max_value=180, allow_nan=False),
    speed=st.floats(min_value=0, max_value=1000, allow_nan=False),
    course=st.floats(min_value=0, max_value=3599.9, allow_nan=False, exclude_max=False),
)


@given(st.lists(msg_strategy, max_size=30, unique_by=lambda m: m.object_id))  # a repeated id is a bad row
def test_serialize_parse_round_trip(messages):
    assert parse_csv(serialize_csv(messages)) == messages


def _serialize_csv_by_name(messages) -> str:
    """serialize_csv as it read each field by name before rows were tuples:
    the oracle for the writer's bytes."""
    lines = [HEADER]
    for m in messages:
        lines.append(
            f"{m.object_id},{m.vessel_id},{format_timestamp(m.t)},"
            f"{float(m.lat)!r},{float(m.lon)!r},{float(m.speed)!r},{float(m.course)!r}"
        )
    return "\n".join(lines) + "\n"


def _number(lo: float, hi: float):
    """A float or an int in [lo, hi]: rows built in code may hold either."""
    return st.floats(min_value=lo, max_value=hi, allow_nan=False) | st.integers(
        min_value=math.ceil(lo), max_value=math.floor(hi)
    )


@given(
    st.lists(
        st.builds(
            AisMessage,
            object_id=st.integers(min_value=1, max_value=10**9),
            vessel_id=st.text(alphabet="0123456789abcdef", min_size=1, max_size=8),
            t=st.integers(min_value=0, max_value=2**31 - 1),
            lat=_number(-90, 90),
            lon=_number(-180, 180),
            speed=_number(0, 1000),
            course=_number(0, 3599.9),
        ),
        max_size=30,
    )
)
@example([AisMessage(3, "ab", BASE_EPOCH, 0, -1, 2, 3)])
def test_writer_gives_the_by_name_writers_bytes(messages):
    assert serialize_csv(messages) == _serialize_csv_by_name(messages)


def test_parsed_rows_are_read_only_named_tuples():
    msgs = parse_csv(HEADER + "\n" + TABLE_ROWS)
    assert all(type(m) is AisMessage for m in msgs)
    object_id, vid, t, *numbers = msgs[1]
    assert (object_id, vid, t) == (2, "203d4b0c", parse_timestamp("2020-02-29T22:00:01Z"))
    assert numbers == [37.9483, 23.64101667, 0.0, 349.9]
    assert msgs[1] == (object_id, vid, t, *numbers)
    with pytest.raises(AttributeError):
        msgs[1].lat = 0.0


def _is_ordered(track) -> bool:
    """Whether a track's messages are its own and sorted by (t, object_id)."""
    key = [(m.t, m.object_id) for m in track.messages]
    return all(a <= b for a, b in zip(key, key[1:])) and all(m.vessel_id == track.vessel_id for m in track.messages)


@given(st.lists(msg_strategy, max_size=50))
def test_group_tracks_preserves_messages_and_orders(messages):
    tracks = group_tracks(messages)
    assert sum(len(t) for t in tracks) == len(messages)
    assert sorted({m.vessel_id for m in messages}) == [t.vessel_id for t in tracks]
    for t in tracks:
        assert _is_ordered(t)


def _msg(oid, vid, t):
    return AisMessage(object_id=oid, vessel_id=vid, t=t, lat=0, lon=0, speed=0, course=0)


def test_group_tracks_table1_rows_give_singletons():
    msgs = parse_csv(HEADER + "\n" + TABLE_ROWS)
    tracks = group_tracks(msgs)
    assert len(tracks) == 5
    assert all(len(t) == 1 for t in tracks)


def test_group_tracks_sorts_reverse_time():
    msgs = [_msg(1, "v", 30), _msg(2, "v", 20), _msg(3, "v", 10)]
    (track,) = group_tracks(msgs)
    assert [m.t for m in track.messages] == [10, 20, 30]


def test_group_tracks_tie_breaks_by_object_id():
    msgs = [_msg(7, "v", 100), _msg(3, "v", 100)]
    (track,) = group_tracks(msgs)
    assert [m.object_id for m in track.messages] == [3, 7]
