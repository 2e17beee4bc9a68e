import random
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    COORD_E2E_MS,
    COORD_FIRST_HOP_MS,
    COORD_HOPS,
    COORD_LINE,
    EDGE_LINE,
    REF_WINDOW,
    ROUTER_LINE,
    coordinator_entry,
    device_log,
    end_to_end_delay,
    first_hop_delay,
    ts,
)
from iotfed import logfmt
from iotfed.features import COORDINATOR_SCHEMA, FEATURE_NAMES, ROUTER_SCHEMA, window_matrix
from iotfed.logfmt import (
    EMPTY_LOG,
    DeviceLog,
    EntryKind,
    LogEntry,
    ParseError,
    Segment,
    format_timestamp,
    format_us,
    from_us,
    parse_entry,
    parse_log,
    serialize_entry,
    to_us,
)
from iotfed.nodes import EDGES, ROUTERS, A, C, E3, R2, R3


def window_slots(line, schema=COORDINATOR_SCHEMA):
    """The feature slots, by name, that the pipeline computes for one line's window."""
    return dict(zip(FEATURE_NAMES, window_matrix(parse_log(line), [REF_WINDOW], schema)[0]))


class TestReferenceExamples:
    def test_edge_example(self):
        entry = parse_entry(EDGE_LINE)
        assert entry.kind is EntryKind.EDGE
        assert entry.segments[0].src == E3
        assert entry.segments[0].dst == R3
        assert entry.segments[0].received_at is None
        assert entry.status == 0

    def test_router_example(self):
        entry = parse_entry(ROUTER_LINE)
        assert entry.kind is EntryKind.ROUTER
        assert [s.src for s in entry.segments] == [E3, R3]
        assert entry.segments[0].received_at is not None
        assert entry.segments[1].received_at is None
        assert entry.status == 0

    def test_coordinator_example(self):
        entry = parse_entry(COORD_LINE)
        assert entry.kind is EntryKind.COORDINATOR
        assert len(entry.segments) == 3
        assert entry.origin == E3
        assert entry.segments[-1].dst == C
        assert entry.segments[0].sent_at == datetime(2024, 4, 26, 13, 36, 10, 273312)
        assert entry.segments[-1].received_at == datetime(2024, 4, 26, 13, 36, 10, 787851)

    def test_coordinator_delays(self):
        slots = window_slots(COORD_LINE)
        assert slots["delay_mean"] == pytest.approx(COORD_E2E_MS, abs=1e-3)
        assert slots["first_hop_mean"] == pytest.approx(COORD_FIRST_HOP_MS, abs=1e-3)
        assert slots["avg_hops"] == COORD_HOPS
        assert window_slots(COORD_LINE, ROUTER_SCHEMA)["delay_mean"] == 0.0

    def test_path_through_routers(self):
        entry = parse_entry(COORD_LINE)
        assert [s.dst for s in entry.segments] == [R3, R2, C]


class TestSerialization:
    def test_canonical_form_is_stable(self):
        for line in (EDGE_LINE, ROUTER_LINE, COORD_LINE):
            canonical = serialize_entry(parse_entry(line))
            assert serialize_entry(parse_entry(canonical)) == canonical

    def test_canonical_edge_rendering(self):
        assert serialize_entry(parse_entry(EDGE_LINE)) == \
            "E3>R3, 2024-04-26 13:36:10.273312, S:0"

    def test_whitespace_variants_parse_identically(self):
        spaced = "E3 > R3, 2024-04-26 13:36:10.273312, S:0"
        tight = "E3>R3,2024-04-26 13:36:10.273312,S:0"
        assert parse_entry(spaced) == parse_entry(tight)

    def test_round_trip_preserves_structure(self):
        entry = parse_entry(COORD_LINE)
        assert parse_entry(serialize_entry(entry)) == entry


# Three ordered canonical timestamps.
T1, T2, T3 = (f"2024-04-26 13:36:10.{us:06d}" for us in (273312, 336880, 369257))


class TestParseErrors:
    @pytest.mark.parametrize("line", [
        "",
        "S:0",
        "E3>R3",                                    # pair without timestamp
        "2024-04-26 13:36:10.273312",               # timestamp without pair
        "E3>R3, 2024-04-26 13:36:10.273312",        # edge entry missing status
        "E9>R3, 2024-04-26 13:36:10.273312, S:0",   # unknown node
        "E3>R3, not-a-timestamp, S:0",
        "E3>R3, 2024-04-26 13:36:10.273312, 2024-04-26 13:36:10.3, S:0",
    ])
    def test_malformed_lines_raise_parse_error(self, line):
        with pytest.raises(ParseError):
            parse_entry(line)

    def test_discontinuous_path_rejected(self):
        line = ("E3>R3,2024-04-26 13:36:10.273312, 2024-04-26 13:36:10.336880, "
                "R2>C,2024-04-26 13:36:10.369257, 2024-04-26 13:36:10.488817")
        with pytest.raises(ParseError, match="discontinuous"):
            parse_entry(line)

    def test_received_before_sent_accepted(self):
        # Device clocks are not synchronised, so a hop may appear to end before it starts.
        line = ("E3>R3,2024-04-26 13:36:10.336880, 2024-04-26 13:36:10.273312, "
                "R3>C,2024-04-26 13:36:10.369257, S:0")
        entry = parse_entry(line)
        assert entry.segments[0].received_at < entry.segments[0].sent_at
        for got, want in zip(parse_log(serialize_entry(entry)).columns,
                             device_log([entry]).columns):
            assert np.array_equal(got, want)

    def test_three_timestamps_on_one_pair_rejected(self):
        line = ("E3>R3,2024-04-26 13:36:10.273312, 2024-04-26 13:36:10.336880, "
                "2024-04-26 13:36:10.400000, R3>C,2024-04-26 13:36:10.500000, S:0")
        with pytest.raises(ParseError):
            parse_entry(line)

    @pytest.mark.parametrize("line", [
        f"E3>R3, {T1}",
        f"E3>R3, {T1}, {T2}, R3>C, {T3}",
        f"E3>R3, {T1}, {T2}, {T3}, S:0",
        f"E3>R3, {T1}, R3>C, {T2}, {T3}",
        f"E3>R3, {T1}, {T2}, R2>C, {T3}, {T3}",
        f"E3>R3, R3>C, {T1}, {T2}",
        f"{T1}, E3>R3, {T2}, S:0",
        f"E3>R3, {T1}, S:0, {T2}",
        f"E3>R3, {T1}, S:{2**63}",
        f"E3>R3, {T1}, S:01",
        f"E3>C4, {T1}, S:0",
        "S:0",
    ], ids=["edge-no-status", "router-no-status", "three-stamps", "incomplete-middle",
            "discontinuous", "pair-without-stamp", "stamp-first",
            "status-not-last", "status-too-wide", "status-leading-zero", "unknown-node",
            "status-only"])
    def test_parse_log_raises_what_parse_entry_raises(self, line):
        with pytest.raises(ParseError) as entry_error:
            parse_entry(line)
        with pytest.raises(ParseError) as log_error:
            parse_log(line)
        assert (log_error.value.reason, log_error.value.offset, log_error.value.line) == (
            entry_error.value.reason, entry_error.value.offset, 1)

    @pytest.mark.parametrize("line,reason", [
        (f"E3>R3, {T1}", "edge entry missing status"),
        (f"E3>R3, {T1}, {T2}, R3>C, {T3}", "router entry missing status"),
        (f"E3>R3, {T1}, R3>C, {T2}", "incomplete segment in the middle of an entry"),
        (f"E3>R3, {T1}, R3>C, {T2}, S:0", "incomplete segment in the middle of an entry"),
    ])
    def test_shape_errors_name_the_kind_or_the_middle_segment(self, line, reason):
        with pytest.raises(ParseError) as exc_info:
            parse_entry(line)
        assert (exc_info.value.reason, exc_info.value.offset) == (reason, 0)

    def test_error_carries_offset(self):
        bad = "E3>R3, 2024-04-26 13:36:10.273312, banana, S:0"
        with pytest.raises(ParseError) as exc_info:
            parse_entry(bad)
        assert exc_info.value.offset == bad.index("banana")


class TestDelays:
    def test_edge_entry_has_no_delays(self):
        slots = window_slots(EDGE_LINE)
        assert slots["total_count"] == 1.0
        assert slots["delay_mean"] == slots["first_hop_mean"] == 0.0

    def test_router_entry_has_first_hop_only(self):
        slots = window_slots(ROUTER_LINE)
        assert slots["first_hop_mean"] == pytest.approx(COORD_FIRST_HOP_MS, abs=1e-3)
        assert slots["delay_mean"] == 0.0


class TestParseLog:
    def test_skips_blank_lines(self):
        canonical = serialize_entry(parse_entry(EDGE_LINE))
        text = f"{canonical}\n{EDGE_LINE}\n\n{ROUTER_LINE}\n\n\n{COORD_LINE}\n{canonical}"
        entries = list(parse_log(text))
        assert [e.kind for e in entries] == [
            EntryKind.EDGE, EntryKind.EDGE, EntryKind.ROUTER, EntryKind.COORDINATOR,
            EntryKind.EDGE]
        assert entries == [parse_entry(line) for line in text.split("\n") if line]

    def test_empty_document(self):
        assert list(parse_log("")) == []

    def test_names_the_first_bad_line(self):
        good = "E3>R3, 2024-04-26 13:36:10.273312, S:0"
        bad_date = "E3>R3, 2024-02-30 13:36:10.273312, S:0"
        unknown_node = "E9>R3, 2024-04-26 13:36:10.273312, S:0"
        doc = "\n".join([good, "", bad_date, good, unknown_node]) + "\n"
        with pytest.raises(ParseError, match="invalid timestamp") as exc_info:
            parse_log(doc)
        assert (exc_info.value.line, exc_info.value.offset) == (3, bad_date.index("2024"))
        assert str(exc_info.value).startswith("line 3, character 7: ")


def random_valid_entry(rng: random.Random) -> LogEntry:
    """A structurally valid entry drawn from the grammar."""
    from iotfed.nodes import EDGES, ROUTERS
    origin = rng.choice(EDGES)
    path = [origin] + rng.sample(list(ROUTERS), rng.randint(1, 3)) + [C]
    kind = rng.choice(list(EntryKind))
    base = datetime(2024, 4, 26, 13, 0, 0) + timedelta(
        seconds=rng.randint(0, 7200), microseconds=rng.randint(0, 999999))
    segments = []
    t = base
    n_segments = 1 if kind is EntryKind.EDGE else len(path) - 1
    for src, dst in list(zip(path, path[1:]))[:n_segments]:
        sent = t
        received = t + timedelta(microseconds=rng.randint(0, 500000))
        segments.append(Segment(src, dst, sent, received))
        t = received + timedelta(microseconds=rng.randint(0, 100000))
    status = None
    if kind is EntryKind.EDGE:
        segments = [Segment(segments[0].src, segments[0].dst,
                            segments[0].sent_at, None)]
        status = rng.randint(0, 1)
    elif kind is EntryKind.ROUTER:
        last = segments[-1]
        segments[-1] = Segment(last.src, last.dst, last.sent_at, None)
        status = rng.randint(0, 1)
    return LogEntry(kind, tuple(segments), status)


def test_fuzz_round_trip_small():
    rng = random.Random(5)
    for _ in range(500):
        entry = random_valid_entry(rng)
        line = serialize_entry(entry)
        assert parse_entry(line) == entry
        assert serialize_entry(parse_entry(line)) == line


@given(st.text(max_size=120))
def test_parser_never_crashes_on_text(text):
    try:
        parse_entry(text)
    except ParseError:
        pass


def test_format_timestamp_microsecond_precision():
    ts = datetime(2024, 4, 26, 13, 36, 10, 5)
    assert format_timestamp(ts) == "2024-04-26 13:36:10.000005"


_STRFTIME = "%Y-%m-%d %H:%M:%S.%f"


@given(st.datetimes(min_value=datetime(1000, 1, 1),
                    max_value=datetime(9999, 12, 31, 23, 59, 59, 999999)))
def test_timestamps_match_strftime_and_read_back(ts):
    text = format_timestamp(ts)
    assert text == ts.strftime(_STRFTIME)
    assert parse_entry(f"E3>R3, {text}, S:0").segments[0].sent_at == ts


@given(st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
       st.integers(0, 25), st.integers(0, 61), st.integers(0, 61),
       st.integers(0, 999999))
def test_timestamp_tokens_read_as_strptime_reads_them(year, month, day, hour,
                                                      minute, second, micro):
    token = (f"{year:04d}-{month:02d}-{day:02d} "
             f"{hour:02d}:{minute:02d}:{second:02d}.{micro:06d}")
    line = f"E3>R3, {token}, S:0"
    try:
        expected = datetime.strptime(token, _STRFTIME)
    except ValueError:
        for parse in (parse_entry, parse_log):
            with pytest.raises(ParseError, match="invalid timestamp") as exc_info:
                parse(line)
            assert exc_info.value.offset == line.index(token)
    else:
        assert parse_entry(line).segments[0].sent_at == expected
        assert parse_log(line).times[0, 0] == to_us(expected)


@pytest.mark.parametrize("token", [
    "2024-13-01 00:00:00.000000",   # month 13
    "2024-02-30 00:00:00.000000",   # Feb 30
    "2024-04-26 24:00:00.000000",   # hour 24
    "2024-04-26 13:36:60.000000",   # second 60
    "0000-01-01 00:00:00.000000",   # year 0
    "2023-02-29 00:00:00.000000",   # Feb 29 of a common year
    "1900-02-29 00:00:00.000000",   # Feb 29 of a century not divisible by 400
    "2024-04-31 00:00:00.000000",   # April 31
    "2024-00-10 00:00:00.000000",   # month 0
    "2024-04-00 00:00:00.000000",   # day 0
    "2024-04-26 13:60:00.000000",   # minute 60
])
def test_impossible_timestamps_raise_at_their_offset(token):
    line = f"E3>R3, {T1}, {T2}, R3>C, {token}, S:0"  # a send time, which no check orders
    for parse in (parse_entry, parse_log):
        with pytest.raises(ParseError, match="invalid timestamp") as exc_info:
            parse(line)
        assert exc_info.value.offset == line.index(token)


@pytest.mark.parametrize("token", [
    "2024-04-26T13:36:10.273312",   # numpy reads a "T" separator
    "+024-04-26 13:36:10.273312",   # numpy reads a signed year
    "2024-04-26 13:36:10.27331Z",   # numpy reads a "Z" zone
])
def test_parse_log_refuses_tokens_numpy_reads_as_parse_entry_does(token):
    good = f"E3>R3, {T1}, S:0"
    line = f"E3>R3, {T1}, {T2}, R3>C, {token}, S:0"
    with pytest.raises(ParseError) as entry_error:
        parse_entry(line)
    with pytest.raises(ParseError) as log_error:
        parse_log(f"{good}\n{line}\n{good}\n")
    assert (log_error.value.reason, log_error.value.offset, log_error.value.line) == (
        entry_error.value.reason, entry_error.value.offset, 2)


def test_impossible_date_on_the_last_line_of_a_long_document_names_that_line():
    start = datetime(2024, 4, 26, 13)
    lines = [f"E3>R3, {format_timestamp(start + timedelta(seconds=i))}, S:0"
             for i in range(2000)]
    lines.append("E3>R3, 2023-02-29 13:36:10.273312, S:0")
    with pytest.raises(ParseError, match="invalid timestamp") as exc_info:
        parse_log("\n".join(lines) + "\n")
    assert (exc_info.value.line, exc_info.value.offset) == (2001, 7)


def test_impossible_date_refuses_only_the_rows_cast_with_it(monkeypatch):
    # Stamps are cast 500 at a time; a bad one must not send the good lines
    # of other casts to parse_entry.
    start = datetime(2024, 4, 26, 13)
    lines = [f"E3>R3, {format_timestamp(start + timedelta(seconds=i))}, S:0"
             for i in range(2000)]
    lines.append("E3>R3, 2024-02-30 13:36:10.273312, S:0")
    calls = []
    monkeypatch.setattr(logfmt, "parse_entry",
                        lambda line, entry=logfmt.parse_entry: calls.append(line) or entry(line))
    with pytest.raises(ParseError, match="invalid timestamp") as exc_info:
        parse_log("\n".join(lines) + "\n")
    assert (exc_info.value.line, exc_info.value.offset) == (2001, 7)
    assert 0 < len(calls) < 500


def refuse_entry(line):
    raise AssertionError(f"parse_entry called on {line!r}")


def test_canonical_edge_of_calendar_dates_are_read_without_parse_entry(monkeypatch):
    stamps = [datetime(1, 1, 1), datetime(2024, 2, 29),
              datetime(9999, 12, 31, 23, 59, 59, 999999)]
    doc = "".join(f"E3>R3, {format_timestamp(ts)}, S:0\n" for ts in stamps)
    monkeypatch.setattr(logfmt, "parse_entry", refuse_entry)
    assert parse_log(doc).times.tolist() == [[to_us(ts), to_us(ts)] for ts in stamps]


@pytest.mark.parametrize("ts", [
    datetime(1, 1, 1), datetime(4, 2, 29, 1, 2, 3, 4), datetime(2000, 2, 29, 23, 59, 59),
    datetime(2000, 3, 1), datetime(2024, 2, 29, 12), datetime(2024, 3, 1), datetime(2100, 3, 1),
    datetime(9999, 12, 31, 23, 59, 59, 999999),
])
def test_parse_log_reads_timestamps_as_to_us(ts):
    line = f"E3>R3, {format_timestamp(ts)}, S:0"
    assert parse_log(line).times.tolist() == [[to_us(ts), to_us(ts)]]


@pytest.mark.parametrize("position", [0, 4, 6, 9, 10, 12, 15, 18, 19, 25])
def test_timestamps_with_non_ascii_digits_rejected(position):
    good = "2024-04-26 13:36:10.273312"
    token = good[:position] + "١" + good[position + 1:]  # ARABIC-INDIC DIGIT ONE
    line = f"E3>R3, {token}, S:0"
    for parse in (parse_entry, parse_log):
        with pytest.raises(ParseError) as exc_info:
            parse(line)
        assert exc_info.value.offset == line.index(token)


def test_years_below_1000_round_trip():
    ts = datetime(5, 1, 2, 3, 4, 5, 6)
    assert format_timestamp(ts) == "0005-01-02 03:04:05.000006"
    entry = LogEntry(EntryKind.EDGE, (Segment(E3, R3, ts),), status=0)
    line = serialize_entry(entry)
    assert parse_entry(line) == entry
    assert serialize_entry(parse_entry(line)) == line


@pytest.mark.parametrize("status", ["١", "1١", "٠", "𝟙"])
def test_statuses_with_non_ascii_digits_rejected(status):
    line = f"E3>R3, 2024-04-26 13:36:10.273312, S:{status}"
    with pytest.raises(ParseError):
        parse_entry(line)


@pytest.mark.parametrize("status", ["01", "00", "007"])
def test_statuses_with_leading_zeros_rejected(status):
    line = f"E3>R3, 2024-04-26 13:36:10.273312, S:{status}"
    with pytest.raises(ParseError):
        parse_entry(line)


def test_statuses_beyond_64_bits_rejected():
    line = f"E3>R3, 2024-04-26 13:36:10.273312, S:{2**63}"
    with pytest.raises(ParseError, match="64 bits") as exc_info:
        parse_entry(line)
    assert exc_info.value.offset == line.index("S:")
    with pytest.raises(ParseError, match="64 bits"):
        parse_log(line)
    widest = list(parse_log(f"E3>R3, 2024-04-26 13:36:10.273312, S:{2**63 - 1}\n"))
    assert list(device_log(widest)) == widest


@pytest.mark.parametrize("status", [0, 1, 7, 255, 1024])
def test_ascii_statuses_round_trip(status):
    line = f"E3>R3, 2024-04-26 13:36:10.273312, S:{status}"
    assert parse_entry(line).status == status
    assert serialize_entry(parse_entry(line)) == line


_ANY_TIME = st.datetimes(min_value=datetime(1, 1, 1),
                         max_value=datetime(9999, 12, 31, 23, 59, 59, 999999))


#: The first instant, 1900 (not a leap year) and two leap days, the
#: ``datetime64`` epoch, a year's rollover and the last instant.
_CALENDAR_EDGES = [
    datetime(1, 1, 1), datetime(1900, 2, 28, 23, 59, 59, 999999), datetime(1900, 3, 1),
    datetime(2000, 2, 29), datetime(2024, 2, 29, 23, 59, 59, 999999),
    datetime(1969, 12, 31, 23, 59, 59, 999999), datetime(1970, 1, 1),
    datetime(2023, 12, 31, 23, 59, 59, 999999), datetime(2024, 1, 1),
    datetime(9999, 12, 31, 23, 59, 59, 999999),
]


def _decoded(rows: np.ndarray) -> list:
    """``format_us`` rows as strings, in nested lists of the stamps' shape."""
    return np.char.decode(rows.view("S26")[..., 0], "ascii").tolist()


@given(st.lists(_ANY_TIME, max_size=20))
@example(_CALENDAR_EDGES)
def test_format_us_matches_format_timestamp_in_every_year(stamps):
    got = format_us(np.array([to_us(ts) for ts in stamps + stamps], dtype=np.int64))
    assert _decoded(got) == [format_timestamp(ts) for ts in stamps + stamps]


@given(st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(-5.0, 0.0)), max_size=20))
def test_format_us_matches_format_timestamp_before_the_start(offsets):
    # A negative clock skew can put a stamp before the run's start.
    start = datetime(2024, 4, 26, 13, 0, 0)
    us = [round((offset + skew) * 1e6) for offset, skew in offsets]
    got = format_us(to_us(start) + np.array(us, dtype=np.int64).reshape(-1, 1))
    assert got.shape == (len(us), 1, 26)
    assert _decoded(got[:, 0]) == [format_timestamp(start + timedelta(microseconds=u))
                                   for u in us]


#: Instants where a minute, a day, a month or a year turns, or a leap day starts or ends.
_TURNS = [datetime(2024, 4, 26, 13, 1), datetime(2023, 7, 1), datetime(2024, 1, 1),
          datetime(2024, 2, 29), datetime(2024, 3, 1), datetime(1900, 3, 1), datetime(2000, 3, 1)]
#: Microseconds around a turn: runs of equal stamps, and seconds and minutes either side.
_AROUND = [-61_000_000, -1_000_001, -1, -1, -1, 0, 0, 1, 999_999, 1_000_000, 59_999_999,
           60_000_000, 86_399_999_999]


def _formatted(us: np.ndarray) -> list:
    return [format_timestamp(from_us(u)) for u in us.ravel().tolist()]


@pytest.mark.parametrize("turn", _TURNS, ids=[str(t) for t in _TURNS])
@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled", "as-sent-and-received"])
def test_format_us_formats_runs_across_a_turn_as_format_timestamp(turn, order):
    us = to_us(turn) + np.array(_AROUND, dtype=np.int64)
    if order == "reversed":
        us = us[::-1]
    elif order == "shuffled":
        us = np.random.default_rng(0).permutation(np.repeat(us, 2))
    elif order == "as-sent-and-received":  # a hop's receive time is the next hop's send time
        us = np.stack([us[:-1], us[1:]], axis=1)
    assert _decoded(format_us(us)) == np.reshape(_formatted(us), us.shape).tolist()


@given(st.lists(st.sampled_from(_AROUND), max_size=30), st.sampled_from(_TURNS))
def test_format_us_matches_format_timestamp_on_repeated_unsorted_stamps(offsets, turn):
    us = to_us(turn) + np.array(offsets, dtype=np.int64)
    assert _decoded(format_us(us)) == _formatted(us)


@pytest.mark.parametrize("us", [-1, to_us(datetime.max) + 1])
def test_stamps_outside_the_datetime_range_overflow(us):
    with pytest.raises(OverflowError):
        from_us(us)
    with pytest.raises(OverflowError):
        format_us(np.array([to_us(datetime(2024, 1, 1)), us]))
    *columns, times = parse_log(EDGE_LINE).columns
    with pytest.raises(OverflowError):
        DeviceLog(*columns, np.full_like(times, us)).render()


@st.composite
def logged_entries(draw):
    """Entries of every kind along edge-router-...-C/A paths, at any time."""
    origin = draw(st.sampled_from(EDGES))
    routers = draw(st.lists(st.sampled_from(ROUTERS), min_size=1, max_size=3, unique=True))
    nodes = [origin, *routers, draw(st.sampled_from([C, A]))]
    n_segments = draw(st.integers(1, len(nodes) - 1))
    kind = (EntryKind.COORDINATOR if draw(st.booleans())
            else EntryKind.EDGE if n_segments == 1 else EntryKind.ROUTER)
    t = draw(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9998, 1, 1)))
    segments = []
    for src, dst in list(zip(nodes, nodes[1:]))[:n_segments]:
        sent = t + timedelta(microseconds=draw(st.integers(0, 10**7)))
        t = sent + timedelta(microseconds=draw(st.integers(0, 10**7)))
        segments.append(Segment(src, dst, sent, t))
    status = None
    if kind is not EntryKind.COORDINATOR:
        last = segments[-1]
        segments[-1] = Segment(last.src, last.dst, last.sent_at)
        status = draw(st.integers(0, 2**62))
    elif draw(st.booleans()):
        status = draw(st.integers(0, 9))  # tolerated on a coordinator entry
    return LogEntry(kind, tuple(segments), status)


def timedelta_ms(start: datetime, end: datetime) -> float:
    return (end - start).total_seconds() * 1000.0


@given(logged_entries())
def test_delays_are_timedelta_milliseconds_bit_for_bit(entry):
    first, last = entry.segments[0], entry.segments[-1]
    if first.received_at is not None:
        assert first_hop_delay(entry).hex() == timedelta_ms(first.sent_at, first.received_at).hex()
    if entry.kind is EntryKind.COORDINATOR:
        assert end_to_end_delay(entry).hex() == timedelta_ms(first.sent_at, last.received_at).hex()


class TestDeviceLog:
    @settings(max_examples=150)
    @given(st.lists(logged_entries(), max_size=12))
    @example([
        LogEntry(EntryKind.EDGE, (Segment(E3, R3, _CALENDAR_EDGES[0]),), 0),
        LogEntry(EntryKind.ROUTER, (Segment(E3, R3, *_CALENDAR_EDGES[1:3]),
                                    Segment(R3, R2, _CALENDAR_EDGES[3])), 1),
        LogEntry(EntryKind.COORDINATOR, (Segment(E3, R3, *_CALENDAR_EDGES[4:6]),
                                         Segment(R3, R2, *_CALENDAR_EDGES[6:8]),
                                         Segment(R2, C, *_CALENDAR_EDGES[8:10])))])
    def test_round_trips_entries_and_renders_each_as_serialize_entry(self, entries):
        log = device_log(entries)
        assert len(log) == len(entries)
        assert list(log) == entries
        assert [log[i] for i in range(-len(entries), 0)] == entries
        assert log.render().splitlines() == [serialize_entry(e) for e in entries]
        assert log.render().count("\n") == len(entries)

    def test_empty_log_renders_empty(self):
        assert EMPTY_LOG.render() == ""

    # Entries of 1, 2 and 3 segments, the n-th of a log starting n seconds in.
    _ENTRIES = {
        "edge": lambda n: LogEntry(EntryKind.EDGE, (Segment(E3, R3, ts(n)),), n),
        "router": lambda n: LogEntry(EntryKind.ROUTER, (Segment(E3, R3, ts(n), ts(n + 0.1)),
                                                        Segment(R3, R2, ts(n + 0.2))), 10 + n),
        "coordinator": lambda n: coordinator_entry(E3, [R3, R2, C], ts(n)),
    }

    @pytest.mark.parametrize("kinds", [
        (), ("edge",), ("edge", "router", "coordinator"), ("edge", "router", "coordinator", "edge"),
        ("router", "coordinator", "edge"),
    ], ids=["0-segments", "1-segment", "2-chunks", "2-chunks-and-1", "entry-across-an-edge"])
    def test_render_across_chunk_edges(self, monkeypatch, kinds):
        # Chunks of 3 segments: the 2-segment router entry puts the coordinator
        # entry's segments on both sides of the first chunk edge.
        monkeypatch.setattr(logfmt, "_RENDER_CHUNK", 3)
        entries = [self._ENTRIES[kind](n) for n, kind in enumerate(kinds)]
        log = device_log(entries)
        assert len(log.src) == sum(len(e.segments) for e in entries)
        assert log.render().split("\n") == [serialize_entry(e) for e in entries] + [""]

    def test_len_reads_the_row_count_and_indexing_infers_kinds(self, monkeypatch):
        log = parse_log(f"{EDGE_LINE}\n{ROUTER_LINE}\n{COORD_LINE}\n")
        assert [e.kind for e in log] == [EntryKind.EDGE, EntryKind.ROUTER,
                                        EntryKind.COORDINATOR]
        with pytest.raises(IndexError):
            log[3]
        monkeypatch.setattr(DeviceLog, "__getitem__", None)  # len() builds no entry
        assert len(log) == 3

    @pytest.mark.parametrize("window", [slice(0, 1), slice(1, None), slice(None, None, -1),
                                        slice(-2, None, 2), slice(5, 9)])
    def test_slices_are_device_logs_of_those_rows(self, window):
        log = parse_log(f"{EDGE_LINE}\n{ROUTER_LINE}\n{COORD_LINE}\n")
        part = log[window]
        assert isinstance(part, DeviceLog)
        assert list(part) == list(log)[window]

    @pytest.mark.parametrize("window", [slice(0, 0), slice(5, 2), slice(3, 40), slice(-9, None),
                                        slice(None), slice(0, 10**6)],
                             ids=["empty", "empty-reversed", "partial", "tail", "full",
                                  "beyond-the-end"])
    def test_step_one_slices_are_views_of_the_columns(self, small_sim, window):
        log = small_sim[2].entries[C]
        part = log.rows(window)
        selected = log.rows(np.arange(len(log))[window])
        assert len(part) == len(range(len(log))[window])
        for got, expected, column in zip(part.columns, selected.columns, log.columns):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
            assert np.shares_memory(got, column) == (len(got) > 0)
        assert np.array_equal(part.starts, selected.starts)
        assert part.render() == selected.render()


# Rewrites of a canonical line that parse_entry reads to the same entry: the
# spacings of the paper's examples.
_ACCEPTED_SPACINGS = (
    lambda line: line.replace(">", " > "),
    lambda line: line.replace(">", " >"),
    lambda line: line.replace(">", "> "),
    lambda line: line.replace(", ", ","),
)
_SPACING_IDS = ("pair-spaced", "pair-space-before", "pair-space-after", "no-space")
# What a corruption writes over one character ("" deletes it).
_NOISE = ("", "0", "3", "9", ",", ", ", " ", "\t", ">", "S:", "-", ":", "\u0661", "\xe9")


@st.composite
def edited_documents(draw):
    """Rendered entries, some respaced, some with one character corrupted, and blank lines."""
    lines = []
    respace_all = draw(st.booleans())
    for entry in draw(st.lists(logged_entries(), max_size=8)):
        line = serialize_entry(entry)
        if respace_all or draw(st.integers(0, 2)) == 0:
            line = draw(st.sampled_from(_ACCEPTED_SPACINGS))(line)
        if draw(st.integers(0, 4)) == 0:
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from(_NOISE)) + line[at + 1:]
        lines += [line, *draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=1))]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def assert_read_as_parse_entry_reads(doc):
    """``parse_log(doc)`` holds what ``parse_entry`` reads from each line of
    ``doc.split("\\n")`` but the empty ones, or raises its first error, with
    that line's number."""
    entries, error = [], None
    for number, line in enumerate(doc.split("\n"), 1):
        if line:
            try:
                entries.append(parse_entry(line))
            except ParseError as err:
                error = (err.reason, err.offset, number)
                break
    if error is not None:
        with pytest.raises(ParseError) as exc_info:
            parse_log(doc)
        assert (exc_info.value.reason, exc_info.value.offset, exc_info.value.line) == error
    else:
        for got, want in zip(parse_log(doc).columns, device_log(entries).columns):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


@settings(max_examples=300)
@given(edited_documents())
def test_parse_log_reads_every_line_as_parse_entry_does(doc):
    assert_read_as_parse_entry_reads(doc)


def test_a_line_only_parse_entry_reads_is_a_reader_error(monkeypatch):
    monkeypatch.setattr(logfmt, "_read_fields",
                        lambda n_fields, status, pair, wide, stamp_text: (
                            logfmt.EMPTY_LOG, np.zeros(len(n_fields), dtype=bool)))
    with pytest.raises(RuntimeError, match="line 2"):
        parse_log(f"\n{EDGE_LINE}\n")


@pytest.mark.parametrize("respace", _ACCEPTED_SPACINGS, ids=_SPACING_IDS)
def test_respaced_documents_are_read_as_columns(small_sim, monkeypatch, respace):
    canonical = "".join(small_sim[2].render_logs().values())
    respaced = "\n".join(map(respace, canonical.splitlines()))
    want = parse_log(canonical)
    monkeypatch.setattr(logfmt, "parse_entry", refuse_entry)
    for got, expected in zip(parse_log(respaced).columns, want.columns):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


_ROUTER = serialize_entry(parse_entry(ROUTER_LINE))
_HEAD, _TAIL = _ROUTER.rsplit(", ", 1)


@pytest.mark.parametrize("line", [
    f"{_HEAD},\t{_TAIL}", f"{_HEAD},  {_TAIL}", f"{_HEAD},\xa0{_TAIL}",
    f"{_HEAD}\u3000, {_TAIL}", f"{_ROUTER},", f"  {_ROUTER}", f"{_ROUTER} ", " ", "\t",
    f"{_ROUTER}\r",  # the document's "\n" follows it
    f"{_ROUTER}\x85{_ROUTER}", f"{_ROUTER}\u2028{_ROUTER}", f"{_ROUTER}\x1c{_ROUTER}",
], ids=["tab", "two-spaces", "nbsp", "ideographic-space", "trailing-comma", "padded-before",
        "padded-after", "space-only", "tab-only", "crlf", "next-line", "line-separator",
        "file-separator"])
def test_spacings_and_line_ends_the_testbed_never_writes_are_refused(line):
    with pytest.raises(ParseError) as entry_error:
        parse_entry(line)
    with pytest.raises(ParseError) as log_error:
        parse_log(f"{EDGE_LINE}\n{line}\n{EDGE_LINE}\n")
    assert (log_error.value.reason, log_error.value.offset, log_error.value.line) == (
        entry_error.value.reason, entry_error.value.offset, 2)


@pytest.mark.parametrize("line", [f"{EDGE_LINE}\n", f"E3>R3\n, {T1}, S:0"])
def test_parse_entry_refuses_a_line_end(line):
    with pytest.raises(ParseError, match="unrecognized field"):
        parse_entry(line)


_FRAGMENTS = ("E3>R3", "R3>C", ", ", "2024-04-26 13:36:10.273312", "S:0", "\n")


@given(st.lists(st.one_of(st.characters(max_codepoint=255), st.sampled_from(_FRAGMENTS)),
                max_size=60).map("".join))
def test_parse_log_never_crashes_on_latin1_text(doc):
    try:
        parse_log(doc)
    except ParseError:
        pass


@pytest.mark.parametrize("odd", ["\ud800", "\U0001F600"], ids=["lone-surrogate", "beyond-bmp"])
@pytest.mark.parametrize("line", [f"E3>R3{{}}, {T1}, S:0", f"E3>R3, {T1}{{}}, S:0",
                                  f"E3>R3, {T1}, S:0{{}}"], ids=["pair", "timestamp", "status"])
def test_text_beyond_ascii_in_a_field_is_refused_on_its_line(odd, line):
    doc = f"{EDGE_LINE}\n{line.format(odd)}\n{EDGE_LINE}\n"
    assert_read_as_parse_entry_reads(doc)
    with pytest.raises(ParseError) as exc_info:
        parse_log(doc)
    assert exc_info.value.line == 2


@pytest.mark.parametrize("line", [f"E3\u3000>R3, {T1}, S:0", f"E3>\xa0R3, {T1}, S:0",
                                  f"E3>R3, {T1[:10]}\u2007{T1[11:]}, S:0",
                                  f"E3>R3, {T1}, S:\u20000"],
                         ids=["pair-gap", "pair-gap-nbsp", "timestamp", "status"])
def test_a_space_beyond_ascii_inside_a_field_is_refused_on_its_line(line):
    # The pair and timestamp grammars hold ASCII spaces, never these.
    doc = f"{EDGE_LINE}\n{line}\n{EDGE_LINE}\n"
    assert_read_as_parse_entry_reads(doc)
    with pytest.raises(ParseError) as exc_info:
        parse_log(doc)
    assert exc_info.value.line == 2


def test_parse_log_reads_a_canonical_document_without_python_per_line(small_sim, monkeypatch):
    # _status is the one helper parse_log still calls on a field's text; it
    # must run once per distinct status text at most, and parse_entry never.
    canonical = "".join(small_sim[2].render_logs().values())
    statuses = {line.rsplit(", ", 1)[1] for line in canonical.splitlines() if ", S:" in line}
    calls = []
    status = logfmt._status
    monkeypatch.setattr(logfmt, "_status", lambda field: calls.append(field) or status(field))
    monkeypatch.setattr(logfmt, "parse_entry", refuse_entry)
    assert len(parse_log(canonical)) == canonical.count("\n")
    assert 0 < len(calls) <= len(statuses)
