"""Parser and serializer for the three device log grammars.

Edge entry:        ``E3>R3, <sent>, S:0``
Router entry:      ``E3>R3, <sent>, <received>, R3>R2, <sent>, S:0``
Coordinator entry: ``E3>R3, <sent>, <received>, ..., R2>C, <sent>, <received>``

Timestamps are ``YYYY-MM-DD HH:MM:SS.ffffff`` at microsecond precision,
ASCII digits only. Each is read off its own device's clock, and clocks
are not synchronised, so a hop may be received before it was sent.

The grammar takes the spacings of the testbed's own lines and no others.
A document's lines end at ``"\\n"``; a last line without one is still a
line, and an empty line is skipped. Fields are separated by a comma and
at most one space, and a node pair has at most one space on each side of
``>``. No other whitespace is allowed anywhere, so a tab, a second space,
a space beyond ASCII, a trailing comma, a padded or whitespace-only line
and any other line end (``"\\r\\n"`` among them) are refused.
Canonical serialization puts no spaces around ``>`` and a single space
after each comma.

A device's whole log is held in columns as a :class:`DeviceLog`;
:func:`parse_log` reads a document straight into one. It splits the whole
document into lines and fields in numpy, as :func:`parse_entry` splits a
line, and runs Python only once per distinct status text;
:func:`parse_entry` reads a line only to raise the error of the first line
refused.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Sequence

import numpy as np

from .nodes import EDGES, ROSTER, ROUTERS, A, C, NodeId

# ASCII digits, and no leading zero in a status, so that every accepted
# timestamp and status re-serializes to its own bytes.
_TIMESTAMP_RE = re.compile(r"^\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}\.\d{6}\Z", re.ASCII)
_STATUS_RE = re.compile(r"^S:(0|[1-9][0-9]*)\Z")
_PAIR_RE = re.compile(r"^([A-Z][0-9]*) ?> ?([A-Z][0-9]*)\Z")

_KNOWN_NODES = {str(n): n for n in (C, A) + ROUTERS + EDGES}


class ParseError(ValueError):
    """A malformed log entry.

    ``offset`` counts characters from the start of the line to the bad
    field; ``line`` is the line's 1-based number in the document, lines
    ending at ``"\\n"``, when :func:`parse_log` raised it.
    """

    def __init__(self, reason: str, offset: int = 0, line: int | None = None):
        where = f"at character {offset}" if line is None else f"line {line}, character {offset}"
        super().__init__(f"{where}: {reason}")
        self.reason = reason
        self.offset = offset
        self.line = line


class EntryKind(enum.Enum):
    EDGE = "edge"
    ROUTER = "router"
    COORDINATOR = "coordinator"


@dataclass(frozen=True)
class Segment:
    """One hop: the (from, to) pair, its send time and optional receive time."""

    src: NodeId
    dst: NodeId
    sent_at: datetime
    received_at: datetime | None = None


@dataclass(frozen=True)
class LogEntry:
    kind: EntryKind
    segments: tuple[Segment, ...]
    status: int | None = None

    @property
    def origin(self) -> NodeId:
        return self.segments[0].src


def format_timestamp(ts: datetime) -> str:
    """``YYYY-MM-DD HH:MM:SS.ffffff``; the year is zero-padded to four digits."""
    return ts.isoformat(" ", "microseconds")


_ONE_US = timedelta(microseconds=1)


def to_us(ts: datetime) -> int:
    """A timestamp as whole microseconds since 0001-01-01 00:00:00."""
    return (ts - datetime.min) // _ONE_US


def from_us(us: int) -> datetime:
    """Inverse of :func:`to_us`."""
    return datetime.min + timedelta(microseconds=us)


_MINUTE_US, _DAY_US = 60_000_000, 86_400_000_000
_EPOCH_US = to_us(datetime(1970, 1, 1))
_MAX_US = to_us(datetime.max)


def _digit_table(width: int) -> np.ndarray:
    """The ASCII digits of ``0 .. 10**width - 1`` with leading zeros, one ``width``-byte
    value each."""
    n = np.arange(10 ** width, dtype=np.uint16)[:, None]  # small temporaries: a leaner import
    digits = n // 10 ** np.arange(width - 1, -1, -1, dtype=np.uint16) % 10 + ord("0")
    return digits.astype(np.uint8).view(f"u{width}").ravel()


_DIGITS2, _DIGITS4 = _digit_table(2), _digit_table(4)
#: A timestamp's bytes: each "0" stands for an ASCII digit, every other byte for itself.
_STAMP_SHAPE = np.frombuffer(b"0000-00-00 00:00:00.000000", np.uint8)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Whether each of a 1-d array's values starts a run of equal consecutive values."""
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def format_us(stamps: np.ndarray) -> np.ndarray:
    """``format_timestamp`` of each ``to_us`` value as a row of 26 ASCII bytes.

    The result has shape ``(*stamps.shape, 26)`` and dtype uint8. Fields come
    from integer arithmetic, the calendar from numpy's ``datetime64`` casts,
    and digits from tables. A value outside ``from_us``'s range raises
    ``OverflowError``, as ``from_us`` does.

    Logs hold their stamps in time order, and a hop's receive time is the
    next hop's send time, so stamps come in runs. Each run of equal
    consecutive stamps (in C order) is formatted once, and the calendar,
    ``YYYY-MM-DD HH:MM:``, once per run of stamps in one minute; unsorted
    stamps are slower for it.
    """
    us = np.asarray(stamps, dtype=np.int64)
    if us.size and (us.min() < 0 or us.max() > _MAX_US):
        raise OverflowError("date value out of range")
    flat = us.ravel()
    change = _run_starts(flat)
    distinct = flat[change]
    minutes, us_of_minute = np.divmod(distinct, _MINUTE_US)
    turn = _run_starts(minutes)
    days, minute_of_day = np.divmod(minutes[turn], 24 * 60)
    day = (days - _EPOCH_US // _DAY_US).astype("datetime64[D]")
    month = day.astype("datetime64[M]")
    months = month.astype(np.int64)  # since 1970-01
    hour, minute = np.divmod(minute_of_day, 60)
    calendar = np.empty((len(day), 17), dtype=np.uint8)
    calendar[...] = _STAMP_SHAPE[:17]
    second, micro = np.divmod(us_of_minute, 1_000_000)
    text = np.empty((len(distinct), 26), dtype=np.uint8)
    text[:, 19] = _STAMP_SHAPE[19]
    for rows, at, digits, value in (
            (calendar, 0, _DIGITS4, months // 12 + 1970), (calendar, 5, _DIGITS2, months % 12 + 1),
            (calendar, 8, _DIGITS2, (day - month).astype(np.int64) + 1),
            (calendar, 11, _DIGITS2, hour), (calendar, 14, _DIGITS2, minute),
            (text, 17, _DIGITS2, second), (text, 20, _DIGITS2, micro // 10_000),
            (text, 22, _DIGITS4, micro % 10_000)):
        rows[:, at:at + digits.itemsize].view(digits.dtype)[:, 0] = digits[value]
    text[:, :17] = calendar[np.cumsum(turn) - 1]
    return text[np.cumsum(change) - 1].reshape(us.shape + (26,))


def _parse_timestamp(token: str, offset: int) -> datetime:
    """A token ``_TIMESTAMP_RE`` passed, read by its fixed-width fields."""
    try:
        return datetime(int(token[0:4]), int(token[5:7]), int(token[8:10]),
                        int(token[11:13]), int(token[14:16]), int(token[17:19]),
                        int(token[20:26]))
    except ValueError:
        raise ParseError(f"invalid timestamp {token!r}", offset) from None


def _kind(n_segments: int, received: bool) -> EntryKind:
    """The kind ``parse_entry`` infers from an entry's shape."""
    if received:
        return EntryKind.COORDINATOR
    return EntryKind.EDGE if n_segments == 1 else EntryKind.ROUTER


def parse_entry(line: str) -> LogEntry:
    """Parse one log line, without its ``"\\n"``, into a structured entry.

    Fields are split at commas, and one space opening a field after the
    first is skipped. The entry kind is inferred from the segment structure: a lone
    send-only segment with status is an edge entry; a trailing send-only
    segment after complete ones is a router entry; all-complete segments
    form a coordinator entry (with an optional tolerated status).
    """
    fields: list[tuple[str, int]] = []
    offset = 0
    for raw in line.split(","):
        skip = 1 if fields and raw.startswith(" ") else 0
        fields.append((raw[skip:], offset + skip))
        offset += len(raw) + 1

    status: int | None = None
    last_field, last_off = fields[-1]
    m = _STATUS_RE.match(last_field)
    if m:
        status = int(m.group(1))
        if status >= 2**63:  # a DeviceLog holds statuses as int64
            raise ParseError("status does not fit in 64 bits", last_off)
        fields.pop()
        if not fields:
            raise ParseError("entry holds only a status", last_off)

    segments: list[Segment] = []
    pending: tuple[NodeId, NodeId] | None = None
    times: list[datetime] = []

    def flush(offset: int) -> None:
        nonlocal pending, times
        if pending is None:
            return
        if not times:
            raise ParseError("segment pair lacks a timestamp", offset)
        if len(times) > 2:
            raise ParseError("segment carries more than two timestamps", offset)
        received = times[1] if len(times) == 2 else None
        segments.append(Segment(pending[0], pending[1], times[0], received))
        pending, times = None, []

    for token, off in fields:
        pm = _PAIR_RE.match(token)
        if pm:
            flush(off)
            try:
                pending = (_KNOWN_NODES[pm.group(1)], _KNOWN_NODES[pm.group(2)])
            except KeyError as err:
                raise ParseError(f"unknown node {err.args[0]!r}", off) from None
        elif _TIMESTAMP_RE.match(token):
            if pending is None:
                raise ParseError("timestamp before any node pair", off)
            times.append(_parse_timestamp(token, off))
        else:
            raise ParseError(f"unrecognized field {token!r}", off)
    flush(len(line))

    if not segments:
        raise ParseError("entry has no segments", 0)
    for prev, cur in zip(segments, segments[1:]):
        if prev.dst != cur.src:
            raise ParseError(
                f"discontinuous path: {prev.dst} followed by {cur.src}", 0)

    if any(s.received_at is None for s in segments[:-1]):
        raise ParseError("incomplete segment in the middle of an entry", 0)
    kind = _kind(len(segments), segments[-1].received_at is not None)
    if kind is not EntryKind.COORDINATOR and status is None:
        raise ParseError(f"{kind.value} entry missing status", 0)
    return LogEntry(kind, tuple(segments), status)


def serialize_entry(entry: LogEntry) -> str:
    """Render an entry in canonical form; inverse of :func:`parse_entry`."""
    fields: list[str] = []
    for seg in entry.segments:
        fields.append(f"{seg.src}>{seg.dst}")
        fields.append(format_timestamp(seg.sent_at))
        if seg.received_at is not None:
            fields.append(format_timestamp(seg.received_at))
    if entry.status is not None:
        fields.append(f"S:{entry.status}")
    return ", ".join(fields)


def us_to_ms(us: int | np.ndarray) -> float | np.ndarray:
    """Microseconds in milliseconds, rounded as ``timedelta.total_seconds() * 1000``."""
    return (us / 1_000_000) * 1000.0


#: Every node a log can name; a node's code in a ``DeviceLog`` is its index here.
NODES: tuple[NodeId, ...] = ROSTER
NODE_CODE = {node: code for code, node in enumerate(NODES)}
_PAIRS = [[f"{a}>{b}, ".encode() for b in NODES] for a in NODES]
#: ``"E3>R3, "`` at ``[NODE_CODE[E3], NODE_CODE[R3]]``, zero padded, and its length.
_PAIR_TEXT = np.array(_PAIRS)
_PAIR_LEN = np.array([[len(pair) for pair in row] for row in _PAIRS], dtype=np.uint8)
_COMMA = np.array(b", ")
#: Segments rendered at a time. Of the powers of two from 1 024 to 65 536,
#: 8 192 rendered the default 5 h corpus fastest; its rows and stamps take
#: about 1 MB.
_RENDER_CHUNK = 8192


class DeviceLog(Sequence[LogEntry]):
    """One device's log entries as columns; indexing builds a ``LogEntry``.

    Row ``i`` holds segments ``starts[i]:ends[i]``, each with node codes
    ``src``/``dst`` (indices into ``NODES``) and ``times`` (sent, received)
    in ``to_us`` microseconds. Only a row's last segment can lack a receive
    time (then ``received[i]`` is false and it repeats the send time).
    ``status[i]`` is -1 for none. Kinds are inferred as ``parse_entry`` does.
    """

    def __init__(self, n_segs: np.ndarray, received: np.ndarray, status: np.ndarray,
                 src: np.ndarray, dst: np.ndarray, times: np.ndarray):
        self.n_segs, self.received, self.status = n_segs, received, status
        self.src, self.dst, self.times = src, dst, times
        self.ends = np.cumsum(n_segs)
        self.starts = self.ends - n_segs

    def __len__(self) -> int:
        return len(self.n_segs)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The constructor's arguments, in its order."""
        return self.n_segs, self.received, self.status, self.src, self.dst, self.times

    def __getitem__(self, i: int | slice) -> LogEntry | DeviceLog:
        if isinstance(i, slice):
            return self.rows(i)
        i = range(len(self))[i]
        a, b = int(self.starts[i]), int(self.ends[i])
        received = bool(self.received[i])
        segments = tuple(
            Segment(NODES[s], NODES[d], from_us(sent),
                    from_us(got) if k < b - 1 or received else None)
            for k, s, d, (sent, got) in zip(range(a, b), self.src[a:b].tolist(),
                                            self.dst[a:b].tolist(), self.times[a:b].tolist()))
        status = int(self.status[i])
        return LogEntry(_kind(b - a, received), segments, None if status < 0 else status)

    def rows(self, keep: np.ndarray | slice) -> DeviceLog:
        """The rows a boolean mask, an index array or a slice selects, in that order.

        A slice of step 1 gives a log of views of these columns, not copies.
        """
        if isinstance(keep, slice) and keep.step in (None, 1):
            a, b, _ = keep.indices(len(self))
            b = max(a, b)
            s, e = (int(self.starts[a]), int(self.ends[b - 1])) if b > a else (0, 0)
            return DeviceLog(self.n_segs[a:b], self.received[a:b], self.status[a:b],
                             self.src[s:e], self.dst[s:e], self.times[s:e])
        index = np.arange(len(self))[keep]
        n_segs = self.n_segs[index]
        seg = np.repeat(self.starts[index] - np.cumsum(n_segs) + n_segs, n_segs) + np.arange(
            n_segs.sum())
        return DeviceLog(n_segs, self.received[index], self.status[index],
                         self.src[seg], self.dst[seg], self.times[seg])

    def render(self) -> str:
        """One ``serialize_entry`` line per row, each ending in a newline.

        A time outside ``from_us``'s range raises ``OverflowError``.

        Each segment is one row of bytes in fixed blocks: its pair and
        ``", "``, its sent stamp, ``", "`` and its received stamp, and its
        tail (``", "`` inside an entry, ``", S:<n>\\n"`` or ``"\\n"`` at its
        end). Texts are padded with zero bytes, which no line holds, and the
        received block of a segment not received is zeroed, so the document
        is the rows' nonzero bytes in order. The rows of ``_RENDER_CHUNK``
        segments at a time are built and copied into one buffer of the
        document's length, so memory beyond the document stays bounded.
        """
        statuses, which = np.unique(self.status, return_inverse=True)
        tail_text = [b", "] + [f", S:{c}\n".encode() if c >= 0 else b"\n"
                               for c in statuses.tolist()]
        tails, tail = np.array(tail_text), which + 1  # a row's tail; ", " is tail 0
        tail_len = np.array([len(t) for t in tail_text])
        # Each segment holds its pair, its sent stamp, ", " and its received
        # stamp if received, and its tail: ", " for all but a row's last.
        n_segs = len(self.src)
        n_received = n_segs - len(self) + np.count_nonzero(self.received)
        size = (int(_PAIR_LEN[self.src, self.dst].sum(dtype=np.int64)) + 26 * n_segs
                + 28 * n_received + 2 * (n_segs - len(self)) + int(tail_len[tail].sum()))
        doc = bytearray(size)
        out = np.frombuffer(doc, np.uint8)
        at = np.cumsum([0, _PAIR_TEXT.itemsize, 26, _COMMA.itemsize, 26, tails.itemsize])
        text = np.empty((min(n_segs, _RENDER_CHUNK), at[-1]), dtype=np.uint8)
        done = 0
        for a in range(0, n_segs, _RENDER_CHUNK):
            b = min(a + _RENDER_CHUNK, n_segs)
            # Rows first:stop end in this chunk; ``last`` holds their last segments, from ``a``.
            first, stop = np.searchsorted(self.ends, (a, b), side="right")
            last = self.ends[first:stop] - 1 - a
            received = np.ones(b - a, dtype=bool)
            received[last] = self.received[first:stop]
            seg_tail = np.zeros(b - a, dtype=np.int64)
            seg_tail[last] = tail[first:stop]
            stamps = format_us(self.times[a:b])
            rows = text[:b - a]
            for start, items in ((at[0], _PAIR_TEXT[self.src[a:b], self.dst[a:b]]),
                                 (at[2], _COMMA), (at[4], tails[seg_tail])):
                rows[:, start:start + items.itemsize].view(items.dtype)[:, 0] = items
            rows[:, at[1]:at[2]] = stamps[:, 0]
            rows[:, at[3]:at[4]] = stamps[:, 1]
            rows[~received, at[2]:at[4]] = 0
            chunk = rows[rows != 0]
            out[done:done + len(chunk)] = chunk
            done += len(chunk)
        return doc.decode("ascii")


_NONE = np.zeros(0, dtype=np.int64)
#: The log of a device that logged nothing.
EMPTY_LOG = DeviceLog(_NONE, _NONE.astype(bool), _NONE, _NONE, _NONE, _NONE.reshape(0, 2))

#: ``"E3>R3"`` -> ``NODE_CODE[E3] * len(NODES) + NODE_CODE[R3]``, for every pair
#: of nodes in each spacing ``parse_entry`` takes around ``>``.
_PAIR_CODE = {f"{a}{gap}{b}": i * len(NODES) + j
              for i, a in enumerate(NODES) for j, b in enumerate(NODES)
              for gap in (">", " >", "> ", " > ")}
_COMMA_BYTE, _NEWLINE, _SPACE = b",\n "
#: Eight commas as one little-endian word, and the low ``n`` bytes of a word
#: at index ``n``.
_COMMAS = np.uint64(int.from_bytes(b"," * 8, "little"))
_LOW_BYTES = np.array([2 ** (8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _windows(text: np.ndarray, dtype: str) -> np.ndarray:
    """Every window of ``text`` as wide as ``dtype``, as one item of it per
    offset. The items are unaligned, which numpy copes with."""
    width = np.dtype(dtype).itemsize
    return np.ndarray(len(text) - width + 1, dtype, text, strides=(1,))


def _words(text: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The 8 bytes of ``text`` from each ``start``, as little-endian uint64s,
    with every byte from ``length`` on made a comma. No field holds a comma,
    so fields shorter than 8 characters have equal words only if they are
    equal."""
    keep = _LOW_BYTES[np.minimum(length, 8)]
    return _windows(text, "<u8")[start] & keep | _COMMAS & ~keep


#: ``_PAIR_CODE`` keyed by ``_words``, sorted for ``np.searchsorted`` (in
#: Python: a numpy sort at import would map its sort code into every process).
_PAIR_KEYS = sorted((int.from_bytes(key.encode().ljust(8, b","), "little"), code)
                    for key, code in _PAIR_CODE.items())
_PAIR_WORDS = np.array([word for word, _ in _PAIR_KEYS], dtype=np.uint64)
_PAIR_CODES = np.array([code for _, code in _PAIR_KEYS], dtype=np.int64)
#: A status that fits in 64 bits has at most 19 digits after ``"S:"``.
_STATUS_WIDTH = 21
#: Follows a document: its first line end ends the last line, and the rest
#: let every window read from a field fit.
_PAD = "\n" * 26


def _fields(text: str) -> tuple[np.ndarray, ...]:
    """``text`` split into lines and fields, read as ``_read_fields`` takes
    them, and a mask of the empty lines.

    Line ``i`` is ``text.split("\\n")[i]``, split into fields as
    ``parse_entry`` splits it: at commas, each field after a line's first
    without one leading space.
    """
    # A line end before the document starts its first line, as _PAD's first
    # after it ends the last. Each character beyond ASCII, a lone surrogate
    # too, becomes "?", which no pair, timestamp or status holds.
    n = len(text) + 2
    chars = np.frombuffer(f"\n{text}{_PAD}".encode("ascii", "replace"), np.uint8)
    # The one scan of the document finds every comma and line end, and a few
    # other characters.
    at = np.flatnonzero(chars[:n] <= _COMMA_BYTE)
    code = chars[at]
    cut = at[(code == _COMMA_BYTE) | (code == _NEWLINE)]
    line_cut = chars[cut] == _NEWLINE
    start = cut[:-1] + 1
    start += (chars[start] == _SPACE) & ~line_cut[:-1]
    length = cut[1:] - start
    first = np.flatnonzero(line_cut[:-1])
    n_fields = np.diff(first, append=len(length))
    blank = (n_fields == 1) & (length[first] == 0)

    # A line's status is read from its last field, once per distinct text,
    # keyed by its word if it is shorter than 8 characters. A status is "S:"
    # and a digit at least, and one wider than _STATUS_WIDTH does not fit.
    last = np.cumsum(n_fields) - 1
    width = length[last]
    by_word = np.flatnonzero((width >= 3) & (width < 8))
    by_text = np.flatnonzero((width >= 8) & (width <= _STATUS_WIDTH))
    status_text = _windows(chars, f"S{_STATUS_WIDTH + 1}")[start[last[by_text]]]
    status_text.view(np.uint8).reshape(-1, _STATUS_WIDTH + 1)[
        np.arange(_STATUS_WIDTH + 1) >= width[by_text, None]] = _COMMA_BYTE
    status = np.full(len(n_fields), -1, dtype=np.int64)
    for lines, keys in ((by_word, _words(chars, start[last[by_word]], width[by_word])),
                        (by_text, status_text)):
        texts, which = np.unique(keys, return_inverse=True)
        status[lines] = np.array(
            [_status(t.decode("ascii").rstrip(","))
             for t in texts.view(f"S{texts.itemsize}").tolist()], dtype=np.int64)[which]

    short = np.flatnonzero(length < 8)
    word = _words(chars, start[short], length[short])
    slot = np.minimum(np.searchsorted(_PAIR_WORDS, word), len(_PAIR_WORDS) - 1)
    pair = np.full(len(length), -1, dtype=np.int64)
    pair[short] = np.where(_PAIR_WORDS[slot] == word, _PAIR_CODES[slot], -1)
    wide = length == 26
    stamp_text = _windows(chars, "S26")[start[wide]].view(np.uint8).reshape(-1, 26)
    return n_fields, blank, status, pair, wide, stamp_text


#: How far each byte of a timestamp may exceed ``_STAMP_SHAPE``: a digit by 9.
_STAMP_SLACK = np.where(_STAMP_SHAPE == ord("0"), 9, 0).astype(np.uint8)


def _stamps_us(text: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``to_us`` of each row of an ``(n, 26)`` uint8 array of timestamp
    characters, and whether ``parse_entry`` accepts the row as a timestamp.
    numpy checks the calendar, and an impossible date refuses the rows cast
    with it."""
    # numpy reads year 0000, which datetime refuses. A byte below its shape's
    # wraps round to above 9.
    ok = text[:, :4].view("S4").ravel() != b"0000"
    ok[np.flatnonzero(text - _STAMP_SHAPE > _STAMP_SLACK) // 26] = False
    stamps = np.where(ok, text.view("S26").ravel(), b"1970-01-01 00:00:00.000000")
    us = np.zeros(len(text), dtype="datetime64[us]")
    # numpy (2.4.6 at least) releases the GIL to cast more than 500 values,
    # and then crashes instead of raising on an impossible date.
    for at in range(0, len(text), 500):
        try:
            us[at:at + 500] = stamps[at:at + 500]
        except ValueError:
            ok[at:at + 500] = False
    return us.view(np.int64) + _EPOCH_US, ok


def _status(field: str) -> int:
    """The status a last field holds: -1 for none, -2 for one beyond int64."""
    m = _STATUS_RE.match(field)
    if m is None:
        return -1
    status = int(m.group(1))
    return status if status < 2**63 else -2


def _read_fields(n_fields: np.ndarray, status: np.ndarray, pair: np.ndarray, wide: np.ndarray,
                 stamp_text: np.ndarray) -> tuple[DeviceLog, np.ndarray]:
    """Lines already split into fields, as columns, and a mask of the lines
    taken.

    Line ``i`` has ``n_fields[i]`` fields, and ``status[i]`` is ``_status``
    of its last, or -1 where that is -2: neither line is taken. Each field
    has its ``_PAIR_CODE`` in ``pair`` (-1 for none) and is ``wide`` if it is
    26 characters long; ``stamp_text`` holds the characters of the wide ones,
    one row each. A line is taken only if ``parse_entry`` accepts it when it
    splits the line into these fields; its row is the one ``parse_entry``
    reads.
    """
    line_of = np.repeat(np.arange(len(n_fields)), n_fields)
    last = np.cumsum(n_fields) - 1
    is_status = np.zeros(len(pair), dtype=bool)
    is_status[last[status != -1]] = True
    is_pair = pair >= 0

    # A line must start with a pair and hold only pairs, timestamps and a last
    # status. Pairs and statuses are narrower than timestamps.
    bad = (status == -2) | ~is_pair[last - n_fields + 1]
    bad[line_of[~(is_pair | wide | is_status)]] = True
    is_stamp = wide & ~bad[line_of]  # so every timestamp left follows a pair of its own line

    seg_at = np.flatnonzero(is_pair)
    seg_line = line_of[seg_at]
    src, dst = np.divmod(pair[seg_at], len(NODES))
    n_stamps = np.add.reduceat(is_stamp, seg_at, dtype=np.int64)
    us, stamp_ok = _stamps_us(np.compress(is_stamp[wide], stamp_text, axis=0))
    bad[line_of[is_stamp][~stamp_ok]] = True
    first = np.cumsum(n_stamps) - n_stamps
    us = np.append(us, 0)  # read by segments without a timestamp, whose lines are bad
    sent = us[first]
    got = np.where(n_stamps == 2, us[np.minimum(first + 1, len(us) - 1)], sent)

    # Each segment has one or two timestamps, only a line's last may lack its
    # receive time, and the path is continuous.
    seg_last = np.diff(seg_line, append=-1) != 0
    bad[seg_line[(n_stamps == 0) | (n_stamps > 2) | ((n_stamps == 1) & ~seg_last)]] = True
    bad[seg_line[1:][(seg_line[1:] == seg_line[:-1]) & (dst[:-1] != src[1:])]] = True
    received = np.zeros(len(n_fields), dtype=bool)
    received[seg_line[seg_last]] = n_stamps[seg_last] == 2
    bad |= ~received & (status < 0)  # edge and router entries carry a status

    ok = ~bad
    keep = ok[seg_line]
    log = DeviceLog(np.bincount(seg_line, minlength=len(n_fields))[ok], received[ok], status[ok],
                    src[keep], dst[keep], np.stack([sent, got], axis=1)[keep])
    return log, ok


def parse_log(text: str) -> DeviceLog:
    """Parse a log document into columns, skipping empty lines.

    ``_fields`` splits the whole document into lines and fields at once, as
    ``parse_entry`` splits a line, with no Python per line, and
    ``_read_fields`` reads every line together. Only the lines it refuses
    go to :func:`parse_entry`, in document order, so the first bad line
    raises the ``ParseError`` that ``parse_entry`` gives it, with its line
    number.
    """
    n_fields, blank, *fields = _fields(text)
    log, ok = _read_fields(n_fields, *fields)
    refused = np.flatnonzero(~ok & ~blank).tolist()
    if not refused:
        return log
    lines = text.split("\n")
    # An impossible date refuses the 500 rows cast with it: good lines may come first.
    for i in refused:
        try:
            parse_entry(lines[i])
        except ParseError as err:
            raise ParseError(err.reason, err.offset, i + 1) from None
    raise RuntimeError(f"parse_log refused line {refused[0] + 1}, which parse_entry reads")
