"""Dates as the query language reads and compares them.

``TestSeedOutput`` pins, by digest, what seeded corpora of date texts give:
whether each text is accepted, its canonical text and granularity, the five
comparisons over random pairs, and date terms against import timestamps.
The digests were computed while ``DateValue`` kept a date's fields (year,
month, ..., microsecond) and built its bounds from them on every call, so
they hold the integer bounds to the same answers. ``TestBounds`` checks the
bounds themselves against ``datetime``, and ``TestDateColumn`` the column's
EQ scan at the longest interval, a leap year.
"""

import calendar
import hashlib
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from georocket.indexer.columns import TypedColumns
from georocket.indexer.documents import IndexDocument
from georocket.model import ROOT_LAYER, ChunkMetadata, DateValue, TypedValue
from georocket.query.ast import CompareOp, DateTerm
from georocket.query.evaluate import compare_typed, evaluate_oracle

YEARS = (0, 1, 399, 400, 1970, 9999)
OPS = (CompareOp.EQ, CompareOp.LT, CompareOp.LTE, CompareOp.GT, CompareOp.GTE)
UTC = timezone.utc
EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
DAY_US = 86_400_000_000
MIN_MS = (datetime(1, 1, 1, tzinfo=UTC) - EPOCH) // timedelta(milliseconds=1)
MAX_MS = (datetime(9999, 12, 31, 23, 59, 59, 999_000, tzinfo=UTC) - EPOCH) // timedelta(milliseconds=1)


def _pick(rng: random.Random, stop: int, edges: tuple) -> int:
    return rng.choice(edges) if rng.random() < 0.3 else rng.randrange(stop)


def date_text(rng: random.Random) -> str:
    """A date-like text at any granularity, fields out of range too."""
    year = rng.choice(YEARS) if rng.random() < 0.5 else rng.randrange(10000)
    text = f"{year:04d}"
    granularity = rng.randrange(4)
    if granularity >= 1:
        text += f"-{_pick(rng, 14, (1, 2, 12)):02d}"
    if granularity >= 2:
        text += f"-{_pick(rng, 33, (1, 28, 29, 30, 31)):02d}"
    if granularity == 3:
        text += (f"T{_pick(rng, 25, (0, 23)):02d}:{_pick(rng, 61, (0, 59)):02d}"
                 f":{_pick(rng, 61, (0, 59)):02d}")
        digits = rng.randrange(8)
        if digits:
            text += "." + "".join(rng.choice("0123456789") for _ in range(digits))
        zone = rng.randrange(4)
        if zone == 1:
            text += "Z"
        elif zone > 1:
            text += f"{rng.choice('+-')}{_pick(rng, 25, (0, 1, 23)):02d}:{_pick(rng, 61, (0, 30, 59)):02d}"
    return text


def term_and_timestamp(rng: random.Random) -> tuple[str, int]:
    """A date term around an instant in years 1-9999, and an import
    timestamp (epoch ms) at, just beside, or a day away from that instant."""
    year = rng.choice(YEARS[1:]) if rng.random() < 0.5 else rng.randrange(1, 10000)
    month = _pick(rng, 12, (0, 11)) + 1
    day = rng.randrange(calendar.monthrange(year, month)[1]) + 1
    instant = datetime(year, month, day, rng.randrange(24), rng.randrange(60), rng.randrange(60),
                       rng.randrange(1_000_000), tzinfo=UTC)
    ms = (instant - EPOCH) // timedelta(milliseconds=1)
    ms += rng.choice((-86_400_000, -1000, -1, 0, 0, 0, 1, 1000, 86_400_000))
    ms = min(max(ms, MIN_MS), MAX_MS)
    text = (f"{year:04d}-{month:02d}-{day:02d}"
            f"T{instant.hour:02d}:{instant.minute:02d}:{instant.second:02d}")
    cut = rng.choice((4, 7, 10, 19, 19))
    if cut < 19:
        return text[:cut], ms
    digits = rng.randrange(7)
    if digits:
        text += f".{instant.microsecond:06d}"[:digits + 1]
    return text + rng.choice(("", "Z", "+00:00", "+01:00", "-01:00")), ms


def _doc(ms: int) -> IndexDocument:
    return IndexDocument("C0000", None, (), (), ChunkMetadata(ROOT_LAYER, import_timestamp=ms))


def corpus_digest(seed: int, texts: int, pairs: int, terms: int) -> tuple[int, int, int, str]:
    """(accepted texts, comparisons that hold, terms that match, sha256)."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    values = []
    for _ in range(texts):
        text = date_text(rng)
        d = DateValue.parse(text)
        if d is None:
            digest.update(f"{text} rejected;".encode())
        else:
            digest.update(f"{text} {d.iso()} {d.granularity};".encode())
            values.append(TypedValue.of_date(d))
    ordered = sorted(values, key=lambda v: v.value.iso())
    held = 0
    for _ in range(pairs):
        i = rng.randrange(len(ordered))  # half the pairs are neighbours, which often overlap
        j = rng.randrange(len(ordered)) if rng.random() < 0.5 else \
            min(max(i + rng.randint(-3, 3), 0), len(ordered) - 1)
        left, right = ordered[i], ordered[j]
        bits = "".join("1" if compare_typed(op, left, right) else "0" for op in OPS)
        held += bits.count("1")
        digest.update(f"{left.value.iso()} {right.value.iso()} {bits};".encode())
    matched = 0
    for _ in range(terms):
        text, ms = term_and_timestamp(rng)
        d = DateValue.parse(text)
        hit = d is not None and evaluate_oracle(DateTerm(d), _doc(ms))
        matched += hit
        digest.update(f"{text} {ms} {'rejected' if d is None else int(hit)};".encode())
    return len(values), held, matched, digest.hexdigest()


class TestSeedOutput:
    @pytest.mark.parametrize("seed, expected", [
        (20261022, (6679, 17924, 2449,
                    "34e51656e466130c43adf155b410d96325b0988bdb2e1e6ef49f34c6c4e0cfe5")),
        (7, (6757, 17733, 2508,
             "6a43e008e7c917d43890d5f4d4f06ff37799f1304b5eec78c6454d745180ebf4")),
        (1950, (6720, 17857, 2518,
                "00323c06b4e1626392dcb36aa71e2474805e37ba0db3ff938a0a1354c07a6286")),
    ])
    def test_digest(self, seed, expected):
        assert corpus_digest(seed, 8000, 8000, 4000) == expected


def micros(dt: datetime) -> int:
    """Microseconds from 0000-01-01T00:00Z to a naive UTC datetime: year 0
    is a leap year of 366 days."""
    return (dt - datetime(1, 1, 1)) // timedelta(microseconds=1) + 366 * DAY_US


@st.composite
def written_dates(draw, years=st.integers(1, 9999), zones=True):
    """(text, granularity, naive datetime written, fraction digits, zone)."""
    year = draw(years)
    month = draw(st.integers(1, 12))
    day = draw(st.integers(1, calendar.monthrange(year or 400, month)[1]))
    granularity = draw(st.integers(0, 3))
    text = f"{year:04d}" + f"-{month:02d}" * (granularity >= 1) + f"-{day:02d}" * (granularity >= 2)
    if granularity < 3:
        return text, granularity, (year, month, day), 0, None
    hour, minute, second = draw(st.integers(0, 23)), draw(st.integers(0, 59)), draw(st.integers(0, 59))
    digits = draw(st.integers(0, 6))
    fraction = draw(st.integers(0, 10**digits - 1))
    text += f"T{hour:02d}:{minute:02d}:{second:02d}" + f".{fraction:0{digits}d}" * (digits > 0)
    offsets = st.tuples(st.sampled_from("+-"), st.integers(0, 23), st.integers(0, 59))
    zone = draw(st.sampled_from(["", "Z"]) | offsets.map("{0[0]}{0[1]:02d}:{0[2]:02d}".format)
                if zones else st.sampled_from(["", "Z"]))
    fields = (year, month, day, hour, minute, second, fraction * 10 ** (6 - digits))
    return text + zone, granularity, fields, digits, zone


class TestBounds:
    @settings(max_examples=500, deadline=None)
    @given(written_dates())
    def test_bounds_are_those_of_datetime(self, written):
        text, granularity, fields, digits, zone = written
        year, month = fields[:2]
        d = DateValue.parse(text)
        if granularity < 3:
            start = datetime(*fields[:1 + granularity], *(1,) * (2 - granularity))
            days = (366 if calendar.isleap(year) else 365, calendar.monthrange(year, month)[1], 1)
            assert (d.lower, d.upper) == (micros(start), micros(start) + days[granularity] * DAY_US)
            return
        instant = datetime(*fields)
        if zone not in ("", "Z"):
            offset = timedelta(hours=int(zone[1:3]), minutes=int(zone[4:6]))
            try:
                instant = instant - offset if zone[0] == "+" else instant + offset
            except OverflowError:  # before year 1 or after year 9999 in UTC
                assert d is None
                return
        assert (d.lower, d.upper) == (micros(instant), micros(instant) + 10 ** (6 - digits))

    @settings(max_examples=300, deadline=None)
    @given(written_dates(years=st.just(400), zones=False))
    def test_year_0_is_year_400_one_cycle_earlier(self, written):
        text = written[0]
        year_400, year_0 = DateValue.parse(text), DateValue.parse("0000" + text[4:])
        cycle = 146_097 * DAY_US  # days in 400 Gregorian years
        assert (year_0.lower, year_0.upper) == (year_400.lower - cycle, year_400.upper - cycle)
        assert year_0.iso() == "0000" + year_400.iso()[4:]
        assert year_0.granularity == year_400.granularity

    @pytest.mark.parametrize("text", ["0000", "0000-02-29", "0000-12-31T23:59:59.999999",
                                      "0000-01-01T00:00:00Z", "9999-12-31T23:59:59.999999Z",
                                      "0001-01-01T00:30:00-01:00"])
    def test_edges_of_the_calendar_accepted(self, text):
        assert DateValue.parse(text) is not None

    @pytest.mark.parametrize("text", ["0001-02-29", "0000-01-01T00:00:00+00:00",
                                      "0000-06-01T12:00:00-01:00", "0001-01-01T00:30:00+01:00",
                                      "9999-12-31T23:30:00-01:00", "2018-01-01T00:00:00+24:00",
                                      "2018-01-01T00:00:00.1234567"])
    def test_edges_of_the_calendar_rejected(self, text):
        assert DateValue.parse(text) is None

    def test_the_upper_bound_of_9999_is_10000_01_01(self):
        assert DateValue.parse("9999").upper == micros(datetime(9999, 12, 31)) + DAY_US


class TestDateColumn:
    @pytest.mark.parametrize("year", ["0000", "2000", "2016"])
    def test_eq_reaches_back_a_whole_leap_year(self, year):
        """EQ scans the lower bounds from 366 days before the query starts:
        a leap year overlaps the last microsecond of its last day."""
        columns = TypedColumns()
        columns.add("built", TypedValue.from_text(year), "C1")
        last = TypedValue.from_text(f"{year}-12-31T23:59:59.999999")
        assert compare_typed(CompareOp.EQ, TypedValue.from_text(year), last)
        assert columns.search(CompareOp.EQ, "built", last) == {"C1"}
