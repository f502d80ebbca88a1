"""Sorted typed columns: key/value comparisons by binary search.

Every value stored under one key goes into the column of its kind, whether
it was extracted from the chunk (an attribute) or set by a user (a
property). A comparison reads only the column of its own value's kind, so
mixed kinds never match, and costs O(log n + matches):

* numbers: (value, id) pairs sorted by value; NaN values are kept apart,
  since NaN is false for EQ, LT and GT but true for LTE and GTE against
  every number;
* texts: pairs sorted by ``lower()`` answer EQ, which is case-insensitive,
  and pairs sorted by the raw value answer the ordering operators, which
  compare code points;
* dates, as half-open intervals at their granularity: entries sorted by
  lower bound answer LTE (a prefix) and GT (a suffix), entries sorted by
  upper bound answer LT (a prefix) and GTE (a suffix). EQ means the
  intervals overlap; no interval is longer than a year, so EQ scans the
  lower bounds from one year before the query's start. Bounds are packed
  into one integer each.

``count`` takes the width of the run a search reads from the same bounds,
without reading it: the query planner's size estimate (see ``index``).

A column is a multiset: one chunk may carry the same value twice (say, once
as an attribute and once as a property), and removing one leaves the other.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from ..model import DateValue, TypedValue
from ..query.ast import CompareOp

_first = itemgetter(0)


class SortedEntries:
    """A multiset of tuples ``(sort key, ..., id)``, sorted lazily.

    ``_sorted`` counts the entries at the front known to be in order. Adds
    append behind them; the first read or removal after them sorts the
    list, and Timsort merges the sorted run with a short tail in
    near-linear time. Removals keep the order, so dropping every entry
    added since the last read (an import deleted or rolled back) leaves
    nothing to sort. They rewrite the list in place: a new list would be a
    young object that every full garbage collection rescans, entry by
    entry, until the server freezes the heap again (see ``server.app``).
    """

    __slots__ = ("_items", "_sorted")

    def __init__(self):
        self._items: list[tuple] = []
        self._sorted = 0

    def __len__(self) -> int:
        return len(self._items)

    def add(self, entry: tuple) -> None:
        self._items.append(entry)

    def remove(self, entries: list[tuple]) -> None:
        """Remove one occurrence of each of ``entries``; all must be present.

        Each is found by binary search, and each removal moves the tail of
        the list, so callers removing more than ``_FEW`` chunks' entries drop
        them by id instead (see ``drop_ids``).
        """
        items = self.items()
        try:
            for entry in entries:
                i = bisect_left(items, entry)
                if i == len(items) or items[i] != entry:
                    raise KeyError(entry)
                del items[i]
        finally:  # the entries before a missing one are gone
            self._sorted = len(items)

    def drop_ids(self, ids: set[str]) -> None:
        """Remove every entry of the chunks ``ids`` in one pass."""
        items, n = self._items, self._sorted
        kept = [entry for entry in items[:n] if entry[-1] not in ids]
        self._sorted = len(kept)
        kept += [entry for entry in items[n:] if entry[-1] not in ids]
        items[:] = kept

    def items(self) -> list[tuple]:
        """The entries in order."""
        if self._sorted < len(self._items):
            self._items.sort()
            self._sorted = len(self._items)
        return self._items

    def ids_between(self, lower, upper) -> set[str]:
        """Ids of entries whose sort key k has ``lower <= k < upper``."""
        return _ids(*self._between(lower, upper))

    def count_between(self, lower, upper) -> int:
        """How many entries ``ids_between`` reads."""
        _, start, stop = self._between(lower, upper)
        return stop - start

    def _between(self, lower, upper) -> tuple[list, int, int]:
        items = self.items()
        start = bisect_left(items, lower, key=_first)
        return items, start, bisect_left(items, upper, start, key=_first)


# The most chunks whose entries are removed by binary search (see
# SortedEntries.remove): from 10 000 (value, id) entries, 512 removals take
# about 0.7 ms, about as long as one pass over the list.
_FEW = 512


def _ids(items: list[tuple], start: int, stop: int) -> set[str]:
    return {entry[-1] for entry in items[start:stop]}


def _ordered(entries: SortedEntries, op: CompareOp, value) -> tuple[list, int, int]:
    """The entries in order and the bounds of the run of them whose sort key
    stands in ``op`` to ``value``."""
    items = entries.items()
    if op is CompareOp.LT:
        return items, 0, bisect_left(items, value, key=_first)
    if op is CompareOp.LTE:
        return items, 0, bisect_right(items, value, key=_first)
    if op is CompareOp.GT:
        return items, bisect_right(items, value, key=_first), len(items)
    start = bisect_left(items, value, key=_first)
    if op is CompareOp.GTE:
        return items, start, len(items)
    return items, start, bisect_right(items, value, start, key=_first)  # EQ


class _Column:
    """A column answers ``search`` from one run of sorted entries that
    ``_span(op, value)`` bounds, so ``count`` reads the size of a result
    from the same bounds without building it."""

    __slots__ = ()

    def search(self, op: CompareOp, value) -> set[str]:
        return _ids(*self._span(op, value))

    def count(self, op: CompareOp, value) -> int:
        """How many entries ``search`` reads, in O(log n): a bound on the
        size of its result, which it equals unless a chunk holds several of
        those values or the search is a date EQ."""
        _, start, stop = self._span(op, value)
        return stop - start


class _Numbers(_Column):
    __slots__ = ("_sorted", "_nan")

    def __init__(self):
        self._sorted = SortedEntries()  # (value, id)
        self._nan: dict[str, int] = {}  # id -> how many NaN values it carries

    def __len__(self) -> int:
        return len(self._sorted) + len(self._nan)

    def add(self, value: float, cid: str) -> None:
        if value != value:
            self._nan[cid] = self._nan.get(cid, 0) + 1
        else:
            self._sorted.add((value, cid))

    def remove(self, pairs: list[tuple[float, str]]) -> None:
        ordered = []
        for value, cid in pairs:
            if value == value:
                ordered.append((value, cid))
            elif self._nan[cid] == 1:
                del self._nan[cid]
            else:
                self._nan[cid] -= 1
        self._sorted.remove(ordered)

    def drop_ids(self, ids: set[str]) -> None:
        self._sorted.drop_ids(ids)
        for cid in ids:
            self._nan.pop(cid, None)

    def _span(self, op: CompareOp, value: float) -> tuple[list, int, int]:
        if value == value:
            return _ordered(self._sorted, op, value)
        items = self._sorted.items()  # NaN is neither below nor above any number
        return items, 0, len(items) if op is CompareOp.LTE or op is CompareOp.GTE else 0

    def search(self, op: CompareOp, value: float) -> set[str]:
        hits = _ids(*self._span(op, value))
        if op is CompareOp.LTE or op is CompareOp.GTE:
            hits.update(self._nan)
        return hits

    def count(self, op: CompareOp, value: float) -> int:
        nan = len(self._nan) if op is CompareOp.LTE or op is CompareOp.GTE else 0
        return super().count(op, value) + nan


class _Texts(_Column):
    __slots__ = ("_raw", "_folded")

    def __init__(self):
        self._raw = SortedEntries()  # (value, id)
        self._folded = SortedEntries()  # (value.lower(), id)

    def __len__(self) -> int:
        return len(self._raw)

    def add(self, value: str, cid: str) -> None:
        folded = value.lower()
        self._raw.add((value, cid))
        # one string for both lists when lower() changes nothing
        self._folded.add((value if folded == value else folded, cid))

    def remove(self, pairs: list[tuple[str, str]]) -> None:
        self._raw.remove(pairs)
        self._folded.remove([(value.lower(), cid) for value, cid in pairs])

    def drop_ids(self, ids: set[str]) -> None:
        self._raw.drop_ids(ids)
        self._folded.drop_ids(ids)

    def _span(self, op: CompareOp, value: str) -> tuple[list, int, int]:
        if op is CompareOp.EQ:
            return _ordered(self._folded, op, value.lower())
        return _ordered(self._raw, op, value)


class _Dates(_Column):
    __slots__ = ("_by_lower", "_by_upper")

    def __init__(self):
        self._by_lower = SortedEntries()  # (lower key, upper key, id)
        self._by_upper = SortedEntries()  # (upper key, id)

    def __len__(self) -> int:
        return len(self._by_lower)

    def add(self, value: DateValue, cid: str) -> None:
        upper = _packed(value.upper_key())
        self._by_lower.add((_packed(value.lower_key()), upper, cid))
        self._by_upper.add((upper, cid))

    def remove(self, pairs: list[tuple[DateValue, str]]) -> None:
        by_upper = [(_packed(value.upper_key()), cid) for value, cid in pairs]
        self._by_lower.remove([
            (_packed(value.lower_key()), upper, cid)
            for (value, cid), (upper, _) in zip(pairs, by_upper)
        ])
        self._by_upper.remove(by_upper)

    def drop_ids(self, ids: set[str]) -> None:
        self._by_lower.drop_ids(ids)
        self._by_upper.drop_ids(ids)

    def _span(self, op: CompareOp, value: DateValue) -> tuple[list, int, int]:
        lower_key = value.lower_key()
        lower, upper = _packed(lower_key), _packed(value.upper_key())
        if op is CompareOp.LT:  # ends before the query starts
            return _ordered(self._by_upper, CompareOp.LTE, lower)
        if op is CompareOp.LTE:  # starts before the query ends
            return _ordered(self._by_lower, CompareOp.LT, upper)
        if op is CompareOp.GT:  # starts after the query ends
            return _ordered(self._by_lower, CompareOp.GTE, upper)
        if op is CompareOp.GTE:  # ends after the query starts
            return _ordered(self._by_upper, CompareOp.GT, lower)
        # EQ: the entries that start before the query ends, from one year
        # before it starts, since no interval is longer
        items = self._by_lower.items()
        year_before = _packed((lower_key[0] - 1,) + lower_key[1:])
        start = bisect_left(items, year_before, key=_first)
        return items, start, bisect_left(items, upper, start, key=_first)

    def search(self, op: CompareOp, value: DateValue) -> set[str]:
        items, start, stop = self._span(op, value)
        if op is not CompareOp.EQ:
            return _ids(items, start, stop)
        lower = _packed(value.lower_key())  # and of those, the ones ending after it starts
        return {cid for _, end, cid in items[start:stop] if end > lower}


def _packed(key: tuple) -> int:
    """A date key (year, month, day, hour, minute, second, microsecond) as
    one integer in the same order: one int per bound instead of a tuple of
    seven, which on 10 000 dated chunks keeps about 2 MiB off the peak RSS."""
    year, month, day, hour, minute, second, micro = key
    return (((((year * 13 + month) * 32 + day) * 24 + hour) * 60 + minute) * 60
            + second) * 1_000_000 + micro


_KINDS = {"number": _Numbers, "text": _Texts, "date": _Dates}


class TypedColumns:
    """One sorted column per (key, value kind)."""

    __slots__ = ("_columns",)

    def __init__(self):
        self._columns: dict[tuple[str, str], _Numbers | _Texts | _Dates] = {}

    def add(self, key: str, value: TypedValue, cid: str) -> None:
        column = self._columns.get((key, value.kind))
        if column is None:
            column = self._columns[(key, value.kind)] = _KINDS[value.kind]()
        column.add(value.value, cid)

    def remove(self, entries) -> None:
        """Remove ``(key, value, id)`` entries, each made by one ``add``."""
        by_column: dict[tuple[str, str], list] = {}
        for key, value, cid in entries:
            name = (key, value.kind)
            pairs = by_column.get(name)
            if pairs is None:
                pairs = by_column[name] = []
            pairs.append((value.value, cid))
        for name, pairs in by_column.items():
            column = self._columns[name]
            column.remove(pairs)
            if not column:
                del self._columns[name]

    def drop_ids(self, ids: set[str], keys: set[str]) -> None:
        """Remove every entry of the chunks ``ids`` from the columns of
        ``keys``, the keys those chunks hold: one pass per column."""
        for name, column in list(self._columns.items()):
            if name[0] not in keys:
                continue
            column.drop_ids(ids)
            if not column:
                del self._columns[name]

    def search(self, op: CompareOp, key: str, value: TypedValue) -> set[str]:
        """Ids of chunks with a value under ``key`` that stands in ``op`` to ``value``."""
        column = self._columns.get((key, value.kind))
        return column.search(op, value.value) if column is not None else set()

    def count(self, op: CompareOp, key: str, value: TypedValue) -> int:
        """How many entries ``search`` reads, from the same bounds, in O(log n)."""
        column = self._columns.get((key, value.kind))
        return column.count(op, value.value) if column is not None else 0
