"""Reference query semantics: evaluate one query against one index document.

This evaluator is the ground truth the index is tested against. It is a
total function over complete documents and never raises.

Semantics:

* a text term matches if the lowercased token appears among the document's
  full-text tokens, its lowercased tags, or the tokens of its property values
* a bbox term matches if the document has a bounding box intersecting it
* a date term matches if the import timestamp falls in the date's interval
* a comparison matches only if the key exists among indexed attributes or
  properties and the typed comparison holds for at least one of its values;
  a comparison on a missing key is false (so NOT of it is true)
* ``NOT(x ...)`` is the negation of ``OR(x ...)``
"""

from __future__ import annotations

from ..model import EPOCH_US, DateValue, TypedValue
from ..text import tokenize
from .ast import (
    BBoxTerm,
    Comparison,
    CompareOp,
    DateTerm,
    Logical,
    LogicalOp,
    MatchAll,
    QueryNode,
    TextTerm,
)

_ORDERED = {
    CompareOp.LT: (lambda c: c < 0),
    CompareOp.LTE: (lambda c: c <= 0),
    CompareOp.GT: (lambda c: c > 0),
    CompareOp.GTE: (lambda c: c >= 0),
}


def _compare_dates(op: CompareOp, left: DateValue, right: DateValue) -> bool:
    # Interval semantics over half-open [lower, upper) ranges.
    if op is CompareOp.EQ:
        return left.lower < right.upper and left.upper > right.lower
    if op is CompareOp.LT:
        return left.upper <= right.lower
    if op is CompareOp.LTE:
        return left.lower < right.upper
    if op is CompareOp.GT:
        return left.lower >= right.upper
    return left.upper > right.lower  # GTE


def compare_typed(op: CompareOp, left: TypedValue, right: TypedValue) -> bool:
    """Typed comparison; mixed kinds (e.g. number vs date) are always false.

    Numbers compare numerically. Texts compare case-insensitively for EQ and
    by code point for the ordering operators. Dates compare as intervals at
    their granularity: EQ means the intervals overlap, LT means the left
    interval ends before the right one starts, and so on.
    """
    if left.kind != right.kind:
        return False
    if left.kind == "date":
        return _compare_dates(op, left.value, right.value)
    if left.kind == "number":
        if op is CompareOp.EQ:
            return left.value == right.value
        return _ORDERED[op]((left.value > right.value) - (left.value < right.value))
    if op is CompareOp.EQ:
        return left.value.lower() == right.value.lower()
    return _ORDERED[op]((left.value > right.value) - (left.value < right.value))


def document_values(doc, key: str) -> list[TypedValue]:
    """All typed values the document carries under ``key``.

    Indexed attributes are typed at extraction time; property values are
    stored as text and typed here (date, then number, then text).
    """
    values = [a.value for a in doc.attributes if a.key == key]
    if key in doc.metadata.properties:
        values.append(TypedValue.from_text(doc.metadata.properties[key]))
    return values


def text_term_matches(token: str, doc) -> bool:
    needle = token.lower()
    if needle in doc.tokens:
        return True
    if any(needle == tag.lower() for tag in doc.metadata.tags):
        return True
    return any(
        needle in tokenize(value) for value in doc.metadata.properties.values()
    )


def evaluate_oracle(node: QueryNode, doc) -> bool:
    """True iff ``doc`` satisfies ``node``. Total; never raises."""
    if isinstance(node, MatchAll):
        return True
    if isinstance(node, TextTerm):
        return text_term_matches(node.token, doc)
    if isinstance(node, BBoxTerm):
        return doc.bbox is not None and doc.bbox.intersects(node.bbox)
    if isinstance(node, DateTerm):
        instant = doc.metadata.import_timestamp * 1000 + EPOCH_US
        return node.date.lower <= instant < node.date.upper
    if isinstance(node, Comparison):
        return any(
            compare_typed(node.op, value, node.value)
            for value in document_values(doc, node.key)
        )
    if isinstance(node, Logical):
        results = (evaluate_oracle(c, doc) for c in node.children)
        if node.op is LogicalOp.AND:
            return all(results)
        if node.op is LogicalOp.OR:
            return any(results)
        return not any(results)  # NOT = negated OR
    raise TypeError(f"cannot evaluate {node!r}")
