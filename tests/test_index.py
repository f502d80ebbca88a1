import gc
import itertools
import json
import math
import os
import random
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from georocket.errors import DuplicateIdError, StorageError, UnknownIdError
from georocket.indexer import ChunkIndex, IndexDocument, IndexedAttribute, build_document
from georocket.indexer.columns import _FEW, SortedEntries, TypedColumns
from georocket.indexer.segments import SEGMENT_MAGIC, SegmentLog, encode
from georocket.indexer.spatial import SpatialIndex, _intersects
from georocket.model import (
    BoundingBox,
    ChunkMetadata,
    CollectionKind,
    DateValue,
    Format,
    GeoJsonParents,
    MetadataDelta,
    ROOT_LAYER,
    TypedValue,
    parse_layer_path,
)
from georocket.query import MatchAll, evaluate_oracle, parse_query
from georocket.query.ast import (
    BBoxTerm,
    Comparison,
    CompareOp,
    DateTerm,
    Logical,
    LogicalOp,
    TextTerm,
    render,
)
from georocket.store import StoredEntry
from georocket.text import tokenize

from conftest import identity
from gendata import KEYS, TAGS, WORDS, geojson_feature, random_document, random_query


def make_doc(i, layer="/", tags=(), properties=None, tokens=("alpha",), ts=1500000000000,
             bbox=None, attributes=()):
    return IndexDocument(
        chunk_id=f"C{i:04d}",
        bbox=bbox,
        attributes=tuple(attributes),
        tokens=frozenset(tokens),
        metadata=ChunkMetadata(
            layer=parse_layer_path(layer),
            tags=frozenset(tags),
            properties=dict(properties or {}),
            import_timestamp=ts,
            format=Format.XML,
        ),
        sequence=i,
    )


def oracle_ids(docs, ast, layer=ROOT_LAYER):
    """Ids the oracle accepts in the layer subtree, in (timestamp, sequence, id) order."""
    return [
        d.chunk_id
        for d in sorted(docs, key=IndexDocument.order_key)
        if evaluate_oracle(ast, d) and layer.is_ancestor_or_self(d.metadata.layer)
    ]


class TestAddAndQuery:
    def test_add_returns_count_and_match_all_finds(self):
        index = ChunkIndex()
        assert index.add_documents([make_doc(1), make_doc(2)]) == 2
        assert index.query(parse_query("")) == ["C0001", "C0002"]

    def test_duplicate_id_rejected(self):
        index = ChunkIndex()
        index.add_documents([make_doc(1)])
        with pytest.raises(DuplicateIdError):
            index.add_documents([make_doc(1)])

    def test_duplicate_within_batch_rejected_atomically(self):
        index = ChunkIndex()
        with pytest.raises(DuplicateIdError):
            index.add_documents([make_doc(1), make_doc(1)])
        assert len(index) == 0

    def test_thousand_synthetic_documents(self):
        index = ChunkIndex()
        rng = random.Random(3)
        docs = [random_document(rng, i) for i in range(1000)]
        assert index.add_documents(docs) == 1000
        assert len(index.query(parse_query(""))) == 1000

    def test_match_all_on_empty_index(self):
        assert ChunkIndex().query(parse_query("")) == []

    def test_layer_subtree_scoping(self):
        index = ChunkIndex()
        index.add_documents([make_doc(1, layer="/a/b"), make_doc(2, layer="/c")])
        in_a = index.query(parse_query(""), parse_layer_path("/a"))
        assert in_a == ["C0001"]
        in_root = index.query(parse_query(""), parse_layer_path("/"))
        assert set(in_root) == {"C0001", "C0002"}
        assert index.query(parse_query(""), parse_layer_path("/a/b/c")) == []

    def test_layer_scoped_queries_match_the_oracle(self, tmp_path):
        # /ab shares the string prefix of /a but is not in its subtree
        layers = ["/", "/a", "/a/b", "/a/b/c", "/ab", "/ab/b"]
        docs = {
            f"C{i:04d}": make_doc(
                i, layer=layers[i % len(layers)], tags=("even",) if i % 2 == 0 else (),
                properties={"n": str(i)}, tokens=("alpha", f"w{i % 3}"),
                ts=1500000000000 + (i % 4) * 1000, bbox=BoundingBox(i, i, i + 1, i + 1))
            for i in range(1, 61)
        }
        queries = ["w1", "10,10,30,30", "LT(n 25)", "NOT(even)", "AND(w0 GTE(n 12))",
                   "NOT(AND(even 5,5,40,40))", "nothing", ""]

        def check(index):
            for path in ("/a", "/a/b", "/ab"):
                layer = parse_layer_path(path)
                for q in queries:
                    ast = parse_query(q)
                    assert index.query(ast, layer) == oracle_ids(docs.values(), ast, layer), \
                        (q, path)

        index = ChunkIndex(tmp_path / "idx")
        index.add_documents(docs.values())
        check(index)
        gone = [cid for cid in docs if int(cid[1:]) % 5 == 0]
        index.delete(gone)
        for cid in gone:
            del docs[cid]
        check(index)
        index.close()
        reopened = ChunkIndex(tmp_path / "idx")
        check(reopened)
        reopened.close()

    def test_result_ordering(self):
        index = ChunkIndex()
        docs = [
            make_doc(2, ts=2000),
            make_doc(1, ts=1000),
            make_doc(3, ts=1000),
        ]
        index.add_documents(docs)
        assert index.query(parse_query("")) == ["C0001", "C0003", "C0002"]


class TestMetadataUpdates:
    def test_deleted_property_workflow(self):
        index = ChunkIndex()
        index.add_documents([make_doc(i) for i in range(1, 8)])
        marked = [f"C{i:04d}" for i in range(1, 6)]
        delta = MetadataDelta(set_properties={"deleted": "2018-09-13"})
        assert index.update_metadata(marked, delta) == 5
        found = index.query(parse_query("LTE(deleted 2018-09-13)"))
        assert found == marked

    def test_remove_property_restores_not_match(self):
        index = ChunkIndex()
        index.add_documents([make_doc(1)])
        index.update_metadata(["C0001"], MetadataDelta(set_properties={"deleted": "2018-09-13"}))
        assert index.query(parse_query("NOT(LTE(deleted 2018-09-13))")) == []
        index.update_metadata(["C0001"], MetadataDelta(remove_properties=frozenset({"deleted"})))
        assert index.query(parse_query("NOT(LTE(deleted 2018-09-13))")) == ["C0001"]

    def test_add_tag_makes_term_match(self):
        index = ChunkIndex()
        index.add_documents([make_doc(1)])
        assert index.query(parse_query("Berlin")) == []
        index.update_metadata(["C0001"], MetadataDelta(add_tags=frozenset({"Berlin"})))
        assert index.query(parse_query("Berlin")) == ["C0001"]

    def test_property_value_tokens_follow_updates(self):
        index = ChunkIndex()
        index.add_documents([make_doc(1)])
        index.update_metadata(["C0001"], MetadataDelta(set_properties={"note": "Schildergasse"}))
        assert index.query(parse_query("schildergasse")) == ["C0001"]
        index.update_metadata(["C0001"], MetadataDelta(set_properties={"note": "elsewhere"}))
        assert index.query(parse_query("schildergasse")) == []

    def test_unknown_id_is_all_or_nothing(self):
        index = ChunkIndex()
        index.add_documents([make_doc(1)])
        delta = MetadataDelta(add_tags=frozenset({"x"}))
        with pytest.raises(UnknownIdError):
            index.update_metadata(["C0001", "missing"], delta)
        assert index.query(parse_query("x")) == []

    def test_attributes_untouched_by_updates(self):
        index = ChunkIndex()
        attr = IndexedAttribute("height", TypedValue.of_number(5.0))
        index.add_documents([make_doc(1, attributes=[attr])])
        index.update_metadata(["C0001"], MetadataDelta(set_properties={"a": "b"}))
        assert index.get_document("C0001").attributes == (attr,)


class TestDelete:
    def test_delete_all_empties_match_all(self):
        index = ChunkIndex()
        index.add_documents([make_doc(i) for i in range(5)])
        assert index.delete(index.query(parse_query(""))) == 5
        assert index.query(parse_query("")) == []

    def test_delete_empty_list(self):
        assert ChunkIndex().delete([]) == 0

    def test_delete_idempotent(self):
        index = ChunkIndex()
        index.add_documents([make_doc(1)])
        assert index.delete(["C0001"]) == 1
        assert index.delete(["C0001"]) == 0

    def test_mixture_counts_known_only(self):
        index = ChunkIndex()
        index.add_documents([make_doc(1), make_doc(2)])
        assert index.delete(["C0001", "nope"]) == 1

    def test_deleted_ids_not_returned_by_any_structure(self):
        index = ChunkIndex()
        index.add_documents(
            [make_doc(1, tags={"T"}, tokens={"tok"}, properties={"p": "v"},
                      bbox=BoundingBox(0, 0, 1, 1))]
        )
        index.delete(["C0001"])
        for q in ("T", "tok", "EQ(p v)", "0,0,2,2", ""):
            assert index.query(parse_query(q)) == []

    def test_readded_id_loses_its_old_import_date(self):
        index = ChunkIndex()
        index.add_documents([make_doc(1, ts=1514764800000)])  # 2018-01-01
        index.delete(["C0001"])
        index.add_documents([make_doc(1, ts=1530000000000)])  # 2018-06-26
        assert index.query(parse_query("2018-01")) == []
        assert index.query(parse_query("2018-06")) == ["C0001"]


class TestOracleEquivalence:
    def test_mini_corpus(self):
        rng = random.Random(99)
        docs = [random_document(rng, i) for i in range(300)]
        index = ChunkIndex()
        index.add_documents(docs)
        by_id = {d.chunk_id: d for d in docs}
        layers = [parse_layer_path(p) for p in ("/", "/a", "/b/x")]
        for q in range(150):
            ast = random_query(rng)
            layer = layers[q % len(layers)]
            got = set(index.query(ast, layer))
            expected = {
                d.chunk_id
                for d in by_id.values()
                if evaluate_oracle(ast, d) and layer.is_ancestor_or_self(d.metadata.layer)
            }
            assert got == expected, f"divergence on {ast} in {layer}"

    def test_equivalence_after_updates_and_deletes(self):
        rng = random.Random(31)
        docs = [random_document(rng, i) for i in range(150)]
        index = ChunkIndex()
        index.add_documents(docs)
        by_id = {d.chunk_id: d for d in docs}
        for step in range(30):
            victim = rng.choice(sorted(by_id))
            if rng.random() < 0.4:
                index.delete([victim])
                del by_id[victim]
            else:
                delta = MetadataDelta(
                    set_properties={"deleted": f"201{rng.randint(6, 9)}-0{rng.randint(1, 9)}-15"},
                    add_tags=frozenset({"touched"}),
                    remove_tags=frozenset({"historic"}),
                )
                index.update_metadata([victim], delta)
                by_id[victim] = by_id[victim].with_metadata(
                    by_id[victim].metadata.with_delta(delta)
                )
            ast = random_query(rng)
            got = set(index.query(ast))
            expected = {d.chunk_id for d in by_id.values() if evaluate_oracle(ast, d)}
            assert got == expected


@st.composite
def _date_texts(draw):
    """ISO dates at every granularity; times with fraction digits and zone offsets."""
    text = f"{draw(st.integers(2016, 2019)):04d}"
    granularity = draw(st.integers(0, 3))
    if granularity >= 1:
        text += f"-{draw(st.integers(1, 12)):02d}"
    if granularity >= 2:
        text += f"-{draw(st.integers(1, 28)):02d}"
    if granularity == 3:
        text += "T%02d:%02d:%02d" % (draw(st.integers(0, 23)), draw(st.sampled_from([0, 30, 59])),
                                     draw(st.sampled_from([0, 59])))
        text += draw(st.sampled_from(["", ".5", ".25", ".999999"]))
        text += draw(st.sampled_from(["", "Z", "+01:00", "-01:30", "+23:59"]))
    return text


# raw property texts, typed by TypedValue.from_text as dates, then numbers, then
# text; few enough that stored and queried values often meet at a boundary
_RAW_TEXTS = st.one_of(
    st.sampled_from(["berlin", "Berlin", "BERLIN", "İ", "i̇", "ß", "SS", "ss", ""]),
    st.sampled_from(["0", "-0", "2.5", "10", "1e3"]),
    st.sampled_from(["2017", "2018", "2018-01", "2018-06", "2017-12-31", "2018-01-01",
                     "2017-12-31T23:59:59Z", "2018-01-01T00:00:00.5Z",
                     "2018-01-01T00:30:00+01:00", "2018-06-15T12:00:00.25-01:30"]),
    _date_texts(),
)
_TYPED_VALUES = st.one_of(
    _RAW_TEXTS.map(TypedValue.from_text),
    _RAW_TEXTS.map(lambda raw: TypedValue.from_text(raw, numbers=False)),  # GeoJSON strings
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 2.5, -1e308]).map(
        TypedValue.of_number),
)
_KEYS = st.sampled_from(["k", "m"])
# import timestamps at and around the turn of 2018 (UTC)
_TIMESTAMPS = st.sampled_from([1514764799999, 1514764800000, 1514768400500, 1530000000000])
_DOC_SPECS = st.tuples(
    st.lists(st.tuples(_KEYS, _TYPED_VALUES), max_size=3),  # attributes
    st.dictionaries(_KEYS, _RAW_TEXTS, max_size=2),  # properties
    _TIMESTAMPS,
)
_STEPS = st.lists(st.tuples(
    st.sampled_from(["set", "remove", "delete", "re-add", "reopen"]),
    st.integers(0, 5), _KEYS, _RAW_TEXTS, _DOC_SPECS,
), max_size=6)
_QUERIES = st.lists(st.one_of(
    st.builds(Comparison, st.sampled_from(list(CompareOp)), _KEYS, _TYPED_VALUES),
    st.builds(lambda c: Logical(LogicalOp.NOT, (c,)),
              st.builds(Comparison, st.sampled_from(list(CompareOp)), _KEYS, _TYPED_VALUES)),
    st.builds(DateTerm, _date_texts().map(DateValue.parse)),
), min_size=1, max_size=8)


class TestComparisonColumns:
    """Comparison results equal the oracle's through updates, deletes and replay."""

    @staticmethod
    def _doc(i, spec):
        attributes, properties, ts = spec
        return make_doc(i, properties=properties, ts=ts,
                        attributes=[IndexedAttribute(k, v) for k, v in attributes])

    @settings(max_examples=100, deadline=None)
    @example(  # NaN against numbers; date intervals that touch without overlapping
        specs=[([("k", TypedValue.of_number(math.nan))], {"k": "2017"}, 1514764800000),
               ([("k", TypedValue.of_number(10.0))], {}, 1514764800000)],
        steps=[("delete", 0, "k", "", ([], {}, 0)),
               ("re-add", 0, "k", "", ([("k", TypedValue.of_number(math.nan))], {}, 0))],
        queries=[Comparison(op, "k", value) for op in CompareOp for value in (
            TypedValue.of_number(2.5), TypedValue.of_number(math.nan),
            TypedValue.from_text("2018"), TypedValue.from_text("2016-12-31T23:59:59.5Z"))],
    )
    @example(  # case folding; a value held as attribute and property; an id re-added
        specs=[([("k", TypedValue.of_text("İ"))], {"k": "İ"}, 1514764800000),
               ([("k", TypedValue.of_number(-0.0))], {"k": "0"}, 1514764800000)],
        steps=[("remove", 0, "k", "", ([], {}, 0)), ("set", 1, "k", "BERLIN", ([], {}, 0)),
               ("re-add", 0, "k", "",
                ([("m", TypedValue.of_text("ß"))], {"k": "2018"}, 1530000000000)),
               ("reopen", 0, "k", "", ([], {}, 0))],
        queries=[Comparison(op, key, value)
                 for op in CompareOp for key in ("k", "m") for value in (
                     TypedValue.of_text("i̇"), TypedValue.of_text("berlin"),
                     TypedValue.of_text("SS"), TypedValue.of_number(0.0),
                     TypedValue.from_text("2018-06"))],
    )
    @given(specs=st.lists(_DOC_SPECS, min_size=1, max_size=6), steps=_STEPS, queries=_QUERIES)
    def test_equal_to_oracle(self, specs, steps, queries):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "idx"
            index = ChunkIndex(path)
            model = {}
            docs = [self._doc(i, spec) for i, spec in enumerate(specs)]
            index.add_documents(docs)
            model.update((d.chunk_id, d) for d in docs)

            def check(step):
                for ast in queries:
                    assert index.query(ast) == oracle_ids(model.values(), ast), (step, ast)

            check("added")
            for step in steps:
                action, i, key, raw, spec = step
                cid = f"C{i:04d}"
                if action == "reopen":
                    index.close()
                    index = ChunkIndex(path)
                elif action == "re-add":
                    index.delete([cid])
                    model.pop(cid, None)
                    index.add_documents([self._doc(i, spec)])
                    model[cid] = self._doc(i, spec)
                elif cid not in model:
                    continue
                elif action == "delete":
                    index.delete([cid])
                    del model[cid]
                else:
                    delta = (MetadataDelta(set_properties={key: raw}) if action == "set"
                             else MetadataDelta(remove_properties=frozenset({key})))
                    index.update_metadata([cid], delta)
                    model[cid] = model[cid].with_metadata(model[cid].metadata.with_delta(delta))
                check(step)
            index.close()

    def test_removing_a_property_keeps_an_equal_attribute(self):
        index = ChunkIndex()
        attr = IndexedAttribute("k", TypedValue.from_text("2.5"))
        index.add_documents([make_doc(1, attributes=[attr], properties={"k": "2.5"})])
        index.update_metadata(["C0001"], MetadataDelta(remove_properties=frozenset({"k"})))
        assert index.query(parse_query("EQ(k 2.5)")) == ["C0001"]

    def test_many_chunks_lose_a_property_in_one_update(self):
        index = ChunkIndex()
        # the first five hold each value twice, as an attribute and as a property;
        # half of 1 200 chunks are more than are removed by binary search
        index.add_documents([
            make_doc(i, properties={"k": str(i % 3)},
                     attributes=[IndexedAttribute("k", TypedValue.of_number(i % 3))] * (i < 5))
            for i in range(1200)
        ])
        index.update_metadata([f"C{i:04d}" for i in range(0, 1200, 2)],
                              MetadataDelta(remove_properties=frozenset({"k"})))
        for v in range(3):
            expected = [f"C{i:04d}" for i in range(1200) if i % 3 == v and (i % 2 or i < 5)]
            assert index.query(parse_query(f"EQ(k {v})")) == expected

    def test_many_chunks_deleted_at_once_leave_the_others(self):
        index = ChunkIndex()
        # the deleted chunks hold "k" only as a property; two others hold it twice
        index.add_documents([
            make_doc(i, properties={"k": str(i % 3)}, ts=1500000000000 + i,
                     attributes=[IndexedAttribute("k", TypedValue.of_number(i % 3))]
                     * (i in (1, 3)))
            for i in range(1200)
        ])
        index.delete([f"C{i:04d}" for i in range(0, 1200, 2)])
        index.add_documents([make_doc(0, properties={"k": "1"})])
        for v in range(3):
            survivors = [f"C{i:04d}" for i in range(1, 1200, 2) if i % 3 == v]
            expected = ["C0000"] * (v == 1) + survivors
            assert index.query(parse_query(f"EQ(k {v})")) == expected
        expected = ["C0000"] + [f"C{i:04d}" for i in range(1, 1200, 2)]
        assert index.query(parse_query("2017-07-14")) == expected  # the import date


_ENTRY_KEYS = st.integers(0, 6)
_ENTRY_IDS = st.sampled_from(["a", "b", "c", "d", "e"])
# steps on a SortedEntries of (key, id) pairs: a removal picks entries held,
# by index, and may put one that no chunk holds at a given position
_ENTRY_STEPS = st.lists(st.one_of(
    st.tuples(st.just("add"), _ENTRY_KEYS, _ENTRY_IDS),
    st.tuples(st.just("remove"), st.lists(st.integers(0, 30), max_size=4), st.integers(-1, 4)),
    st.tuples(st.just("drop_ids"), st.frozensets(_ENTRY_IDS, max_size=3)),
    st.tuples(st.just("items")),
    st.tuples(st.just("between"), _ENTRY_KEYS, _ENTRY_KEYS),
), max_size=40)


class TestSortedEntries:
    @pytest.mark.parametrize("count", [3, _FEW], ids=["binary search", "the most by binary search"])
    def test_remove_takes_one_occurrence_of_each(self, count):
        rng = random.Random(count)
        held = [(rng.randrange(50), f"C{rng.randrange(400):04d}") for _ in range(2000)]
        entries = SortedEntries()
        for entry in held:
            entries.add(entry)
        gone = rng.sample(held, count)
        entries.remove(gone)
        assert entries.items() == sorted((Counter(held) - Counter(gone)).elements())

    @pytest.mark.parametrize("count", [3, _FEW], ids=["binary search", "the most by binary search"])
    def test_remove_of_an_entry_not_held_raises(self, count):
        entries = SortedEntries()
        entries.add((1, "C0001"))
        with pytest.raises(KeyError):
            entries.remove([(1, "C0001")] + [(2, "C0002")] * count)

    @settings(max_examples=200, deadline=None)
    @example(steps=[  # a drop that leaves a tail behind the sorted part
        ("add", 3, "a"), ("add", 1, "b"), ("items",), ("add", 0, "c"), ("add", 5, "d"),
        ("drop_ids", frozenset({"d"})), ("items",)])
    @example(steps=[  # a removal that raises after it removed an entry
        ("add", 1, "a"), ("add", 2, "b"), ("items",), ("remove", [0], 1), ("add", 0, "c"),
        ("items",)])
    @given(steps=_ENTRY_STEPS)
    def test_equal_to_a_sorted_list(self, steps):
        entries, model = SortedEntries(), []
        for step in steps:
            action, *args = step
            if action == "add":
                entries.add(tuple(args))
                model.append(tuple(args))
            elif action == "remove":
                picks, missing_at = args
                gone = [model[i % len(model)] for i in picks] if model else []
                if missing_at >= 0:
                    gone.insert(missing_at, (99, "z"))  # held by no chunk
                try:
                    for entry in gone:
                        model.remove(entry)
                except ValueError:  # the entries before the missing one are gone
                    with pytest.raises(KeyError):
                        entries.remove(gone)
                else:
                    entries.remove(gone)
            elif action == "drop_ids":
                entries.drop_ids(set(args[0]))
                model = [entry for entry in model if entry[-1] not in args[0]]
            elif action == "items":
                assert entries.items() == sorted(model), step
            else:
                lower, upper = args
                inside = [entry for entry in model if lower <= entry[0] < upper]
                assert entries.count_between(lower, upper) == len(inside), step
                assert entries.ids_between(lower, upper) == {cid for _, cid in inside}, step
            held = entries._items
            assert sorted(held) == sorted(model), step
            assert held[:entries._sorted] == sorted(held[:entries._sorted]), step

    def test_dropping_the_entries_added_since_a_read_leaves_nothing_to_sort(self):
        comparisons = []

        class Key:
            """A sort key that counts how often it is compared."""

            def __init__(self, value):
                self.value = value

            def __eq__(self, other):
                comparisons.append(1)
                return self.value == other.value

            def __lt__(self, other):
                comparisons.append(1)
                return self.value < other.value

        rng = random.Random(8)
        entries = SortedEntries()
        for i in range(200):
            entries.add((Key(rng.randrange(50)), f"C{i:04d}"))
        held = list(entries.items())
        for i in range(200, 300):
            entries.add((Key(rng.randrange(50)), f"C{i:04d}"))
        entries.drop_ids({f"C{i:04d}" for i in range(200, 300)})
        comparisons.clear()
        assert entries.items() == held
        assert comparisons == []


def _entry_lists(columns: TypedColumns) -> list[SortedEntries]:
    """Every ``SortedEntries`` of ``columns``."""
    return [getattr(column, slot) for column in columns._columns.values()
            for slot in type(column).__slots__
            if isinstance(getattr(column, slot), SortedEntries)]


def _bench_features(rng, first, n, timestamp):
    """GeoJSON features ``first .. first + n - 1`` shaped like the benchmark's:
    a name, one of 500 streets, a height up to 80 and a built date."""
    parents = GeoJsonParents(CollectionKind.FEATURE_COLLECTION)
    metadata = ChunkMetadata(layer=ROOT_LAYER, import_timestamp=timestamp, format=Format.GEOJSON)
    return [build_document(StoredEntry(
        id=f"C{i:05d}", parents=parents, metadata=metadata, sequence=i, content=(
            '{"type":"Feature","geometry":{"type":"Point","coordinates":[%f,%f]},'
            '"properties":{"name":"f%d","street":"Weg%03d","height":%.1f,'
            '"built":"%04d-%02d-%02d"}}'
            % (rng.random(), rng.random(), i, i % 500, rng.uniform(3, 80),
               rng.randint(1900, 1999), rng.randint(1, 12), rng.randint(1, 28))).encode()))
        for i in range(first, first + n)]


class TestSortedAfterABatch:
    """A batch added after the lists were read, and deleted again, leaves
    them in order."""

    def test_a_deleted_batch_leaves_every_sorted_list_in_order(self):
        rng = random.Random(21)
        docs = _bench_features(rng, 0, 2000, 1600000000000)  # 2020-09-13
        index = ChunkIndex()
        index.add_documents(docs)
        lists = [index._timestamps, *_entry_lists(index._columns)]
        for entries in lists:  # as the queries of a round read them
            entries.items()
        batch = _bench_features(rng, 2000, _FEW + 100, 1700000000000)  # 2023-11-14
        index.add_documents(batch)
        assert all(entries._sorted < len(entries) for entries in lists)
        index.delete([doc.chunk_id for doc in batch])
        assert [entries._sorted for entries in lists] == [len(entries) for entries in lists]
        for query in ("EQ(built 1950-03)", "GT(height 40)", "2020-09-13", "2023"):
            ast = parse_query(query)
            assert index.query(ast) == oracle_ids(docs, ast), query


class TestPersistence:
    def _docs(self):
        rng = random.Random(5)
        return [random_document(rng, i) for i in range(40)]

    def test_reopen_replays_log(self, tmp_path):
        docs = self._docs()
        index = ChunkIndex(tmp_path / "idx")
        index.add_documents(docs)
        index.update_metadata([docs[0].chunk_id], MetadataDelta(add_tags=frozenset({"X"})))
        index.delete([docs[1].chunk_id])
        index.close()

        reopened = ChunkIndex(tmp_path / "idx")
        assert set(reopened.all_ids()) == {d.chunk_id for d in docs} - {docs[1].chunk_id}
        assert "X" in reopened.get_document(docs[0].chunk_id).metadata.tags
        first = {i: reopened.get_document(i) for i in reopened.all_ids()}
        layers = {}  # replay shares one path per layer
        for doc in first.values():
            assert layers.setdefault(doc.metadata.layer, doc.metadata.layer) is doc.metadata.layer
        reopened.close()

        # replay is deterministic
        again = ChunkIndex(tmp_path / "idx")
        assert {i: again.get_document(i) for i in again.all_ids()} == first
        again.close()

    def test_replayed_documents_of_one_import_share_their_metadata(self, tmp_path):
        meta = ChunkMetadata(layer=parse_layer_path("/a"), tags=frozenset({"t"}),
                             properties={"p": "1"}, import_timestamp=1500000000000,
                             format=Format.GEOJSON)
        other = replace(meta, import_timestamp=1500000000001)  # a second import
        docs = [replace(make_doc(i), metadata=meta if i < 3 else other) for i in range(5)]
        index = ChunkIndex(tmp_path / "idx")
        index.add_documents(docs)
        index.close()
        reopened = ChunkIndex(tmp_path / "idx")
        first, second, third, fourth, fifth = (reopened.get_document(d.chunk_id).metadata
                                               for d in docs)
        assert first is second is third and fourth is fifth
        assert (first, fourth) == (meta, other)
        reopened.close()

    def test_update_after_replay_leaves_import_siblings_unchanged(self, tmp_path):
        meta = ChunkMetadata(layer=parse_layer_path("/a"), tags=frozenset({"t"}),
                             properties={"p": "1"}, import_timestamp=1500000000000,
                             format=Format.GEOJSON)
        docs = [replace(make_doc(i), metadata=meta) for i in range(3)]
        index = ChunkIndex(tmp_path / "idx")
        index.add_documents(docs)
        index.close()
        reopened = ChunkIndex(tmp_path / "idx")
        delta = MetadataDelta(set_properties={"p": "2"}, add_tags=frozenset({"u"}))
        reopened.update_metadata([docs[0].chunk_id], delta)
        assert reopened.get_document(docs[0].chunk_id).metadata == meta.with_delta(delta)
        for doc in docs[1:]:
            assert reopened.get_document(doc.chunk_id).metadata == meta
        assert reopened.query(parse_query("EQ(p 1)")) == [d.chunk_id for d in docs[1:]]
        assert reopened.query(parse_query("u")) == [docs[0].chunk_id]
        reopened.close()

    def test_compaction_preserves_documents(self, tmp_path):
        docs = self._docs()
        index = ChunkIndex(tmp_path / "idx")
        index.add_documents(docs)
        index.compact()
        index.delete([docs[2].chunk_id])
        index.compact()
        index.close()
        reopened = ChunkIndex(tmp_path / "idx")
        assert set(reopened.all_ids()) == {d.chunk_id for d in docs} - {docs[2].chunk_id}
        segments = list((tmp_path / "idx" / "segments").glob("*.seg"))
        assert len(segments) == 1
        reopened.close()

    def test_partial_trailing_record_tolerated(self, tmp_path):
        index = ChunkIndex(tmp_path / "idx")
        index.add_documents(self._docs()[:5])
        index.close()
        (segment,) = (tmp_path / "idx" / "segments").glob("*.seg")
        with open(segment, "ab") as f:
            f.write(b'{"op":"add","doc":{"id":"trunc')  # crash mid-append
        reopened = ChunkIndex(tmp_path / "idx")
        assert len(reopened) == 5
        assert reopened.compactions == 1  # on open, so nothing is appended behind the tear
        reopened.close()
        assert b"trunc" not in segment.read_bytes()

    def test_append_after_a_torn_tail_survives_the_next_restart(self, tmp_path):
        docs = self._docs()
        index = ChunkIndex(tmp_path / "idx")
        index.add_documents(docs[:5])
        index.close()
        (segment,) = (tmp_path / "idx" / "segments").glob("*.seg")
        with open(segment, "ab") as f:
            f.write(b'{"op":"add","doc":{"id":"trunc')  # crash mid-append
        reopened = ChunkIndex(tmp_path / "idx")
        assert len(reopened) == 5
        reopened.add_documents(docs[5:10])
        assert len(reopened) == 10
        reopened.close()
        again = ChunkIndex(tmp_path / "idx")
        assert set(again.all_ids()) == {d.chunk_id for d in docs[:10]}
        again.close()

    def test_a_record_without_its_newline_is_a_torn_tail(self, tmp_path):
        docs = self._docs()
        index = ChunkIndex(tmp_path / "idx")
        index.add_documents(docs[:3])
        index.close()
        (segment,) = (tmp_path / "idx" / "segments").glob("*.seg")
        with open(segment, "a") as f:  # complete JSON, cut before its newline
            f.write(encode({"op": "add", "doc": docs[3].to_record()})[:-1])
        reopened = ChunkIndex(tmp_path / "idx")
        assert len(reopened) == 3
        reopened.add_documents([docs[4]])
        reopened.close()
        again = ChunkIndex(tmp_path / "idx")
        assert set(again.all_ids()) == {d.chunk_id for d in docs[:3]} | {docs[4].chunk_id}
        again.close()

    def test_unrecognised_manifest_fails_fast(self, tmp_path):
        index = ChunkIndex(tmp_path / "idx")
        index.close()
        (tmp_path / "idx" / "manifest").write_text("something-else 9\n{}\n")
        with pytest.raises(StorageError, match="delete the directory"):
            ChunkIndex(tmp_path / "idx")

    def test_query_after_reopen_equals_oracle(self, tmp_path):
        rng = random.Random(17)
        docs = [random_document(rng, i) for i in range(120)]
        # ties on the import timestamp, so the sequence and then the id decide
        shared = docs[0].metadata.import_timestamp
        for i in range(100, 120):
            docs[i] = replace(docs[i], sequence=(119 - i) // 2, metadata=replace(
                docs[i].metadata, import_timestamp=shared))
        index = ChunkIndex(tmp_path / "idx")
        index.add_documents(docs)
        index.compact()
        by_id = {d.chunk_id: d for d in docs}
        # updates and deletes after the compaction are replayed from the log
        for step in range(20):
            victim = rng.choice(sorted(by_id))
            if step % 3 == 0:
                index.delete([victim])
                del by_id[victim]
            else:
                delta = MetadataDelta(set_properties={"deleted": f"2017-0{step % 9 + 1}-15"},
                                      add_tags=frozenset({"touched"}))
                index.update_metadata([victim], delta)
                by_id[victim] = by_id[victim].with_metadata(by_id[victim].metadata.with_delta(delta))
        queries = [MatchAll()] + [random_query(rng) for _ in range(40)] + [
            Comparison(op, key, value)
            for op in CompareOp
            for key, value in (("height", TypedValue.of_number(10.0)),
                               ("name", TypedValue.of_text("Berlin")),
                               ("deleted", TypedValue.from_text("2017-05")),
                               ("year", TypedValue.from_text("2018-03-01T12:00:00Z")))
        ]
        layers = [parse_layer_path(p) for p in ("/", "/a", "/b/x", "/b/x/y", "/none")]
        cases = [(ast, layer) for ast in queries for layer in layers]
        live = [index.query(ast, layer) for ast, layer in cases]
        index.close()
        reopened = ChunkIndex(tmp_path / "idx")
        for (ast, layer), got in zip(cases, live):
            expected = oracle_ids(by_id.values(), ast, layer)
            assert got == expected, f"{ast} in {layer}"
            assert reopened.query(ast, layer) == expected, f"{ast} in {layer} after reopen"
        reopened.close()


class TestSegmentLog:
    def test_a_new_log_and_each_compaction_sync_their_directory(self, tmp_path, synced_dirs):
        root = tmp_path / "idx"
        log = SegmentLog(root)
        segments = identity(root / "segments")
        # made "idx" and "segments", each synced in its parent; the new, empty log
        assert synced_dirs == [identity(tmp_path), identity(root), segments]
        line = encode({"op": "delete", "ids": ["C0001"]})
        synced_dirs.clear()
        log.append([line])  # the file exists: only its data is synced
        assert synced_dirs == []
        log.compact([line])
        assert synced_dirs == [segments]
        log.close()
        assert SegmentLog(root).records == 0  # reopening creates nothing
        assert synced_dirs == [segments]

    def test_a_new_index_directory_is_synced_in_its_parent(self, tmp_path, synced_dirs):
        root = tmp_path / "new" / "idx"
        SegmentLog(root).close()
        assert synced_dirs == [identity(tmp_path), identity(tmp_path / "new"), identity(root),
                               identity(root / "segments")]  # the three made, then the log's

    def test_replay_yields_each_record_with_its_line(self, tmp_path):
        log = SegmentLog(tmp_path / "idx")
        ops = [{"op": "delete", "ids": [f"C{i:04d}"]} for i in range(3)]
        log.append([encode(op) for op in ops[:2]])
        log.append([encode(ops[2])])
        assert list(log.replay()) == [(op, encode(op)) for op in ops]
        log.close()


class TestCompactionRule:
    """One log file, compacted after the commit that leaves at least half of
    its records dead."""

    @staticmethod
    def _lines(root) -> list[str]:
        (log,) = (root / "segments").glob("*.seg")
        assert log.name == "log.seg"
        return log.read_text(encoding="utf-8").splitlines()[1:]

    def test_an_add_only_ingest_never_compacts(self, tmp_path):
        root = tmp_path / "idx"
        index = ChunkIndex(root)
        for start in range(0, 2000, 256):
            index.add_documents([make_doc(i) for i in range(start, min(start + 256, 2000))])
        assert index.compactions == 0
        index.close()
        assert len(self._lines(root)) == 2000
        reopened = ChunkIndex(root)
        assert reopened.compactions == 0 and len(reopened) == 2000
        reopened.close()

    def test_rounds_of_the_bench_compact_once_per_four(self, tmp_path):
        # the geojson-index-ingest rounds scaled by 1/10: 800 preloaded, then
        # 6 updates, 204 adds and one delete of those 204 a round
        root = tmp_path / "idx"
        index = ChunkIndex(root)
        for start in range(0, 800, 256):
            index.add_documents([make_doc(i) for i in range(start, min(start + 256, 800))])
        after_round = []
        for r in range(12):
            for u in range(6):
                index.update_metadata([f"C{u:04d}"], MetadataDelta(add_tags=frozenset({f"r{r}"})))
            added = [make_doc(1000 + k) for k in range(204)]
            index.add_documents(added)
            index.delete([d.chunk_id for d in added])
            after_round.append(index.compactions)
        assert after_round == [0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3]
        assert len(self._lines(root)) == 800  # the last round's delete compacted
        index.close()

    def test_a_compaction_cut_before_the_rename_reopens_to_the_state_before_it(
            self, tmp_path, monkeypatch):
        class Crash(BaseException):
            pass

        def crash(*args):
            raise Crash

        root = tmp_path / "idx"
        docs = [make_doc(i, tags=("t",)) for i in range(20)]
        index = ChunkIndex(root)
        index.add_documents(docs)
        index.update_metadata(["C0003"], MetadataDelta(add_tags=frozenset({"u"})))
        index.delete(["C0004"])
        expected = {i: index.get_document(i) for i in index.all_ids()}
        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(Crash):
            index.compact()
        monkeypatch.undo()
        assert (root / "segments" / "log.seg.tmp").exists()  # the cut compaction's file
        assert len(self._lines(root)) == 22  # the old log, whole
        reopened = ChunkIndex(root)
        assert {i: reopened.get_document(i) for i in reopened.all_ids()} == expected
        reopened.compact()
        assert not (root / "segments" / "log.seg.tmp").exists()
        reopened.close()
        again = ChunkIndex(root)
        assert {i: again.get_document(i) for i in again.all_ids()} == expected
        again.close()

    def test_one_log_file_after_appends_and_after_a_compaction(self, tmp_path):
        root = tmp_path / "idx"
        index = ChunkIndex(root)
        assert self._lines(root) == []
        index.add_documents([make_doc(i) for i in range(3)])
        index.add_documents([make_doc(3)])
        assert len(self._lines(root)) == 4
        index.delete(["C0000", "C0001"])  # 5 records for 2 documents
        assert index.compactions == 1
        assert len(self._lines(root)) == 2
        assert [p.name for p in (root / "segments").iterdir()] == ["log.seg"]
        index.close()

    def test_a_log_with_unknown_magic_fails_fast(self, tmp_path):
        ChunkIndex(tmp_path / "idx").close()
        (tmp_path / "idx" / "segments" / "log.seg").write_text("georocket-index-segment 9\n")
        with pytest.raises(StorageError, match="header"):
            ChunkIndex(tmp_path / "idx")


class TestKeptLines:
    """Compaction copies the line each live document was committed or replayed with."""

    def _docs(self, n=60, seed=23):
        rng = random.Random(seed)
        return sorted((random_document(rng, i) for i in range(n)), key=IndexDocument.order_key)

    @staticmethod
    def _segment_lines(root) -> list[str]:
        (segment,) = (root / "segments").glob("*.seg")
        lines = segment.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0] == SEGMENT_MAGIC + "\n"
        return lines[1:]

    @staticmethod
    def _documents(index) -> dict:
        return {i: index.get_document(i) for i in index.all_ids()}

    def test_log_with_the_original_encoding_replays_and_compacts(self, tmp_path):
        docs = self._docs()
        delta = MetadataDelta(set_properties={"deleted": "2017-06-30"}, add_tags=frozenset({"X"}))
        ops = [{"op": "add", "doc": d.to_record()} for d in docs]
        ops.append({"op": "update", "ids": [docs[3].chunk_id], "delta": delta.to_record()})
        ops.append({"op": "delete", "ids": [docs[4].chunk_id]})
        root = tmp_path / "idx"
        (root / "segments").mkdir(parents=True)
        (root / "segments" / "log.seg").write_text(
            SEGMENT_MAGIC + "\n" + "".join(json.dumps(op, separators=(",", ":")) + "\n"
                                          for op in ops))
        expected = ChunkIndex()
        expected.add_documents(docs)
        expected.update_metadata([docs[3].chunk_id], delta)
        expected.delete([docs[4].chunk_id])

        index = ChunkIndex(root)
        assert self._documents(index) == self._documents(expected)
        index.compact()
        index.close()
        reopened = ChunkIndex(root)
        assert self._documents(reopened) == self._documents(expected)
        assert reopened.query(MatchAll()) == expected.query(MatchAll())
        reopened.close()

    @pytest.mark.parametrize("reopen_before_compact", [False, True])
    def test_update_then_compact_writes_the_updated_metadata(self, tmp_path, reopen_before_compact):
        docs = self._docs()
        index = ChunkIndex(tmp_path / "idx")
        index.add_documents(docs)
        index.compact()
        delta = MetadataDelta(set_properties={"status": "demolished"}, add_tags=frozenset({"T"}))
        index.update_metadata([docs[0].chunk_id, docs[7].chunk_id], delta)
        if reopen_before_compact:
            index.close()
            index = ChunkIndex(tmp_path / "idx")
        index.compact()
        index.close()
        reopened = ChunkIndex(tmp_path / "idx")
        for doc in (docs[0], docs[7]):
            metadata = reopened.get_document(doc.chunk_id).metadata
            assert metadata == doc.metadata.with_delta(delta)
        assert reopened.query(parse_query("EQ(status demolished)")) == [
            docs[0].chunk_id, docs[7].chunk_id]
        reopened.close()

    def test_compaction_after_replay_copies_the_replayed_lines(self, tmp_path, monkeypatch):
        docs = self._docs()
        index = ChunkIndex(tmp_path / "idx")
        for start in range(0, len(docs), 16):
            index.add_documents(docs[start:start + 16])
        index.close()
        committed = self._segment_lines(tmp_path / "idx")

        def no_encoding(doc):
            raise AssertionError("a replayed document was encoded again")

        reopened = ChunkIndex(tmp_path / "idx")
        monkeypatch.setattr(IndexDocument, "to_record", no_encoding)
        reopened.compact()
        reopened.close()
        assert self._segment_lines(tmp_path / "idx") == committed

    def test_every_compacted_record_is_its_live_document(self, tmp_path):
        rng = random.Random(31)
        docs = self._docs(120, seed=31)
        index = ChunkIndex(tmp_path / "idx")
        for start in range(0, 80, 20):
            index.add_documents(docs[start:start + 20])
        for step in range(30):
            ids = rng.sample(index.all_ids(), 3)
            if step % 4 == 0:
                index.delete(ids[:1])
            else:
                index.update_metadata(ids, MetadataDelta(
                    set_properties={"step": str(step)},
                    remove_properties=frozenset({rng.choice(["height", "name", "deleted"])}),
                    add_tags=frozenset({f"s{step % 3}"})))
            if step in (5, 22):
                index.compact()  # updated documents are encoded again, the others copied
            if step == 15:
                index.close()
                index = ChunkIndex(tmp_path / "idx")
                index.add_documents(docs[80:])
        index.compact()
        live = [index.get_document(i) for i in index.query(MatchAll())]
        index.close()
        records = [json.loads(line) for line in self._segment_lines(tmp_path / "idx")]
        assert records == [{"op": "add", "doc": doc.to_record()} for doc in live]

    def test_an_index_without_a_log_encodes_nothing(self, monkeypatch):
        def no_encoding(*args):
            raise AssertionError("an index without a log encoded a record")

        monkeypatch.setattr(IndexDocument, "to_record", no_encoding)
        monkeypatch.setattr(MetadataDelta, "to_record", no_encoding)
        docs = self._docs(10)
        index = ChunkIndex()
        index.add_documents(docs)
        index.update_metadata([docs[0].chunk_id], MetadataDelta(add_tags=frozenset({"X"})))
        index.delete([docs[1].chunk_id])
        index.compact()
        assert len(index) == 9


class TestPostings:
    """A token held by one chunk maps to the bare id; by two or more, to a set."""

    @staticmethod
    def _assert_compact(index):
        for table in (index._postings,):
            for key, held in table.items():
                assert type(held) is str or (type(held) is set and len(held) >= 2), (key, held)

    @staticmethod
    def _round(rng, root, steps=60):
        """Seeded adds, updates, deletes, compactions and reopens; yields the
        index and the live documents after each step."""
        index = ChunkIndex(root)
        by_id: dict[str, IndexDocument] = {}
        tags = TAGS + ["berlin", "KÖLN"]  # lowered, they meet other tags
        for step in range(steps):
            roll = rng.random()
            if roll < 0.35 or len(by_id) < 4:
                batch = [random_document(rng, step * 10 + k) for k in range(rng.randint(1, 8))]
                index.add_documents(batch)
                by_id.update((d.chunk_id, d) for d in batch)
            elif roll < 0.6:
                ids = rng.sample(sorted(by_id), rng.randint(1, 3))
                delta = MetadataDelta(
                    set_properties={rng.choice(KEYS): rng.choice(WORDS)},
                    remove_properties=frozenset(rng.sample(KEYS, 1)),
                    add_tags=frozenset(rng.sample(tags, rng.randint(0, 2))),
                    remove_tags=frozenset(rng.sample(tags, rng.randint(0, 2))))
                index.update_metadata(ids, delta)
                for i in ids:
                    by_id[i] = by_id[i].with_metadata(by_id[i].metadata.with_delta(delta))
            elif roll < 0.85:
                ids = rng.sample(sorted(by_id), rng.randint(1, 4))
                index.delete(ids)
                for i in ids:
                    del by_id[i]
            elif roll < 0.93:
                index.compact()
            else:
                index.close()
                index = ChunkIndex(root)
            yield index, by_id
        index.close()

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_postings_stay_compact_and_queries_equal_the_oracle(self, tmp_path, seed):
        rng = random.Random(seed)
        for index, by_id in self._round(rng, tmp_path / "idx"):
            self._assert_compact(index)
            for ast in [MatchAll()] + [random_query(rng) for _ in range(3)]:
                assert index.query(ast) == oracle_ids(by_id.values(), ast), ast

    def test_dropping_one_spelling_of_a_tag_keeps_the_other(self):
        index = ChunkIndex()
        index.add_documents([make_doc(1, tags=("Berlin", "berlin")), make_doc(2, tags=("berlin",))])
        index.update_metadata(["C0001"], MetadataDelta(remove_tags=frozenset({"Berlin"})))
        assert index.query(parse_query("berlin")) == ["C0001", "C0002"]
        index.update_metadata(["C0001"], MetadataDelta(remove_tags=frozenset({"berlin"})))
        assert index.query(parse_query("berlin")) == ["C0002"]
        assert index._postings["berlin"] == "C0002"

    @staticmethod
    def _assert_exact(index, docs):
        """One posting per token of a live chunk, holding exactly the chunks
        with the token in their content, tags (lowered) or property values."""
        expected: dict[str, set] = {}
        for doc in docs:
            tokens = set(doc.tokens) | {tag.lower() for tag in doc.metadata.tags}
            for value in doc.metadata.properties.values():
                tokens |= tokenize(value)
            for token in tokens:
                expected.setdefault(token, set()).add(doc.chunk_id)
        assert {key: {held} if type(held) is str else held
                for key, held in index._postings.items()} == expected

    @pytest.mark.parametrize("order", list(itertools.permutations(["untag", "unprop", "delete"])))
    @pytest.mark.parametrize("in_content", [True, False], ids=["content", "no-content"])
    def test_a_token_from_every_source_leaves_with_its_last_one(self, tmp_path, order,
                                                                 in_content):
        """"tok" reaches C0001 from its content, a tag and a property value,
        and other chunks from one source each. Each step takes one source
        away from every chunk that has it, and the index is reopened after
        each step."""
        index = ChunkIndex(tmp_path / "idx")
        docs = {d.chunk_id: d for d in [
            make_doc(1, tokens=("tok", "alpha") if in_content else ("alpha",)),
            make_doc(2, tokens=("tok",)),
            make_doc(3, tags=("Tok",)),
            make_doc(4, properties={"note": "tok"}),
        ]}
        index.add_documents(docs.values())
        arrive = [MetadataDelta(add_tags=frozenset({"TOK"})),
                  MetadataDelta(set_properties={"note": "a Tok here"})]
        leave = {"untag": MetadataDelta(remove_tags=frozenset({"TOK", "Tok"})),
                 "unprop": MetadataDelta(remove_properties=frozenset({"note"}))}
        queries = [parse_query(q) for q in ("tok", "TOK", "here", "alpha", "AND(tok alpha)",
                                            "NOT(tok)", "AND(alpha NOT(here))")]

        def check():
            self._assert_compact(index)
            self._assert_exact(index, docs.values())
            for ast in queries:
                assert index.query(ast) == oracle_ids(docs.values(), ast), (order, ast)

        for delta in arrive:
            index.update_metadata(["C0001"], delta)
            docs["C0001"] = docs["C0001"].with_metadata(docs["C0001"].metadata.with_delta(delta))
            check()
        for step in order:
            if step == "delete":
                index.delete(["C0001"])
                del docs["C0001"]
            else:
                delta = leave[step]
                index.update_metadata(list(docs), delta)
                for cid, doc in docs.items():
                    docs[cid] = doc.with_metadata(doc.metadata.with_delta(delta))
            check()
            index.close()
            index = ChunkIndex(tmp_path / "idx")
            check()
        assert index._postings["tok"] == "C0002"
        index.close()

    def test_a_round_leaves_no_cyclic_garbage(self, tmp_path):
        # the premise of freezing the collector's view of the index
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for index, by_id in self._round(random.Random(44), tmp_path / "idx"):
                index.query(random_query(random.Random(len(by_id))))
            del index, by_id
            found = gc.collect()
            garbage = Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert found == 0, garbage


class TestMemory:
    @staticmethod
    def _bytes_per_document(root, n) -> float:
        """Traced bytes an index with a log holds per bench-like GeoJSON feature."""
        parents = GeoJsonParents(CollectionKind.FEATURE_COLLECTION)
        entries = []
        for start in range(0, n, 1000):  # imports of 1 000 features each
            metadata = ChunkMetadata(layer=parse_layer_path(f"/l{start}"),
                                     import_timestamp=1500000000000 + start, format=Format.GEOJSON)
            entries += [StoredEntry(id=f"C{i:07d}", content=geojson_feature(i).encode(),
                                    parents=parents, metadata=metadata, sequence=i)
                        for i in range(start, min(n, start + 1000))]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = ChunkIndex(root)
            for start in range(0, n, 256):
                index.add_documents([build_document(e) for e in entries[start:start + 256]])
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        index.close()
        return held / n

    @staticmethod
    def _replayed_bytes_per_document(root, n) -> float:
        """Traced bytes the index reopened from ``root`` holds per document."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = ChunkIndex(root)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(index) == n
        index.close()
        return held / n

    def test_a_replayed_document_costs_what_an_added_one_does(self, tmp_path):
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc is already tracing")
        added = self._bytes_per_document(tmp_path / "idx", 2000)
        replayed = self._replayed_bytes_per_document(tmp_path / "idx", 2000)
        assert abs(replayed - added) <= 0.05 * added, (added, replayed)

    def test_index_bytes_per_document_are_bounded_and_linear(self, tmp_path):
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc is already tracing")
        small, large = (self._bytes_per_document(tmp_path / f"idx{n}", n) for n in (1000, 4000))
        assert small <= 4200 and large <= 4200, (small, large)
        assert large / small <= 1.1, (small, large)


# --- the conjunction planner ------------------------------------------------

# share of documents holding each token: estimates of text terms span the
# planner's factor from either side at every corpus size
_TOKEN_SHARES = {"common": 0.9, "often": 0.5, "mid": 0.2, "rare": 0.03}
_PLANNER_LAYERS = ("/", "/a", "/a/b", "/c")
_PLANNER_TIMESTAMPS = (1514764800000, 1514851200000, 1546300800000)  # 2018-01-01, -02, 2019-01-01


def _skewed_doc(rng, i):
    """A document whose tokens, tags, values, dates and boxes are skewed:
    most documents share a few of each, and a few documents hold the rest."""
    tokens = [token for token, share in _TOKEN_SHARES.items() if rng.random() < share]
    attributes = [IndexedAttribute("h", TypedValue.of_number(round(rng.paretovariate(1.0), 1)))]
    if rng.random() < 0.6:
        attributes.append(IndexedAttribute(
            "kind", TypedValue.of_text(rng.choice(["wall", "wall", "Wall", "roof", "door"]))))
    if rng.random() < 0.3:
        attributes.append(IndexedAttribute(
            "built", TypedValue.from_text(rng.choice(["2001", "2001-05", "2001-05-03", "1999"]))))
    if rng.random() < 0.9:
        x, y = (rng.uniform(0, 1), rng.uniform(0, 1)) if rng.random() < 0.8 else (
            rng.uniform(10, 50), rng.uniform(10, 50))
        bbox = BoundingBox(x, y, x + 0.1, y + 0.1)
    else:
        bbox = None
    properties = {"p": rng.choice(["one two", "rare thing"])} if rng.random() < 0.2 else {}
    return make_doc(i, layer=rng.choice(_PLANNER_LAYERS), tokens=tokens + [f"u{i}"],
                    tags=("common",) * (rng.random() < 0.5) + ("t1",) * (rng.random() < 0.05),
                    properties=properties, attributes=attributes, bbox=bbox,
                    ts=rng.choices(_PLANNER_TIMESTAMPS, weights=(90, 8, 2))[0])


_PLANNER_LEAVES = st.one_of(
    st.sampled_from([*_TOKEN_SHARES, "u3", "t1", "thing", "nosuch"]).map(TextTerm),
    st.builds(Comparison, st.sampled_from(list(CompareOp)), st.just("h"),
              st.sampled_from([1.0, 1.5, 3.0, 10.0, 100.0]).map(TypedValue.of_number)),
    st.builds(Comparison, st.sampled_from(list(CompareOp)), st.just("kind"),
              st.sampled_from(["wall", "door", "roof", "x"]).map(TypedValue.of_text)),
    st.builds(Comparison, st.sampled_from(list(CompareOp)), st.just("built"),
              st.sampled_from(["2001", "2001-05", "2000"]).map(TypedValue.from_text)),
    st.sampled_from(["2018", "2018-01-01", "2018-01-02", "2019", "2017"]).map(
        lambda text: DateTerm(DateValue.parse(text))),
    st.sampled_from([(0, 0, 1.1, 1.1), (0, 0, 0.2, 0.2), (20, 20, 60, 60), (5, 5, 6, 6)]).map(
        lambda box: BBoxTerm(BoundingBox(*box))),
    st.just(MatchAll()),
)


def _planner_trees(depth: int = 2):
    """Query trees of depth at most ``depth + 1``, conjunctions twice as
    likely as disjunctions and negations."""
    if depth == 0:
        return _PLANNER_LEAVES
    return st.one_of(_PLANNER_LEAVES, st.builds(
        Logical, st.sampled_from([LogicalOp.AND, LogicalOp.AND, LogicalOp.OR, LogicalOp.NOT]),
        st.lists(_planner_trees(depth - 1), min_size=1, max_size=3).map(tuple)))


def _bench_shaped_index(n=2000):
    """An index of ``n`` GeoJSON features shaped like the benchmark's: a
    name token each, one of 500 streets, and a height up to 80."""
    rng = random.Random(5)
    parents = GeoJsonParents(CollectionKind.FEATURE_COLLECTION)
    metadata = ChunkMetadata(layer=ROOT_LAYER, import_timestamp=1600000000000,
                             format=Format.GEOJSON)
    index = ChunkIndex()
    index.add_documents(build_document(StoredEntry(
        id=f"C{i:05d}", parents=parents, metadata=metadata, sequence=i, content=(
            '{"type":"Feature","geometry":{"type":"Point","coordinates":[%f,%f]},'
            '"properties":{"name":"f%d","street":"Weg%03d","height":%.1f}}'
            % (rng.random(), rng.random(), i, i % 500, rng.uniform(3, 80))).encode()))
        for i in range(n))
    return index


class TestConjunctionPlanner:
    """An AND leads with its cheapest child and checks or intersects the
    others; every plan returns the ids the oracle accepts."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(50, 400),
           queries=st.lists(_planner_trees(), min_size=1, max_size=3))
    def test_planned_queries_equal_the_oracle(self, seed, size, queries):
        rng = random.Random(seed)
        docs = {d.chunk_id: d for d in (_skewed_doc(rng, i) for i in range(size))}
        layers = (ROOT_LAYER, parse_layer_path("/a"))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "idx"
            index = ChunkIndex(path)

            def check(state):
                for ast in queries:
                    for layer in layers:
                        assert index.query(ast, layer) == oracle_ids(docs.values(), ast, layer), \
                            (state, render(ast), str(layer))

            index.add_documents(docs.values())
            check("added")
            changed = rng.sample(sorted(docs), size // 10)
            delta = MetadataDelta(set_properties={"h": "2.5", "p": "rare thing"},
                                  add_tags=frozenset({"rare"}))
            index.update_metadata(changed, delta)
            for cid in changed:
                docs[cid] = docs[cid].with_metadata(docs[cid].metadata.with_delta(delta))
            check("updated")
            gone = rng.sample(sorted(docs), size // 5)
            index.delete(gone)
            for cid in gone:
                del docs[cid]
            check("deleted")
            index.close()
            index = ChunkIndex(path)
            check("reopened")
            index.close()

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.randoms(use_true_random=False),
           queries=st.lists(_planner_trees(), min_size=1, max_size=4))
    def test_any_estimate_gives_the_same_ids(self, sizes, queries):
        rng = random.Random(11)
        docs = [_skewed_doc(rng, i) for i in range(300)]
        index = ChunkIndex()
        index.add_documents(docs)
        expected = [index.query(ast) for ast in queries]
        with mock.patch.object(ChunkIndex, "_estimate", lambda self, node: sizes.randrange(400)):
            for ast, ids in zip(queries, expected):
                assert index.query(ast) == ids == oracle_ids(docs, ast), render(ast)

    def test_the_corpus_puts_every_kind_on_both_sides_of_the_factor(self):
        rng = random.Random(12)
        index = ChunkIndex()
        index.add_documents(_skewed_doc(rng, i) for i in range(400))
        children = ["common", "GT(h 1.5)", "EQ(kind wall)", "2018-01-01", "0,0,1.1,1.1", "AND()",
                    "NOT(common)", "NOT(rare)"]
        seen = set()
        for lead in ("u7", "mid"):  # one candidate, and about 80
            for child in children:
                trace = []
                query = f"AND({lead} {child})" if child != "AND()" else f"AND({lead} OR(mid u1))"
                index.query(parse_query(query), trace=trace)
                seen.update((entry["node"].split("(")[0], entry["strategy"]) for entry in trace
                            if entry["strategy"] not in ("lead", "evaluate"))
        for kind in ("common", "GT", "EQ", "2018-01-01", "0.0,0.0,1.1,1.1", "OR"):
            assert {(kind, "check"), (kind, "intersect")} <= seen, (kind, seen)
        assert {("NOT", "reject"), ("NOT", "subtract")} <= seen, seen

    def test_a_street_and_a_height_bound_checks_the_bound_per_candidate(self):
        index = _bench_shaped_index()
        trace = []
        ids = index.query(parse_query("AND(weg123 GT(height 20))"), trace=trace)
        assert [(e["node"], e["depth"], e["strategy"]) for e in trace] == [
            ("AND(weg123 GT(height 20.0))", 0, "evaluate"),
            ("weg123", 1, "lead"), ("GT(height 20.0)", 1, "check")]
        assert trace[1]["estimate"] == 4 < trace[2]["estimate"]
        assert trace[2]["in"] == 4 and trace[2]["out"] == trace[0]["out"] == len(ids)

    def test_a_street_without_one_name_never_builds_the_complement(self):
        index = _bench_shaped_index()
        trace = []
        ids = index.query(parse_query("AND(weg001 NOT(f1))"), trace=trace)
        assert ids == ["C00501", "C01001", "C01501"]
        assert [(e["node"], e["strategy"]) for e in trace] == [
            ("AND(weg001 NOT(f1))", "evaluate"), ("weg001", "lead"), ("NOT(f1)", "subtract"),
            ("f1", "evaluate")]
        assert all(e["out"] <= 4 for e in trace)
        assert (trace[2]["estimate"], trace[2]["in"], trace[2]["out"]) == (1, 4, 3)

    def test_an_empty_candidate_set_ends_the_conjunction(self):
        index = _bench_shaped_index(600)
        trace = []
        assert index.query(parse_query("AND(nosuch weg001 GT(height 1))"), trace=trace) == []
        assert [e["node"] for e in trace] == ["AND(nosuch weg001 GT(height 1.0))", "nosuch"]


class TestSpatialRepacks:
    """Repacks of the STR tree happen on queries, not on inserts."""

    @staticmethod
    def _counted(spatial):
        calls = []
        rebuild = spatial.rebuild
        spatial.rebuild = lambda: (calls.append(1), rebuild())[1]
        return calls

    def test_adds_never_repack_and_the_next_query_repacks_once(self):
        rng = random.Random(3)
        spatial = SpatialIndex()
        calls = self._counted(spatial)
        rects = {}
        for i in range(5000):
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            rects[i] = (x, y, x + rng.uniform(0, 2), y + rng.uniform(0, 2))
            spatial.add(i, rects[i])
        assert calls == []
        box = (20, 20, 30, 30)
        exact = {p for p, r in rects.items() if _intersects(r, box)}
        assert spatial.candidates(box) >= exact and exact
        assert calls == [1]
        spatial.candidates((0, 0, 100, 100))
        assert calls == [1]

    def test_a_query_scans_at_most_the_threshold_of_pending_entries(self):
        spatial = SpatialIndex(rebuild_threshold=8)
        calls = self._counted(spatial)
        for i in range(8):
            spatial.add(i, (i, i, i + 1, i + 1))
        assert spatial.candidates((0, 0, 20, 20)) == set(range(8)) and calls == []
        spatial.add(8, (8, 8, 9, 9))
        assert spatial.candidates((0, 0, 20, 20)) == set(range(9)) and calls == [1]
        for i in range(9):
            spatial.remove(i)
        assert spatial.candidates((0, 0, 20, 20)) == set() and calls == [1, 1]

    def test_an_entry_moved_after_a_repack_is_gone_once_removed(self):
        spatial = SpatialIndex()
        spatial.add("a", (0, 0, 1, 1))
        spatial.candidates((0, 0, 1, 1))  # the first repack: tree built
        spatial.add("a", (5, 5, 6, 6))
        assert "a" in spatial.candidates((5, 5, 6, 6))
        spatial.remove("a")
        assert spatial.candidates((0, 0, 10, 10)) == set()

    def test_an_import_deleted_before_any_bbox_query_leaves_no_tombstone(self):
        index = ChunkIndex()
        boxed = lambda i: make_doc(i, bbox=BoundingBox(i, i, i + 1, i + 1))  # noqa: E731
        index.add_documents(boxed(i) for i in range(1100))
        index.query(parse_query("0,0,1,1"))  # more pending than the threshold: a repack
        assert index._spatial._pending == {}
        index.add_documents(boxed(i) for i in range(1100, 2000))
        index.delete([f"C{i:04d}" for i in range(1100, 2000)])
        assert index._spatial._packed == len(index._spatial) and index._spatial._pending == {}
        assert index.query(parse_query("0,0,5000,5000")) == [f"C{i:04d}" for i in range(1100)]
