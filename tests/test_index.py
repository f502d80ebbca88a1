import random
from dataclasses import replace

import pytest

from georocket.errors import DuplicateIdError, StorageError, UnknownIdError
from georocket.indexer import ChunkIndex, IndexDocument, IndexedAttribute
from georocket.model import (
    BoundingBox,
    ChunkMetadata,
    Format,
    MetadataDelta,
    ROOT_LAYER,
    TypedValue,
    parse_layer_path,
)
from georocket.query import MatchAll, evaluate_oracle, parse_query

from gendata import random_document, random_query


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
        reopened.close()

        # replay is deterministic
        again = ChunkIndex(tmp_path / "idx")
        assert {i: again.get_document(i) for i in again.all_ids()} == first
        again.close()

    def test_compaction_preserves_documents(self, tmp_path):
        docs = self._docs()
        index = ChunkIndex(tmp_path / "idx", compact_after_ops=10)
        index.add_documents(docs)  # triggers compaction along the way
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
        manifest_dir = tmp_path / "idx" / "segments"
        segment = sorted(manifest_dir.glob("*.seg"))[-1]
        with open(segment, "ab") as f:
            f.write(b'{"op":"add","doc":{"id":"trunc')  # crash mid-append
        reopened = ChunkIndex(tmp_path / "idx")
        assert len(reopened) == 5
        reopened.close()

    def test_unrecognised_manifest_fails_fast(self, tmp_path):
        index = ChunkIndex(tmp_path / "idx")
        index.close()
        (tmp_path / "idx" / "manifest").write_text("something-else 9\n{}\n")
        with pytest.raises(StorageError):
            ChunkIndex(tmp_path / "idx")

    def test_query_after_reopen_equals_oracle(self, tmp_path):
        rng = random.Random(17)
        docs = [random_document(rng, i) for i in range(120)]
        # ties on the import timestamp, so the sequence and then the id decide
        shared = docs[0].metadata.import_timestamp
        for i in range(100, 120):
            docs[i] = replace(docs[i], sequence=(119 - i) // 2, metadata=replace(
                docs[i].metadata, import_timestamp=shared))
        index = ChunkIndex(tmp_path / "idx", compact_after_ops=50)
        index.add_documents(docs)
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
        queries = [MatchAll()] + [random_query(rng) for _ in range(40)]
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
