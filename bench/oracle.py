"""Expected search results, from the program's reference evaluator.

Each generated feature is projected with ``build_document`` and judged by
``query.evaluate_oracle``, the same ground truth the test suite holds the
index to. To keep this affordable on tens of thousands of documents, a
query is only evaluated on a candidate superset: the documents carrying a
text token the query requires, or lying in the grid cells a bbox touches.
The superset never drops a match, so the count stays exact.
"""

from __future__ import annotations

import math
from collections import defaultdict

from georocket.indexer import build_document
from georocket.model import ChunkMetadata, Format, parse_layer_path
from georocket.query import evaluate_oracle, parse_query
from georocket.query.ast import BBoxTerm, Comparison, CompareOp, Logical, LogicalOp, TextTerm
from georocket.store import StoredEntry


class Oracle:
    def __init__(self, cell: float):
        """Bboxes up to ``cell`` wide and high are found through a grid of that pitch."""
        self.cell = cell
        self.docs = []
        self._by_token = defaultdict(list)
        self._by_cell = defaultdict(list)
        self._wide = []  # bboxes larger than a cell, candidates for every bbox query

    def add(self, chunk_id: str, content: bytes, layer: str, fmt: Format, imported_ms: int) -> None:
        meta = ChunkMetadata(layer=parse_layer_path(layer), import_timestamp=imported_ms, format=fmt)
        doc = build_document(StoredEntry(id=chunk_id, content=content, parents=None, metadata=meta))
        self.docs.append(doc)
        for token in doc.tokens:
            self._by_token[token].append(doc)
        if doc.bbox is not None and max(doc.bbox.max_x - doc.bbox.min_x,
                                        doc.bbox.max_y - doc.bbox.min_y) > self.cell:
            self._wide.append(doc)
        elif doc.bbox is not None:
            key = (math.floor(doc.bbox.min_x / self.cell), math.floor(doc.bbox.min_y / self.cell))
            self._by_cell[key].append(doc)

    def count(self, layer: str, query: str) -> int:
        ast = parse_query(query)
        scope = parse_layer_path(layer)
        candidates = self._candidates(ast)
        if candidates is None:
            candidates = self.docs
        return sum(
            1 for d in candidates
            if scope.is_ancestor_or_self(d.metadata.layer) and evaluate_oracle(ast, d)
        )

    def _candidates(self, node):
        """A superset of the documents matching ``node``, or None for all of them."""
        if isinstance(node, TextTerm):
            return self._by_token.get(node.token.lower(), [])
        if isinstance(node, Comparison) and node.op is CompareOp.EQ and node.value.kind == "text":
            # the documents carry no properties, so a text value is content
            tokens = node.value.value.lower().split()
            if len(tokens) == 1 and tokens[0].isalnum():
                return self._by_token.get(tokens[0], [])
        if isinstance(node, BBoxTerm):
            b = node.bbox
            out = list(self._wide)
            for cx in range(math.floor(b.min_x / self.cell) - 1, math.floor(b.max_x / self.cell) + 1):
                for cy in range(math.floor(b.min_y / self.cell) - 1, math.floor(b.max_y / self.cell) + 1):
                    out.extend(self._by_cell.get((cx, cy), ()))
            return out
        if isinstance(node, Logical) and node.op is LogicalOp.AND:
            for child in node.children:
                found = self._candidates(child)
                if found is not None:
                    return found
        if isinstance(node, Logical) and node.op is LogicalOp.OR:
            parts = [self._candidates(c) for c in node.children]
            if all(p is not None for p in parts):
                return list({id(d): d for p in parts for d in p}.values())
        return None
