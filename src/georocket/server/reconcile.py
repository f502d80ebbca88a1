"""Startup reconciliation between store and index.

The store is the source of truth. Index entries without a stored chunk are
dropped, stored chunks without an index entry are reindexed from their
content, and metadata snapshots that drifted (e.g. a crash between the
store and index halves of an update) are resynced from the store sidecars.
After a crash anywhere in the import or update pipeline this restores the
invariant that the index answers exactly what a scan of the store would.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from ..indexer import ChunkIndex, build_document
from ..model import MetadataDelta
from ..store import ChunkStore

logger = logging.getLogger(__name__)

BATCH_SIZE = 256  # documents reindexed per index commit


@dataclass
class ReconcileReport:
    dropped: int = 0
    reindexed: int = 0
    metadata_synced: int = 0


def reconcile(store: ChunkStore, index: ChunkIndex) -> ReconcileReport:
    report = ReconcileReport()
    store_ids = set(store.scan())
    index_ids = set(index.all_ids())

    orphaned = index_ids - store_ids
    if orphaned:
        report.dropped = index.delete(orphaned)

    pending = []
    for chunk_id in store_ids:
        try:
            entry = store.get(chunk_id)
        except Exception:
            logger.warning("reconcile: cannot read chunk %s; skipping", chunk_id)
            continue
        if chunk_id not in index_ids:
            pending.append(build_document(entry))
            if len(pending) >= BATCH_SIZE:
                report.reindexed += index.add_documents(pending)
                pending = []
            continue
        doc = index.get_document(chunk_id)
        if doc is not None and doc.metadata != entry.metadata:
            delta = MetadataDelta(
                set_properties=dict(entry.metadata.properties),
                remove_properties=frozenset(
                    doc.metadata.properties.keys() - entry.metadata.properties.keys()
                ),
                add_tags=frozenset(entry.metadata.tags - doc.metadata.tags),
                remove_tags=frozenset(doc.metadata.tags - entry.metadata.tags),
            )
            index.update_metadata([chunk_id], delta)
            report.metadata_synced += 1
    if pending:
        report.reindexed += index.add_documents(pending)

    if report.dropped or report.reindexed or report.metadata_synced:
        logger.info(
            "reconcile: dropped %d orphaned index entries, reindexed %d chunks, "
            "resynced %d metadata snapshots",
            report.dropped,
            report.reindexed,
            report.metadata_synced,
        )
    return report
