"""Blocked (domain-decomposed) processing, as in the paper's GE-large
experiment: 96 independent blocks, one per worker, with block-parallel
refactor and QoI-preserved retrieval.  The ``*_service`` variants
archive blocks under block-qualified names and retrieve them through a
shared :class:`~repro.service.service.RetrievalService`, so concurrent or
repeated block retrievals share one fragment cache.
"""

from repro.parallel.blocks import (
    BlockedDataset,
    block_variable,
    blockwise_archive,
    blockwise_ingest,
    blockwise_refactor,
    blockwise_retrieve,
    blockwise_retrieve_service,
    split_fields,
)

__all__ = [
    "BlockedDataset",
    "block_variable",
    "blockwise_archive",
    "blockwise_ingest",
    "blockwise_refactor",
    "blockwise_retrieve",
    "blockwise_retrieve_service",
    "split_fields",
]
