"""Block decomposition and block-parallel refactor/retrieval drivers.

A :class:`BlockedDataset` splits every variable of a dataset into
``num_blocks`` contiguous chunks along the leading axis — the layout of
the GE data (``96 x { }`` / ``200 x { }`` in Table III) where each block
belongs to one worker.  Error control is per block: each block is
refactored and retrieved independently, so the global L-infinity
guarantee is the max over blocks, which the per-block guarantees imply.

``blockwise_refactor`` and ``blockwise_retrieve`` run the per-block work
through a thread pool (NumPy and zlib release the GIL in their kernels)
and return per-block artifacts plus the merged reconstruction.

``blockwise_archive`` / ``blockwise_retrieve_service`` are the service
variants: blocks are archived under block-qualified variable names and
retrieved block-parallel *through* a
:class:`~repro.service.service.RetrievalService`, so overlapping
fragments (e.g. two retrievals of the same dataset, or re-runs after a
restart) are served from the shared fragment cache instead of the store.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.ingest import (
    DEFAULT_FLUSH_BYTES,
    DEFAULT_INGEST_WORKERS,
    ingest_dataset,
    update_manifest,
)
from repro.core.retrieval import QoIRequest, QoIRetriever, refactor_dataset
from repro.storage.metadata import DatasetManifest, VariableMetadata


def split_fields(fields: dict, num_blocks: int) -> list:
    """Split every variable into *num_blocks* chunks along axis 0."""
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    lead = {k: np.asarray(v).shape[0] for k, v in fields.items()}
    if len(set(lead.values())) != 1:
        raise ValueError("all variables must share the leading axis length")
    n = next(iter(lead.values()))
    if num_blocks > n:
        raise ValueError("more blocks than elements along the leading axis")
    edges = np.linspace(0, n, num_blocks + 1).astype(int)
    blocks = []
    for b in range(num_blocks):
        sl = slice(edges[b], edges[b + 1])
        blocks.append({k: np.ascontiguousarray(np.asarray(v)[sl]) for k, v in fields.items()})
    return blocks


@dataclass
class BlockedDataset:
    """A dataset decomposed into per-worker blocks."""

    blocks: list  # list of {name: ndarray}

    @classmethod
    def from_fields(cls, fields: dict, num_blocks: int) -> "BlockedDataset":
        return cls(split_fields(fields, num_blocks))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def merge(self, per_block: list) -> dict:
        """Concatenate per-block field dicts back into whole variables."""
        if len(per_block) != self.num_blocks:
            raise ValueError("block count mismatch")
        names = per_block[0].keys()
        return {
            name: np.concatenate([blk[name] for blk in per_block], axis=0)
            for name in names
        }


def blockwise_refactor(blocked: BlockedDataset, refactorer_factory, max_workers: int = 4) -> list:
    """Refactor every block (possibly in parallel).

    Parameters
    ----------
    blocked:
        The decomposed dataset.
    refactorer_factory:
        Zero-argument callable producing a fresh refactorer (refactorers
        are stateless, but a factory keeps the API explicit about
        per-thread instances).
    max_workers:
        Thread-pool width.
    """
    def work(block):
        return refactor_dataset(block, refactorer_factory())

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(work, blocked.blocks))


@dataclass
class BlockRetrievalResult:
    """Merged outcome of a block-parallel QoI-preserved retrieval."""

    data: dict
    per_block_bytes: list
    per_block_rounds: list
    per_block_seconds: list
    all_satisfied: bool

    @property
    def total_bytes(self) -> int:
        return int(sum(self.per_block_bytes))


def blockwise_retrieve(
    blocked: BlockedDataset,
    refactored_blocks: list,
    qoi,
    qoi_name: str,
    tolerance: float,
    qoi_range: float = 1.0,
    max_workers: int = 4,
    pipeline_depth: int | None = None,
    fetch_workers: int | None = None,
) -> BlockRetrievalResult:
    """QoI-preserved retrieval of every block, merged back together.

    Each block satisfies the tolerance independently, so the merged
    reconstruction satisfies it globally (L-infinity is a max).  Each
    block runs the pipelined retrieval engine; ``pipeline_depth`` /
    ``fetch_workers`` tune its per-block fetch/decode overlap for
    archive-backed (lazily loaded) blocks and are inert for in-memory
    refactored blocks.
    """

    def work(args):
        block, refactored = args
        ranges = {
            k: (float(np.max(v) - np.min(v)) or 1.0) for k, v in block.items()
        }
        kwargs = {}
        if pipeline_depth is not None:
            kwargs["pipeline_depth"] = pipeline_depth
        if fetch_workers is not None:
            kwargs["max_workers"] = fetch_workers
        retriever = QoIRetriever(refactored, ranges, **kwargs)
        start = time.perf_counter()
        result = retriever.retrieve(
            [QoIRequest(qoi_name, qoi, tolerance, qoi_range)]
        )
        elapsed = time.perf_counter() - start
        return result, elapsed

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        outcomes = list(pool.map(work, zip(blocked.blocks, refactored_blocks)))

    merged = blocked.merge([r.data for r, _ in outcomes])
    return BlockRetrievalResult(
        data=merged,
        per_block_bytes=[r.total_bytes for r, _ in outcomes],
        per_block_rounds=[r.rounds for r, _ in outcomes],
        per_block_seconds=[t for _, t in outcomes],
        all_satisfied=all(r.all_satisfied for r, _ in outcomes),
    )


def block_variable(name: str, block_index: int) -> str:
    """Archive key of one variable's chunk: ``pressure@b003``."""
    return f"{name}@b{block_index:03d}"


def blockwise_archive(
    blocked: BlockedDataset,
    refactored_blocks: list,
    archive,
    method: str = "unknown",
    dataset: str = "blocked",
) -> DatasetManifest:
    """Archive every block of a refactored blocked dataset.

    Each chunk is saved under its block-qualified name and the manifest
    (block-level shapes and value ranges, which per-block error control
    needs) is written to the archive's store at the reserved key — making
    the archive directly servable by a
    :class:`~repro.service.service.RetrievalService`.
    """
    if len(refactored_blocks) != blocked.num_blocks:
        raise ValueError("block count mismatch")
    manifest = DatasetManifest(dataset=dataset)
    for b, (block, refactored) in enumerate(zip(blocked.blocks, refactored_blocks)):
        for name, data in block.items():
            var = block_variable(name, b)
            archive.save(var, refactored[name])
            manifest.add(
                VariableMetadata.from_array(
                    var, data, method, refactored[name].total_bytes,
                    segments=archive.store.segments(var),
                )
            )
    manifest.save_to(archive.store)
    return manifest


def blockwise_ingest(
    blocked: BlockedDataset,
    store,
    refactorer,
    method: str = "unknown",
    dataset: str = "blocked",
    workers: int = DEFAULT_INGEST_WORKERS,
    flush_bytes: int = DEFAULT_FLUSH_BYTES,
) -> DatasetManifest:
    """Stream a blocked dataset into a store through the ingestion engine.

    The parallel sibling of :func:`blockwise_archive` for data that has
    not been refactored yet: every block-qualified variable is
    refactored on the engine's transform+encode workers and archived in
    byte-balanced coalesced ``put_many`` flushes
    (:func:`repro.core.ingest.ingest_dataset`), producing an archive
    bit-identical to ``blockwise_refactor`` + :func:`blockwise_archive`.
    The manifest is written at the reserved key, so the result is
    directly servable by a
    :class:`~repro.service.service.RetrievalService`.
    """
    named = {}
    for b, block in enumerate(blocked.blocks):
        for name, data in block.items():
            named[block_variable(name, b)] = data
    report = ingest_dataset(
        store, named, refactorer, workers=workers, flush_bytes=flush_bytes
    )
    manifest = DatasetManifest(dataset=dataset)
    update_manifest(manifest, store, named, method, report)
    manifest.save_to(store)
    return manifest


def blockwise_retrieve_service(
    service,
    field_names,
    num_blocks: int,
    qoi,
    qoi_name: str,
    tolerance: float,
    qoi_range: float = 1.0,
    max_workers: int = 4,
) -> BlockRetrievalResult:
    """Block-parallel QoI-preserved retrieval through a shared service.

    Each worker loads its block's variables from the service's archive —
    i.e. through the shared :class:`~repro.storage.cache.FragmentCache` —
    and runs its own Algorithm 2 loop, so per-block error control is
    unchanged while repeated or concurrent retrievals of the same blocks
    stop paying for store reads.  *qoi* references the plain field names;
    the block-qualified archive keys are resolved here.
    """

    def work(b):
        names = {name: block_variable(name, b) for name in field_names}
        loaded = service.load_variables(names.values())
        refactored = {n: loaded[v] for n, v in names.items()}
        ranges = {n: service.value_range(v) for n, v in names.items()}
        # each worker runs the pipelined engine with the service's knobs:
        # lazily loaded blocks plan whole rounds and batch-fetch them
        # through the shared cache, so concurrent blocks (and re-runs)
        # coalesce their overlapping fragment demand into shared batches
        retriever = QoIRetriever(
            refactored, ranges,
            reduction_factor=service.reduction_factor,
            pipeline_depth=service.pipeline.pipeline_depth,
            max_workers=service.pipeline.max_workers,
        )
        start = time.perf_counter()
        result = retriever.retrieve([QoIRequest(qoi_name, qoi, tolerance, qoi_range)])
        elapsed = time.perf_counter() - start
        return result, elapsed

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        outcomes = list(pool.map(work, range(num_blocks)))

    merged = {
        name: np.concatenate([r.data[name] for r, _ in outcomes], axis=0)
        for name in field_names
    }
    return BlockRetrievalResult(
        data=merged,
        per_block_bytes=[r.total_bytes for r, _ in outcomes],
        per_block_rounds=[r.rounds for r, _ in outcomes],
        per_block_seconds=[t for _, t in outcomes],
        all_satisfied=all(r.all_satisfied for r, _ in outcomes),
    )
