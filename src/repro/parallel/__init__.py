"""Parallel execution: blocked processing and the kernel executor.

Two independent axes of parallelism live here:

* :mod:`repro.parallel.blocks` — blocked (domain-decomposed) processing,
  as in the paper's GE-large experiment: 96 independent blocks, one per
  worker, with block-parallel refactor and QoI-preserved retrieval
  drivers.  The ``*_service`` variants archive blocks under
  block-qualified names and retrieve them through a shared
  :class:`~repro.service.service.RetrievalService`, so concurrent or
  repeated block retrievals share one fragment cache.
* :mod:`repro.parallel.executor` — the pluggable kernel executor
  (``serial``/``thread``/``process``) that parallelizes the *within-
  variable* decode and encode kernels, with a zero-copy shared-memory
  fragment arena feeding the process backend.
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
from repro.parallel.executor import (
    ArenaLookupError,
    ArenaRef,
    ArenaStats,
    ExecutorStats,
    KERNELS,
    KernelExecutor,
    KernelTask,
    ProcessKernelExecutor,
    SerialKernelExecutor,
    SlabArena,
    ThreadKernelExecutor,
    as_completed_tasks,
    make_executor,
    merge_magnitude_bytes,
)

__all__ = [
    "ArenaLookupError",
    "ArenaRef",
    "ArenaStats",
    "BlockedDataset",
    "ExecutorStats",
    "KERNELS",
    "KernelExecutor",
    "KernelTask",
    "ProcessKernelExecutor",
    "SerialKernelExecutor",
    "SlabArena",
    "ThreadKernelExecutor",
    "as_completed_tasks",
    "block_variable",
    "blockwise_archive",
    "blockwise_ingest",
    "blockwise_refactor",
    "blockwise_retrieve",
    "blockwise_retrieve_service",
    "make_executor",
    "merge_magnitude_bytes",
    "split_fields",
]
