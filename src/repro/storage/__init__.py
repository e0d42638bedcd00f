"""Storage and data-movement substrates.

* :mod:`repro.storage.store` — the two-primitive store interface, the
  local fragment stores (in-memory, and the WAL-backed on-disk store in
  its flat and sharded layouts) with byte accounting, the
  :class:`StoreWrapper` base of every decorating store, plus :func:`open_store`, the
  URL entry point over every backend (``file://``, ``sharded://``,
  ``memory://``, ``http://``, ``tiered://``, ``cluster://``).
* :mod:`repro.storage.remote` — the remote tier: in-process HTTP
  object-store server/client with a coalesced batch endpoint, and the
  key-value adapter for S3-style buckets.
* :mod:`repro.storage.cluster` — the scale-out fabric: one namespace
  consistent-hash sharded and K-way replicated over N fragment servers,
  with per-node circuit breakers, transparent read failover, and a
  background rebalancer for membership changes.  See
  ``docs/cluster.md``.
* :mod:`repro.storage.tiered` — the tiered fabric: fast tier over slow
  tier with write-through/write-back puts and a background transfer
  manager promoting hot fragments and demoting cold ones under a byte
  budget.
* :mod:`repro.storage.cache` — the shared, byte-budgeted LRU fragment
  cache that lets many clients retrieve through one archive without
  re-reading overlapping fragments from disk.
* :mod:`repro.storage.wal` — the append-only commit log behind the
  on-disk stores: crash-atomic multi-fragment writes (stage → one
  fsync'd commit record → publish), tombstones, and log compaction.
  See ``docs/durability.md``.
* :mod:`repro.storage.snapshot` — batched snapshot/restore of a whole
  store between any two ``open_store`` URLs, with byte-for-byte
  verification.
* :mod:`repro.storage.metadata` — dataset manifests recording the
  refactoring metadata Algorithm 2 needs (shapes, value ranges).
* :mod:`repro.storage.transfer` — the simulated Globus-like wide-area
  transfer model used to reproduce Fig. 9 (remote retrieval MCC→Anvil).

See ``docs/storage.md`` for the store hierarchy, URL grammar, tiering
policy, and a backend decision table.
"""

from repro.storage.store import (
    DiskFragmentStore,
    FragmentStore,
    ShardedDiskStore,
    StoreWrapper,
    open_directory_store,
    open_store,
)
from repro.storage.cache import CacheStats, CachingFragmentStore, FragmentCache
from repro.storage.metadata import (
    MANIFEST_SEGMENT,
    MANIFEST_VARIABLE,
    DatasetManifest,
    VariableMetadata,
)
from repro.storage.remote import (
    HTTPFragmentServer,
    HTTPFragmentStore,
    InMemoryObjectBucket,
    KeyValueFragmentStore,
    ObjectBucket,
)
from repro.storage.cluster import (
    ClusterFragmentStore,
    ClusterStats,
    HashRing,
    NodeStats,
    Rebalancer,
)
from repro.storage.snapshot import SnapshotReport, restore_store, snapshot_store
from repro.storage.tiered import TieredStore, TierStats, TransferManager
from repro.storage.wal import CommitLog, CompactionReport, DurabilityStats
from repro.storage.transfer import GlobusTransferModel, LatencyFragmentStore, TransferReport
from repro.storage.archive import Archive, FragmentSource, prefetch_plans

__all__ = [
    "FragmentStore",
    "DiskFragmentStore",
    "ShardedDiskStore",
    "StoreWrapper",
    "open_store",
    "open_directory_store",
    "FragmentCache",
    "CachingFragmentStore",
    "CacheStats",
    "VariableMetadata",
    "DatasetManifest",
    "MANIFEST_VARIABLE",
    "MANIFEST_SEGMENT",
    "HTTPFragmentServer",
    "HTTPFragmentStore",
    "ObjectBucket",
    "InMemoryObjectBucket",
    "KeyValueFragmentStore",
    "TieredStore",
    "TierStats",
    "TransferManager",
    "ClusterFragmentStore",
    "ClusterStats",
    "HashRing",
    "NodeStats",
    "Rebalancer",
    "CommitLog",
    "CompactionReport",
    "DurabilityStats",
    "SnapshotReport",
    "snapshot_store",
    "restore_store",
    "GlobusTransferModel",
    "LatencyFragmentStore",
    "TransferReport",
    "Archive",
    "FragmentSource",
    "prefetch_plans",
]
