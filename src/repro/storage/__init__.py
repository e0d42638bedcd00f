"""Storage and data-movement substrates.

* :mod:`repro.storage.store` — the two-primitive store interface, the
  local fragment stores (in-memory, and the WAL-backed on-disk store in
  its flat and sharded layouts) with byte accounting, the
  :class:`StoreWrapper` base of every decorating store, plus :func:`open_store`, the
  URL entry point over every backend (``file://``, ``sharded://``,
  ``memory://``, ``http://``, ``tiered://``, ``cluster://``).
* :mod:`repro.storage.remote` — the remote tier: in-process HTTP
  object-store server/client with a coalesced batch endpoint.
* :mod:`repro.storage.cluster` — the scale-out fabric: one namespace
  consistent-hash sharded and K-way replicated over a fixed set of N
  fragment servers, with per-node circuit breakers and transparent read
  failover.  See ``docs/cluster.md``.
* :mod:`repro.storage.tiered` — the tiered fabric: a write-through fast
  tier over a slow tier, reads fast-tier-first with the misses of a
  batch in one slow-tier trip.
* :mod:`repro.storage.cache` — the shared, byte-budgeted LRU fragment
  cache that lets many clients retrieve through one archive without
  re-reading overlapping fragments from disk.
* :mod:`repro.storage.wal` — the append-only commit log behind the
  on-disk store: crash-atomic multi-fragment writes (one pack file per
  commit → one fsync'd commit record), tombstones, and compaction.
  See ``docs/durability.md``.
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
)
from repro.storage.cluster import (
    ClusterFragmentStore,
    ClusterStats,
    HashRing,
    NodeStats,
)
from repro.storage.tiered import TieredStore, TierStats
from repro.storage.wal import CommitLog, CompactionReport, DurabilityStats
from repro.storage.transfer import GlobusTransferModel, LatencyFragmentStore, TransferReport
from repro.storage.archive import Archive, ArchiveIndexError, FragmentSource, prefetch_plans

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
    "TieredStore",
    "TierStats",
    "ClusterFragmentStore",
    "ClusterStats",
    "HashRing",
    "NodeStats",
    "CommitLog",
    "CompactionReport",
    "DurabilityStats",
    "GlobusTransferModel",
    "LatencyFragmentStore",
    "TransferReport",
    "Archive",
    "ArchiveIndexError",
    "FragmentSource",
    "prefetch_plans",
]
