"""repro — Error-controlled Progressive Retrieval under Derivable QoIs.

A from-scratch reproduction of the SC24 paper *Error-controlled
Progressive Retrieval of Scientific Data under Derivable Quantities of
Interest* (Wu, Liu, Gong, Podhorszki, Klasky, Chen, Liang).

Typical usage::

    import repro

    fields = repro.data.ge_cfd(num_nodes=50_000)          # or your own arrays
    refactored = repro.refactor_dataset(                  # archival stage
        fields, repro.make_refactorer("pmgard_hb")
    )
    ranges = {k: v.max() - v.min() for k, v in fields.items()}
    retriever = repro.QoIRetriever(refactored, ranges)    # retrieval stage
    result = retriever.retrieve([
        repro.QoIRequest("VTOT", repro.total_velocity(), tolerance=1e-5,
                         qoi_range=350.0),
    ])
    assert result.all_satisfied                           # guaranteed bound

See README.md for the overview, docs/architecture.md for the paper-to-
code map, docs/storage.md for the storage fabric (store URLs, tiering,
caching), and docs/performance.md for the measured perf trajectory.
"""

from repro import (
    analysis,
    compressors,
    core,
    data,
    encoding,
    parallel,
    service,
    storage,
    transforms,
    utils,
)
from repro.compressors import (
    PMGARDRefactorer,
    PSZ3DeltaRefactorer,
    PSZ3Refactorer,
    SZ3Compressor,
    make_refactorer,
)
from repro.core import (
    GE_QOIS,
    Add,
    Const,
    Div,
    Mul,
    Pow,
    QoI,
    QoIRequest,
    QoIRetriever,
    Radical,
    RetrievalResult,
    Sqrt,
    Var,
    ZeroMask,
    assign_eb,
    mach_number,
    molar_product,
    ingest_dataset,
    reassign_eb,
    refactor_dataset,
    speed_of_sound,
    temperature,
    total_pressure,
    total_velocity,
    viscosity,
)
from repro.data import TABLE3, load_dataset
from repro.service import ClientSession, RetrievalServer, RetrievalService, ServiceClient
from repro.storage import (
    Archive,
    FragmentCache,
    GlobusTransferModel,
    HTTPFragmentServer,
    HTTPFragmentStore,
    KeyValueFragmentStore,
    ShardedDiskStore,
    TieredStore,
    open_store,
)
from repro.compressors import PZFPRefactorer

__version__ = "1.0.0"

__all__ = [
    # subpackages
    "analysis", "compressors", "core", "data", "encoding", "parallel",
    "service", "storage", "transforms", "utils",
    # compressors
    "make_refactorer", "SZ3Compressor", "PSZ3Refactorer",
    "PSZ3DeltaRefactorer", "PMGARDRefactorer",
    # expression system
    "QoI", "Var", "Const", "Add", "Mul", "Div", "Pow", "Sqrt", "Radical",
    # QoIs
    "GE_QOIS", "total_velocity", "temperature", "speed_of_sound",
    "mach_number", "total_pressure", "viscosity", "molar_product",
    # retrieval framework
    "QoIRequest", "QoIRetriever", "RetrievalResult", "refactor_dataset",
    "ingest_dataset", "assign_eb", "reassign_eb", "ZeroMask",
    # datasets & transfer
    "TABLE3", "load_dataset", "GlobusTransferModel", "Archive", "PZFPRefactorer",
    # multi-client retrieval service
    "RetrievalService", "ClientSession", "RetrievalServer", "ServiceClient",
    "FragmentCache", "ShardedDiskStore",
    # storage fabric
    "open_store", "TieredStore",
    "HTTPFragmentServer", "HTTPFragmentStore", "KeyValueFragmentStore",
]
