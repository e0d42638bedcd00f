"""The paper's primary contribution: QoI error control during retrieval.

* :mod:`repro.core.estimators` — vectorized upper-bound estimators for the
  basis of derivable QoIs (Theorems 1–6).
* :mod:`repro.core.expressions` — the derivable-QoI expression system;
  evaluating an expression tree propagates (value, guaranteed bound) pairs
  bottom-up, which *is* the composite calculus of Theorems 7–9 and
  Lemmas 1–2.
* :mod:`repro.core.qois` — ready-made QoIs: GE Eq.(1)–(6), total velocity,
  S3D molar-concentration products.
* :mod:`repro.core.assigner` — Algorithms 3 (initial bounds) and 4
  (iterative tightening with factor c = 1.5).
* :mod:`repro.core.masking` — the zero-value bitmap outlier filter (§V-A).
* :mod:`repro.core.retrieval` — Algorithms 1 and 2: the QoI-preserved
  progressive retrieval loop.
* :mod:`repro.core.pipeline` — the batched fetch/decode pipeline the
  retrieval loop drives: coalesced ``get_many`` round fetches, widened
  by the predicted next round so speculation costs no trip of its own.
* :mod:`repro.core.ingest` — the write-side mirror: the streaming
  ingestion engine (parallel transform+encode workers feeding
  byte-balanced coalesced ``put_many`` flushes, incremental archive
  updates).
"""

from repro.core.estimators import (
    bound_add,
    bound_div,
    bound_mul,
    bound_power,
    bound_radical,
    bound_sqrt,
)
from repro.core.expressions import (
    Add,
    Const,
    Div,
    Mul,
    Pow,
    QoI,
    Radical,
    Sqrt,
    Var,
)
from repro.core.qois import (
    GE_QOIS,
    mach_number,
    molar_product,
    qoi_from_spec,
    speed_of_sound,
    temperature,
    total_pressure,
    total_velocity,
    viscosity,
)
from repro.core.extensions import Abs, Clip, DomainReduce, Maximum, Minimum, MovingAverage
from repro.core.assigner import assign_eb, reassign_eb
from repro.core.masking import ZeroMask
from repro.core.ingest import IngestConfig, IngestPipeline, IngestReport, ingest_dataset
from repro.core.pipeline import FetchPipeline, PipelineConfig
from repro.core.retrieval import (
    QoIRequest,
    QoIRetriever,
    RetrievalResult,
    RetrievalSession,
    refactor_dataset,
)

__all__ = [
    "bound_add",
    "bound_div",
    "bound_mul",
    "bound_power",
    "bound_radical",
    "bound_sqrt",
    "QoI",
    "Var",
    "Const",
    "Add",
    "Mul",
    "Div",
    "Pow",
    "Sqrt",
    "Radical",
    "Abs",
    "Minimum",
    "Maximum",
    "Clip",
    "MovingAverage",
    "DomainReduce",
    "GE_QOIS",
    "total_velocity",
    "temperature",
    "speed_of_sound",
    "mach_number",
    "total_pressure",
    "viscosity",
    "molar_product",
    "qoi_from_spec",
    "assign_eb",
    "reassign_eb",
    "ZeroMask",
    "QoIRequest",
    "RetrievalResult",
    "QoIRetriever",
    "RetrievalSession",
    "refactor_dataset",
    "PipelineConfig",
    "FetchPipeline",
    "IngestConfig",
    "IngestPipeline",
    "IngestReport",
    "ingest_dataset",
]
