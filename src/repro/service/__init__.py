"""Multi-client retrieval service (the data-service tier above Fig. 1).

* :mod:`repro.service.service` — :class:`RetrievalService` multiplexing
  concurrent :class:`ClientSession`\\ s over one archive behind a shared
  :class:`~repro.storage.cache.FragmentCache`.
* :mod:`repro.service.server` — the TCP front end, one
  :mod:`repro.utils.wire` frame per message (a JSON line, plus raw
  array payloads where there are arrays; ``repro serve`` / ``repro
  client`` in the CLI) and a blocking :class:`ServiceClient`.
* :mod:`repro.service.metrics` — the HTTP operability sidecar serving
  Prometheus-format ``/metrics`` and a JSON ``/health`` probe
  (``repro serve --metrics-port``).
"""

from repro.service.metrics import MetricsServer, health_payload, render_metrics
from repro.service.service import ClientSession, RetrievalService, ServiceStats
from repro.service.server import (
    RetrievalServer,
    ServiceClient,
    ServiceError,
    decode_array,
    encode_array,
)

__all__ = [
    "RetrievalService",
    "ClientSession",
    "ServiceStats",
    "RetrievalServer",
    "ServiceClient",
    "ServiceError",
    "encode_array",
    "decode_array",
    "MetricsServer",
    "render_metrics",
    "health_payload",
]
