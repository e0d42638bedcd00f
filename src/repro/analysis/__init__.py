"""Quality-assessment utilities (§III-C of the paper).

* :mod:`repro.analysis.metrics` — bitrate, relative L-infinity error.
* :mod:`repro.analysis.rate_distortion` — rate-distortion sweeps over
  progressive readers / QoI retrievers (the raw series behind every
  figure).
* :mod:`repro.analysis.reporting` — plain-text tables and curve dumps the
  examples print.
"""

from repro.analysis.metrics import bitrate, max_abs_error, relative_linf_error, value_range
from repro.analysis.rate_distortion import (
    primary_rd_sweep,
    qoi_error_sweep,
    qoi_rd_point,
)
from repro.analysis.reporting import format_curve, format_table

__all__ = [
    "bitrate",
    "max_abs_error",
    "relative_linf_error",
    "value_range",
    "primary_rd_sweep",
    "qoi_error_sweep",
    "qoi_rd_point",
    "format_curve",
    "format_table",
]
