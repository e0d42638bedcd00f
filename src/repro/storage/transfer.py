"""Simulated wide-area transfer (the Fig. 9 substrate).

The paper measures end-to-end data movement between two real clusters
(MCC at Kentucky → Anvil at Purdue) through Globus with 96 workers, each
retrieving one block of the GE-large dataset.  We cannot reach those
machines, so this module provides a deterministic performance model with
the same structure:

* an **aggregate WAN bandwidth** shared by all concurrent streams,
* a **per-request latency** charged once per fetch round (progressive
  retrieval pays it every time it goes back for more fragments),
* **per-block workers** running in parallel; the job finishes when the
  slowest worker finishes (plus each worker's local retrieval compute
  time, which the caller measures for real).

The default calibration reproduces the paper's dashed baseline: 4.67 GB
of raw data in ≈ 11.7 s (aggregate ≈ 0.4 GB/s).  Reported speedups are
therefore driven by the *measured* retrieved-size ratios, exactly like
the paper's Fig. 9.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.storage.store import FragmentStore, StoreWrapper
from repro.utils.validation import check_positive

#: Aggregate WAN bandwidth calibrated to the paper's baseline
#: (4.67 GB / 11.7 s ≈ 0.399 GB/s).
DEFAULT_AGGREGATE_BANDWIDTH = 4.67e9 / 11.7

#: Per-request latency of one Globus fetch round (seconds).
DEFAULT_REQUEST_LATENCY = 0.2


@dataclass(frozen=True)
class TransferReport:
    """Outcome of one simulated parallel transfer."""

    total_time: float
    transfer_time: float
    compute_time: float
    total_bytes: int
    num_blocks: int

    def speedup_over(self, baseline: "TransferReport") -> float:
        """End-to-end speedup of this transfer relative to *baseline*."""
        return baseline.total_time / self.total_time


class GlobusTransferModel:
    """Deterministic bandwidth/latency model for parallel block transfer.

    Parameters
    ----------
    aggregate_bandwidth:
        Bytes/second shared by all streams.
    request_latency:
        Seconds charged per fetch round per worker.
    max_streams:
        Number of parallel workers (96 in the paper's experiment).
    """

    def __init__(
        self,
        aggregate_bandwidth: float = DEFAULT_AGGREGATE_BANDWIDTH,
        request_latency: float = DEFAULT_REQUEST_LATENCY,
        max_streams: int = 96,
    ):
        self.aggregate_bandwidth = check_positive(aggregate_bandwidth, name="bandwidth")
        self.request_latency = float(request_latency)
        if self.request_latency < 0:
            raise ValueError("latency must be >= 0")
        if max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        self.max_streams = int(max_streams)

    def transfer(
        self,
        block_bytes,
        compute_times=None,
        rounds_per_block=1,
    ) -> TransferReport:
        """Simulate moving *block_bytes* (one entry per block) in parallel.

        Parameters
        ----------
        block_bytes:
            Retrieved size of each block.
        compute_times:
            Optional per-block local retrieval/decode seconds (measured by
            the caller; defaults to zero).
        rounds_per_block:
            Fetch rounds each worker performed (progressive retrieval pays
            the request latency once per round).  Scalar or per-block.
        """
        blocks = [int(b) for b in block_bytes]
        if not blocks:
            raise ValueError("need at least one block")
        if any(b < 0 for b in blocks):
            raise ValueError("block sizes must be >= 0")
        n = len(blocks)
        computes = list(compute_times) if compute_times is not None else [0.0] * n
        if len(computes) != n:
            raise ValueError("compute_times length mismatch")
        try:
            rounds = [int(rounds_per_block)] * n
        except TypeError:
            rounds = [int(r) for r in rounds_per_block]
            if len(rounds) != n:
                raise ValueError("rounds_per_block length mismatch")

        streams = min(self.max_streams, n)
        per_stream_bw = self.aggregate_bandwidth / streams
        # round-robin assignment of blocks to streams
        stream_time = [0.0] * streams
        for i, (b, c, r) in enumerate(zip(blocks, computes, rounds)):
            s = i % streams
            stream_time[s] += c + r * self.request_latency + b / per_stream_bw
        total = max(stream_time)
        pure_transfer = max(
            sum(
                blocks[i] / per_stream_bw
                for i in range(s, n, streams)
            )
            for s in range(streams)
        )
        return TransferReport(
            total_time=float(total),
            transfer_time=float(pure_transfer),
            compute_time=float(max(computes)),
            total_bytes=int(sum(blocks)),
            num_blocks=n,
        )

    def baseline(self, total_bytes: int, num_blocks: int) -> TransferReport:
        """Raw transfer of the original (unreduced) data, evenly blocked."""
        per_block = int(round(total_bytes / num_blocks))
        return self.transfer([per_block] * num_blocks, rounds_per_block=1)


class LatencyFragmentStore(StoreWrapper):
    """A :class:`StoreWrapper` putting a simulated slow link (real sleeps)
    in front of any store.

    Charges every *round trip* a fixed latency plus a bandwidth cost
    proportional to the bytes it moves — the cost model of an object
    store or parallel file system reached over a network.  A batched
    :meth:`get_many` pays the latency **once** for the whole batch,
    which is exactly the economy the pipelined retrieval engine's
    coalesced fetches exploit; the benchmarks use this wrapper to measure
    that effect end to end without needing a real remote tier.  Index
    and durability queries are metadata-sized and not delayed.

    Sleeps are real (``time.sleep``), so concurrent clients overlap their
    waits like real network requests would.  Writes are not delayed by
    default (archival happens once and is not what the retrieval
    benchmarks time); pass ``write_latency`` to charge each write round
    trip too — a batched ``put_many`` then pays it **once** for the
    whole flush, the economy the ingestion benchmarks measure.
    """

    def __init__(
        self,
        inner: FragmentStore,
        latency: float = 0.002,
        bandwidth: float = 2e9,
        write_latency: float | None = None,
    ):
        super().__init__(inner)
        self.latency = float(latency)
        self.bandwidth = check_positive(bandwidth, name="bandwidth")
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        self.write_latency = None if write_latency is None else float(write_latency)
        if self.write_latency is not None and self.write_latency < 0:
            raise ValueError("write_latency must be >= 0")

    def _charge(self, nbytes: int) -> None:
        time.sleep(self.latency + nbytes / self.bandwidth)

    def transact(self, puts, deletes=()) -> None:
        """Commit on the inner store, charging one write round trip.

        Only the puts are charged (and only when ``write_latency`` is
        set); tombstones are metadata-sized.
        """
        batch, _ = self._check_batch(puts)
        self.inner.transact(batch, deletes)
        if batch:
            if self.write_latency is not None:
                nbytes = sum(len(payload) for _, _, payload in batch)
                time.sleep(self.write_latency + nbytes / self.bandwidth)
            self._count_writes(batch)

    def get_many(self, keys) -> dict:
        """Read a batch, charging the latency **once** for all of it."""
        out = super().get_many(keys)
        self._charge(sum(len(p) for p in out.values()))
        return out
