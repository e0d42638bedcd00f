"""Network front end of the retrieval service (framed JSON over TCP).

One :class:`RetrievalServer` wraps one
:class:`~repro.service.service.RetrievalService`; each TCP connection
gets its own :class:`~repro.service.service.ClientSession`, handled on
its own thread.  Every message, in each direction, is one frame of
:mod:`repro.utils.wire`::

    frame   = header-line payload*
    header  = one JSON object on one line (UTF-8, ends in b"\\n")
    payload = exactly lengths[i] raw bytes when the header carries
              "lengths": [n0, n1, ...]

A frame without ``lengths`` is a plain JSON line, so any language can
speak the array-free ops with a line reader.  Arrays travel as raw
payloads, each described by a ``[name, dtype.str, shape]`` triple in
the header (numeric and bool dtypes only, C order, ``nbytes ==
prod(shape) * itemsize``).  Ops:

* ``{"op": "info"}`` → archived variables and their metadata,
* ``{"op": "retrieve", "qoi": "vtot", "fields": [...], "tolerance": 1e-4,
  "qoi_range": 350.0, "include_data": true}`` → the retrieval report;
  with ``include_data`` its header carries ``"data": [[name, dtype,
  shape], ...]`` and ``lengths``, and each reconstruction follows as
  raw bytes, written straight from the array.
  Optional ``"priority"`` (negative = shed-first) and ``"deadline_ms"``
  engage the service's admission control and deadline-aware rounds: a
  shed request answers ``{"ok": false, "error": "overloaded",
  "retry_after_ms": ...}`` immediately, and a deadline-hit request
  answers with ``"degraded": true`` plus the best bounds achieved,
* ``{"op": "ingest", "variables": [[name, dtype, shape], ...], "method":
  "pmgard_hb", "lengths": [...]}`` followed by the arrays → absorb new
  or updated variables into the live archive through the streaming
  ingestion engine (optionally with ``workers`` / ``flush_bytes`` /
  ``timestep``), returning its report,
* ``{"op": "stats"}`` → service/cache accounting,
* ``{"op": "health"}`` → liveness summary (variables, sessions, WAL
  durability counters) — the same payload the sidecar
  :class:`~repro.service.metrics.MetricsServer` serves on ``/health``,
* ``{"op": "compact"}`` → compact the backing store's commit log and
  return the :class:`~repro.storage.wal.CompactionReport`.

Limits are :mod:`repro.utils.wire`'s module constants: a header line of
at most ``MAX_HEADER_BYTES`` (16 MiB) and at most ``MAX_BODY_BYTES``
(1 GiB) of payload per frame.  A request that fails inside a good frame
(unknown op, bad descriptor, refused dtype) answers ``{"ok": false,
"error": ...}`` and the connection stays open; a frame that cannot be
parsed — over a limit, not JSON, bad lengths, cut short — answers the
same way once and the server closes the connection, because the
stream position is lost.

Because the session persists for the life of the connection, a client
that retrieves loosely and then tightens pays only for the incremental
fragments — the paper's progressive economy, now over a socket — and
fragments any client pulls through the shared cache are free for all
other connections.
"""

from __future__ import annotations

import base64
import io
import socket
import socketserver
import time
from dataclasses import asdict

import numpy as np

from repro.core.qois import qoi_from_spec
from repro.core.retrieval import QoIRequest
from repro.service.service import OverloadedError, RetrievalService
from repro.utils.wire import (
    FrameError,
    frame_parts,
    pack_arrays,
    read_frame,
    unpack_arrays,
    write_frame,
)


def _json_safe(obj):
    """Replace non-finite floats with their string forms ("inf", "nan").

    ``json.dumps`` would otherwise emit bare ``Infinity``/``NaN`` tokens,
    which are invalid JSON for strict (non-Python) parsers; the strings
    round-trip through ``float()`` on the client side.
    """
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def encode_array(data: np.ndarray) -> str:
    """Serialize an array as base64 ``.npy`` bytes (self-describing).

    Not used on the wire: the protocol sends arrays as raw frame
    payloads (:func:`repro.utils.wire.pack_arrays`).  Kept only because
    the end-to-end benchmark replays this codec off the clock for its
    ``service.server.codec_ms`` row; it goes when that replay does.
    """
    buf = io.BytesIO()
    np.save(buf, np.asarray(data), allow_pickle=False)
    return base64.b64encode(buf.getvalue()).decode("ascii")


def decode_array(payload: str) -> np.ndarray:
    """Inverse of :func:`encode_array` (off the wire, like it)."""
    return np.load(io.BytesIO(base64.b64decode(payload)), allow_pickle=False)


class ServiceError(RuntimeError):
    """A request the server answered with ``ok: false``."""


class OverloadedResponse(ServiceError):
    """The server shed this request (admission control).

    Carries the server's ``retry_after_ms`` backoff hint and the limit
    that fired (``reason``: ``"inflight"`` or ``"rate"``).  Raised by
    :class:`ServiceClient` only after its configured overload retries
    are exhausted.
    """

    def __init__(self, retry_after_ms: float, reason: str = "overloaded"):
        super().__init__(
            f"server overloaded ({reason}); retry after {retry_after_ms:.0f} ms"
        )
        self.retry_after_ms = float(retry_after_ms)
        self.reason = reason


def _error(exc: BaseException) -> dict:
    return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


class _ClientHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        session = self.server.service.open_session()
        try:
            while True:
                try:
                    frame = read_frame(self.rfile)
                except (FrameError, ConnectionError) as exc:
                    # the stream position is lost: answer once, then hang up
                    self._reply(_error(exc))
                    return
                if frame is None:
                    return
                request, payloads = frame
                try:
                    response = self._dispatch(request, payloads, session)
                    payloads = None
                    if "data" in response:  # arrays leave as raw payloads
                        response["data"], payloads = pack_arrays(response["data"])
                except Exception as exc:  # malformed request must not kill the server
                    response, payloads = _error(exc), None
                self._reply(response, payloads)
        finally:
            session.close()

    def _reply(self, response: dict, payloads=None) -> None:
        try:
            write_frame(self.wfile.write, _json_safe(response), payloads)
        except OSError:
            pass  # the client is gone; handle() ends on its next read

    def _dispatch(self, request: dict, payloads: list, session) -> dict:
        op = request.get("op")
        service = self.server.service
        if op == "info":
            manifest = service.manifest
            variables = {}
            for name in service.variables():
                if manifest is not None and name in manifest.variables:
                    meta = manifest.variables[name]
                    variables[name] = {
                        "shape": list(meta.shape),
                        "dtype": meta.dtype,
                        "compressor": meta.compressor,
                        "total_bytes": meta.total_bytes,
                        "value_range": meta.value_range,
                    }
                else:
                    variables[name] = {}
            return {"ok": True, "variables": variables}
        if op == "stats":
            stats = service.stats()
            payload = asdict(stats)
            payload["cache"]["hit_rate"] = stats.cache.hit_rate
            if stats.planner is not None:
                payload["planner"]["plan_cache_hit_rate"] = (
                    stats.planner.plan_cache_hit_rate
                )
            return {"ok": True, "stats": payload}
        if op == "health":
            from repro.service.metrics import health_payload

            return {"ok": True, "health": health_payload(service)}
        if op == "compact":
            return {"ok": True, "report": asdict(service.compact())}
        if op == "retrieve":
            fields = list(request["fields"])
            qoi = qoi_from_spec(request["qoi"], fields)
            deadline_ms = request.get("deadline_ms")
            try:
                result = session.retrieve(
                    [
                        QoIRequest(
                            request["qoi"],
                            qoi,
                            float(request["tolerance"]),
                            float(request.get("qoi_range", 1.0)),
                        )
                    ],
                    max_rounds=int(request.get("max_rounds", 100)),
                    priority=int(request.get("priority", 0)),
                    deadline_ms=None if deadline_ms is None else float(deadline_ms),
                )
            except OverloadedError as exc:
                # explicit shed: no state was created server-side, and the
                # client gets a concrete backoff hint instead of a hang
                return {
                    "ok": False,
                    "error": "overloaded",
                    "reason": exc.reason,
                    "retry_after_ms": exc.retry_after_ms,
                }
            response = {
                "ok": True,
                "satisfied": result.all_satisfied,
                "estimated_error": float(result.estimated_errors[request["qoi"]]),
                "rounds": result.rounds,
                "bytes_retrieved": result.total_bytes,
                "session_bytes": session.bytes_retrieved(),
                "degraded": result.degraded,
                "degraded_reason": result.degraded_reason,
                "hedged_fetches": result.hedged_fetches,
            }
            if request.get("include_data"):
                response["data"] = result.data
            return response
        if op == "ingest":
            arrays = unpack_arrays(request["variables"], payloads)
            workers = request.get("workers")
            flush_bytes = request.get("flush_bytes")
            timestep = request.get("timestep")
            report = service.ingest(
                arrays,
                method=str(request.get("method", "pmgard_hb")),
                workers=None if workers is None else int(workers),
                flush_bytes=None if flush_bytes is None else int(flush_bytes),
                timestep=None if timestep is None else int(timestep),
            )
            return {"ok": True, "report": asdict(report)}
        return {"ok": False, "error": f"unknown op {op!r}"}


class RetrievalServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server: one connection = one client session.

    Pass ``port=0`` to bind an ephemeral port (tests); the bound address
    is available as :attr:`address`.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service: RetrievalService, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _ClientHandler)
        self.service = service

    @property
    def address(self) -> tuple:
        """``(host, port)`` actually bound (resolves ephemeral ports)."""
        return self.server_address[:2]


class ServiceClient:
    """Blocking client for :class:`RetrievalServer` (one session per client).

    A dropped TCP connection is re-dialed once per call and the request
    re-issued — every op is idempotent at the protocol level (a re-run
    ``retrieve`` returns the same bounds; a re-run ``ingest`` replaces
    variables with identical data), though the re-dial starts a fresh
    server-side session, so incremental per-session economics reset.
    When the server sheds a request (``error: "overloaded"``), the
    client honors the ``retry_after_ms`` hint: it sleeps and re-issues
    up to ``overload_retries`` times before raising
    :class:`OverloadedResponse`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        overload_retries: int = 0,
    ):
        self._host = host
        self._port = int(port)
        self._timeout = float(timeout)
        self.overload_retries = int(overload_retries)
        self.reconnects = 0
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._rfile = self._sock.makefile("rb")

    def _reconnect(self) -> None:
        try:
            self.close()
        except OSError:
            pass
        self._connect()
        self.reconnects += 1

    def _exchange(self, parts: list):
        for part in parts:
            self._sock.sendall(part)
        try:
            return read_frame(self._rfile)
        except FrameError:
            self.close()  # the stream position is lost; the next call re-dials
            raise

    def _send_recv(self, header: dict, payloads=None) -> tuple:
        """One request/reply frame exchange, re-dialing a dead socket once.

        The re-dial resends the whole request frame; a reply cut short
        counts as a dead socket.  Returns the reply's ``(header,
        payloads)``.
        """
        parts = frame_parts(header, payloads)
        try:
            frame = self._exchange(parts)
        except OSError:  # ConnectionError included
            frame = None
        if frame is None:
            self._reconnect()
            frame = self._exchange(parts)
            if frame is None:
                raise ConnectionError("server closed the connection")
        return frame

    def _call(self, header: dict, payloads=None) -> tuple:
        for attempt in range(self.overload_retries + 1):
            response, data = self._send_recv(header, payloads)
            if response.get("ok"):
                return response, data
            if response.get("error") == "overloaded":
                retry_after_ms = float(response.get("retry_after_ms", 50.0))
                if attempt < self.overload_retries:
                    time.sleep(retry_after_ms / 1000.0)
                    continue
                raise OverloadedResponse(
                    retry_after_ms, response.get("reason", "overloaded")
                )
            raise ServiceError(response.get("error", "unknown server error"))
        raise AssertionError("unreachable")  # loop always returns or raises

    def info(self) -> dict:
        """Archived variables and their metadata."""
        return self._call({"op": "info"})[0]["variables"]

    def stats(self) -> dict:
        """Service/cache accounting as plain dicts."""
        return self._call({"op": "stats"})[0]["stats"]

    def health(self) -> dict:
        """Liveness summary (status, variables, sessions, durability)."""
        return self._call({"op": "health"})[0]["health"]

    def compact(self) -> dict:
        """Compact the server's commit log; returns the report as a dict."""
        return self._call({"op": "compact"})[0]["report"]

    def retrieve(
        self,
        qoi: str,
        fields,
        tolerance: float,
        qoi_range: float = 1.0,
        include_data: bool = False,
        max_rounds: int = 100,
        priority: int = 0,
        deadline_ms: float | None = None,
    ) -> dict:
        """QoI-preserved retrieval; arrays are decoded when requested.

        ``priority`` and ``deadline_ms`` flow to the server's admission
        control and deadline-aware rounds; a deadline-hit response has
        ``"degraded": true`` with the best bounds achieved so far.
        """
        payload = {
            "op": "retrieve",
            "qoi": qoi,
            "fields": list(fields),
            "tolerance": tolerance,
            "qoi_range": qoi_range,
            "include_data": include_data,
            "max_rounds": max_rounds,
        }
        if priority:
            payload["priority"] = int(priority)
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        response, payloads = self._call(payload)
        if "data" in response:
            response["data"] = unpack_arrays(response["data"], payloads)
        # non-finite errors travel as strings (see _json_safe)
        response["estimated_error"] = float(response["estimated_error"])
        return response

    def ingest(
        self,
        variables: dict,
        method: str = "pmgard_hb",
        workers: int | None = None,
        flush_bytes: int | None = None,
        timestep: int | None = None,
    ) -> dict:
        """Push new or updated variables into the server's live archive.

        *variables* maps names to numeric or bool arrays (raw payloads
        of one frame on the wire); the server runs the streaming
        ingestion engine and answers with its
        :class:`~repro.core.ingest.IngestReport` as a plain dict.
        """
        descriptors, arrays = pack_arrays(variables)
        payload = {"op": "ingest", "variables": descriptors, "method": method}
        if workers is not None:
            payload["workers"] = int(workers)
        if flush_bytes is not None:
            payload["flush_bytes"] = int(flush_bytes)
        if timestep is not None:
            payload["timestep"] = int(timestep)
        return self._call(payload, arrays)[0]["report"]

    def close(self) -> None:
        """Close the connection (the server ends this client's session)."""
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
