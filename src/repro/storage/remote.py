"""Remote fragment backend: an HTTP object store and its client.

PR 3 proved the retrieval engine's economics against a *simulated*
remote tier (:class:`~repro.storage.transfer.LatencyFragmentStore`);
this module provides a real one.  :class:`HTTPFragmentServer` /
:class:`HTTPFragmentStore` implement the
:class:`~repro.storage.store.FragmentStore` primitives (``get_many`` and
``transact``) the rest of the stack (archive, cache, tiering, service)
composes over: an in-process HTTP object-store server over any local
:class:`~repro.storage.store.FragmentStore`, and the client that speaks
to it.  Fragments move over two endpoints: a coalesced ``/batch`` read
moving a whole fragment set in **one** round trip, and its write-side
mirror ``/batch_put``, which carries a whole transaction (puts and
tombstones) in one request; the index, durability and compaction routes
complete the protocol.  So a batched retrieval round — or an ingestion
flush, or an archive commit — costs one HTTP request however many
fragments it spans, the same economy the pipelined engines exploit
locally.  The two batch bodies are :mod:`repro.utils.wire` frames (a
JSON header line, then raw payloads), parsed by the same bounded reader
as the retrieval service's protocol.

The client keeps a local index snapshot (keys + payload sizes) so
``has``/``segments``/``size_of``/``nbytes`` — the metadata queries
retrieval planning hammers — never touch the network.
"""

from __future__ import annotations

import http.client
import http.server
import json
import threading
import weakref
from urllib.parse import urlparse

from dataclasses import asdict

from repro.storage.store import FragmentStore, _parse_store_url
from repro.storage.wal import CompactionReport, DurabilityStats
from repro.utils.wire import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    FrameError,
    frame_parts,
    read_frame,
)

#: URL path prefix of the fragment protocol (versioned for evolution).
API_PREFIX = "/v1"


# ---------------------------------------------------------------------------
# HTTP object-store server
# ---------------------------------------------------------------------------


class _Handler(http.server.BaseHTTPRequestHandler):
    """Request handler of :class:`HTTPFragmentServer` (one per request)."""

    protocol_version = "HTTP/1.1"
    server_version = "ReproFragmentStore/1"
    # a reply is at least two writes (headers, then the body or a frame's
    # parts): without TCP_NODELAY a small write behind unacknowledged
    # bytes waits out the client's delayed ACK, about 40 ms on Linux
    disable_nagle_algorithm = True

    # -- helpers --------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        """Silence per-request stderr logging (tests and benchmarks)."""

    @property
    def _store(self) -> FragmentStore:
        return self.server.inner  # type: ignore[attr-defined]

    def _send(self, code: int, parts: list, content_type="application/octet-stream",
              close: bool = False):
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(sum(len(p) for p in parts)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        for part in parts:
            self.wfile.write(part)

    def _send_json(self, code: int, obj, close: bool = False) -> None:
        self._send(code, [json.dumps(obj).encode()], "application/json", close)

    def _body_size(self, limit: int) -> int | None:
        """The request's ``Content-Length``, or None once refused with a 400.

        A missing, non-numeric, negative or over-*limit* length is
        answered without reading the body, and the connection is closed
        (the unread body has lost the stream position).
        """
        raw = self.headers.get("Content-Length")
        try:
            size = int(raw)
        except (TypeError, ValueError):
            size = -1
        if 0 <= size <= limit:
            return size
        self._send_json(
            400, {"error": f"Content-Length must be 0..{limit}, got {raw!r}"}, close=True
        )
        return None

    def _send_missing(self, exc: KeyError) -> None:
        """Refuse a batch with 404 listing every key *exc* names."""
        missing = exc.args[0] if exc.args else []
        self._send_json(
            404, {"error": "missing fragments", "missing": [list(k) for k in missing]}
        )

    def _route(self) -> str:
        return urlparse(self.path).path

    # -- verbs ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        """Serve the index listing or the durability counters."""
        route = self._route()
        if route == API_PREFIX + "/index":
            fragments = [
                {"variable": v, "segment": s, "nbytes": self._store.size_of(v, s)}
                for v, s in self._store.keys()
            ]
            self._send_json(200, {"fragments": fragments})
            return
        if route == API_PREFIX + "/durability":
            self._send_json(200, asdict(self._store.durability()))
            return
        self._send_json(404, {"error": f"no route {route!r}"})

    def do_POST(self) -> None:  # noqa: N802
        """Serve ``/batch`` (coalesced read) and ``/batch_put`` (coalesced write).

        ``/batch``: the request body is ``{"keys": [[variable, segment],
        ...]}``; the response is one :mod:`repro.utils.wire` frame — a
        JSON header line ``{"lengths": [...]}`` (per-key payload
        lengths, in request order) followed by the raw payloads.  Any
        missing key fails the whole batch with 404 listing every missing
        key — mirroring :meth:`FragmentStore.get_many`'s no-partial-batch
        contract.

        ``/batch_put`` is the mirror image: one frame whose header holds
        ``keys`` (and ``lengths``) and, when the transaction tombstones
        anything, ``deletes`` (``[[variable, segment], ...]``), applied
        with a single inner ``transact`` — so a whole ingestion flush or
        archive commit costs one HTTP round trip and one index append.
        A delete key the store lacks refuses the whole transaction with
        404 listing every missing key; a malformed header is a 400.
        Both routes refuse a missing, negative or over-limit
        ``Content-Length`` with a 400 before reading a byte of the body.
        """
        route = self._route()
        if route == API_PREFIX + "/batch_put":
            self._do_batch_put()
            return
        if route == API_PREFIX + "/compact":
            # server-side compaction: the store the payloads live on is
            # the one whose log and dead files need rewriting
            self._send_json(200, asdict(self._store.compact()))
            return
        if route != API_PREFIX + "/batch":
            self._send_json(404, {"error": f"no route {route!r}"})
            return
        size = self._body_size(MAX_HEADER_BYTES)
        if size is None:
            return
        try:
            body = self.rfile.read(size)
            keys = [(str(v), str(s)) for v, s in json.loads(body)["keys"]]
        except (ValueError, KeyError, TypeError) as exc:
            self._send_json(400, {"error": f"malformed batch request: {exc}"})
            return
        try:
            payloads = self._store.get_many(keys)
        except KeyError as exc:
            self._send_missing(exc)
            return
        self._send(200, frame_parts({}, [payloads[k] for k in dict.fromkeys(keys)]))

    def _do_batch_put(self) -> None:
        """Store one coalesced write batch (see :meth:`do_POST`)."""
        size = self._body_size(MAX_HEADER_BYTES + MAX_BODY_BYTES)
        if size is None:
            return
        try:
            header, payloads = read_frame(self.rfile, size=size)
            keys = [(str(v), str(s)) for v, s in header["keys"]]
            if len(keys) != len(payloads):
                raise ValueError("keys/lengths mismatch")
            deletes = [(str(v), str(s)) for v, s in header.get("deletes", ())]
        except ConnectionError:
            self.close_connection = True  # the client hung up mid-body
            return
        except (ValueError, KeyError, TypeError) as exc:
            # after a FrameError the rest of the body is unread: hang up
            self._send_json(400, {"error": f"malformed batch_put request: {exc}"},
                            close=isinstance(exc, FrameError))
            return
        try:
            self._store.transact(
                [(v, s, bytes(p)) for (v, s), p in zip(keys, payloads)], deletes
            )
        except KeyError as exc:
            self._send_missing(exc)
            return
        except ValueError as exc:
            self._send_json(400, {"error": f"refused batch_put: {exc}"})
            return
        self._send_json(200, {"stored": len(keys)})


class HTTPFragmentServer:
    """In-process HTTP object-store server over a local fragment store.

    Binds a :class:`http.server.ThreadingHTTPServer` (ephemeral port by
    default) exposing *inner* through the fragment wire protocol.  Use as
    a context manager, or call :meth:`start` / :meth:`stop`::

        with HTTPFragmentServer(ShardedDiskStore(root)) as server:
            client = open_store(server.url)

    The server thread is a daemon; fragments are served straight from
    *inner* (its ``reads``/``round_trips`` counters therefore record the
    server-side truth, batch endpoint included).
    """

    def __init__(self, inner: FragmentStore, host: str = "127.0.0.1", port: int = 0):
        self.inner = inner
        self._httpd = http.server.ThreadingHTTPServer((host, port), _Handler)
        self._httpd.inner = inner  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple:
        """``(host, port)`` actually bound (resolves ephemeral ports)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        """The ``http://host:port`` URL clients and ``open_store`` accept."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "HTTPFragmentServer":
        """Start serving on a daemon thread; idempotent."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, name="repro-http-store", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "HTTPFragmentServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------


class _Connection(http.client.HTTPConnection):
    """A kept-alive connection that closes when dropped: only the client's
    thread-local holds one, so it closes when its thread ends."""

    def __del__(self):
        self.close()


class HTTPFragmentStore(FragmentStore):
    """Client for :class:`HTTPFragmentServer`: a remote tier over HTTP.

    Opens by pulling the server's index once, so every metadata query
    (``has``/``segments``/``size_of``/``nbytes``) is answered locally;
    call :meth:`refresh` to re-pull after another writer changes the
    archive (a ``size_of`` miss re-pulls once by itself before it raises
    ``KeyError``).  A request the server refuses with 404 still counts
    as a round trip, with no reads.  :meth:`get_many` moves a whole
    batch in **one** request via the ``/batch`` endpoint (a ``get`` is
    a batch of one), and :meth:`transact` a whole transaction, puts and
    tombstones, via ``/batch_put``.  Connections are per-thread and
    kept alive, so concurrent retrieval sessions don't serialize on a
    shared socket; a thread's connection closes when the thread ends,
    and :meth:`close` closes every one still open.  A stale keep-alive
    (server restarted, idle socket reaped) is re-dialed transparently
    exactly once per request and counted in ``reconnects``.  Anything
    beyond that single re-dial is the retry layer's job: wrap the client
    in a :class:`~repro.storage.resilience.ResilientStore` (or pass
    ``retries=``/``breaker=`` URL parameters to :meth:`from_url`) for
    backoff and circuit breaking.

    Parameters
    ----------
    host / port:
        Address of a running :class:`HTTPFragmentServer`.
    timeout:
        Socket timeout in seconds for each request.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        super().__init__()
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)
        self._local = threading.local()
        self._conns = weakref.WeakSet()  # each thread's open connection, for close()
        #: Stale keep-alive connections transparently re-dialed.
        self.reconnects = 0
        self.refresh()

    @classmethod
    def from_url(cls, url: str, timeout: float = 30.0) -> FragmentStore:
        """Open from an ``http://host:port[?...]`` URL (no path component).

        Query parameters: ``timeout`` (seconds) plus the resilience keys
        of :func:`~repro.storage.resilience.policy_from_params`
        (``retries``/``retry_base``/``retry_max``/``breaker``/
        ``cooldown``) — when any of those are present the client comes
        back wrapped in a
        :class:`~repro.storage.resilience.ResilientStore`.  Any other key
        raises ``ValueError`` naming it.
        """
        from repro.storage.resilience import (
            POLICY_KEYS,
            ResilientStore,
            policy_from_params,
        )

        rest, params = _parse_store_url(url, "http", {"timeout", *POLICY_KEYS})
        netloc = rest.split("/", 1)[0]
        host, sep, port = netloc.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(f"http:// store URL needs host:port, got {url!r}")
        timeout = float(params.get("timeout", timeout))
        store = cls(host, int(port), timeout=timeout)
        retry, breaker = policy_from_params(params)
        if retry is None and breaker is None:
            return store
        if breaker is not None:
            breaker.name = f"http://{host}:{port}"
        return ResilientStore(store, retry=retry, breaker=breaker)

    # -- wire -----------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = _Connection(self.host, self.port, timeout=self.timeout)
            self._local.conn = conn
            with self._stats_lock:
                self._conns.add(conn)
        return conn

    def _request(self, method: str, path: str, body=None, headers: dict | None = None,
                 frame_of: int | None = None):
        """One HTTP exchange, transparently reconnecting a stale keep-alive.

        With *frame_of*, a 200 reply is read as a :mod:`repro.utils.wire`
        frame of exactly that many payloads and its payloads returned; a
        reply that is not one (too few lengths, cut short, longer than
        its ``Content-Length``) raises ``ConnectionError``.
        """
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers or {})
                response = conn.getresponse()
                if frame_of is None or response.status != 200:
                    return response.status, response.read()
                try:
                    frame = read_frame(response, count=frame_of, size=response.length)
                except FrameError as exc:
                    raise ConnectionError(f"malformed batch reply: {exc}") from exc
                if frame is None:
                    raise ConnectionError("empty batch reply")
                response.read()  # nothing is left; this frees the keep-alive
                return response.status, frame[1]
            except (http.client.HTTPException, OSError):
                conn.close()
                self._local.conn = None
                if attempt:
                    raise
                with self._stats_lock:
                    self.reconnects += 1
        raise AssertionError("unreachable")

    @staticmethod
    def _raise_for(status: int, payload: bytes, key=None):
        if status == 404:
            try:
                detail = json.loads(payload)
            except ValueError:
                detail = {}
            missing = detail.get("missing")
            raise KeyError(
                [tuple(k) for k in missing] if missing is not None else key
            )
        if status >= 400:
            raise ConnectionError(f"fragment server answered {status}: {payload[:200]!r}")

    # -- index ----------------------------------------------------------------

    def refresh(self) -> None:
        """Re-pull the server's fragment index into the local snapshot."""
        status, payload = self._request("GET", API_PREFIX + "/index")
        self._raise_for(status, payload)
        listing = json.loads(payload)["fragments"]
        with self._stats_lock:
            self._sizes.clear()
            self._var_bytes.clear()
            self._var_segments.clear()
            self._total_bytes = 0
            for entry in listing:
                self._record_put(
                    entry["variable"], entry["segment"], int(entry["nbytes"])
                )

    def size_of(self, variable: str, segment: str) -> int:
        """Payload size of one fragment, re-pulling the index on a miss.

        A key this snapshot lacks may have been written by another
        client since the open (a re-save with more levels): one
        :meth:`refresh` settles it before ``KeyError``.
        """
        try:
            return super().size_of(variable, segment)
        except KeyError:
            self.refresh()
            with self._stats_lock:
                return super().size_of(variable, segment)

    def _refused(self, status: int, payload: bytes, key=None) -> None:
        """Raise for a refused read; a 404 still crossed the wire."""
        if status == 404:
            self._count_reads({})
        self._raise_for(status, payload, key)

    # -- reads ----------------------------------------------------------------

    def get_many(self, keys) -> dict:
        """Fetch a whole batch in one ``/batch`` HTTP round trip."""
        keys = list(dict.fromkeys((v, s) for v, s in keys))
        if not keys:
            return {}
        body = json.dumps({"keys": [list(k) for k in keys]}).encode()
        status, payloads = self._request(
            "POST", API_PREFIX + "/batch", body=body, frame_of=len(keys)
        )
        self._refused(status, payloads, key=keys)
        out = {key: bytes(payload) for key, payload in zip(keys, payloads)}
        self._count_reads(out)
        return out

    # -- writes ---------------------------------------------------------------

    def transact(self, puts, deletes=()) -> None:
        """Send the whole transaction in one ``/batch_put`` round trip.

        Checked against the local index snapshot first
        (:meth:`_check_batch`); the server applies puts and tombstones
        with one ``transact`` of its store, so a transaction is as
        atomic as that store makes it.  When the server refuses
        tombstones for keys it no longer holds (another writer removed
        them), those keys leave the snapshot before the ``KeyError``
        naming them is raised — so a caller that retries without them
        (``Archive.commit``) sees them gone.
        """
        with self._stats_lock:
            batch, doomed = self._check_batch(puts, deletes)
        if not batch and not doomed:
            return
        header = {"keys": [[v, s] for v, s, _ in batch]}
        if doomed:
            header["deletes"] = [list(key) for key in doomed]
        parts = frame_parts(header, [p for _, _, p in batch])
        status, answer = self._request(
            "POST", API_PREFIX + "/batch_put", body=parts,
            headers={"Content-Length": str(sum(len(p) for p in parts))},
        )
        try:
            self._raise_for(status, answer)
        except KeyError as exc:
            with self._stats_lock:
                for key in exc.args[0] or ():
                    if key in self._sizes:
                        self._record_delete(*key)
            raise
        with self._stats_lock:
            for variable, segment, payload in batch:
                self._record_put(variable, segment, len(payload))
            for key in doomed:
                if key in self._sizes:
                    self._record_delete(*key)
        if batch:
            self._count_writes(batch)

    # -- durability -----------------------------------------------------------

    def compact(self) -> CompactionReport:
        """Ask the server to compact its backing store (one request).

        Compaction must run where the payload files live; the client
        just triggers it and relays the server's reclaim report.
        """
        status, answer = self._request("POST", API_PREFIX + "/compact")
        self._raise_for(status, answer)
        return CompactionReport(**json.loads(answer))

    def durability(self) -> DurabilityStats:
        """The server-side store's durability counters (one request)."""
        status, answer = self._request("GET", API_PREFIX + "/durability")
        self._raise_for(status, answer)
        return DurabilityStats(**json.loads(answer))

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Close every connection this client dialed, on any thread."""
        with self._stats_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()  # reused after this, a connection re-dials itself

