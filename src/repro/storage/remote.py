"""Remote fragment backends: HTTP object store and key-value adapter.

PR 3 proved the retrieval engine's economics against a *simulated*
remote tier (:class:`~repro.storage.transfer.LatencyFragmentStore`);
this module provides real ones.  Two backends implement the
:class:`~repro.storage.store.FragmentStore` primitives (``get_many`` and
``transact``) the rest of the stack (archive, cache, tiering, service)
composes over:

* :class:`HTTPFragmentServer` / :class:`HTTPFragmentStore` — an
  in-process HTTP object-store server over any local
  :class:`~repro.storage.store.FragmentStore`, and the client that
  speaks to it.  The wire protocol is five endpoints (index, single
  fragment read with HTTP ``Range`` support, a coalesced ``/batch`` read
  moving a whole fragment set in **one** round trip, its write-side
  mirror ``/batch_put``, and delete), so a batched retrieval round
  — or a batched ingestion flush — costs one HTTP request however many
  fragments it spans, the same economy the pipelined engines exploit
  locally.  The two batch bodies are :mod:`repro.utils.wire` frames (a
  JSON header line, then raw payloads), parsed by the same bounded
  reader as the retrieval service's protocol.
* :class:`KeyValueFragmentStore` — adapts any object with S3-style
  bucket semantics (:class:`ObjectBucket`: get/put/delete/list by string
  key) to the fragment-store interface.  :class:`InMemoryObjectBucket`
  is the reference bucket; a real S3/GCS client satisfies the same five
  methods.

Both backends keep a local index snapshot (keys + payload sizes) so
``has``/``segments``/``size_of``/``nbytes`` — the metadata queries
retrieval planning hammers — never touch the network.
"""

from __future__ import annotations

import http.client
import http.server
import json
import threading
from typing import Protocol, runtime_checkable
from urllib.parse import parse_qs, quote, unquote, urlparse

from dataclasses import asdict

from repro.storage.store import FragmentStore, _split_query, split_store_url
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


def _frag_query(variable: str, segment: str) -> str:
    return f"variable={quote(variable, safe='')}&segment={quote(segment, safe='')}"


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

    def _key(self) -> tuple | None:
        query = parse_qs(urlparse(self.path).query)
        try:
            return unquote(query["variable"][0]), unquote(query["segment"][0])
        except (KeyError, IndexError):
            self._send_json(400, {"error": "variable and segment are required"})
            return None

    def _route(self) -> str:
        return urlparse(self.path).path

    # -- verbs ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        """Serve the index listing or one (optionally ranged) fragment."""
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
        if route == API_PREFIX + "/frag":
            key = self._key()
            if key is None:
                return
            try:
                payload = self._store.get(*key)
            except KeyError:
                self._send_json(404, {"error": "no such fragment", "key": list(key)})
                return
            span = self._range(len(payload))
            if span is None:
                self._send(200, [payload])
            else:
                start, stop = span
                self.send_response(206)
                self.send_header("Content-Type", "application/octet-stream")
                self.send_header(
                    "Content-Range", f"bytes {start}-{stop - 1}/{len(payload)}"
                )
                self.send_header("Content-Length", str(stop - start))
                self.end_headers()
                self.wfile.write(payload[start:stop])
            return
        self._send_json(404, {"error": f"no route {route!r}"})

    def _range(self, total: int) -> tuple | None:
        """Parse a ``Range: bytes=a-b`` header into a clamped [a, b+1) span."""
        header = self.headers.get("Range", "")
        if not header.startswith("bytes="):
            return None
        start_s, _, stop_s = header[len("bytes="):].partition("-")
        try:
            start = int(start_s)
            stop = int(stop_s) + 1 if stop_s else total
        except ValueError:
            return None
        return max(0, start), min(stop, total)

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
        ``keys`` (and ``lengths``), stored with a single inner
        ``put_many`` — so a whole ingestion flush costs one HTTP round
        trip and one index append.  Both routes refuse a missing,
        negative or over-limit ``Content-Length`` with a 400 before
        reading a byte of the body.
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
            missing = exc.args[0] if exc.args else []
            self._send_json(
                404, {"error": "missing fragments", "missing": [list(k) for k in missing]}
            )
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
        except ConnectionError:
            self.close_connection = True  # the client hung up mid-body
            return
        except (ValueError, KeyError, TypeError) as exc:
            # after a FrameError the rest of the body is unread: hang up
            self._send_json(400, {"error": f"malformed batch_put request: {exc}"},
                            close=isinstance(exc, FrameError))
            return
        self._store.put_many(
            [(v, s, bytes(p)) for (v, s), p in zip(keys, payloads)]
        )
        self._send_json(200, {"stored": len(keys)})

    def do_DELETE(self) -> None:  # noqa: N802
        """Delete one fragment (404 when absent)."""
        if self._route() != API_PREFIX + "/frag":
            self._send_json(404, {"error": f"no route {self._route()!r}"})
            return
        key = self._key()
        if key is None:
            return
        try:
            self._store.delete(*key)
        except KeyError:
            self._send_json(404, {"error": "no such fragment", "key": list(key)})
            return
        self._send_json(200, {"deleted": True})


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


class HTTPFragmentStore(FragmentStore):
    """Client for :class:`HTTPFragmentServer`: a remote tier over HTTP.

    Opens by pulling the server's index once, so every metadata query
    (``has``/``segments``/``size_of``/``nbytes``) is answered locally;
    call :meth:`refresh` to re-pull after another writer changes the
    archive.  :meth:`get_many` moves a whole batch in **one** request via
    the ``/batch`` endpoint (a ``get`` is a batch of one), and
    :meth:`transact` a whole write batch via ``/batch_put``.  Connections
    are per-thread and kept alive, so concurrent retrieval sessions don't
    serialize on a shared socket; a stale keep-alive (server restarted,
    idle socket reaped) is re-dialed transparently exactly once per
    request and counted in ``reconnects``.  Anything beyond that single
    re-dial is the retry layer's job: wrap the client in a
    :class:`~repro.storage.resilience.ResilientStore` (or pass
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
        :class:`~repro.storage.resilience.ResilientStore`.
        """
        from repro.storage.resilience import ResilientStore, policy_from_params

        scheme, rest = split_store_url(url)
        if scheme != "http":
            raise ValueError(f"not an http:// store URL: {url!r}")
        rest, params = _split_query(rest)
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
            conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            self._local.conn = conn
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

    # -- reads ----------------------------------------------------------------

    def get_range(self, variable: str, segment: str, start: int, stop: int) -> bytes:
        """Fetch ``payload[start:stop]`` via an HTTP ``Range`` request.

        The one read a batch cannot express: one round trip, one
        fragment, only the ranged bytes counted.
        """
        status, payload = self._request(
            "GET",
            f"{API_PREFIX}/frag?{_frag_query(variable, segment)}",
            headers={"Range": f"bytes={int(start)}-{int(stop) - 1}"},
        )
        self._raise_for(status, payload, key=(variable, segment))
        self._count_reads({(variable, segment): payload})
        return payload

    def get_many(self, keys) -> dict:
        """Fetch a whole batch in one ``/batch`` HTTP round trip."""
        keys = list(dict.fromkeys((v, s) for v, s in keys))
        if not keys:
            return {}
        body = json.dumps({"keys": [list(k) for k in keys]}).encode()
        status, payloads = self._request(
            "POST", API_PREFIX + "/batch", body=body, frame_of=len(keys)
        )
        self._raise_for(status, payloads, key=keys)
        out = {key: bytes(payload) for key, payload in zip(keys, payloads)}
        self._count_reads(out)
        return out

    # -- writes ---------------------------------------------------------------

    def transact(self, puts, deletes=()) -> None:
        """Store the puts in one ``/batch_put`` round trip, then delete.

        Each delete is its own request (``KeyError`` when the server
        does not hold the key); atomicity is the server-side store's,
        per request.
        """
        batch = self._check_batch(puts)
        if batch:
            parts = frame_parts(
                {"keys": [[v, s] for v, s, _ in batch]}, [p for _, _, p in batch]
            )
            status, answer = self._request(
                "POST", API_PREFIX + "/batch_put", body=parts,
                headers={"Content-Length": str(sum(len(p) for p in parts))},
            )
            self._raise_for(status, answer)
            with self._stats_lock:
                for variable, segment, payload in batch:
                    self._record_put(variable, segment, len(payload))
            self._count_writes(batch)
        for variable, segment in deletes:
            status, answer = self._request(
                "DELETE", f"{API_PREFIX}/frag?{_frag_query(variable, segment)}"
            )
            self._raise_for(status, answer, key=(variable, segment))
            with self._stats_lock:
                if (variable, segment) in self._sizes:
                    self._record_delete(variable, segment)

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
        """Close this thread's kept-alive connection (others expire idle)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None


# ---------------------------------------------------------------------------
# Key-value (S3-style) adapter
# ---------------------------------------------------------------------------


@runtime_checkable
class ObjectBucket(Protocol):
    """S3-style bucket semantics the key-value adapter composes over.

    Five methods, string keys, byte values.  ``get_object`` raises
    ``KeyError`` for a missing key.  ``get_objects`` (batched read) and
    ``put_objects`` (batched write) are optional — buckets that support
    them move a whole batch in one round trip; the adapter falls back to
    per-key gets/puts otherwise.
    """

    def get_object(self, key: str) -> bytes:
        """Read one object; KeyError when absent."""

    def put_object(self, key: str, data: bytes) -> None:
        """Write one object (overwrite allowed)."""

    def delete_object(self, key: str) -> None:
        """Remove one object; KeyError when absent."""

    def list_objects(self) -> list:
        """All ``(key, nbytes)`` pairs currently stored."""


class InMemoryObjectBucket:
    """Reference :class:`ObjectBucket`: a thread-safe in-process dict.

    Counts ``requests`` (bucket round trips: one per get/put/delete/list
    and one per batched ``get_objects``) so tests and benchmarks can
    assert the adapter's coalescing.
    """

    def __init__(self):
        self._objects: dict = {}
        self._lock = threading.Lock()
        #: Bucket round trips served (batched reads count once).
        self.requests = 0

    def get_object(self, key: str) -> bytes:
        """Read one object; KeyError when absent."""
        with self._lock:
            self.requests += 1
            return self._objects[key]

    def get_objects(self, keys) -> dict:
        """Batched read: the whole batch costs one bucket request."""
        with self._lock:
            self.requests += 1
            missing = [k for k in keys if k not in self._objects]
            if missing:
                raise KeyError(missing)
            return {k: self._objects[k] for k in keys}

    def put_object(self, key: str, data: bytes) -> None:
        """Write one object (overwrite allowed)."""
        with self._lock:
            self.requests += 1
            self._objects[key] = bytes(data)

    def put_objects(self, objects: dict) -> None:
        """Batched write: the whole ``{key: data}`` batch costs one request."""
        with self._lock:
            self.requests += 1
            for key, data in objects.items():
                self._objects[key] = bytes(data)

    def delete_object(self, key: str) -> None:
        """Remove one object; KeyError when absent."""
        with self._lock:
            self.requests += 1
            del self._objects[key]

    def list_objects(self) -> list:
        """All ``(key, nbytes)`` pairs, insertion-ordered."""
        with self._lock:
            self.requests += 1
            return [(k, len(v)) for k, v in self._objects.items()]


def object_key(variable: str, segment: str) -> str:
    """Encode a fragment key as one reversible bucket key string."""
    return f"{quote(variable, safe='')}/{quote(segment, safe='')}"


def fragment_key(key: str) -> tuple:
    """Inverse of :func:`object_key`; ValueError for foreign keys."""
    variable, sep, segment = key.partition("/")
    if not sep:
        raise ValueError(f"not a fragment object key: {key!r}")
    return unquote(variable), unquote(segment)


class KeyValueFragmentStore(FragmentStore):
    """Fragment store over any :class:`ObjectBucket` (S3-style semantics).

    Fragment keys map to bucket keys via :func:`object_key` (percent-
    encoded, so arbitrary variable/segment names survive).  The bucket is
    listed once at open to rebuild the index; foreign keys in the bucket
    are ignored.  ``get_many`` uses the bucket's batched ``get_objects``
    when available (one bucket round trip per batch) and falls back to
    per-key gets otherwise — ``round_trips`` records whichever actually
    happened.
    """

    def __init__(self, bucket: ObjectBucket):
        super().__init__()
        self.bucket = bucket
        for key, nbytes in bucket.list_objects():
            try:
                variable, segment = fragment_key(key)
            except ValueError:
                continue  # not ours; buckets may hold unrelated objects
            self._record_put(variable, segment, int(nbytes))

    def transact(self, puts, deletes=()) -> None:
        """Write the puts (one bucket round trip when it batches), then delete."""
        batch = self._check_batch(puts)
        if batch:
            put_objects = getattr(self.bucket, "put_objects", None)
            trips = 1
            if put_objects is not None:
                put_objects({object_key(v, s): p for v, s, p in batch})
            else:
                for variable, segment, payload in batch:
                    self.bucket.put_object(object_key(variable, segment), payload)
                trips = len(batch)  # honest accounting, like get_many
            with self._stats_lock:
                for variable, segment, payload in batch:
                    self._record_put(variable, segment, len(payload))
            self._count_writes(batch, trips)
        for variable, segment in deletes:
            if (variable, segment) not in self._sizes:
                raise KeyError((variable, segment))
            self.bucket.delete_object(object_key(variable, segment))
            with self._stats_lock:
                self._record_delete(variable, segment)

    def get_many(self, keys) -> dict:
        """Batched read; one bucket round trip when the bucket supports it."""
        keys = list(dict.fromkeys((v, s) for v, s in keys))
        missing = [k for k in keys if k not in self._sizes]
        if missing:
            raise KeyError(missing)
        get_objects = getattr(self.bucket, "get_objects", None)
        trips = 1
        if get_objects is not None:
            raw = get_objects([object_key(v, s) for v, s in keys])
            out = {key: raw[object_key(*key)] for key in keys}
        else:
            out = {key: self.bucket.get_object(object_key(*key)) for key in keys}
            trips = len(keys)  # honest accounting for non-batching buckets
        self._count_reads(out, trips)
        return out
