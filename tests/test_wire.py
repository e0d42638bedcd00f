"""The one frame format of both wires (:mod:`repro.utils.wire`).

* The parser alone: frames round-trip, and every malformed, over-limit
  or short frame fails with ``FrameError`` or ``ConnectionError``.
* The retrieval service over a real socket: hypothesis round trips of
  ``retrieve`` with data and ``ingest`` over every dtype and memory
  layout the protocol carries; array-free request and reply lines
  pinned byte for byte; hostile frames answered with a typed error
  inside a socket timeout; the size of a ``fleet_mixed``-shaped reply.
* The HTTP fragment store: ``/batch`` and ``/batch_put`` bytes pinned by
  literal; a bad ``Content-Length`` refused without a hang; a reply
  with too few lengths, cut short, or longer than declared raises
  ``ConnectionError`` instead of returning a partial batch.
"""

import http.client
import http.server
import io
import json
import socket
import socketserver
import threading
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.service.server import RetrievalServer, ServiceClient, ServiceError
from repro.storage.remote import HTTPFragmentServer, HTTPFragmentStore
from repro.storage.store import FragmentStore
from repro.storage.wal import CompactionReport
from repro.utils import wire
from repro.utils.wire import (
    FrameError,
    frame_parts,
    pack_arrays,
    read_frame,
    unpack_arrays,
    write_frame,
)

TIMEOUT = 5.0


def frame_bytes(header, payloads=None) -> bytes:
    out = io.BytesIO()
    write_frame(out.write, header, payloads)
    return out.getvalue()


def parse(data: bytes, **kwargs):
    return read_frame(io.BufferedReader(io.BytesIO(data)), **kwargs)


# ---------------------------------------------------------------------------
# the parser alone
# ---------------------------------------------------------------------------


class TestFrame:
    def test_payload_free_frame_is_the_json_line(self):
        header = {"op": "info", "x": [1, 2.5, None]}
        assert frame_bytes(header) == json.dumps(header).encode() + b"\n"
        assert parse(frame_bytes(header)) == (header, [])

    def test_round_trip_with_payloads(self):
        payloads = [b"abc", b"", bytes(range(256)) * 300]
        header, got = parse(frame_bytes({"k": 1}, payloads), count=3)
        assert header == {"k": 1}  # lengths are the frame's, not the caller's
        assert [bytes(p) for p in got] == payloads
        assert all(isinstance(p, memoryview) and not p.readonly for p in got)

    def test_lengths_are_the_last_header_key(self):
        data = frame_bytes({"keys": [["v", "s"]]}, [b"xy"])
        assert data == b'{"keys": [["v", "s"]], "lengths": [2]}\nxy'

    def test_large_payloads_are_not_copied(self):
        big = memoryview(bytearray(200_000))
        parts = frame_parts({}, [b"a", big, b"b", b"c"])
        assert parts[1] is big
        assert len(parts) == 3  # header+"a", big, "b"+"c"

    def test_empty_stream_and_blank_lines(self):
        assert parse(b"") is None
        assert parse(b"\n\r\n") is None
        assert parse(b'\n{"op": "info"}\n') == ({"op": "info"}, [])

    def test_several_frames_on_one_stream(self):
        stream = io.BufferedReader(io.BytesIO(
            frame_bytes({"n": 1}, [b"abc"]) + frame_bytes({"n": 2})
        ))
        assert read_frame(stream)[0] == {"n": 1}
        assert read_frame(stream) == ({"n": 2}, [])
        assert read_frame(stream) is None

    @pytest.mark.parametrize("line", [
        b"not json\n",
        b"[1, 2]\n",
        b'{"lengths": [-1]}\n',
        b'{"lengths": [1.5]}\n',
        b'{"lengths": [true]}\n',
        b'{"lengths": "12"}\n',
        b'{"lengths": [null]}\n',
        b"\xff\xfe\n",
    ])
    def test_malformed_header_is_a_frame_error(self, line):
        with pytest.raises(FrameError):
            parse(line + b"x" * 16)

    def test_frame_error_is_a_value_error(self):
        assert issubclass(FrameError, ValueError)

    def test_header_over_the_limit(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_HEADER_BYTES", 64)
        ok = b'{"pad": "' + b"x" * 52 + b'"}\n'
        assert len(ok) == 64 and parse(ok) == ({"pad": "x" * 52}, [])
        with pytest.raises(FrameError, match="over 64"):
            parse(b'{"pad": "' + b"x" * 53 + b'"}\n')
        with pytest.raises(FrameError):
            parse(b"x" * 10_000)  # no newline at all: still bounded

    def test_body_over_the_limit(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_BODY_BYTES", 100)
        assert parse(b'{"lengths": [60, 40]}\n' + bytes(100))[1][1].nbytes == 40
        with pytest.raises(FrameError, match="over 100"):
            parse(b'{"lengths": [60, 41]}\n' + bytes(101))

    def test_cut_short_is_a_connection_error(self):
        with pytest.raises(ConnectionError, match="header cut short"):
            parse(b'{"op": "in')
        with pytest.raises(ConnectionError, match="body cut short at 5 of 10"):
            parse(b'{"lengths": [4, 6]}\n' + b"12345")

    def test_count_is_checked(self):
        data = frame_bytes({}, [b"abcdef"])
        assert len(parse(data, count=1)[1]) == 1
        with pytest.raises(FrameError, match="1 payloads, expected 2"):
            parse(data, count=2)

    def test_size_is_checked_before_the_body_is_read(self):
        data = frame_bytes({}, [b"abc"])
        assert bytes(parse(data, size=len(data))[1][0]) == b"abc"
        for size in (len(data) - 1, len(data) + 1):
            with pytest.raises(FrameError, match="expected"):
                parse(data + b"more", size=size)
        with pytest.raises(FrameError, match="empty frame"):
            parse(data, size=0)
        with pytest.raises(FrameError, match="over 5"):
            parse(data, size=5)  # the header alone runs past the frame

    def test_sized_frame_never_reads_past_its_end(self):
        stream = io.BufferedReader(io.BytesIO(frame_bytes({}, [b"abc"]) + b"NEXT"))
        header, _ = read_frame(stream, size=len(frame_bytes({}, [b"abc"])))
        assert stream.read() == b"NEXT"


class TestArrays:
    def test_descriptor_and_payload(self):
        descriptors, payloads = pack_arrays({"p": np.arange(6, dtype="<i4").reshape(2, 3)})
        assert descriptors == [["p", "<i4", [2, 3]]]
        assert bytes(payloads[0]) == np.arange(6, dtype="<i4").tobytes()

    def test_c_contiguous_arrays_are_sent_from_their_own_buffer(self):
        array = np.arange(1000.0)
        _, payloads = pack_arrays({"a": array})
        assert np.shares_memory(np.frombuffer(payloads[0], np.uint8), array)

    @pytest.mark.parametrize("dtype", ["O", "U3", "S2", "V8", "M8[s]", "f8,i4"])
    def test_refused_dtypes_on_the_way_out(self, dtype):
        with pytest.raises(FrameError, match="not numeric or bool"):
            pack_arrays({"x": np.zeros(2, dtype=dtype)})

    @pytest.mark.parametrize("descriptor, payload", [
        (["x", "|O", [1]], bytes(8)),
        (["x", "<U1", [1]], bytes(4)),
        (["x", "<f8,<i4", [1]], bytes(12)),
        (["x", "<f8", [3]], bytes(16)),  # shape / length mismatch
        (["x", "<f8", [-1]], bytes(8)),
        (["x", "<f8", [1.0]], bytes(8)),
        (["x", "<f8", "3"], bytes(24)),
        (["x", "<f7", [1]], bytes(7)),
        (["x", 8, [1]], bytes(8)),
        ([1, "<f8", [1]], bytes(8)),
        (["x", "<f8"], bytes(8)),
        ("x", bytes(8)),
        (["x", "|b1", [2]], b"\x01\x02"),  # bool bytes other than 0/1
    ])
    def test_refused_descriptors_on_the_way_in(self, descriptor, payload):
        with pytest.raises(FrameError):
            unpack_arrays([descriptor], [memoryview(bytearray(payload))])

    def test_descriptor_count_and_repeated_names(self):
        with pytest.raises(FrameError):
            unpack_arrays([["x", "<f8", [1]]], [])
        with pytest.raises(FrameError):
            unpack_arrays({"x": 1}, [b""])
        with pytest.raises(FrameError, match="repeated"):
            unpack_arrays(
                [["x", "|u1", [1]], ["x", "|u1", [1]]],
                [memoryview(bytearray(1)), memoryview(bytearray(1))],
            )


# ---------------------------------------------------------------------------
# the retrieval service over a real socket
# ---------------------------------------------------------------------------


@dataclass
class _Report:
    variables: list


class EchoService:
    """Service stand-in: ``ingest`` keeps the arrays, ``retrieve`` returns them."""

    manifest = None

    def __init__(self):
        self.arrays = {}
        self.error = 0.25

    def variables(self):
        return list(self.arrays)

    def open_session(self):
        return EchoSession(self)

    def ingest(self, arrays, **options):
        self.arrays = arrays
        return _Report(list(arrays))

    def compact(self):
        return CompactionReport(1, 2, 3, 4, 5, 6)


class EchoSession:
    def __init__(self, service):
        self.service = service

    def retrieve(self, requests, **options):
        return SimpleNamespace(
            all_satisfied=True, estimated_errors={requests[0].name: self.service.error},
            rounds=2, total_bytes=10, degraded=False, degraded_reason=None,
            hedged_fetches=0, data=self.service.arrays,
        )

    def bytes_retrieved(self):
        return 20

    def close(self):
        pass


@pytest.fixture(scope="module")
def echo():
    service = EchoService()
    server = RetrievalServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(*server.address, timeout=TIMEOUT)
    yield service, server, client
    client.close()
    server.shutdown()
    server.server_close()


def dial(server) -> socket.socket:
    return socket.create_connection(server.address, timeout=TIMEOUT)


def reply(sock) -> dict:
    """Read one payload-free reply line; a hang fails on the socket timeout."""
    line = sock.makefile("rb").readline()
    assert line.endswith(b"\n"), line
    return json.loads(line)


DTYPES = ["<f4", "<f8", "<i8", "|u1", "|b1", ">f8", ">i4"]


def _layout(array, layout):
    if layout == "fortran":
        return np.asfortranarray(array)
    if layout == "strided" and array.ndim:
        return np.repeat(array, 2, axis=-1)[..., ::2]
    return array


@st.composite
def array_sets(draw):
    names = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3,
                          unique=True))
    out = {}
    for name in names:
        dtype = np.dtype(draw(st.sampled_from(DTYPES)))
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
        array = draw(hnp.arrays(dtype, shape))
        out[name] = _layout(array, draw(st.sampled_from(["c", "fortran", "strided"])))
    return out


def assert_same(got, sent):
    assert set(got) == set(sent)
    for name, array in sent.items():
        assert got[name].dtype == array.dtype, name
        assert got[name].shape == array.shape, name
        assert got[name].tobytes() == array.tobytes(), name
        assert got[name].flags.writeable, name


class TestServiceRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(arrays=array_sets())
    def test_ingest_then_retrieve_with_data(self, echo, arrays):
        service, _, client = echo
        assert client.ingest(arrays) == {"variables": list(arrays)}
        assert_same(service.arrays, arrays)  # what the server decoded
        response = client.retrieve("identity", ["x"], 1e-3, include_data=True)
        assert_same(response["data"], arrays)  # what came back

    def test_retrieve_without_data_has_no_payloads(self, echo):
        service, _, client = echo
        service.arrays = {"a": np.arange(3.0)}
        assert "data" not in client.retrieve("identity", ["x"], 1e-3)

    def test_fleet_sized_reply_is_raw_bytes(self, echo):
        service, server, _ = echo
        rng = np.random.default_rng(0)
        service.arrays = {f"v{i}": rng.normal(size=(16, 48, 48)) for i in range(3)}
        with dial(server) as sock:
            sock.sendall(b'{"op": "retrieve", "qoi": "identity", "fields": ["x"], '
                         b'"tolerance": 0.001, "include_data": true}\n')
            stream = sock.makefile("rb")
            header = stream.readline()
            lengths = json.loads(header)["lengths"]
            assert sum(lengths) == 884_736  # 3 x 16 x 48 x 48 x 8 B
            assert len(header) < 600  # was 1,180,236 B as one base64 line
            body = stream.read(sum(lengths))
            # nothing else follows: the next request's reply is the next line
            sock.sendall(b'{"op": "info"}\n')
            assert json.loads(stream.readline())["ok"]
        data = np.frombuffer(body, "<f8").reshape(3, 16, 48, 48)
        for i in range(3):
            assert np.array_equal(data[i], service.arrays[f"v{i}"])


class _LineServer(socketserver.ThreadingTCPServer):
    """A fake peer: records each request line and answers ``respond(line)``.

    ``respond`` returns the bytes to send back; ``None`` hangs up.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, respond):
        self.respond = respond
        self.seen = []
        self.connections = 0
        super().__init__(("127.0.0.1", 0), _LineHandler)
        threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        ).start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        self.server_close()


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self):
        self.server.connections += 1
        for line in self.rfile:
            self.server.seen.append(line)
            answer = self.server.respond(line)
            if answer is None:
                return
            self.wfile.write(answer)
            if not answer.endswith(b"\n"):
                return  # a cut reply: hang up mid-frame


class TestJsonLinesUnchanged:
    """Array-free ops are byte-for-byte the JSON lines they always were."""

    def test_client_request_lines(self):
        answers = {
            b"info": b'{"ok": true, "variables": {}}\n',
            b"retrieve": b'{"ok": true, "estimated_error": "inf"}\n',
        }

        def respond(line):
            return answers[json.loads(line)["op"].encode()]

        with _LineServer(respond) as fake:
            with ServiceClient(*fake.server_address, timeout=TIMEOUT) as client:
                assert client.info() == {}
                client.retrieve("vtot", ["vx", "vy", "vz"], 1e-3, qoi_range=2.5,
                                priority=-1, deadline_ms=250)
        assert fake.seen == [
            b'{"op": "info"}\n',
            b'{"op": "retrieve", "qoi": "vtot", "fields": ["vx", "vy", "vz"], '
            b'"tolerance": 0.001, "qoi_range": 2.5, "include_data": false, '
            b'"max_rounds": 100, "priority": -1, "deadline_ms": 250.0}\n',
        ]

    @pytest.mark.parametrize("request_line, reply_line", [
        (b'{"op": "compact"}\n',
         b'{"ok": true, "report": {"compactions": 1, "removed_files": 2, '
         b'"reclaimed_bytes": 3, "log_bytes_before": 4, "log_bytes_after": 5, '
         b'"live_fragments": 6}}\n'),
        (b'{"op": "info"}\n', b'{"ok": true, "variables": {"a": {}}}\n'),
        (b'{"op": "frobnicate"}\n', b'{"ok": false, "error": "unknown op \'frobnicate\'"}\n'),
        (b'{"op": "retrieve", "qoi": "identity", "fields": ["a"], "tolerance": 0.1}\n',
         b'{"ok": true, "satisfied": true, "estimated_error": "inf", "rounds": 2, '
         b'"bytes_retrieved": 10, "session_bytes": 20, "degraded": false, '
         b'"degraded_reason": null, "hedged_fetches": 0}\n'),
    ])
    def test_server_reply_lines(self, echo, request_line, reply_line):
        service, server, _ = echo
        service.arrays, service.error = {"a": np.zeros(1)}, float("inf")
        try:
            with dial(server) as sock:
                sock.sendall(request_line)
                assert sock.makefile("rb").readline() == reply_line
        finally:
            service.error = 0.25


class TestHostileFrames:
    """Every bad frame gets a typed ``ok: false`` inside a socket timeout."""

    def _closed(self, sock):
        try:
            return sock.recv(1) == b""
        except ConnectionResetError:
            return True

    def test_oversized_header(self, echo, monkeypatch):
        _, server, _ = echo
        monkeypatch.setattr(wire, "MAX_HEADER_BYTES", 256)
        with dial(server) as sock:
            sock.sendall(b'{"op": "info", "pad": "' + b"x" * 300)
            answer = reply(sock)
            assert answer == {"ok": False, "error": "FrameError: frame header over 256 bytes"}
            assert self._closed(sock)

    def test_truncated_header(self, echo):
        _, server, _ = echo
        with dial(server) as sock:
            sock.sendall(b'{"op": "in')
            sock.shutdown(socket.SHUT_WR)
            assert reply(sock)["error"].startswith("ConnectionError: frame header cut short")
            assert self._closed(sock)

    def test_truncated_payload(self, echo):
        _, server, _ = echo
        with dial(server) as sock:
            sock.sendall(b'{"op": "ingest", "variables": [["x", "<f8", [8]]], '
                         b'"lengths": [64]}\n' + bytes(10))
            sock.shutdown(socket.SHUT_WR)
            assert reply(sock)["error"] == (
                "ConnectionError: frame body cut short at 10 of 64 bytes"
            )
            assert self._closed(sock)

    def test_negative_length(self, echo):
        _, server, _ = echo
        with dial(server) as sock:
            sock.sendall(b'{"op": "ingest", "lengths": [-5]}\n')
            assert reply(sock)["error"].startswith("FrameError: frame lengths")
            assert self._closed(sock)

    @pytest.mark.parametrize("descriptor, length, message", [
        (b'["x", "|O", [1]]', 8, "dtype '|O' is not numeric or bool"),
        (b'["x", "<f8", [3]]', 16, "16 bytes for shape [3] of <f8"),
    ])
    def test_bad_array_in_a_good_frame_keeps_the_connection(
        self, echo, descriptor, length, message
    ):
        _, server, _ = echo
        with dial(server) as sock:
            sock.sendall(b'{"op": "ingest", "variables": [' + descriptor
                         + b'], "lengths": [%d]}\n' % length + bytes(length))
            stream = sock.makefile("rb")
            answer = json.loads(stream.readline())
            assert not answer["ok"] and answer["error"].startswith("FrameError")
            assert message in answer["error"]
            sock.sendall(b'{"op": "info"}\n')  # the stream position is intact
            assert json.loads(stream.readline())["ok"]

    def test_client_refuses_an_object_array(self, echo):
        _, _, client = echo
        with pytest.raises(FrameError):
            client.ingest({"x": np.array([object()])})

    def test_client_sees_a_cut_reply_as_connection_error(self):
        cut = b'{"ok": true, "data": [["x", "<f8", [4]]], "lengths": [32]}\n' + bytes(10)
        with _LineServer(lambda line: cut) as fake:
            client = ServiceClient(*fake.server_address, timeout=TIMEOUT)
            with pytest.raises(ConnectionError, match="cut short at 10 of 32"):
                client.retrieve("identity", ["x"], 1e-3, include_data=True)
            client.close()
        assert fake.connections == 2  # re-dialed once, the whole frame resent
        assert fake.seen[0] == fake.seen[1]

    def test_client_sees_a_malformed_reply_as_frame_error(self):
        with _LineServer(lambda line: b'{"ok": true, "lengths": [-1]}\n') as fake:
            client = ServiceClient(*fake.server_address, timeout=TIMEOUT)
            with pytest.raises(FrameError):
                client.info()
            client.close()

    def test_server_error_reply_is_a_service_error(self, echo):
        _, _, client = echo
        with pytest.raises(ServiceError, match="FrameError"):
            client._call({"op": "ingest", "variables": [["x", "|O", [1]]]}, [b"12345678"])
        assert client.info() is not None  # same connection, still usable


# ---------------------------------------------------------------------------
# the HTTP fragment store
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def http_server():
    inner = FragmentStore()
    inner.put("pressure", "level0/plane3", b"abc")
    inner.put("v", "big", bytes(range(256)) * 8)
    with HTTPFragmentServer(inner) as server:
        yield inner, server


@pytest.fixture
def http_pair(http_server):
    inner, server = http_server
    client = HTTPFragmentStore(*server.address, timeout=TIMEOUT)
    yield inner, server, client
    client.close()


@pytest.fixture
def wire_log(monkeypatch):
    """Every byte the HTTP client sends and the HTTP server writes."""
    log = SimpleNamespace(sent=bytearray(), served=bytearray())
    send, write = http.client.HTTPConnection.send, socketserver._SocketWriter.write

    def logged_send(conn, data):
        log.sent += data
        return send(conn, data)

    def logged_write(writer, data):
        log.served += data
        return write(writer, data)

    monkeypatch.setattr(http.client.HTTPConnection, "send", logged_send)
    monkeypatch.setattr(socketserver._SocketWriter, "write", logged_write)
    return log


class TestHTTPBytesUnchanged:
    def test_batch_put_request(self, http_pair, wire_log):
        inner, server, client = http_pair
        client.put_many([("p", "level0/plane3", b"xyz"), ("v", "s:1", b"\x00\n")])
        body = (b'{"keys": [["p", "level0/plane3"], ["v", "s:1"]], '
                b'"lengths": [3, 2]}\nxyz\x00\n')
        assert bytes(wire_log.sent) == (
            b"POST /v1/batch_put HTTP/1.1\r\nHost: %s:%d\r\n"
            b"Accept-Encoding: identity\r\nContent-Length: %d\r\n\r\n"
            % (server.address[0].encode(), server.address[1], len(body))
        ) + body
        assert inner.get("v", "s:1") == b"\x00\n"

    def test_batch_request_and_reply(self, http_pair, wire_log):
        _, _, client = http_pair
        out = client.get_many([("pressure", "level0/plane3"), ("v", "big")])
        assert out == {("pressure", "level0/plane3"): b"abc",
                       ("v", "big"): bytes(range(256)) * 8}
        assert all(type(p) is bytes for p in out.values())
        request_body = b'{"keys": [["pressure", "level0/plane3"], ["v", "big"]]}'
        assert bytes(wire_log.sent).endswith(
            b"Content-Length: %d\r\n\r\n" % len(request_body) + request_body
        )
        reply_body = b'{"lengths": [3, 2048]}\nabc' + bytes(range(256)) * 8
        head, _, served = bytes(wire_log.served).partition(b"\r\n\r\n")
        assert served == reply_body
        assert b"Content-Type: application/octet-stream\r\n" in head + b"\r\n"
        assert b"Content-Length: %d" % len(reply_body) in head

    def test_keep_alive_survives_a_framed_reply(self, http_pair):
        inner, _, client = http_pair
        inner.put("e", "empty", b"")
        for _ in range(3):
            assert client.get_many([("e", "empty")]) == {("e", "empty"): b""}
            client.put_many([("e", "x", b"1")])
        assert client.reconnects == 0


class TestHTTPHostileInput:
    @pytest.mark.parametrize("route", ["/v1/batch", "/v1/batch_put"])
    @pytest.mark.parametrize("length", [b"-1", b"abc", None, b"%d" % (1 << 40)])
    def test_bad_content_length_is_refused_without_a_hang(self, http_pair, route, length):
        _, server, _ = http_pair
        head = b"POST %s HTTP/1.1\r\nHost: x\r\n" % route.encode()
        if length is not None:
            head += b"Content-Length: " + length + b"\r\n"
        with socket.create_connection(server.address, timeout=3.0) as sock:
            sock.sendall(head + b"\r\n")
            response = sock.makefile("rb")
            assert response.readline().startswith(b"HTTP/1.1 400")
            headers = response.read()  # the server closes: read() returns
        assert b"Connection: close" in headers
        assert b"Content-Length must be" in headers

    def test_batch_put_frame_longer_than_its_body(self, http_pair):
        inner, server, _ = http_pair
        body = b'{"keys": [["v", "new"]], "lengths": [100]}\nabc'
        with socket.create_connection(server.address, timeout=3.0) as sock:
            sock.sendall(b"POST /v1/batch_put HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body) + body)
            answer = sock.makefile("rb").read()
        assert answer.startswith(b"HTTP/1.1 400")
        assert b"expected %d" % len(body) in answer
        assert not inner.has("v", "new")

    def test_batch_put_keys_and_lengths_must_pair(self, http_pair):
        inner, server, _ = http_pair
        conn = http.client.HTTPConnection(*server.address, timeout=3.0)
        body = b'{"keys": [["v", "a"], ["v", "b"]], "lengths": [3]}\nabc'
        conn.request("POST", "/v1/batch_put", body=body)
        response = conn.getresponse()
        assert response.status == 400 and b"mismatch" in response.read()
        conn.request("GET", "/v1/index")  # the body was consumed: keep-alive
        assert conn.getresponse().status == 200
        conn.close()
        assert not inner.has("v", "a")


class _FakeBatchServer(http.server.ThreadingHTTPServer):
    """Answers ``/v1/index`` honestly and ``/v1/batch`` with ``reply``."""

    daemon_threads = True

    def __init__(self, reply):
        self.reply = reply
        super().__init__(("127.0.0.1", 0), _FakeBatchHandler)
        threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        ).start()


class _FakeBatchHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_GET(self):
        body = json.dumps({"fragments": [
            {"variable": "v", "segment": s, "nbytes": 3} for s in "ab"
        ]}).encode()
        self._answer(body, len(body))

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body, declared = self.server.reply
        self._answer(body, declared)
        if declared != len(body):
            self.close_connection = True

    def _answer(self, body, declared):
        """Send *body*; ``Content-Length: declared``, none when it is -1."""
        self.send_response(200)
        if declared >= 0:
            self.send_header("Content-Length", str(declared))
        self.end_headers()
        self.wfile.write(body)


class TestPartialBatch:
    """``get_many`` never returns part of a batch."""

    @pytest.mark.parametrize("body, declared", [
        # one length for two keys, bytes add up: the old client returned {a}
        (b'{"lengths": [6]}\nabcdef', None),
        # cut mid-payload: Content-Length promises more than arrives
        (b'{"lengths": [3, 3]}\nabcd', len(b'{"lengths": [3, 3]}\nabcdef')),
        # lengths claim more than Content-Length holds
        (b'{"lengths": [3, 30]}\nabcdef', None),
        (b'{"lengths": [3, 3]', None),
        # no Content-Length and nothing before the close
        (b"", -1),
    ])
    def test_malformed_reply_raises_connection_error(self, body, declared):
        server = _FakeBatchServer((body, len(body) if declared is None else declared))
        try:
            client = HTTPFragmentStore(*server.server_address[:2], timeout=TIMEOUT)
            with pytest.raises(ConnectionError):
                client.get_many([("v", "a"), ("v", "b")])
            assert client.reads == 0
            client.close()
        finally:
            server.shutdown()
            server.server_close()
