"""One frame format for both wires: a JSON header line, then raw payloads.

Both servers of the program — the retrieval service's TCP protocol
(:mod:`repro.service.server`) and the HTTP fragment store's ``/batch``
and ``/batch_put`` bodies (:mod:`repro.storage.remote`) — exchange the
same unit::

    frame   = header-line payload*
    header  = one JSON object, UTF-8, ending in b"\\n"
    payload = exactly lengths[i] raw bytes, in order

A header that carries ``"lengths": [n0, n1, ...]`` is followed by
exactly ``n0 + n1 + ...`` bytes; a header without ``lengths`` is a
frame with no payloads, i.e. one plain JSON line.  The writer adds
``lengths`` as the header's last key, so a payload-free frame is
byte-for-byte ``json.dumps(header) + "\\n"``.

:func:`read_frame` is the one parser and it trusts nothing: the header
line is capped at :data:`MAX_HEADER_BYTES`, the payload total at
:data:`MAX_BODY_BYTES`, lengths must be non-negative integers, and a
caller that knows how many payloads (``count``) or how many bytes
(``size``) a frame must hold gets both checked before the body is read.
A malformed or over-limit frame raises :class:`FrameError` (a
``ValueError``); a stream that ends inside a frame raises
``ConnectionError``.  Either way the reader has lost its place in the
stream and must drop the connection.

Arrays travel as payloads described by ``[name, dtype.str, shape]``
triples (:func:`pack_arrays` / :func:`unpack_arrays`): numeric and bool
dtypes only, ``nbytes == prod(shape) * itemsize`` checked, decoded
arrays writable views of the one receive buffer — no ``.npy`` header,
no base64, no copy beyond the socket read.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

#: Longest header line :func:`read_frame` accepts, newline included.
MAX_HEADER_BYTES = 16 << 20

#: Largest payload total :func:`read_frame` accepts in one frame.
MAX_BODY_BYTES = 1 << 30

#: Payloads smaller than this are joined with their neighbours into one
#: write: copying a few small buffers costs less than a syscall each.
#: Larger payloads are written straight from their own buffer.
_JOIN_BELOW = 64 << 10

#: The dtype strings :func:`unpack_arrays` accepts (``dtype.str`` of a
#: bool, integer, float or complex dtype).
_DTYPE = re.compile(r"[<>|=]?[biufc]\d+")


class FrameError(ValueError):
    """A frame that is malformed, over a limit, or not what was expected."""


def frame_parts(header: dict, payloads=None) -> list:
    """The buffers that make up one frame, ready to write in order.

    *payloads* is ``None`` for a plain JSON line, or a sequence of flat
    byte buffers (``bytes``, ``bytearray``, one-dimensional byte
    ``memoryview``); their sizes become the header's ``lengths``.  The
    header line and payloads under 64 KiB are joined into shared parts;
    larger payloads are their own parts, never copied.
    """
    if payloads is None:
        return [json.dumps(header).encode() + b"\n"]
    lengths = [len(p) for p in payloads]
    pending = [json.dumps({**header, "lengths": lengths}).encode() + b"\n"]
    parts = []
    for payload, length in zip(payloads, lengths):
        if length < _JOIN_BELOW:
            pending.append(payload)
            continue
        if pending:
            parts.append(_joined(pending))
            pending = []
        parts.append(payload)
    if pending:
        parts.append(_joined(pending))
    return parts


def _joined(pieces: list):
    return pieces[0] if len(pieces) == 1 else b"".join(pieces)


def write_frame(write, header: dict, payloads=None) -> None:
    """Write one frame through *write* (``sendall``, ``wfile.write``, ...)."""
    for part in frame_parts(header, payloads):
        write(part)


def read_frame(rfile, count: int | None = None, size: int | None = None):
    """Read one frame from a binary stream; ``(header, payloads)`` or ``None``.

    ``None`` means the stream ended cleanly before a frame began (blank
    lines between frames are skipped).  *payloads* are memoryview
    slices of one writable ``bytearray``; the header comes back without
    its ``lengths`` key.  *count* requires that many payloads; *size*
    requires the whole frame to be exactly that many bytes (an HTTP
    ``Content-Length``), and caps the header read at it, so the reader
    never consumes bytes past the frame.

    Raises :class:`FrameError` for a header over :data:`MAX_HEADER_BYTES`
    or that is not a JSON object, for lengths that are not a list of
    non-negative integers, a payload total over :data:`MAX_BODY_BYTES`,
    or a *count* / *size* mismatch; ``ConnectionError`` when the stream
    ends inside the frame.
    """
    cap = MAX_HEADER_BYTES if size is None else min(MAX_HEADER_BYTES, size)
    while True:
        # one byte past the cap tells an over-long line from an exact one;
        # a sized frame is never read past its last byte
        line = rfile.readline(cap + 1 if size is None else cap) if cap else b""
        if not line:
            if size is None:
                return None
            if not size:
                raise FrameError("empty frame")
            raise ConnectionError(f"frame of {size} bytes cut short at 0")
        if len(line) > cap or not line.endswith(b"\n"):
            if len(line) >= cap:
                raise FrameError(f"frame header over {cap} bytes")
            raise ConnectionError(f"frame header cut short at {len(line)} bytes")
        if line.strip() or size is not None:
            break
    try:
        header = json.loads(line)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise FrameError(f"frame header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise FrameError(f"frame header is a {type(header).__name__}, not an object")
    lengths = header.pop("lengths", [])
    if not isinstance(lengths, list) or not all(
        type(n) is int and n >= 0 for n in lengths
    ):
        raise FrameError("frame lengths must be a list of non-negative integers")
    total = sum(lengths)
    if total > MAX_BODY_BYTES:
        raise FrameError(f"frame body of {total} bytes over {MAX_BODY_BYTES}")
    if count is not None and len(lengths) != count:
        raise FrameError(f"frame carries {len(lengths)} payloads, expected {count}")
    if size is not None and len(line) + total != size:
        raise FrameError(
            f"frame of {len(line) + total} bytes, expected {size}"
        )
    body = bytearray(total)
    view = memoryview(body)
    got = 0
    while got < total:
        n = rfile.readinto(view[got:])
        if not n:
            raise ConnectionError(f"frame body cut short at {got} of {total} bytes")
        got += n
    payloads, offset = [], 0
    for n in lengths:
        payloads.append(view[offset:offset + n])
        offset += n
    return header, payloads


def pack_arrays(arrays: dict) -> tuple:
    """``(descriptors, payloads)`` for ``{name: array}``.

    Each descriptor is ``[name, dtype.str, shape]``; each payload a flat
    byte view of the array's C-ordered bytes — the array's own buffer
    when it is already C-contiguous, else one contiguous copy.  Raises
    :class:`FrameError` for a dtype :func:`unpack_arrays` would refuse.
    """
    descriptors, payloads = [], []
    for name, data in arrays.items():
        array = np.asarray(data)
        if array.dtype.kind not in "biufc":
            raise FrameError(
                f"array {name!r}: dtype {array.dtype} is not numeric or bool"
            )
        if not array.flags.c_contiguous:
            array = array.copy(order="C")
        descriptors.append([str(name), array.dtype.str, list(array.shape)])
        payloads.append(memoryview(array.reshape(-1).view(np.uint8)))
    return descriptors, payloads


def unpack_arrays(descriptors, payloads) -> dict:
    """Inverse of :func:`pack_arrays`: ``{name: writable array}``.

    Arrays are zero-copy views of *payloads* (which must be writable
    for the arrays to be).  Raises :class:`FrameError` unless every
    descriptor is ``[str, numeric-or-bool dtype string, list of
    non-negative ints]``, names are unique, descriptors and payloads
    pair up one to one, each payload holds exactly ``prod(shape) *
    itemsize`` bytes, and a bool payload holds only 0 and 1 bytes.
    """
    if not isinstance(descriptors, list) or len(descriptors) != len(payloads):
        raise FrameError(
            f"{len(payloads)} array payloads for descriptors {descriptors!r:.200}"
        )
    arrays = {}
    for descriptor, payload in zip(descriptors, payloads):
        try:
            name, dtype_str, shape = descriptor
        except (TypeError, ValueError):
            raise FrameError(f"bad array descriptor {descriptor!r:.200}") from None
        if not isinstance(name, str) or name in arrays:
            raise FrameError(f"bad or repeated array name {name!r:.200}")
        if not isinstance(dtype_str, str) or not _DTYPE.fullmatch(dtype_str):
            raise FrameError(f"array {name!r}: dtype {dtype_str!r:.50} is not numeric or bool")
        try:
            dtype = np.dtype(dtype_str)
        except (TypeError, ValueError):
            raise FrameError(f"array {name!r}: unknown dtype {dtype_str!r}") from None
        if not isinstance(shape, list) or not all(
            type(n) is int and n >= 0 for n in shape
        ):
            raise FrameError(f"array {name!r}: bad shape {shape!r:.200}")
        if math.prod(shape) * dtype.itemsize != len(payload):
            raise FrameError(
                f"array {name!r}: {len(payload)} bytes for shape {shape} of {dtype_str}"
            )
        array = np.frombuffer(payload, dtype=dtype).reshape(shape)
        if dtype.kind == "b" and array.size and array.view(np.uint8).max() > 1:
            raise FrameError(f"array {name!r}: bool payload holds bytes other than 0/1")
        arrays[name] = array
    return arrays
