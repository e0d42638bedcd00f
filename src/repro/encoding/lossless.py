"""Pluggable lossless (entropy) backends.

The paper's compressors finish with an entropy stage (custom Huffman +
zstd).  In pure Python the pragmatic default is :mod:`zlib` — DEFLATE is
itself LZ77 followed by Huffman coding and runs in C — while a true
canonical-Huffman backend is available for the entropy ablation study
(``tests/test_paper_claims.py``) and a raw pass-through backend serves as
the no-entropy baseline.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.encoding.bytecodec import decode_ints, encode_ints
from repro.encoding.huffman import HuffmanCodec


class ZlibBackend:
    """DEFLATE-based backend (default)."""

    name = "zlib"

    def __init__(self, level: int = 6):
        if not 0 <= level <= 9:
            raise ValueError("zlib level must be in [0, 9]")
        self.level = level

    def compress_bytes(self, payload: bytes) -> bytes:
        return zlib.compress(payload, self.level)

    def compress_runs(self, payload: bytes) -> bytes:
        """DEFLATE that searches only for runs (``Z_RLE``, matches at
        distance one), the structure of bitplane rows, at a fraction of
        the LZ77 search's time; it inflates like any zlib stream."""
        packer = zlib.compressobj(self.level, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
        return packer.compress(payload) + packer.flush()

    def decompress_bytes(self, payload: bytes, max_length: int | None = None) -> bytes:
        """Inflate *payload*; past *max_length* bytes, stop and raise ``ValueError``."""
        if max_length is None:
            return zlib.decompress(payload)
        inflater = zlib.decompressobj()
        out = inflater.decompress(payload, max_length + 1)
        if len(out) > max_length:
            raise ValueError(f"inflates past {max_length} bytes")
        if not inflater.eof:
            raise ValueError("incomplete or truncated zlib stream")
        return out

    def compress_ints(self, values: np.ndarray) -> bytes:
        return self.compress_bytes(encode_ints(values))

    def decompress_ints(self, payload: bytes) -> np.ndarray:
        return decode_ints(self.decompress_bytes(payload))


class RawBackend:
    """No-op backend: measures the cost of skipping entropy coding."""

    name = "raw"

    def compress_bytes(self, payload: bytes) -> bytes:
        return payload

    def decompress_bytes(self, payload: bytes, max_length: int | None = None) -> bytes:
        """*payload* itself; longer than *max_length* raises ``ValueError``."""
        if max_length is not None and len(payload) > max_length:
            raise ValueError(f"inflates past {max_length} bytes")
        return payload

    def compress_ints(self, values: np.ndarray) -> bytes:
        return encode_ints(values)

    def decompress_ints(self, payload: bytes) -> np.ndarray:
        return decode_ints(payload)


class HuffmanBackend:
    """Pure canonical-Huffman backend (the SZ-faithful entropy stage)."""

    name = "huffman"

    def __init__(self):
        self._codec = HuffmanCodec()

    def compress_bytes(self, payload: bytes) -> bytes:
        symbols = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
        encoded = self._codec.encode(symbols)
        return struct.pack("<Q", len(payload)) + encoded

    def decompress_bytes(self, payload: bytes, max_length: int | None = None) -> bytes:
        """Decode *payload*; a header claiming over *max_length* bytes raises
        ``ValueError`` before anything is decoded."""
        if len(payload) < 8:
            raise ValueError("Huffman byte stream shorter than its header")
        (n,) = struct.unpack_from("<Q", payload, 0)
        if max_length is not None and n > max_length:
            raise ValueError(f"inflates past {max_length} bytes")
        symbols = self._codec.decode(payload[8:])
        if symbols.size != n:
            raise ValueError("Huffman byte-stream length mismatch")
        return symbols.astype(np.uint8).tobytes()

    def compress_ints(self, values: np.ndarray) -> bytes:
        return self._codec.encode(np.asarray(values, dtype=np.int64).ravel())

    def decompress_ints(self, payload: bytes) -> np.ndarray:
        return self._codec.decode(payload)


_BACKENDS = {
    "zlib": ZlibBackend,
    "raw": RawBackend,
    "huffman": HuffmanBackend,
}


def get_backend(name: str = "zlib", **kwargs):
    """Instantiate a lossless backend by name (``zlib``/``raw``/``huffman``)."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown lossless backend {name!r}; options: {sorted(_BACKENDS)}")
    return cls(**kwargs)
