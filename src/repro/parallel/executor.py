"""Pluggable kernel executor with a zero-copy shared-memory fragment arena.

Retrieval is compute-bound once fragments are local: bitplane accumulate,
RHC2 Huffman decode and quantizer reconstruction all serialize on the GIL
when run from thread pools.  This module provides one submit/``run`` API
over three interchangeable backends:

``serial``
    Runs kernels inline on the calling thread.  The reference behaviour —
    the other backends must be bit-identical to it.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Helps only where
    kernels release the GIL (zlib), but needs no pickling.
``process``
    A persistent :class:`~concurrent.futures.ProcessPoolExecutor` whose
    workers read fragment payloads directly out of
    :mod:`multiprocessing.shared_memory` arena slabs.  Payload bytes are
    written once into a slab when fetched and never pickled or copied
    again between fetch, cache and decode: the cache stores an
    :class:`ArenaRef` (slab name, offset, length) and kernels attach the
    slab by name, so the only inter-process traffic per task is the
    24-byte reference and the (much smaller) kernel result.

Kernels are module-level functions registered in :data:`KERNELS` so they
pickle by name.  A dead worker process must never hang or lose a round:
pool-infrastructure failures (:class:`BrokenProcessPool`, a severed result
pipe) are replayed inline on the submitting thread and the executor
degrades permanently to in-process execution, counting the event in
``stats().fallbacks``.  Genuine kernel exceptions propagate unchanged.
"""

from __future__ import annotations

import atexit
import concurrent.futures as _futures
import multiprocessing
import os
import threading
import zlib
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

try:
    from multiprocessing import resource_tracker as _resource_tracker
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - shared_memory ships with CPython 3.8+
    _resource_tracker = None
    _shared_memory = None

__all__ = [
    "ArenaLookupError",
    "ArenaRef",
    "ArenaStats",
    "ExecutorStats",
    "KERNELS",
    "KernelTask",
    "ProcessKernelExecutor",
    "SerialKernelExecutor",
    "SlabArena",
    "ThreadKernelExecutor",
    "as_completed_tasks",
    "make_executor",
    "merge_magnitude_bytes",
]

DEFAULT_SLAB_BYTES = 8 << 20
#: payloads smaller than this stay plain ``bytes`` in the cache — the
#: per-entry slab bookkeeping (and the risk of handing a memoryview to
#: JSON/metadata consumers) is not worth it below a few KiB
ARENA_MIN_BYTES = 4096
#: decoders skip the executor for streams smaller than this many elements;
#: task submission overhead dominates below it
OFFLOAD_MIN_ELEMENTS = 4096
#: single-payload kernels (snapshot decompress, lossless tail) skip the
#: executor below this many payload bytes
OFFLOAD_MIN_BYTES = 1 << 14

_EXECUTOR_ENV = "REPRO_EXECUTOR"
_WORKERS_ENV = "REPRO_EXECUTOR_WORKERS"
_START_METHOD_ENV = "REPRO_EXECUTOR_START_METHOD"


class ArenaLookupError(RuntimeError):
    """An :class:`ArenaRef` points at a slab that has been reclaimed.

    Callers holding a stale handle (e.g. the cache evicted the entry
    between fetch and decode) should fall back to re-fetching the payload;
    the condition is a performance event, never a correctness one.
    """


class ArenaRef(NamedTuple):
    """Picklable handle to a byte range inside a shared-memory slab."""

    slab: str
    offset: int
    length: int


@dataclass(frozen=True)
class ArenaStats:
    """Point-in-time accounting for a :class:`SlabArena`."""

    slabs: int
    zombie_slabs: int
    entries: int
    resident_bytes: int
    allocated_bytes: int
    bytes_written: int


@dataclass(frozen=True)
class ExecutorStats:
    """Task accounting for a :class:`KernelExecutor` backend."""

    backend: str
    workers: int
    tasks: int
    fallbacks: int


class _Slab:
    __slots__ = ("name", "shm", "size", "used", "entries", "sealed")

    def __init__(self, shm):
        self.name = shm.name
        self.shm = shm
        self.size = shm.size
        self.used = 0
        self.entries: dict[int, int] = {}  # offset -> refcount
        self.sealed = False


# Buffers resolvable in *this* process: slabs created by a local SlabArena
# plus slabs attached on demand inside worker processes.  Forked workers
# inherit the parent's mappings, so most lookups hit without a re-attach.
_ATTACHED: dict[str, object] = {}
_ATTACH_LOCK = threading.Lock()


def _attach_slab(name: str):
    """Attach a shared-memory slab by name (worker side), memoized."""
    if _shared_memory is None:  # pragma: no cover
        raise ArenaLookupError("multiprocessing.shared_memory unavailable")
    with _ATTACH_LOCK:
        shm = _ATTACHED.get(name)
        if shm is not None:
            return shm
        try:
            shm = _shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            raise ArenaLookupError(f"slab {name!r} has been reclaimed") from None
        # On CPython <= 3.12 attaching registers the segment with the
        # resource tracker, which would unlink it when this process exits
        # even though the creator still uses it (bpo-39959).
        if _resource_tracker is not None:
            try:
                _resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
        _ATTACHED[name] = shm
        return shm


def _materialize(payload):
    """Resolve a kernel payload argument to a readable buffer.

    Accepts raw ``bytes``/``memoryview`` (passed through) or an
    :class:`ArenaRef`, which resolves to a read-only view over the shared
    slab — in a worker this attaches the slab by name; in the submitting
    process it reuses the arena's own mapping.
    """
    if isinstance(payload, ArenaRef):
        shm = _ATTACHED.get(payload.slab)
        if shm is None:
            shm = _attach_slab(payload.slab)
        view = memoryview(shm.buf)[payload.offset : payload.offset + payload.length]
        return view.toreadonly()
    return payload


class SlabArena:
    """Bump allocator over shared-memory slabs with refcounted reclamation.

    ``write`` copies a payload into the current slab exactly once and
    returns an :class:`ArenaRef`; ``view`` serves read-only memoryviews
    over that range with no further copies.  Each entry carries a
    refcount (``incref``/``decref``); a sealed slab whose entries all hit
    zero is unlinked.  If live memoryviews still export a slab's buffer
    when it is reclaimed, the slab is unlinked but kept as a *zombie*
    (mapping intact, so existing views stay readable) and closed on a
    later sweep once the views are gone — eviction therefore never
    invalidates a handed-out view.
    """

    def __init__(self, slab_bytes: int = DEFAULT_SLAB_BYTES, min_bytes: int = ARENA_MIN_BYTES):
        if _shared_memory is None:  # pragma: no cover
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self.slab_bytes = int(slab_bytes)
        self.min_bytes = int(min_bytes)
        self._slabs: dict[str, _Slab] = {}
        self._head: _Slab | None = None
        self._zombies: list[_Slab] = []
        self._lock = threading.RLock()
        self._resident = 0
        self._written = 0
        self._closed = False

    def write(self, payload) -> ArenaRef:
        """Copy *payload* into a slab (the one and only copy); refcount 1."""
        data = memoryview(payload)
        if data.format != "B" or data.ndim != 1:
            data = data.cast("B")
        n = data.nbytes
        with self._lock:
            if self._closed:
                raise ArenaLookupError("arena is closed")
            self._sweep_zombies()
            slab = self._head
            if slab is None or slab.size - slab.used < n:
                if slab is not None:
                    self._seal(slab)
                slab = self._new_slab(max(n, self.slab_bytes))
                self._head = slab
            offset = slab.used
            slab.shm.buf[offset : offset + n] = data
            slab.used = offset + n
            slab.entries[offset] = 1
            self._resident += n
            self._written += n
            return ArenaRef(slab.name, offset, n)

    def view(self, ref: ArenaRef) -> memoryview:
        """Read-only memoryview over *ref*'s bytes; no copy."""
        with self._lock:
            slab = self._slabs.get(ref.slab)
            if slab is None:
                raise ArenaLookupError(f"slab {ref.slab!r} has been reclaimed")
            view = memoryview(slab.shm.buf)[ref.offset : ref.offset + ref.length]
            return view.toreadonly()

    def incref(self, ref: ArenaRef) -> None:
        """Add a reference to *ref*'s entry (pairs with :meth:`decref`)."""
        with self._lock:
            slab = self._slabs.get(ref.slab)
            if slab is None or ref.offset not in slab.entries:
                raise ArenaLookupError(f"entry {ref!r} has been reclaimed")
            slab.entries[ref.offset] += 1

    def decref(self, ref: ArenaRef) -> None:
        """Drop a reference; reclaims the slab when it holds no live entries."""
        with self._lock:
            slab = self._slabs.get(ref.slab)
            if slab is None:
                return
            count = slab.entries.get(ref.offset)
            if count is None:
                return
            if count > 1:
                slab.entries[ref.offset] = count - 1
                return
            del slab.entries[ref.offset]
            self._resident -= ref.length
            if slab.sealed and not slab.entries:
                self._reclaim(slab)
            self._sweep_zombies()

    def charged_bytes(self, ref: ArenaRef) -> int:
        """Bytes this entry occupies in the arena (its budget charge)."""
        return ref.length

    @property
    def resident_bytes(self) -> int:
        """Bytes held by live entries across all slabs."""
        with self._lock:
            return self._resident

    def stats(self) -> ArenaStats:
        """Snapshot of slab/entry/byte accounting."""
        with self._lock:
            return ArenaStats(
                slabs=len(self._slabs),
                zombie_slabs=len(self._zombies),
                entries=sum(len(s.entries) for s in self._slabs.values()),
                resident_bytes=self._resident,
                allocated_bytes=sum(s.size for s in self._slabs.values()),
                bytes_written=self._written,
            )

    def close(self) -> None:
        """Unlink every slab.  Live views stay readable until released."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._head = None
            for slab in list(self._slabs.values()):
                slab.entries.clear()
                self._reclaim(slab)
            self._resident = 0
            self._sweep_zombies()

    # -- internals ------------------------------------------------------

    def _new_slab(self, size: int) -> _Slab:
        shm = _shared_memory.SharedMemory(create=True, size=size)
        slab = _Slab(shm)
        self._slabs[slab.name] = slab
        with _ATTACH_LOCK:
            _ATTACHED[slab.name] = shm
        return slab

    def _seal(self, slab: _Slab) -> None:
        slab.sealed = True
        if slab is self._head:
            self._head = None
        if not slab.entries:
            self._reclaim(slab)

    def _reclaim(self, slab: _Slab) -> None:
        self._slabs.pop(slab.name, None)
        if slab is self._head:
            self._head = None
        try:
            slab.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double reclaim
            pass
        if not self._try_close(slab):
            self._zombies.append(slab)

    def _try_close(self, slab: _Slab) -> bool:
        try:
            slab.shm.close()
        except BufferError:
            # a handed-out memoryview still exports the buffer; the
            # unlinked mapping stays valid, so readers are unaffected —
            # retry on a later write/decref sweep
            return False
        with _ATTACH_LOCK:
            _ATTACHED.pop(slab.name, None)
        return True

    def _sweep_zombies(self) -> None:
        self._zombies = [z for z in self._zombies if not self._try_close(z)]


# ---------------------------------------------------------------------------
# Kernels — module-level so the process backend pickles them by name.
# Heavyweight imports happen inside each kernel to avoid import cycles
# (encoding/compressor modules are themselves executor clients).
# ---------------------------------------------------------------------------


def merge_magnitude_bytes(dst: np.ndarray, payload) -> None:
    """OR a worker's partial magnitude-byte matrix into *dst* in place.

    Bit-exact regardless of merge order: each plane occupies a disjoint
    bit position, so the byte-wise OR is commutative and associative.
    """
    partial = np.frombuffer(payload, dtype=np.uint8).reshape(dst.shape)
    np.bitwise_or(dst, partial, out=dst)


def _as_f64(data, shape):
    """Resolve an array argument shipped as ndarray, bytes or ArenaRef."""
    if isinstance(data, np.ndarray):
        return data
    return np.frombuffer(_materialize(data), dtype=np.float64).reshape(shape)


def _kernel_ping(value):
    return value


def _kernel_slab_probe(payload):
    """Diagnostic: where and what a worker actually reads for *payload*."""
    view = _materialize(payload)
    ref = payload if isinstance(payload, ArenaRef) else None
    return (ref, len(view), bytes(view[:16]), os.getpid())


def _kernel_bitplane_accumulate(items, num_planes, size, backend_name):
    """Decode a chunk of bitplane segments into a partial magnitude matrix.

    Returns the packed ``(size, width)`` uint8 matrix bytes; the parent
    ORs partials from all chunks together (see
    :func:`merge_magnitude_bytes`), reproducing the serial accumulate
    bit-for-bit.
    """
    from repro.encoding.bitplane import _decompress_segment
    from repro.encoding.lossless import get_backend
    from repro.utils.bits import accumulate_bitplanes, element_byte_width

    backend = get_backend(backend_name)
    num_bytes = (size + 7) // 8
    rows = []
    for plane, payload in items:
        raw = _decompress_segment(backend, _materialize(payload))
        rows.append((plane, np.frombuffer(raw, dtype=np.uint8, count=num_bytes)))
    out = np.zeros((size, element_byte_width(num_planes)), dtype=np.uint8)
    accumulate_bitplanes(rows, num_planes, out)
    return out.tobytes()


def _kernel_bitplane_encode(data, shape, num_planes, backend_name):
    from repro.encoding.bitplane import BitplaneEncoder

    stream = BitplaneEncoder(num_planes=num_planes, backend=backend_name).encode(
        _as_f64(data, shape)
    )
    return (
        stream.shape,
        stream.exponent,
        stream.num_planes,
        stream.sign_segment,
        list(stream.plane_segments),
    )


def _kernel_huffman_encode(symbols):
    from repro.encoding.huffman import HuffmanCodec

    return HuffmanCodec().encode(np.asarray(symbols))


def _kernel_huffman_decode(payload):
    from repro.encoding.huffman import HuffmanCodec

    return HuffmanCodec().decode(_materialize(payload))


def _kernel_sz3_decompress(payload, backend_name, max_code):
    from repro.compressors.sz3 import SZ3Blob, SZ3Compressor

    blob = SZ3Blob(payload=_materialize(payload))
    return SZ3Compressor(backend=backend_name, max_code=max_code).decompress(blob)


def _kernel_dequantize(codes, shape, outlier_mask, outlier_values, eb):
    from repro.encoding.quantizer import LinearQuantizer, QuantizedField

    field = QuantizedField(
        codes=np.asarray(codes, dtype=np.int32).reshape(shape),
        outlier_mask=np.asarray(outlier_mask, dtype=bool).reshape(shape),
        outlier_values=np.asarray(outlier_values, dtype=np.float64),
        eb=eb,
    )
    return LinearQuantizer().dequantize(field)


def _kernel_lossless_tail(payload, shape):
    raw = zlib.decompress(_materialize(payload))
    return np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()


def _kernel_ingest_encode(refactorer, name, data, shape):
    from repro.core.ingest import IngestPipeline

    return IngestPipeline._encode(refactorer, name, _as_f64(data, shape))


KERNELS = {
    "ping": _kernel_ping,
    "slab_probe": _kernel_slab_probe,
    "bitplane_accumulate": _kernel_bitplane_accumulate,
    "bitplane_encode": _kernel_bitplane_encode,
    "huffman_encode": _kernel_huffman_encode,
    "huffman_decode": _kernel_huffman_decode,
    "sz3_decompress": _kernel_sz3_decompress,
    "dequantize": _kernel_dequantize,
    "lossless_tail": _kernel_lossless_tail,
    "ingest_encode": _kernel_ingest_encode,
}


def _run_kernel(name, args):
    return KERNELS[name](*args)


def _warmup(value):
    return value


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class KernelTask:
    """Handle for a submitted kernel invocation; ``result()`` blocks."""

    __slots__ = ("kernel", "args", "_executor", "_future", "_value", "_error")

    def __init__(self, executor, kernel, args, future=None, value=None, error=None):
        self._executor = executor
        self.kernel = kernel
        self.args = args
        self._future = future
        self._value = value
        self._error = error

    def result(self, timeout=None):
        """Return the kernel's value, replaying inline on pool failure."""
        if self._future is None:
            if self._error is not None:
                raise self._error
            return self._value
        try:
            return self._future.result(timeout)
        except (BrokenProcessPool, _futures.CancelledError, EOFError) as exc:
            return self._executor._replay(self, exc)

    def done(self) -> bool:
        """True once the result is available (inline tasks always are)."""
        return self._future is None or self._future.done()


def as_completed_tasks(tasks):
    """Yield *tasks* as results become ready; inline tasks come first."""
    tasks = list(tasks)
    pending = {t._future: t for t in tasks if t._future is not None}
    for task in tasks:
        if task._future is None:
            yield task
    while pending:
        done, _ = _futures.wait(list(pending), return_when=_futures.FIRST_COMPLETED)
        for future in done:
            yield pending.pop(future)


class KernelExecutor:
    """Common bookkeeping for the three kernel execution backends."""

    backend = "serial"

    def __init__(self):
        self._tasks = 0
        self._fallbacks = 0
        self.arena: SlabArena | None = None
        self.closed = False

    @property
    def workers(self) -> int:
        """Degree of kernel parallelism this backend can deliver."""
        return 1

    def submit(self, kernel: str, *args) -> KernelTask:
        """Schedule ``KERNELS[kernel](*args)``; returns a :class:`KernelTask`."""
        raise NotImplementedError

    def run(self, kernel: str, *args):
        """Submit and wait — convenience for single-kernel callers."""
        return self.submit(kernel, *args).result()

    def stats(self) -> ExecutorStats:
        """Task/fallback counters for surfacing in service stats."""
        return ExecutorStats(
            backend=self.backend,
            workers=self.workers,
            tasks=self._tasks,
            fallbacks=self._fallbacks,
        )

    def close(self) -> None:
        """Release pools and (if owned) the arena."""
        self.closed = True

    def _inline(self, kernel, args) -> KernelTask:
        try:
            return KernelTask(self, kernel, args, value=_run_kernel(kernel, args))
        except Exception as exc:  # surfaced at .result(), like a future
            return KernelTask(self, kernel, args, error=exc)


class SerialKernelExecutor(KernelExecutor):
    """Runs every kernel inline — the bit-exactness reference backend."""

    backend = "serial"

    def submit(self, kernel, *args):
        self._tasks += 1
        return self._inline(kernel, args)


class ThreadKernelExecutor(KernelExecutor):
    """Thread-pool backend; parallel only where kernels release the GIL."""

    backend = "thread"

    def __init__(self, workers: int | None = None):
        super().__init__()
        self._workers = max(1, int(workers or os.cpu_count() or 1))
        self._pool = _futures.ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-kernel"
        )

    @property
    def workers(self) -> int:
        return self._workers

    def submit(self, kernel, *args):
        self._tasks += 1
        if self.closed:
            return self._inline(kernel, args)
        return KernelTask(self, kernel, args, future=self._pool.submit(_run_kernel, kernel, args))

    def close(self):
        super().close()
        self._pool.shutdown(wait=True, cancel_futures=True)

    def _replay(self, task, exc):
        self._fallbacks += 1
        return _run_kernel(task.kernel, task.args)


class ProcessKernelExecutor(KernelExecutor):
    """Persistent worker-pool backend reading payloads from arena slabs.

    Workers are pre-forked at construction (so the fork happens before the
    caller spins up its own threads) and stay warm for the executor's
    lifetime.  A broken pool — e.g. a worker killed mid-round — fails all
    pending futures; each affected task is replayed inline from its kept
    ``(kernel, args)`` and the executor degrades permanently to in-process
    execution rather than hanging or dropping work.
    """

    backend = "process"

    def __init__(
        self,
        workers: int | None = None,
        arena: SlabArena | None = None,
        start_method: str | None = None,
    ):
        super().__init__()
        self._workers = max(1, int(workers or os.cpu_count() or 1))
        self._own_arena = arena is None
        self.arena = arena if arena is not None else SlabArena()
        self._broken = False
        self._lock = threading.Lock()
        method = start_method or os.environ.get(_START_METHOD_ENV) or "fork"
        if method not in multiprocessing.get_all_start_methods():  # pragma: no cover
            method = "spawn"
        try:
            context = multiprocessing.get_context(method)
            self._pool = _futures.ProcessPoolExecutor(
                max_workers=self._workers, mp_context=context
            )
            list(self._pool.map(_warmup, range(self._workers)))
        except Exception:  # pragma: no cover - no fork/spawn available
            self._pool = None
            self._broken = True

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def broken(self) -> bool:
        """True once the pool has died and execution degraded inline."""
        return self._broken

    def submit(self, kernel, *args):
        self._tasks += 1
        if self._broken or self.closed:
            return self._inline(kernel, args)
        try:
            future = self._pool.submit(_run_kernel, kernel, _prep_args(args))
        except (BrokenProcessPool, RuntimeError):
            self._note_broken()
            self._fallbacks += 1
            return self._inline(kernel, args)
        return KernelTask(self, kernel, args, future=future)

    def worker_pids(self) -> list[int]:
        """PIDs of the live pool workers (for fault-injection tests)."""
        if self._pool is None or self._pool._processes is None:
            return []
        return [p.pid for p in self._pool._processes.values()]

    def close(self):
        super().close()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
        if self._own_arena and self.arena is not None:
            self.arena.close()

    def _note_broken(self):
        with self._lock:
            if not self._broken:
                self._broken = True

    def _replay(self, task, exc):
        self._note_broken()
        self._fallbacks += 1
        return _run_kernel(task.kernel, task.args)


def _prep_args(args):
    """Make kernel args picklable: memoryviews become bytes (one copy).

    ArenaRefs pass through untouched — that is the zero-copy path; a raw
    memoryview only reaches here when a caller had no handle to offer, in
    which case shipping the bytes is correct, just not free.
    """
    return tuple(_prep_one(a) for a in args)


def _prep_one(value):
    if isinstance(value, memoryview):
        return bytes(value)
    if isinstance(value, tuple) and not isinstance(value, ArenaRef):
        return tuple(_prep_one(v) for v in value)
    if isinstance(value, list):
        return [_prep_one(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Construction — spec strings, env default, shared instances
# ---------------------------------------------------------------------------

_SHARED: dict[tuple, KernelExecutor] = {}
_SHARED_LOCK = threading.Lock()


def make_executor(spec=None, workers: int | None = None):
    """Resolve an ``executor=`` knob to a :class:`KernelExecutor` or None.

    *spec* may be an executor instance (returned as-is), one of the
    strings ``"serial"``/``"thread"``/``"process"``, or None — in which
    case the ``REPRO_EXECUTOR`` environment variable supplies a default
    (unset/empty means no executor, i.e. today's inline behaviour).
    String specs resolve to shared, process-wide instances keyed by
    ``(backend, workers)`` so repeated construction reuses one persistent
    pool; shared instances are shut down atexit.  ``REPRO_EXECUTOR_WORKERS``
    overrides the worker count when *workers* is not given.
    """
    if spec is None:
        spec = os.environ.get(_EXECUTOR_ENV) or None
        if spec is None:
            return None
    if not isinstance(spec, str):
        return spec
    name = spec.strip().lower()
    if name in ("", "none", "off"):
        return None
    if name not in ("serial", "thread", "process"):
        raise ValueError(f"unknown executor backend: {spec!r}")
    if workers is None:
        env_workers = os.environ.get(_WORKERS_ENV)
        workers = int(env_workers) if env_workers else None
    key = (name, workers)
    with _SHARED_LOCK:
        executor = _SHARED.get(key)
        if executor is None or executor.closed:
            if name == "serial":
                executor = SerialKernelExecutor()
            elif name == "thread":
                executor = ThreadKernelExecutor(workers=workers)
            else:
                executor = ProcessKernelExecutor(workers=workers)
            _SHARED[key] = executor
        return executor


def _close_shared():  # pragma: no cover - interpreter shutdown hook
    with _SHARED_LOCK:
        for executor in _SHARED.values():
            try:
                executor.close()
            except Exception:
                pass
        _SHARED.clear()


atexit.register(_close_shared)
