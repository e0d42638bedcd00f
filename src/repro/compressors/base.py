"""Common interface of error-controlled progressive compressors.

Definition 1 of the paper requires two capabilities which this module
casts into abstract classes:

1. *refactor* the original data into progressive fragments for archiving
   (:class:`Refactorer` → :class:`Refactored`), and
2. *reconstruct* data from a prefix of the fragments such that the
   L-infinity error is below the bound associated with that prefix
   (:class:`ProgressiveReader`).

Readers are stateful and incremental: a second ``request`` with a tighter
bound fetches only the additional fragments, which is what makes
progressive retrieval cheaper than re-transferring a snapshot.
"""

from __future__ import annotations

import abc

import numpy as np


class ProgressiveReader(abc.ABC):
    """Stateful incremental reader over refactored fragments."""

    @property
    @abc.abstractmethod
    def bytes_retrieved(self) -> int:
        """Cumulative bytes fetched so far (the paper's retrieval size)."""

    @property
    @abc.abstractmethod
    def current_error_bound(self) -> float:
        """Guaranteed L-infinity bound of the current reconstruction.

        ``inf`` before the first request.
        """

    @abc.abstractmethod
    def request(self, eb: float) -> np.ndarray:
        """Fetch fragments until the guaranteed bound is <= *eb*.

        Returns the reconstruction.  If the representation cannot reach
        *eb*, everything is fetched and the best (possibly lossless)
        reconstruction is returned; check :attr:`current_error_bound`.
        """

    def plan_segments(self, eb: float) -> list | None:
        """Archive segments a ``request(eb)`` would consume from here.

        The pipelined retrieval engine calls this *before* ``request`` to
        batch-prefetch a whole round's fragments in one store pass.  The
        plan must be computed from metadata alone (no payload access, no
        state mutation) and name segments with the canonical
        :mod:`repro.utils.fragment_keys` vocabulary.  Readers that cannot plan
        return ``None``; their fragments are simply fetched on demand
        during decode, which is always correct — planning is purely a
        batching optimization.
        """
        return None

    def bound_after(self, eb: float) -> float:
        """The bound :attr:`current_error_bound` would report after ``request(eb)``.

        Algorithm 4 runs on this *before* anything is fetched: the
        retrieval loop prices a candidate bound by what the reader would
        actually achieve for it, not by the bound asked for.  Like
        :meth:`plan_segments` it must be computed from metadata alone
        (no payload access, no state mutation).  The default is the
        guarantee every reader gives — it achieves *eb* or better, and
        never loses what it already holds; readers whose achieved bound
        is a function of their plan override it with the exact value.
        """
        return min(float(eb), self.current_error_bound)

    def plan_token(self) -> tuple | None:
        """Hashable snapshot of the state :meth:`plan_segments` depends on.

        A service-level plan cache memoizes ``plan_segments`` results
        keyed on ``(variable, generation, plan_token(), eb)``: two
        readers of the same archived representation in the same
        incremental state plan identically, so the token must capture
        *exactly* the reader state the plan is a function of (consumed
        planes/snapshots, fetched coarse/lossless markers) — nothing
        less (stale plans would break bit-identity) and nothing more
        (over-keying just wastes the memo).  ``None`` (the default)
        means the reader's plans are not cacheable and every
        ``plan_segments`` call is computed fresh.
        """
        return None

    def state_after(self, eb: float) -> tuple | None:
        """The :meth:`plan_token` a ``request(eb)`` would leave, if shareable.

        A reader returns a token here only when its reconstruction is a
        pure function of that state, so that two readers of the same
        representation reaching the same token hold bit-identical
        arrays; such a reader also implements :meth:`adopt`.  Computed
        from metadata alone, like :meth:`plan_segments`.  ``None`` (the
        default) means states are not shared: every request decodes.
        """
        return None

    def adopt(self, eb: float, reconstruction: np.ndarray) -> np.ndarray:
        """Move to the state ``request(eb)`` would leave without decoding.

        *reconstruction* is that state's array, decoded by another reader
        of the same representation; bytes and bounds advance exactly as
        the request would advance them.  Only readers whose
        :meth:`state_after` returns a token implement this.
        """
        raise NotImplementedError(f"{type(self).__name__} does not share states")

    @abc.abstractmethod
    def reconstruct(self) -> np.ndarray:
        """Current reconstruction without fetching anything new."""


class Refactored(abc.ABC):
    """Archived progressive representation of one variable."""

    #: The variable's exact-zero set (§V-A), a
    #: :class:`~repro.core.masking.ZeroMask` or None.  Recorded at
    #: refactor time, archived with the fragments, and applied by every
    #: retriever the representation is handed to.
    zero_mask = None

    @property
    @abc.abstractmethod
    def total_bytes(self) -> int:
        """Size of all fragments (the archival footprint)."""

    @abc.abstractmethod
    def reader(self) -> ProgressiveReader:
        """Open a fresh progressive reader starting from zero fragments."""


class Refactorer(abc.ABC):
    """Factory producing :class:`Refactored` representations."""

    @abc.abstractmethod
    def refactor(self, data: np.ndarray) -> Refactored:
        """Refactor *data* into progressive fragments."""


_REGISTRY: dict = {}


def register_refactorer(name: str, factory) -> None:
    """Register a refactorer factory under *name* (used by benchmarks)."""
    _REGISTRY[name] = factory


def make_refactorer(name: str, **kwargs) -> Refactorer:
    """Instantiate a refactorer by its registry name.

    Known names: ``psz3``, ``psz3_delta``, ``pmgard`` (orthogonal basis)
    and ``pmgard_hb`` (hierarchical basis).
    """
    # populate lazily to avoid import cycles
    if not _REGISTRY:
        from repro.compressors.pmgard import PMGARDRefactorer
        from repro.compressors.psz3 import PSZ3Refactorer
        from repro.compressors.psz3_delta import PSZ3DeltaRefactorer
        from repro.compressors.pzfp import PZFPRefactorer

        register_refactorer("psz3", PSZ3Refactorer)
        register_refactorer("psz3_delta", PSZ3DeltaRefactorer)
        register_refactorer("pmgard", lambda **kw: PMGARDRefactorer(basis="orthogonal", **kw))
        register_refactorer("pmgard_hb", lambda **kw: PMGARDRefactorer(basis="hierarchical", **kw))
        register_refactorer("pzfp", PZFPRefactorer)
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown progressive compressor {name!r}; options: {sorted(_REGISTRY)}")
    return factory(**kwargs)
