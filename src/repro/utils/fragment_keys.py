"""Canonical segment names of archived progressive fragments.

The archive layer stores every fragment of a refactored variable under a
``(variable, segment)`` key; retrieval planning (deciding *which*
fragments a round needs before fetching any of them) requires the readers
to speak the same segment names.  Centralizing the naming here keeps
:mod:`repro.storage.archive` and the compressor readers in lockstep
without an import cycle — this module imports nothing from the package.
"""

from __future__ import annotations

from functools import lru_cache

#: JSON index describing how a variable was refactored.
INDEX_SEGMENT = "_index.json"

#: Verbatim (compressed) coarse approximation of a PMGARD variable.
COARSE_SEGMENT = "coarse"

#: Zlib-compressed exact tail of a PSZ3 / PSZ3-delta ladder.
LOSSLESS_SEGMENT = "lossless"

#: Packed bitmap of a variable's exact-zero points (§V-A); present only
#: when the variable has any, and then named by the index's
#: ``zero_mask`` field (the bitmap's shape).
ZERO_MASK_SEGMENT = "zero_mask"


def timestep_variable(name: str, step: int) -> str:
    """Archive key of one variable's appended timestep: ``pressure@t0042``.

    The streaming ingestion engine archives successive simulation
    timesteps of the same field under these qualified names, so
    appending a step never touches the fragments of earlier steps
    (mirroring the ``@bNNN`` block-qualification of
    :mod:`repro.parallel.blocks`).
    """
    return f"{name}@t{int(step):04d}"


def snapshot_segment(index: int) -> str:
    """Segment name of snapshot *index* of a PSZ3 / PSZ3-delta ladder."""
    return f"snapshot_{index:03d}"


def pmgard_signs_segment(level: int) -> str:
    """Segment name of one PMGARD level's packed sign bits."""
    return f"L{level:02d}_signs"


def pmgard_plane_segment(level: int, plane: int) -> str:
    """Segment name of one PMGARD level's bitplane *plane* (MSB first)."""
    return f"L{level:02d}_p{plane:02d}"


@lru_cache(maxsize=1024)
def pmgard_plane_segments(level: int, num_planes: int) -> tuple:
    """Every plane segment name of one PMGARD level, MSB plane first.

    Planning and size queries name the same few hundred segments every
    round; the (immutable) tuple is built once per ``(level, planes)``.
    """
    return tuple(pmgard_plane_segment(level, p) for p in range(num_planes))
