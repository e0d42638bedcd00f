"""Refactoring metadata (the ``{m_i}`` of Algorithms 1–2).

The retrieval side of the framework never sees the original data; what it
does see is this metadata: per-variable shape, dtype, value range (needed
by Algorithm 3's relative-to-absolute bound conversion) and the archived
segment inventory.  Manifests serialize to JSON so the archival and
retrieval stages can live on different machines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

#: Reserved store key under which a dataset's manifest header is archived,
#: so the CLI, the retrieval service, and the block-parallel drivers all
#: agree on where refactoring metadata lives.
MANIFEST_VARIABLE = "_dataset"
MANIFEST_SEGMENT = "manifest.json"
#: Archived layout written by :meth:`DatasetManifest.save_to`: a header
#: plus one ``var.<name>.json`` record per variable under ``_dataset``,
#: the only one :meth:`DatasetManifest.load_from` reads (format 1, one
#: ``manifest.json`` with every variable inline, is refused).
MANIFEST_FORMAT = 2
_RECORD_PREFIX = "var."
_RECORD_SUFFIX = ".json"


@dataclass
class VariableMetadata:
    """Archival metadata of one refactored variable."""

    name: str
    shape: tuple
    dtype: str
    value_min: float
    value_max: float
    compressor: str
    total_bytes: int
    segments: list = field(default_factory=list)

    @property
    def value_range(self) -> float:
        """``max - min`` (1.0 for constant fields, so ratios stay finite)."""
        r = self.value_max - self.value_min
        return r if r > 0 else 1.0

    @classmethod
    def from_array(cls, name, data, compressor, total_bytes, segments=None):
        """Build metadata by inspecting the original array."""
        import numpy as np

        data = np.asarray(data)
        return cls(
            name=name,
            shape=tuple(int(n) for n in data.shape),
            dtype=str(data.dtype),
            value_min=float(np.min(data)),
            value_max=float(np.max(data)),
            compressor=compressor,
            total_bytes=int(total_bytes),
            segments=list(segments or []),
        )


def _record_segment(name: str) -> str:
    """Segment name of one variable's manifest record."""
    return f"{_RECORD_PREFIX}{name}{_RECORD_SUFFIX}"


def _as_dict(meta: VariableMetadata) -> dict:
    """Field dict of *meta*, sharing (not copying) its segment list."""
    return {f.name: getattr(meta, f.name) for f in fields(meta)}


def _from_dict(raw, where: str) -> VariableMetadata:
    """Inverse of :func:`_as_dict`; ValueError naming *where* it came from."""
    try:
        return VariableMetadata(
            name=str(raw["name"]),
            shape=tuple(int(n) for n in raw["shape"]),
            dtype=str(raw["dtype"]),
            value_min=float(raw["value_min"]),
            value_max=float(raw["value_max"]),
            compressor=str(raw["compressor"]),
            total_bytes=int(raw["total_bytes"]),
            segments=[str(s) for s in raw.get("segments", ())],
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupt manifest record {where}: {exc!r}") from None


def _dumps(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


def _loads(payload, segment: str) -> dict:
    """Parse one archived manifest object; ValueError naming *segment*."""
    try:
        raw = json.loads(payload)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"corrupt manifest segment {segment!r}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"corrupt manifest segment {segment!r}: not a JSON object")
    return raw


@dataclass
class DatasetManifest:
    """All variables of one archived dataset.

    Archived (format 2) as a small header at ``(_dataset,
    manifest.json)`` plus one JSON record per variable at ``(_dataset,
    var.<name>.json)``, so a save writes what changed since this handle
    last met the store, not every variable ever ingested.
    """

    dataset: str
    variables: dict = field(default_factory=dict)
    # variables added since the last save: `_synced` lacks their records
    _dirty: set = field(default_factory=set, init=False, repr=False, compare=False)
    # the store this handle was loaded from or last saved to
    _synced: object = field(default=None, init=False, repr=False, compare=False)

    def add(self, meta: VariableMetadata) -> None:
        """Register (or replace) one variable's metadata."""
        self.variables[meta.name] = meta
        self._dirty.add(meta.name)

    def value_ranges(self) -> dict:
        """The ``{range_i}`` input of Algorithm 2."""
        return {name: m.value_range for name, m in self.variables.items()}

    def to_json(self) -> str:
        """Serialize to deterministic (sorted, indented) JSON."""
        payload = {
            "dataset": self.dataset,
            "variables": {k: _as_dict(v) for k, v in self.variables.items()},
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "DatasetManifest":
        """Inverse of :meth:`to_json`."""
        raw = json.loads(payload)
        manifest = cls(dataset=raw["dataset"])
        for name, v in raw["variables"].items():
            manifest.variables[name] = _from_dict(v, repr(name))
        return manifest

    def save_to(self, store) -> None:
        """Archive what *store* lacks of this manifest, in one ``put_many``.

        On the store this handle was loaded from or last saved to, that
        is the records of the variables :meth:`add` touched since; on
        any other store it is the header and every record.  Records are
        only ever written, never swept: two handles that each add a
        different variable both survive, and a fresh ``DatasetManifest``
        saved onto a store that already holds records leaves the other
        variables' records in place.
        """
        full = store is not self._synced
        names = self.variables if full else self._dirty
        items = [
            (MANIFEST_VARIABLE, _record_segment(name), _dumps(_as_dict(self.variables[name])))
            for name in sorted(names)
        ]
        if full:
            # last, so a store without atomic batches never shows a
            # format-2 header ahead of the records it stands for
            header = {"dataset": self.dataset, "format": MANIFEST_FORMAT}
            items.append((MANIFEST_VARIABLE, MANIFEST_SEGMENT, _dumps(header)))
        if items:
            store.put_many(items)
        self._dirty.clear()
        self._synced = store

    @classmethod
    def load_from(cls, store) -> "DatasetManifest":
        """Load the manifest archived in *store*; KeyError when absent.

        One ``get`` for the header and one ``get_many`` for every record
        the store's index lists.  ValueError, naming the segment, when
        the header or a record is not what :meth:`save_to` writes — a
        format-1 header (no ``format``, variables inline) included.
        """
        header = _loads(store.get(MANIFEST_VARIABLE, MANIFEST_SEGMENT), MANIFEST_SEGMENT)
        if "dataset" not in header or header.get("format") != MANIFEST_FORMAT:
            raise ValueError(
                f"corrupt manifest segment {MANIFEST_SEGMENT!r}: not a format "
                f"{MANIFEST_FORMAT} header (format 1 is no longer read: "
                f"re-archive from the source data)"
            )
        manifest = cls(dataset=header["dataset"])
        records = [
            (MANIFEST_VARIABLE, segment)
            for segment in store.segments(MANIFEST_VARIABLE)
            if segment.startswith(_RECORD_PREFIX) and segment.endswith(_RECORD_SUFFIX)
        ]
        if records:
            for (_, segment), payload in store.get_many(records).items():
                meta = _from_dict(_loads(payload, segment), segment)
                manifest.variables[meta.name] = meta
        manifest._synced = store
        return manifest
