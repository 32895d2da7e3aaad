"""Timing records and datasets.

A record is self-contained: besides the measured phase times it carries the
ConvNet metric vector (batch-size-one FLOPs/Inputs/Outputs/Weights/Layers)
of the network it was measured on, so performance models can be fitted from
a dataset alone — no zoo access needed.  That also makes the leave-one-out
protocol a pure dataset operation.

The JSON codec of records is shared by datasets and the campaign store:
:func:`encode_records` writes ``json.dumps(record.to_dict())`` byte for
byte while encoding what a run of records shares once, and
:class:`RecordDecoder` reads the dicts back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.fileio import DocumentError, read_json_object, write_text_atomic


@dataclass(frozen=True)
class ConvNetFeatures:
    """ConvMeter's inherent network metrics at batch size one (Section 3)."""

    flops: float
    inputs: float
    outputs: float
    weights: float
    layers: int

    @staticmethod
    def from_profile(profile) -> "ConvNetFeatures":
        """Extract from a :class:`repro.hardware.roofline.CostProfile`."""
        return ConvNetFeatures(
            flops=profile.total_flops,
            inputs=profile.conv_input_elems,
            outputs=profile.conv_output_elems,
            weights=profile.total_params,
            layers=profile.parametric_layers,
        )


@dataclass(frozen=True)
class TimingRecord:
    """One measured configuration."""

    model: str
    device: str
    image_size: int
    #: Per-device (mini-)batch size b = B/N.
    batch: int
    nodes: int
    #: Total computing devices N.
    devices: int
    #: "inference", "training", or "distributed".
    scenario: str
    features: ConvNetFeatures
    t_fwd: float
    t_bwd: float = 0.0
    t_grad: float = 0.0
    rep: int = 0
    #: Execution backend the point was measured under; ``""`` is the
    #: default roofline backend (and is omitted from serialised records,
    #: so pre-backend datasets remain byte-identical round-trips).
    backend: str = ""

    @property
    def t_total(self) -> float:
        return self.t_fwd + self.t_bwd + self.t_grad

    @property
    def global_batch(self) -> int:
        return self.batch * self.devices

    @property
    def throughput(self) -> float:
        """Images per second of one training step (or inference)."""
        return self.global_batch / self.t_total

    def to_dict(self) -> dict:
        # Copies the fields directly (``dataclasses.asdict`` deep-copies
        # recursively at several times the cost); the key order is the
        # field order either way.
        d = dict(vars(self))
        d["features"] = dict(vars(self.features))
        if not self.backend:
            del d["backend"]
        return d

    @staticmethod
    def from_dict(d: dict) -> "TimingRecord":
        d = dict(d)
        try:
            d["features"] = ConvNetFeatures(**d["features"])
            return TimingRecord(**d)
        except (KeyError, TypeError) as exc:
            raise ValueError(
                f"malformed timing record (missing or unknown fields): {exc}"
            ) from exc


#: The fields a grid's records do not share, in field order, and the
#: exact types the encoder formats itself: it ``repr`` s those, and leaves
#: any other value to ``json.dumps``.
_VARYING = ("batch", "t_fwd", "t_bwd", "t_grad", "rep")
_VARYING_TYPES = (int, float, float, float, int)
#: Stands in for each varying field when a template is encoded.  ``\x00``
#: is escaped by ``json.dumps``, so its encoding cannot come from any
#: other character.
_HOLE = "\x00"
_ENCODED_HOLE = json.dumps(_HOLE)


def _template(record: TimingRecord) -> "list[str] | None":
    """``json.dumps(record.to_dict())`` cut around the varying fields, or
    ``None`` when a shared field's encoding holds the hole marker too."""
    d = record.to_dict()
    for name in _VARYING:
        d[name] = _HOLE
    parts = json.dumps(d).split(_ENCODED_HOLE)
    return parts if len(parts) == len(_VARYING) + 1 else None


def encode_records(records: Iterable[TimingRecord]) -> list[str]:
    """``json.dumps(r.to_dict())`` of every record, byte for byte.

    Records that share model, device, image, nodes, devices, scenario,
    backend and features object share one encoding of those fields, so
    per record only batch, rep and the three times are formatted, with
    ``int.__repr__`` and ``float.__repr__``.  A record holding any other
    value there (a non-finite time, a numpy scalar, a bool) is encoded
    whole by ``json.dumps``.
    """
    templates: dict[tuple, "list[str] | None"] = {}
    lines = []
    for r in records:
        parts = None
        # Equal values of other types (1, True, 1.0) encode differently.
        if (
            type(r.model) is type(r.device) is type(r.scenario)
            is type(r.backend) is str
            and type(r.image_size) is type(r.nodes) is type(r.devices) is int
        ):
            key = (r.model, r.device, r.image_size, r.nodes, r.devices,
                   r.scenario, r.backend, id(r.features))
            if key not in templates:
                templates[key] = _template(r)
            parts = templates[key]
        batch, t_fwd, t_bwd, t_grad, rep = (
            r.batch, r.t_fwd, r.t_bwd, r.t_grad, r.rep
        )
        if (
            parts is None
            or (type(batch), type(t_fwd), type(t_bwd), type(t_grad),
                type(rep)) != _VARYING_TYPES
            # Finite only if every time is; a sum that overflows merely
            # sends a finite record the slow way.
            or not math.isfinite(t_fwd + t_bwd + t_grad)
        ):
            lines.append(json.dumps(r.to_dict()))
            continue
        head, p_batch, p_fwd, p_bwd, p_grad, tail = parts
        lines.append(
            f"{head}{batch!r}{p_batch}{t_fwd!r}{p_fwd}{t_bwd!r}{p_bwd}"
            f"{t_grad!r}{p_grad}{rep!r}{tail}"
        )
    return lines


_RECORD_KEYS = frozenset(f.name for f in fields(TimingRecord))
#: A default-backend record's dict omits ``backend``.
_DEFAULT_BACKEND_KEYS = _RECORD_KEYS - {"backend"}
_FEATURE_FIELDS = tuple(f.name for f in fields(ConvNetFeatures))
_FEATURE_KEYS = frozenset(_FEATURE_FIELDS)


class RecordDecoder:
    """Reads record dicts back, sharing one :class:`ConvNetFeatures` per
    distinct features dict across every call.

    A dict with exactly a record's keys (and features with exactly the
    features' keys) is read field by field in field order; any other goes
    through :meth:`TimingRecord.from_dict`, which raises ``ValueError`` for
    a malformed one.
    """

    def __init__(self) -> None:
        self._features: dict[tuple, ConvNetFeatures] = {}

    def _features_of(self, d: dict) -> ConvNetFeatures:
        values = tuple(map(d.__getitem__, _FEATURE_FIELDS))
        # Types and zeros keep equal-but-differently-encoded values
        # (1, 1.0 and true; 0.0 and -0.0) apart.
        if 0 in values:
            return ConvNetFeatures(*values)
        key = (values, tuple(map(type, values)))
        try:
            shared = self._features.get(key)
        except TypeError:  # an unhashable value: nothing to share
            return ConvNetFeatures(*values)
        if shared is None:
            shared = self._features[key] = ConvNetFeatures(*values)
        return shared

    def record(self, d: object) -> TimingRecord:
        if type(d) is dict and (
            d.keys() == _RECORD_KEYS or d.keys() == _DEFAULT_BACKEND_KEYS
        ):
            features = d["features"]
            if type(features) is dict and features.keys() == _FEATURE_KEYS:
                return TimingRecord(
                    d["model"], d["device"], d["image_size"], d["batch"],
                    d["nodes"], d["devices"], d["scenario"],
                    self._features_of(features), d["t_fwd"], d["t_bwd"],
                    d["t_grad"], d["rep"], d.get("backend", ""),
                )
        return TimingRecord.from_dict(d)

    def records(self, dicts: Iterable[object]) -> list[TimingRecord]:
        return [self.record(d) for d in dicts]


@dataclass
class Dataset:
    """An ordered collection of timing records with filtering helpers."""

    records: list[TimingRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TimingRecord]:
        return iter(self.records)

    def __getitem__(self, i: int) -> TimingRecord:
        return self.records[i]

    def append(self, record: TimingRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[TimingRecord]) -> None:
        self.records.extend(records)

    # -- filtering ---------------------------------------------------------

    def filter(self, predicate: Callable[[TimingRecord], bool]) -> "Dataset":
        return Dataset([r for r in self.records if predicate(r)])

    def for_model(self, model: str) -> "Dataset":
        return self.filter(lambda r: r.model == model)

    def excluding_model(self, model: str) -> "Dataset":
        """Everything except one model — the paper's leave-one-out split."""
        return self.filter(lambda r: r.model != model)

    def for_device(self, device: str) -> "Dataset":
        return self.filter(lambda r: r.device == device)

    def for_backend(self, backend: str) -> "Dataset":
        """Records measured under one execution backend (``""`` = default)."""
        name = "" if backend == "roofline" else backend
        return self.filter(lambda r: r.backend == name)

    def models(self) -> list[str]:
        """Distinct model names in first-appearance order."""
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.model, None)
        return list(seen)

    def node_counts(self) -> list[int]:
        return sorted({r.nodes for r in self.records})

    # -- serialization --------------------------------------------------------

    def to_json(self, path: str | Path) -> None:
        records = ", ".join(encode_records(self.records))
        write_text_atomic(path, f'{{"records": [{records}]}}')

    @staticmethod
    def from_json(path: str | Path) -> "Dataset":
        """Read a dataset written by :meth:`to_json`.

        Raises :class:`~repro.fileio.DocumentError` naming ``path`` when
        the file is not a dataset document.
        """
        records = read_json_object(path).get("records")
        if not isinstance(records, list):
            raise DocumentError(f"{path}: missing key 'records' (a list)")
        try:
            return Dataset(RecordDecoder().records(records))
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"{path}: {exc}") from exc

    def with_scenario(self, scenario: str) -> "Dataset":
        return self.filter(lambda r: r.scenario == scenario)

    def summary(self) -> str:
        models = self.models()
        return (
            f"{len(self)} records, {len(models)} models, "
            f"devices={sorted({r.device for r in self.records})}, "
            f"nodes={self.node_counts()}"
        )


def rescale_record(record: TimingRecord, **changes) -> TimingRecord:
    """Dataclass ``replace`` re-export for campaign post-processing."""
    return replace(record, **changes)


def aggregate_reps(data: Dataset) -> Dataset:
    """Collapse repeated measurements of one configuration into their mean.

    Records sharing (model, device, image, batch, nodes, devices, scenario)
    are averaged per phase; the result has ``rep = 0`` and one record per
    configuration — the aggregation real campaigns apply before fitting.
    """
    groups: dict[tuple, list[TimingRecord]] = {}
    for r in data:
        key = (r.model, r.device, r.image_size, r.batch, r.nodes,
               r.devices, r.scenario, r.backend)
        groups.setdefault(key, []).append(r)
    out = Dataset()
    for members in groups.values():
        n = len(members)
        first = members[0]
        out.append(
            replace(
                first,
                t_fwd=sum(m.t_fwd for m in members) / n,
                t_bwd=sum(m.t_bwd for m in members) / n,
                t_grad=sum(m.t_grad for m in members) / n,
                rep=0,
            )
        )
    return out
