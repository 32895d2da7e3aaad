"""Timing records and datasets.

A record is self-contained: besides the measured phase times it carries the
ConvNet metric vector (batch-size-one FLOPs/Inputs/Outputs/Weights/Layers)
of the network it was measured on, so performance models can be fitted from
a dataset alone — no zoo access needed.  That also makes the leave-one-out
protocol a pure dataset operation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
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
        d = asdict(self)
        if not d["backend"]:
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
        payload = {"records": [r.to_dict() for r in self.records]}
        write_text_atomic(path, json.dumps(payload))

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
            return Dataset([TimingRecord.from_dict(d) for d in records])
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
