"""The shared JSON codec of timing records.

``encode_records`` must write ``json.dumps(r.to_dict())`` byte for byte,
whatever the records hold, and the record-log reader must restore exactly
what the per-line loop it replaced restored, line rules included.  That
loop stays here as the reference.
"""

import dataclasses
import json
import random

import numpy as np
import pytest

from repro.benchdata import (
    CampaignSpec,
    CampaignStore,
    ConvNetFeatures,
    Dataset,
    TimingRecord,
)
from repro.benchdata.records import RecordDecoder, encode_records
from repro.benchdata.store import _read_log
from repro.hardware.device import A100_80GB

FEATURES = ConvNetFeatures(1.8e9, 2.4e6, 3.1e6, 1.17e7, 21)


def _record(**changes) -> TimingRecord:
    base = TimingRecord(
        model="resnet18", device="a100-80gb", image_size=224, batch=64,
        nodes=1, devices=1, scenario="training", features=FEATURES,
        t_fwd=0.0123, t_bwd=0.0246, t_grad=0.001, rep=2,
    )
    return dataclasses.replace(base, **changes)


def _dumps(records) -> list[str]:
    return [json.dumps(r.to_dict()) for r in records]


class TestEncoder:
    @pytest.mark.parametrize(
        "changes",
        [
            {},
            {"t_fwd": float("nan")},
            {"t_bwd": float("inf")},
            {"t_grad": float("-inf")},
            {"t_fwd": -0.0, "t_bwd": 0.0},
            {"t_fwd": 1e-300, "t_grad": 5e-324},
            {"t_fwd": 1e308, "t_bwd": 1e308},
            {"t_fwd": np.float64(0.5)},
            {"batch": True},
            {"rep": False},
            {"image_size": True},
            {"nodes": 2.0},
            {"model": "r\u00e9snet-\u00df", "device": "gpu \u2603"},
            {"model": "\x00"},  # encodes as the template's hole marker
            {"backend": "edge"},
            {"backend": ""},
            {"features": ConvNetFeatures(0.0, -0.0, 1, 1.0, True)},
            {"features": ConvNetFeatures(np.float64(2.5), 1, 1, 1, 3)},
        ],
        ids=repr,
    )
    def test_matches_json_dumps(self, changes):
        records = [_record(), _record(**changes),
                   _record(**{"rep": 5, **changes})]
        assert encode_records(records) == _dumps(records)

    def test_numpy_int_fields_raise_as_json_dumps_does(self):
        record = _record(batch=np.int64(8))
        with pytest.raises(TypeError):
            json.dumps(record.to_dict())
        with pytest.raises(TypeError):
            encode_records([record])

    def test_equal_shared_values_of_other_types_stay_apart(self):
        # True == 1 and 1.0 == 1 hash alike, but encode differently.
        records = [
            _record(image_size=1), _record(image_size=True),
            _record(nodes=1), _record(nodes=1.0), _record(devices=True),
            _record(model=1), _record(model=True), _record(backend=1.0),
        ]
        assert encode_records(records) == _dumps(records)

    def test_equal_features_objects_with_signed_zeros(self):
        records = [
            _record(features=ConvNetFeatures(0.0, 1.0, 1.0, 1.0, 1)),
            _record(features=ConvNetFeatures(-0.0, 1.0, 1.0, 1.0, 1)),
        ]
        assert encode_records(records) == _dumps(records)

    def test_a_campaign_grid(self, small_training_data):
        records = small_training_data.records
        assert encode_records(records) == _dumps(records)

    def test_dataset_json_bytes(self, tmp_path, small_training_data):
        small_training_data.to_json(tmp_path / "d.json")
        payload = {"records": [r.to_dict() for r in small_training_data]}
        assert (tmp_path / "d.json").read_text() == json.dumps(payload)


def _reference_restore(path) -> dict:
    """The per-line loop ``CampaignStore.restored_points`` used to run."""
    done = {}
    with open(path) as fh:
        for line in fh:
            if not line.endswith("\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                done[entry["key"]] = [
                    TimingRecord.from_dict(d) for d in entry["records"]
                ]
            except (ValueError, KeyError, TypeError):
                continue
    return done


def _line(key, records, status="") -> str:
    entry = {"key": key, "records": [r.to_dict() for r in records]}
    if status:
        entry["status"] = status
    return json.dumps(entry)


def _fuzz_lines(rng: random.Random) -> list[str]:
    good = [
        _line("k1", [_record()]),
        _line("k2", [_record(batch=8), _record(batch=8, rep=1)]),
        _line("k3", [], "oom"),
        _line("k1", [_record(t_fwd=9.0)]),  # a later line for k1
        _line("k4", [_record(backend="edge", model="\u00fc")]),
        _line("k5", [_record(t_fwd=float("nan"))]),
    ]
    d = _record().to_dict()
    odd_records = [
        {**d, "extra": 1},
        {k: v for k, v in d.items() if k != "features"},
        {**d, "features": {**d["features"], "flops": 0}},
        {**d, "features": {**d["features"], "flops": 0.0}},
        {**d, "features": {**d["features"], "flops": -0.0}},
        {**d, "features": {**d["features"], "layers": True}},
        {**d, "features": {**d["features"], "layers": 21.0}},
        {**d, "features": {**d["features"], "inputs": [1]}},
        {**d, "features": {**d["features"], "more": 1}},
        {**d, "features": [1, 2]},
        dict(reversed(list(d.items()))),
        [1, 2],
        "record",
        None,
    ]
    shapes = [
        "[1, 2]", "null", "7", '"text"', '{"key": "x"}',
        '{"records": []}', '{"key": "x", "records": 5}',
        '{"key": [1], "records": []}', '{"key": 3, "records": []}',
        '{"key": "x", "records": {"a": 1}}',
        '{"key": "a", "key": "dup", "records": []}',
        '{"key": "x", "records": [], "key": "y"}',
    ] + [json.dumps({"key": f"odd{i}", "records": [r]})
         for i, r in enumerate(odd_records)]
    garbage = [
        "{", "}", "{not json", '{"key": "g", "records": [', "]", "{} {}",
        good[0] + " x", good[0] + good[1], "NaN", "\ufeff" + good[0],
    ]
    # str.strip() whitespace, JSON's and others; none is a line break.
    pads = [" ", "\t", "  \t", "\x0c", "\x1f", "\u3000", "\x85", "\u2028"]
    lines = []
    for _ in range(rng.randint(5, 25)):
        kind = rng.random()
        if kind < 0.4:
            line = rng.choice(good)
        elif kind < 0.6:
            line = rng.choice(shapes)
        elif kind < 0.7:
            line = rng.choice(garbage)
        elif kind < 0.8:
            line = rng.choice(["", " ", "\t\t", "\x0c"])
        else:
            line = rng.choice(pads) + rng.choice(good + shapes) + rng.choice(
                pads + [""]
            )
        if rng.random() < 0.05:
            # A value split over two lines.
            cut = rng.randrange(1, len(line) + 1) if line else 0
            line = line[:cut] + "\n" + line[cut:]
        lines.append(line)
    return lines


def _fuzz_text(rng: random.Random) -> str:
    text = "".join(
        line + rng.choice(["\n", "\n", "\n", "\r\n", "\r"])
        for line in _fuzz_lines(rng)
    )
    tail = rng.random()
    if tail < 0.3:
        text += _line("torn", [_record()])  # parses, but has no newline
    elif tail < 0.6:
        text += _line("torn", [_record()])[:20]
    return text


class TestDecoder:
    def test_fuzzed_logs_restore_as_the_per_line_loop(self, tmp_path):
        rng = random.Random(2024)
        path = tmp_path / "records.jsonl"
        for case in range(300):
            path.write_bytes(_fuzz_text(rng).encode())
            want = _reference_restore(path)
            # repr tells 1 from 1.0 and True, -0.0 from 0.0, and nan apart.
            assert repr(_read_log(path.read_text())) == repr(want), case

    def test_store_restores_through_the_shared_reader(
        self, tmp_path, small_training_data
    ):
        spec = CampaignSpec(
            scenario="training", models=("alexnet",), device=A100_80GB,
            batch_sizes=(8,), image_sizes=(64,),
        )
        records = small_training_data.records[:40]
        with CampaignStore.open(tmp_path / "s", spec) as store:
            store.append([(f"p{i}", [r], "") for i, r in enumerate(records)])
            store.append([("gated", [], "oom")])
        store = CampaignStore.open(tmp_path / "s", spec, resume=True)
        restored = store.restored_points()
        assert restored == {
            **{f"p{i}": [r] for i, r in enumerate(records)}, "gated": []
        }
        assert restored == _reference_restore(store.records_path)
        text = store.records_path.read_text()
        assert text.splitlines()[0] == _line("p0", [records[0]])
        assert text.splitlines()[-1] == _line("gated", [], "oom")

    def test_shares_one_features_per_distinct_dict(self, small_training_data):
        dicts = [r.to_dict() for r in small_training_data]
        decoded = RecordDecoder().records(dicts)
        assert decoded == small_training_data.records
        distinct = {json.dumps(d["features"]) for d in dicts}
        assert len({id(r.features) for r in decoded}) == len(distinct)
        assert list(map(vars, decoded)) == list(
            map(vars, small_training_data.records)
        )

    def test_fields_fill_in_field_order(self):
        d = _record(backend="edge").to_dict()
        shuffled = dict(reversed(list(d.items())))
        record = RecordDecoder().record(shuffled)
        assert list(vars(record)) == [f.name for f in dataclasses.fields(record)]
        assert record == TimingRecord.from_dict(d)

    def test_dataset_round_trip_and_malformed_records(self, tmp_path):
        data = Dataset([_record(), _record(backend="fp16", batch=3)])
        data.to_json(tmp_path / "d.json")
        assert Dataset.from_json(tmp_path / "d.json").records == data.records
        (tmp_path / "bad.json").write_text('{"records": [{"model": "x"}]}')
        with pytest.raises(Exception, match="malformed timing record"):
            Dataset.from_json(tmp_path / "bad.json")
