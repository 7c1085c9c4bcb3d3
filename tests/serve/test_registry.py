"""Registry semantics: specs, epochs, sealing, and warm recovery."""

import json

import numpy as np
import pytest

from repro.core.errors import CorruptSummaryError, InvalidParameterError
from repro.core.snapshot import envelope_info, snapshot
from repro.evaluation.harness import build_sketch, feed_stream
from repro.serve.registry import (
    DuplicateSketchError,
    LiveSketch,
    ServeRegistry,
    SketchSpec,
    UnknownSketchError,
)

SPEC = SketchSpec(algorithm="gk_array", eps=0.01)


class TestSketchSpec:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown algorithm"):
            SketchSpec(algorithm="nope", eps=0.01)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(InvalidParameterError):
            SketchSpec(algorithm="gk_array", eps=eps)

    def test_dtype_follows_universe(self):
        assert SPEC.dtype == np.dtype(np.float64)
        fixed = SketchSpec(algorithm="qdigest", eps=0.05, universe_log2=16)
        assert fixed.dtype == np.dtype(np.int64)

    def test_round_trips_through_dict(self):
        spec = SketchSpec(algorithm="kll", eps=0.02, seed=7)
        assert SketchSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_missing_field(self):
        with pytest.raises(InvalidParameterError, match="algorithm"):
            SketchSpec.from_dict({"eps": 0.01})

    def test_build_matches_harness(self):
        sketch = SPEC.build()
        reference = build_sketch("gk_array", 0.01)
        assert type(sketch) is type(reference)


class TestLiveSketch:
    def test_buffer_does_not_change_answers(self):
        entry = LiveSketch("s", SPEC)
        entry.buffer(np.arange(1, 101, dtype=np.float64))
        entry.apply()
        before = entry.sketch.query(0.5)
        entry.buffer(np.full(1000, 1e9))
        assert entry.sketch.query(0.5) == before
        assert entry.pending_elements == 1000
        assert entry.epoch == 1

    def test_apply_advances_epoch_and_matches_offline(self):
        entry = LiveSketch("s", SPEC)
        data = np.arange(1, 2001, dtype=np.float64)
        entry.buffer(data[:1000])
        entry.buffer(data[1000:])
        assert entry.apply() is True
        assert entry.epoch == 1
        assert entry.apply() is False  # nothing pending
        offline = build_sketch("gk_array", 0.01)
        feed_stream(offline, data)
        phis = [0.1, 0.5, 0.9, 0.99]
        assert entry.sketch.query_batch(phis) == offline.query_batch(phis)

    def test_invalid_name_rejected(self):
        for name in ("", "a b", "x/y", "-lead", "a" * 65):
            with pytest.raises(InvalidParameterError):
                LiveSketch(name, SPEC)

    def test_empty_buffer_is_noop(self):
        entry = LiveSketch("s", SPEC)
        assert entry.buffer([]) == 0
        assert entry.apply() is False


class TestServeRegistry:
    def test_create_get_drop(self):
        reg = ServeRegistry()
        reg.create("a", SPEC)
        assert "a" in reg and len(reg) == 1
        assert reg.get("a").name == "a"
        with pytest.raises(DuplicateSketchError):
            reg.create("a", SPEC)
        reg.drop("a")
        assert "a" not in reg
        with pytest.raises(UnknownSketchError):
            reg.get("a")
        with pytest.raises(UnknownSketchError):
            reg.drop("a")

    def test_unknown_error_lists_served_names(self):
        reg = ServeRegistry()
        reg.create("served", SPEC)
        with pytest.raises(UnknownSketchError, match="served"):
            reg.get("ghost")

    def test_publish_adopts_external_summary(self):
        reg = ServeRegistry()
        sketch = build_sketch("gk_array", 0.01)
        feed_stream(sketch, np.arange(1, 501, dtype=np.float64))
        entry = reg.publish("adopted", sketch, SPEC, epoch=3)
        assert entry.epoch == 3
        assert reg.get("adopted").sketch.n == 500
        with pytest.raises(DuplicateSketchError):
            reg.publish("adopted", sketch, SPEC)

    def test_seal_and_recover_identical_answers(self, tmp_path):
        reg = ServeRegistry(persist_dir=tmp_path)
        reg.create("w", SPEC)
        entry = reg.get("w")
        entry.buffer(np.arange(1, 5001, dtype=np.float64))
        reg.flush("w")
        phis = [0.01, 0.25, 0.5, 0.75, 0.99]
        expected = entry.sketch.query_batch(phis)

        recovered = ServeRegistry(persist_dir=tmp_path)
        names = recovered.recover()
        assert names == ["w"]
        restored = recovered.get("w")
        assert restored.epoch == 1
        assert restored.ingested_total == 5000
        assert restored.sketch.query_batch(phis) == expected

    def test_recover_skips_already_registered(self, tmp_path):
        reg = ServeRegistry(persist_dir=tmp_path)
        reg.create("w", SPEC)
        reg.get("w").buffer([1.0, 2.0, 3.0])
        reg.flush("w")
        assert reg.recover() == []  # "w" is already live

    def test_recover_rejects_corrupt_envelope(self, tmp_path):
        reg = ServeRegistry(persist_dir=tmp_path)
        reg.create("w", SPEC)
        reg.get("w").buffer(np.arange(100, dtype=np.float64))
        reg.flush("w")
        blob = bytearray((tmp_path / "w.rqss").read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (tmp_path / "w.rqss").write_bytes(bytes(blob))
        with pytest.raises(CorruptSummaryError):
            ServeRegistry(persist_dir=tmp_path).recover()

    def test_recover_rejects_torn_seal_pair(self, tmp_path):
        # A kill between the seal's two renames leaves the second
        # envelope beside the first meta: refuse it rather than restore
        # the new summary under the old epoch and count.
        reg = ServeRegistry(persist_dir=tmp_path)
        reg.create("w", SPEC)
        reg.get("w").buffer(np.arange(100, dtype=np.float64))
        reg.flush("w")
        first_meta = (tmp_path / "w.json").read_bytes()
        reg.get("w").buffer(np.arange(100, 300, dtype=np.float64))
        reg.flush("w")
        (tmp_path / "w.json").write_bytes(first_meta)
        with pytest.raises(CorruptSummaryError, match=r"w\.rqss.*w\.json"):
            ServeRegistry(persist_dir=tmp_path).recover()

    def test_recover_rejects_unknown_meta_schema(self, tmp_path):
        reg = ServeRegistry(persist_dir=tmp_path)
        reg.create("w", SPEC)
        reg.get("w").buffer([1.0])
        reg.flush("w")
        meta_path = tmp_path / "w.json"
        meta = json.loads(meta_path.read_text())
        meta["schema"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(InvalidParameterError, match="schema"):
            ServeRegistry(persist_dir=tmp_path).recover()

    def test_drop_removes_sealed_files(self, tmp_path):
        reg = ServeRegistry(persist_dir=tmp_path)
        reg.create("w", SPEC)
        reg.get("w").buffer([1.0, 2.0])
        reg.flush("w")
        assert (tmp_path / "w.rqss").exists()
        reg.drop("w")
        assert not (tmp_path / "w.rqss").exists()
        assert not (tmp_path / "w.json").exists()

    def test_export_restore_envelope_round_trip(self):
        primary = ServeRegistry()
        primary.create("p", SPEC)
        primary.get("p").buffer(np.arange(1, 1001, dtype=np.float64))
        primary.flush("p")
        exported = primary.export_envelope("p")
        assert exported["epoch"] == 1 and exported["n"] == 1000

        replica = ServeRegistry()
        entry = replica.restore_envelope(
            "p", exported["envelope"],
            SketchSpec.from_dict(exported["spec"]), exported["epoch"],
        )
        phis = [0.1, 0.5, 0.9]
        assert entry.sketch.query_batch(phis) == (
            primary.get("p").sketch.query_batch(phis)
        )

    def test_seal_without_persist_dir_raises(self):
        reg = ServeRegistry()
        entry = reg.create("m", SPEC)
        with pytest.raises(InvalidParameterError, match="persist_dir"):
            reg.seal(entry)


class TestEnvelopeInfo:
    def test_reports_header_without_unpickling(self):
        sketch = build_sketch("gk_array", 0.01)
        feed_stream(sketch, np.arange(1, 101, dtype=np.float64))
        blob = snapshot(sketch)
        info = envelope_info(blob)
        assert info.tag  # the registered snapshot tag
        assert info.version == 1
        assert info.payload_bytes > 0
        assert 0 <= info.crc32 < 2 ** 32

    def test_detects_corruption(self):
        sketch = build_sketch("gk_array", 0.01)
        feed_stream(sketch, np.arange(1, 101, dtype=np.float64))
        blob = bytearray(snapshot(sketch))
        blob[-1] ^= 0xFF
        with pytest.raises(CorruptSummaryError):
            envelope_info(bytes(blob))
