"""Registry: manifest round-trips, integrity verification, versioning."""

import json

import numpy as np
import pytest

from repro import nn
from repro.config import GridConfig
from repro.experiments import build_method
from repro.serve import (
    IntegrityError, ModelManifest, ModelRegistry, RegistryError,
    load_checkpoint, manifest_path_for, read_manifest, save_checkpoint,
    verify_checkpoint,
)
from repro.tensor import Tensor, no_grad

GRID = GridConfig(size_um=0.8, nx=16, ny=16, nz=2)


def tiny_model(seed: int = 0):
    nn.init.seed(seed)
    model, _ = build_method("DeepCNN", GRID)
    model.set_output_stats(0.25, 2.0)
    return model


def forward(model, x: np.ndarray) -> np.ndarray:
    with no_grad():
        return model(Tensor(x[None])).numpy()


class TestStandaloneCheckpoint:
    def test_manifest_written_and_parsable(self, tmp_path):
        manifest = save_checkpoint(tiny_model(), tmp_path / "m.npz",
                                   method="DeepCNN", grid=GRID)
        sidecar = manifest_path_for(tmp_path / "m.npz")
        assert sidecar.exists()
        reread = ModelManifest.from_json(sidecar.read_text())
        assert reread == manifest
        assert reread.model_class == "DeepCNN"
        assert reread.dtype == "float64"
        assert reread.content_hash.startswith("sha256:")
        assert reread.param_count == tiny_model().num_parameters()
        assert reread.grid_config() == GRID

    def test_load_round_trip_bitwise(self, tmp_path):
        model = tiny_model(3)
        save_checkpoint(model, tmp_path / "m.npz", method="DeepCNN", grid=GRID)
        loaded, manifest = load_checkpoint(tmp_path / "m.npz")
        assert manifest.output_mean == model.output_mean
        assert manifest.output_std == model.output_std
        x = np.random.default_rng(0).random(GRID.shape)
        assert np.array_equal(forward(model, x), forward(loaded, x))

    def test_extensionless_path_round_trips(self, tmp_path):
        save_checkpoint(tiny_model(), tmp_path / "bare", method="DeepCNN", grid=GRID)
        assert (tmp_path / "bare.npz").exists()
        loaded, _ = load_checkpoint(tmp_path / "bare")
        assert loaded.num_parameters() == tiny_model().num_parameters()

    def test_hash_tamper_detected(self, tmp_path):
        save_checkpoint(tiny_model(), tmp_path / "m.npz", method="DeepCNN", grid=GRID)
        weights = tmp_path / "m.npz"
        tampered = bytearray(weights.read_bytes())
        tampered[-1] ^= 0xFF
        weights.write_bytes(bytes(tampered))
        with pytest.raises(IntegrityError, match="integrity"):
            load_checkpoint(weights)
        with pytest.raises(IntegrityError):
            verify_checkpoint(weights)

    def test_tampered_manifest_hash_detected(self, tmp_path):
        manifest = save_checkpoint(tiny_model(), tmp_path / "m.npz",
                                   method="DeepCNN", grid=GRID)
        sidecar = manifest_path_for(tmp_path / "m.npz")
        payload = json.loads(sidecar.read_text())
        payload["content_hash"] = "sha256:" + "0" * 64
        sidecar.write_text(json.dumps(payload))
        with pytest.raises(IntegrityError):
            load_checkpoint(tmp_path / "m.npz")
        assert manifest.content_hash != payload["content_hash"]

    def test_verify_skippable(self, tmp_path):
        save_checkpoint(tiny_model(), tmp_path / "m.npz", method="DeepCNN", grid=GRID)
        sidecar = manifest_path_for(tmp_path / "m.npz")
        payload = json.loads(sidecar.read_text())
        payload["content_hash"] = "sha256:" + "f" * 64
        sidecar.write_text(json.dumps(payload))
        loaded, _ = load_checkpoint(tmp_path / "m.npz", verify=False)
        assert loaded is not None

    def test_missing_manifest_is_clear(self, tmp_path):
        tiny_model().save(tmp_path / "m.npz")
        with pytest.raises(RegistryError, match="no manifest"):
            read_manifest(tmp_path / "m.npz")

    def test_newer_schema_rejected(self, tmp_path):
        save_checkpoint(tiny_model(), tmp_path / "m.npz", method="DeepCNN", grid=GRID)
        sidecar = manifest_path_for(tmp_path / "m.npz")
        payload = json.loads(sidecar.read_text())
        payload["schema_version"] = 99
        sidecar.write_text(json.dumps(payload))
        with pytest.raises(RegistryError, match="schema"):
            read_manifest(tmp_path / "m.npz")


class TestRegistry:
    def test_publish_and_versions(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        first = registry.publish(tiny_model(1), "DeepCNN", GRID, "peb")
        second = registry.publish(tiny_model(2), "DeepCNN", GRID, "peb")
        assert (first.version, second.version) == (1, 2)
        assert registry.versions("peb") == [1, 2]
        assert registry.latest("peb") == 2
        assert registry.names() == ["peb"]

    def test_latest_resolution_loads_newest(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(tiny_model(1), "DeepCNN", GRID, "peb")
        newest = tiny_model(2)
        registry.publish(newest, "DeepCNN", GRID, "peb")
        loaded, manifest = registry.load("peb")
        assert manifest.version == 2
        x = np.random.default_rng(1).random(GRID.shape)
        assert np.array_equal(forward(loaded, x), forward(newest, x))

    def test_versions_immutable(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(tiny_model(), "DeepCNN", GRID, "peb", version=3)
        with pytest.raises(RegistryError, match="immutable"):
            registry.publish(tiny_model(), "DeepCNN", GRID, "peb", version=3)

    def test_unknown_name_is_clear(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(RegistryError, match="no model named"):
            registry.load("nope")

    def test_models_listing_marks_latest(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(tiny_model(1), "DeepCNN", GRID, "peb")
        registry.publish(tiny_model(2), "DeepCNN", GRID, "peb")
        listing = registry.models()
        assert [(m["version"], m["latest"]) for m in listing] == [(1, False), (2, True)]

