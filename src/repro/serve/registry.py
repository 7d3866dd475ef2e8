"""Versioned checkpoint manifests and the on-disk model registry.

A bare ``Module.save`` archive is just a pile of arrays: nothing records
which architecture produced it, which grid it was trained on, or whether
the bytes on disk are the bytes that were written.  The registry wraps
``save``/``load`` with a JSON **manifest** sidecar carrying exactly that
metadata plus a SHA-256 content hash, verified on every load.

Two layers:

* standalone checkpoints — ``save_checkpoint``/``load_checkpoint`` pair
  a weights file ``model.npz`` with ``model.manifest.json`` next to it;
* :class:`ModelRegistry` — a directory tree ``root/<name>/v<version>/``
  of published checkpoints with monotonically increasing versions,
  ``latest`` resolution and enumeration for the serving front end's
  ``GET /v1/models``.

Both layers rebuild the architecture from the manifest alone (method
name + grid), so a consumer needs no out-of-band knowledge to serve a
checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro import nn
from repro.config import GridConfig
from repro.nn.module import normalize_weights_path
from repro.runtime.sync import make_lock

#: bump when the manifest layout changes incompatibly
MANIFEST_SCHEMA_VERSION = 1

#: weight-initialization seed used when rebuilding an architecture; the
#: loaded state overwrites every parameter, so this only pins any
#: non-parameter construction-time randomness
REBUILD_SEED = 0


class RegistryError(Exception):
    """A checkpoint or registry operation failed."""


class IntegrityError(RegistryError):
    """The weights on disk do not match the manifest's content hash."""


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


def manifest_path_for(weights_path: str | Path) -> Path:
    """Sidecar manifest path for a standalone weights file."""
    weights = normalize_weights_path(weights_path)
    return weights.with_name(weights.stem + ".manifest.json")


@dataclass(frozen=True)
class ModelManifest:
    """Everything needed to rebuild, verify and describe one checkpoint."""

    name: str
    version: int
    #: Table II method name understood by ``experiments.build_method``
    model_class: str
    #: GridConfig fields the architecture was sized for
    grid: dict
    dtype: str
    param_count: int
    #: ``sha256:<hex>`` over the weights archive bytes
    content_hash: str
    output_mean: float
    output_std: float
    created_unix_s: float
    schema_version: int = MANIFEST_SCHEMA_VERSION
    #: free-form extras (training epochs, dataset notes, ...)
    extra: dict = field(default_factory=dict)

    def grid_config(self) -> GridConfig:
        return GridConfig(**self.grid)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str, source: str = "<manifest>") -> "ModelManifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise RegistryError(f"{source}: not valid JSON ({error})") from error
        if not isinstance(payload, dict):
            raise RegistryError(f"{source}: manifest must be a JSON object")
        missing = [f.name for f in _MANIFEST_FIELDS
                   if f.name not in payload and f.name not in ("schema_version", "extra")]
        if missing:
            raise RegistryError(f"{source}: manifest missing fields {missing}")
        grid, grid_fields = payload["grid"], {f.name for f in fields(GridConfig)}
        if not isinstance(grid, dict) or set(grid) != grid_fields:
            raise RegistryError(f"{source}: field 'grid' must be an object with "
                                f"exactly the keys {sorted(grid_fields)}, got {grid!r}")
        schema = payload.get("schema_version", MANIFEST_SCHEMA_VERSION)
        for key, value in (("schema_version", schema), ("version", payload["version"])):
            if not _is_int(value):
                raise RegistryError(f"{source}: field {key!r} must be an int, got {value!r}")
        if schema > MANIFEST_SCHEMA_VERSION:
            raise RegistryError(f"{source}: manifest schema v{schema} is newer than "
                                f"supported v{MANIFEST_SCHEMA_VERSION}")
        for grid_field in fields(GridConfig):
            value, integral = grid[grid_field.name], grid_field.type in ("int", int)
            if not (_is_int(value) if integral else _is_finite(value)) or value <= 0:
                raise RegistryError(f"{source}: field {grid_field.name!r} of 'grid' must be a "
                                    f"positive {'int' if integral else 'number'}, got {value!r}")
        for key in ("output_mean", "output_std"):
            if not _is_finite(payload[key]):
                raise RegistryError(f"{source}: field {key!r} must be a finite number, "
                                    f"got {payload[key]!r}")
        if payload["output_std"] <= 0:
            raise RegistryError(f"{source}: field 'output_std' must be positive, "
                                f"got {payload['output_std']!r}")
        known = {f.name for f in _MANIFEST_FIELDS}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def summary(self) -> dict:
        """Compact dict for listings (``GET /v1/models``)."""
        return {
            "name": self.name, "version": self.version,
            "model_class": self.model_class, "grid": dict(self.grid),
            "dtype": self.dtype, "param_count": self.param_count,
            "content_hash": self.content_hash,
        }


_MANIFEST_FIELDS = fields(ModelManifest)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _build_model(manifest: ModelManifest, weights: Path):
    from repro.experiments import TABLE2_METHODS, build_method

    source = manifest_path_for(weights)
    if manifest.model_class not in TABLE2_METHODS:
        raise RegistryError(f"{source}: field 'model_class' names unknown method "
                            f"{manifest.model_class!r} (known: {list(TABLE2_METHODS)})")
    nn.init.seed(REBUILD_SEED)
    model, _ = build_method(manifest.model_class, manifest.grid_config())
    try:
        model.load(weights)
    except (KeyError, ValueError) as error:
        # load_state_dict's first line counts the offending parameters
        raise RegistryError(
            f"{weights} does not fit the {manifest.model_class!r} that {source} "
            f"names in 'model_class': {str(error.args[0]).splitlines()[0]}") from error
    return model


def save_checkpoint(model, path: str | Path, method: str, grid: GridConfig,
                    name: str | None = None, version: int = 1,
                    extra: dict | None = None) -> ModelManifest:
    """Write ``model``'s weights plus a manifest sidecar; returns the manifest."""
    state = model.state_dict()
    dtypes = sorted({str(v.dtype) for v in state.values()})
    # the serving path casts weights exactly once, at load; publishing
    # anything but uniform float64 would silently re-introduce the
    # per-request conversion that cast used to hide
    if dtypes != ["float64"]:
        raise RegistryError(
            f"checkpoint parameters must be uniform float64 to publish, "
            f"got dtypes {dtypes}")
    weights = model.save(path)
    manifest = ModelManifest(
        name=name if name is not None else weights.stem,
        version=int(version),
        model_class=method,
        grid=asdict(grid),
        dtype=dtypes[0] if len(dtypes) == 1 else "mixed",
        param_count=int(sum(v.size for v in state.values())),
        content_hash=_sha256_file(weights),
        output_mean=float(getattr(model, "output_mean", 0.0)),
        output_std=float(getattr(model, "output_std", 1.0)),
        created_unix_s=round(time.time(), 3),
        extra=dict(extra or {}),
    )
    manifest_path_for(weights).write_text(manifest.to_json())
    return manifest


def read_manifest(weights_path: str | Path) -> ModelManifest:
    """Parse the manifest sidecar of a standalone checkpoint."""
    path = manifest_path_for(weights_path)
    if not path.exists():
        raise RegistryError(f"no manifest at {path}; `repro train` writes one beside "
                            "the weights, as do save_checkpoint() and a ModelRegistry")
    return ModelManifest.from_json(path.read_text(), source=str(path))


def verify_checkpoint(weights_path: str | Path,
                      manifest: ModelManifest | None = None) -> ModelManifest:
    """Check the weights bytes against the manifest hash; returns the manifest."""
    weights = normalize_weights_path(weights_path)
    if manifest is None:
        manifest = read_manifest(weights)
    if not weights.exists():
        raise RegistryError(f"weights file missing: {weights}")
    actual = _sha256_file(weights)
    if actual != manifest.content_hash:
        raise IntegrityError(
            f"checkpoint {weights} fails integrity verification: "
            f"manifest says {manifest.content_hash}, file hashes to {actual} "
            "(corrupted or tampered weights)")
    return manifest


def load_checkpoint(weights_path: str | Path, verify: bool = True):
    """Rebuild the architecture from the manifest and load verified weights.

    Returns ``(model, manifest)``.  ``verify=False`` skips the content
    hash (loading a checkpoint you just wrote yourself).
    """
    weights = normalize_weights_path(weights_path)
    manifest = read_manifest(weights)
    if verify:
        verify_checkpoint(weights, manifest)
    model = _build_model(manifest, weights)
    model.set_output_stats(manifest.output_mean, manifest.output_std)
    return model, manifest


class ModelRegistry:
    """Directory-backed registry of versioned checkpoints.

    Layout::

        root/
          <name>/
            v1/ weights.npz  weights.manifest.json
            v2/ ...

    Versions are positive integers; ``publish`` defaults to
    ``latest + 1``.  The directory is the source of truth — no extra
    index file to go stale.
    """

    WEIGHTS_FILENAME = "weights.npz"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # serializes publish's version-pick + mkdir so two concurrent
        # publishes of the same name cannot both resolve latest+1 to the
        # same version (guards this process; the mkdir(exist_ok=False)
        # below backstops cross-process races)
        self._publish_lock = make_lock("serve.registry.publish")

    # -- resolution ----------------------------------------------------
    def names(self) -> list[str]:
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and self.versions(p.name))

    def versions(self, name: str) -> list[int]:
        model_dir = self.root / name
        if not model_dir.is_dir():
            return []
        found = []
        for entry in model_dir.iterdir():
            if (entry.is_dir() and entry.name.startswith("v")
                    and entry.name[1:].isdigit()
                    and (entry / self.WEIGHTS_FILENAME).exists()):
                found.append(int(entry.name[1:]))
        return sorted(found)

    def latest(self, name: str) -> int:
        versions = self.versions(name)
        if not versions:
            raise RegistryError(f"registry {self.root} has no model named {name!r} "
                                f"(available: {self.names() or 'none'})")
        return versions[-1]

    def weights_path(self, name: str, version: int | None = None) -> Path:
        version = self.latest(name) if version is None else int(version)
        path = self.root / name / f"v{version}" / self.WEIGHTS_FILENAME
        if not path.exists():
            raise RegistryError(f"no checkpoint for {name!r} v{version} under {self.root}")
        return path

    # -- publish / load ------------------------------------------------
    def publish(self, model, method: str, grid: GridConfig, name: str,
                version: int | None = None, extra: dict | None = None) -> ModelManifest:
        # the lock covers version-pick *and* the weights write: versions()
        # only counts a directory once weights.npz exists, so releasing
        # between the two would let a concurrent publish of the same name
        # resolve latest+1 to the same number
        with self._publish_lock:
            if version is None:
                existing = self.versions(name)
                version = (existing[-1] + 1) if existing else 1
            elif version in self.versions(name):
                raise RegistryError(f"{name!r} v{version} already published; "
                                    "versions are immutable")
            target_dir = self.root / name / f"v{version}"
            (self.root / name).mkdir(parents=True, exist_ok=True)
            try:
                # strict mkdir backstops publishers in *other* processes,
                # which this lock cannot see
                target_dir.mkdir()
            except FileExistsError:
                raise RegistryError(
                    f"{name!r} v{version} already claimed (concurrent "
                    f"publisher or leftover {target_dir}); versions are "
                    "immutable") from None
            return save_checkpoint(model, target_dir / self.WEIGHTS_FILENAME,
                                   method=method, grid=grid, name=name,
                                   version=version, extra=extra)

    def manifest(self, name: str, version: int | None = None) -> ModelManifest:
        return read_manifest(self.weights_path(name, version))

    def load(self, name: str, version: int | None = None, verify: bool = True):
        """``(model, manifest)`` for a published checkpoint."""
        return load_checkpoint(self.weights_path(name, version), verify=verify)

    def models(self) -> list[dict]:
        """Manifest summaries for every published (name, version)."""
        out = []
        for name in self.names():
            latest = self.latest(name)
            for version in self.versions(name):
                summary = self.manifest(name, version).summary()
                summary["latest"] = version == latest
                out.append(summary)
        return out

