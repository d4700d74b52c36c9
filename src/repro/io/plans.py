"""Compiled-plan deployment artifacts: the paper's end state as a file.

A trained BNN ends its life on the RRAM chip as weight words plus integer
thresholds (§II-B: "programming occurs before the use of the inference
circuit").  ``runtime.compile`` produces exactly that; this module makes
it a *file*:

* :func:`save_plan` writes a versioned ``.npz`` holding every
  :class:`~repro.runtime.ir.PlanOp`'s payload — packed weight words,
  integer thresholds, op kind and geometry metadata (fan-in, kernel and
  stride, pad/depthwise hints) plus the declarative periphery specs;
* :func:`load_plan` reads it back without touching the training stack,
  refusing any other kind of file, a newer format version, and array
  values that would score silently wrong;
* :func:`load_compiled` rebinds the artifact to **any** registered
  backend (``reference`` / ``packed`` / ``rram`` / ``sharded`` / plug-
  ins) through ``resolve_backend`` + ``begin_plan`` + ``prepare_*`` —
  one artifact serves CPU verification and simulated-chip execution.

Because both the compiler and the loader build periphery ops from the
same specs (:mod:`repro.runtime.serialize`), a reloaded plan is
bit-identical to a freshly compiled one — the property the golden
artifact tests under ``tests/fixtures/plans/`` pin down.

Several plans can share one file: :func:`save_bundle` /
:func:`load_bundle` extend the format with a **bundle artifact** — N
named plans (tenants) under one version header, the deployment unit of
the multi-tenant chip (every tenant's packed words programmed onto one
macro pool, see :mod:`repro.rram.floorplan`).  Single-plan files load
transparently as one-tenant bundles, and a one-tenant bundle loads
transparently as a plan, so every consumer takes either kind.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

import numpy as np

from repro import __version__
from repro.io.common import read_npz, write_npz

__all__ = ["PlanArtifact", "BundleArtifact", "save_plan", "load_plan",
           "load_compiled", "save_bundle", "load_bundle",
           "load_compiled_bundle"]


@dataclass
class PlanArtifact:
    """An in-memory deployment artifact: plan payload, no executors."""

    format_version: int
    repro_version: str
    ops: list[dict]                       # one meta entry per plan op
    arrays: dict[str, np.ndarray] = field(repr=False)
    meta: dict = field(repr=False)

    @property
    def self_contained(self) -> bool:
        """True when every op rebuilds from the artifact alone (no
        ``external`` front-end closing over the original model)."""
        return all(entry["op"] != "external" for entry in self.ops)

    @property
    def input_shape(self) -> tuple[int, ...] | None:
        """Per-sample input geometry recorded at save time (if known)."""
        shape = self.meta.get("input_shape")
        return tuple(int(s) for s in shape) if shape else None

    @property
    def layer_shapes(self) -> list[tuple[int, int]]:
        """Weight-matrix shapes of the substrate ops, in plan order."""
        return [tuple(entry["weight_shape"])
                for entry in self.ops if entry["role"] in ("layer",
                                                           "output")]

    def describe(self) -> str:
        """Human-readable artifact listing (one line per op)."""
        header = (f"plan artifact v{self.format_version} "
                  f"(saved with repro {self.repro_version}, "
                  f"{'self-contained' if self.self_contained else 'needs a front_end'})")
        lines = [header, "-" * len(header)]
        for entry in self.ops:
            geometry = ""
            if "weight_shape" in entry:
                rows, cols = entry["weight_shape"]
                geometry = (f"  [{rows}x{cols} words, "
                            f"fan-in {entry['params']['fan_in']}]")
            lines.append(f"{entry['index']:2d}. {entry['role']:<10} "
                         f"{entry['label']}{geometry}")
        return "\n".join(lines)


def save_plan(plan, path, *, overwrite: bool = False,
              allow_external_front_end: bool = False) -> pathlib.Path:
    """Write a compiled plan as a versioned deployment artifact.

    The artifact is backend-independent: it stores the folded forms and
    periphery specs, never the prepared executors, so loading rebinds it
    to any registered backend.  Plans whose front-end is the float
    feature stack of the model (non-lowered compiles, custom closures)
    are only partially serializable; pass
    ``allow_external_front_end=True`` to save them anyway — reloading
    then requires a ``front_end=`` callable.

    Refuses to replace an existing file unless ``overwrite=True``.
    """
    from repro.runtime.serialize import FORMAT_VERSION

    model_meta, arrays = _model_payload(
        plan, allow_external_front_end=allow_external_front_end)
    meta = {
        "kind": "compiled_plan",
        "format_version": FORMAT_VERSION,
        "repro_version": __version__,
        **model_meta,
    }
    return write_npz(path, arrays, meta, overwrite=overwrite)


def _model_payload(plan, *, allow_external_front_end: bool = False):
    """Serialize one compiled plan: ``(model_meta, arrays)``.

    The shared core of :func:`save_plan` and :func:`save_bundle` —
    ``model_meta`` is everything but the envelope (kind / versions),
    ``arrays`` the flat ``op{i}.{name}`` payload.
    """
    from repro.runtime.serialize import (PlanSerializationError,
                                         plan_payload)

    ops_meta, arrays = plan_payload(plan)
    external = [entry["label"] for entry in ops_meta
                if entry["op"] == "external"]
    if external and not allow_external_front_end:
        raise PlanSerializationError(
            f"plan front-end {external[0]!r} closes over the model and "
            "cannot be rebuilt from the artifact alone; compile with "
            "lower_features=True (fully binarized models) for a "
            "self-contained artifact, or pass "
            "allow_external_front_end=True and supply front_end= at "
            "load time")
    for entry in ops_meta:
        if entry["role"] in ("layer", "output"):
            entry["weight_shape"] = list(
                arrays[f"op{entry['index']}.weight_bits"].shape)
    front_params = ops_meta[0]["params"] if ops_meta else {}
    return {
        "backend": plan.backend.name,
        "self_contained": not external,
        "input_shape": front_params.get("input_shape"),
        "n_ops": len(ops_meta),
        "ops": ops_meta,
    }, arrays


def load_plan(path, *, model: str | None = None) -> PlanArtifact:
    """Read a plan artifact.

    Every single-plan load runs one path: the kind, the format version
    (artifacts written by a newer repro fail loudly instead of
    mis-deserializing), then the array value checks.  Any other kind of
    file, a training checkpoint included, is refused by name.

    Bundle files load transparently: ``model=`` picks the tenant, and a
    one-tenant bundle needs no name at all.  For single-plan files
    ``model`` is ignored (so callers can pass it unconditionally).
    """
    arrays, meta = read_npz(path)
    if meta.get("kind") == "plan_bundle":
        return _bundle_from_payload(arrays, meta, path).plan(model)
    return _plan_from_payload(arrays, meta, path)


def _plan_from_payload(arrays, meta, path) -> PlanArtifact:
    """Validate a single-plan npz payload into a :class:`PlanArtifact`."""
    if meta.get("kind") != "compiled_plan":
        raise ValueError(
            f"{path} holds a {meta.get('kind')!r} artefact, not a "
            "compiled plan")
    version = _check_version(meta, path)
    _check_arrays(meta["ops"], arrays, path)
    return PlanArtifact(format_version=version,
                        repro_version=meta.get("repro_version", "unknown"),
                        ops=meta["ops"], arrays=arrays, meta=meta)


def _check_version(meta: dict, path) -> int:
    """The artifact's ``format_version``, refused when malformed or newer
    than this build reads."""
    from repro.runtime.serialize import FORMAT_VERSION

    version = meta.get("format_version")
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"{path} has a malformed format_version "
                         f"({version!r})")
    if version > FORMAT_VERSION:
        raise ValueError(
            f"{path} was saved as plan-artifact format v{version}; this "
            f"repro build reads up to v{FORMAT_VERSION} — upgrade repro "
            "to load it")
    return version


def _check_arrays(ops: list[dict], arrays: dict, where) -> None:
    """Refuse array values that would load and score without an error.

    Front-end weight bits outside {0, 1}, non-finite batch-norm arrays
    or a negative variance (NaN thresholds) on the front and on
    ``avg_pool_bridge``, and output ``scale``/``offset`` whose length is
    not the class count (they would broadcast) all change the scores
    silently.  A refusal names ``where`` (the file), the op and the
    array.  Missing arrays are left to the op builders.
    """
    for entry in ops:
        index = entry["index"]

        def refuse(name: str, why: str):
            raise ValueError(f"{where}: op {index} ({entry['op']}) array "
                             f"{name!r} {why}")

        present = {name: np.asarray(arrays[f"op{index}.{name}"])
                   for name in entry["arrays"]
                   if f"op{index}.{name}" in arrays}
        if entry["role"] == "front" and "weight_bits" in present:
            if not np.isin(present["weight_bits"], (0, 1)).all():
                refuse("weight_bits", "holds values outside {0, 1}")
        if entry["role"] == "front" or entry["op"] == "avg_pool_bridge":
            for name, values in present.items():
                if not name.startswith("bn_"):
                    continue
                if not np.isfinite(values).all():
                    refuse(name, "holds non-finite values")
                if name == "bn_var" and (values < 0).any():
                    refuse(name, "holds negative variances")
        if entry["op"] == "output" and "weight_bits" in present:
            classes = len(present["weight_bits"])
            for name in ("scale", "offset"):
                if name in present and present[name].shape != (classes,):
                    refuse(name, f"has shape {present[name].shape}, not "
                                 f"({classes},) for {classes} classes")


def load_compiled(path, backend="reference", *, front_end=None,
                  model: str | None = None):
    """Rebuild an executable :class:`~repro.runtime.CompiledModel` from a
    saved artifact, bound to ``backend`` — no live model required.

    ``backend`` accepts a registered name or a configured
    :class:`~repro.runtime.Backend` instance (e.g.
    ``ShardedRRAMBackend(macro=MacroGeometry(7, 13))``).  ``front_end``
    supplies the input closure for artifacts whose front-end is
    ``external``; self-contained artifacts ignore it.  ``model`` selects
    a tenant when ``path`` is a bundle (ignored for single plans).

    ``path`` may also be an already-loaded :class:`PlanArtifact` or
    :class:`BundleArtifact`, so the file is parsed once when rebinding
    to several backends.
    """
    from repro.runtime import CompiledModel, resolve_backend
    from repro.runtime.serialize import ops_from_payload

    if isinstance(path, BundleArtifact):
        artifact = path.plan(model)
    elif isinstance(path, PlanArtifact):
        artifact = path
    else:
        artifact = load_plan(path, model=model)
    backend = resolve_backend(backend)
    backend.begin_plan()
    ops = ops_from_payload(artifact.ops, artifact.arrays, backend,
                           front_end=front_end)
    return CompiledModel(ops, backend)


# --------------------------------------------------------------------------
# Bundle artifacts: N named plans under one version header.
# --------------------------------------------------------------------------

@dataclass
class BundleArtifact:
    """An in-memory multi-tenant deployment artifact: named plans that
    are meant to be resident on one chip together."""

    format_version: int
    repro_version: str
    models: dict[str, PlanArtifact] = field(repr=False)
    meta: dict = field(repr=False)

    @property
    def names(self) -> tuple[str, ...]:
        """Tenant names, in bundle (save) order."""
        return tuple(self.models)

    def __len__(self) -> int:
        return len(self.models)

    def __contains__(self, name: str) -> bool:
        return name in self.models

    def __getitem__(self, name: str) -> PlanArtifact:
        return self.plan(name)

    def plan(self, model: str | None = None) -> PlanArtifact:
        """One tenant's plan; ``model=None`` is allowed only for a
        one-tenant bundle (the single-plan compatibility path)."""
        if model is None:
            if len(self.models) == 1:
                return next(iter(self.models.values()))
            raise ValueError(
                f"bundle holds {len(self.models)} models "
                f"({', '.join(self.names)}); pass model= to pick one")
        try:
            return self.models[model]
        except KeyError:
            raise ValueError(
                f"bundle has no model {model!r} "
                f"(has: {', '.join(self.names)})") from None

    def describe(self) -> str:
        """Human-readable bundle listing (tenants, then per-tenant ops)."""
        header = (f"plan bundle v{self.format_version} "
                  f"(saved with repro {self.repro_version}, "
                  f"{len(self.models)} models)")
        lines = [header, "=" * len(header)]
        for name, artifact in self.models.items():
            lines.append(f"[{name}]")
            lines.append(artifact.describe())
        return "\n".join(lines)


def _bundle_names(plans) -> list[str]:
    """Validate tenant names: non-empty printable strings, unique."""
    names = list(plans)
    if not names:
        raise ValueError("a bundle needs at least one model")
    for name in names:
        if not isinstance(name, str) or not name or not name.isprintable():
            raise ValueError(f"bad model name {name!r}: bundle models "
                             "need non-empty printable string names")
    return names


def save_bundle(plans, path, *, overwrite: bool = False,
                allow_external_front_end: bool = False) -> pathlib.Path:
    """Write several named plans as one versioned bundle artifact.

    ``plans`` maps tenant name to a compiled plan *or* an
    already-loaded :class:`PlanArtifact` (so existing single-plan files
    can be re-bundled without recompiling).  Per-tenant payloads keep
    the exact single-plan serialization under a ``model{i}.`` array
    namespace — a tenant extracted from a bundle is byte-identical to
    the same plan saved alone.
    """
    from repro.runtime.serialize import FORMAT_VERSION

    names = _bundle_names(plans)
    model_metas, arrays = [], {}
    for index, name in enumerate(names):
        plan = plans[name]
        if isinstance(plan, PlanArtifact):
            model_meta = {key: plan.meta[key] for key in
                          ("backend", "self_contained", "input_shape",
                           "n_ops") if key in plan.meta}
            model_meta["ops"] = plan.ops
            model_arrays = plan.arrays
        else:
            model_meta, model_arrays = _model_payload(
                plan, allow_external_front_end=allow_external_front_end)
        model_metas.append({"name": name, **model_meta})
        for key, value in model_arrays.items():
            arrays[f"model{index}.{key}"] = value
    meta = {
        "kind": "plan_bundle",
        "format_version": FORMAT_VERSION,
        "repro_version": __version__,
        "n_models": len(names),
        "names": names,
        "models": model_metas,
    }
    return write_npz(path, arrays, meta, overwrite=overwrite)


def _bundle_from_payload(arrays, meta, path) -> BundleArtifact:
    """Demux a bundle npz payload into per-tenant :class:`PlanArtifact`s."""
    version = _check_version(meta, path)
    repro_version = meta.get("repro_version", "unknown")
    models: dict[str, PlanArtifact] = {}
    for index, model_meta in enumerate(meta["models"]):
        name = model_meta["name"]
        if name in models:
            raise ValueError(f"{path} names model {name!r} twice")
        prefix = f"model{index}."
        model_arrays = {key[len(prefix):]: value
                        for key, value in arrays.items()
                        if key.startswith(prefix)}
        _check_arrays(model_meta["ops"], model_arrays,
                      f"{path} model {name!r}")
        models[name] = PlanArtifact(
            format_version=version, repro_version=repro_version,
            ops=model_meta["ops"], arrays=model_arrays,
            meta={"kind": "compiled_plan", "format_version": version,
                  "repro_version": repro_version,
                  **{k: v for k, v in model_meta.items() if k != "name"}})
    return BundleArtifact(format_version=version,
                          repro_version=repro_version,
                          models=models, meta=meta)


def load_bundle(path) -> BundleArtifact:
    """Read a bundle artifact; a single-plan file loads transparently as
    a one-tenant bundle named after the file stem.  Both run the same
    version and array checks as :func:`load_plan`.

    ``path`` may also be an already-loaded :class:`BundleArtifact` or
    :class:`PlanArtifact`.
    """
    if isinstance(path, BundleArtifact):
        return path
    if isinstance(path, PlanArtifact):
        return BundleArtifact(
            format_version=path.format_version,
            repro_version=path.repro_version,
            models={"default": path},
            meta={"kind": "plan_bundle", "wrapped_single_plan": True})
    arrays, meta = read_npz(path)
    if meta.get("kind") == "plan_bundle":
        return _bundle_from_payload(arrays, meta, path)
    # Single-plan file: one-tenant bundle, named by stem.
    artifact = _plan_from_payload(arrays, meta, path)
    name = pathlib.Path(str(path)).stem or "default"
    return BundleArtifact(
        format_version=artifact.format_version,
        repro_version=artifact.repro_version,
        models={name: artifact},
        meta={"kind": "plan_bundle", "wrapped_single_plan": True})


def load_compiled_bundle(path, backend="reference", *, front_end=None):
    """Rebuild every tenant of a bundle: ``{name: CompiledModel}``.

    Each tenant binds to its **own** backend instance — a registered
    name resolves freshly per tenant, and a zero-argument factory
    (e.g. ``lambda: ShardedRRAMBackend(macro=...)``) is called per
    tenant — so per-plan backend state such as floorplan placements
    stays per-tenant (``begin_plan`` resets it between compiles).
    Co-resident placement across tenants is a floorplan-level step;
    see :class:`repro.rram.ChipPlacer`.  Passing one already-built
    :class:`~repro.runtime.Backend` instance shares it across tenants,
    which is only sound for stateless backends.
    """
    from repro.runtime import Backend, resolve_backend

    bundle = load_bundle(path)
    compiled = {}
    for name, artifact in bundle.models.items():
        if callable(backend) and not isinstance(backend, Backend):
            tenant_backend = backend()
        else:
            tenant_backend = resolve_backend(backend)
        compiled[name] = load_compiled(artifact, backend=tenant_backend,
                                       front_end=front_end)
    return compiled
