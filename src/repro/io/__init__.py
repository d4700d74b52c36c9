"""Model and deployment persistence.

The paper's deployment flow is two-phase: weights are trained off-chip,
then "programming occurs before the use of the inference circuit and is
managed by a memory controller" (§II-B).  That hand-off needs artefact
formats.  This package provides two, both plain numpy ``.npz`` (no
pickle, safe to load from untrusted sources):

* :func:`save_model` / :func:`load_model` — training checkpoints: the
  full ``state_dict`` with a metadata record so stale or mismatched
  checkpoints fail loudly;
* :func:`save_plan` / :func:`load_plan` / :func:`load_compiled` — the
  **deployment artifact**: a whole compiled plan (packed weight words,
  integer thresholds, op kinds, geometry metadata and periphery specs).
  Loading needs no live model and rebinds to any registered backend —
  ``load_compiled(path, backend="sharded")`` programs simulated chips
  from the file;
* :func:`save_bundle` / :func:`load_bundle` / :func:`load_compiled_bundle`
  — the **multi-tenant bundle**: N named plans in one file, the unit a
  multi-model chip (and the serving daemon) deploys; single-plan files
  load transparently as one-tenant bundles and vice versa.

A classifier-only deployment is a plan artifact too:
``save_plan(plan_from_folded(*fold_classifier_stack(model)), path)``.

Every ``save_*`` refuses to overwrite an existing file unless
``overwrite=True``.
"""

from repro.io.checkpoints import load_model, save_model
from repro.io.plans import (BundleArtifact, PlanArtifact, load_bundle,
                            load_compiled, load_compiled_bundle, load_plan,
                            save_bundle, save_plan)

__all__ = ["save_model", "load_model", "PlanArtifact", "save_plan",
           "load_plan", "load_compiled", "BundleArtifact", "save_bundle",
           "load_bundle", "load_compiled_bundle"]
