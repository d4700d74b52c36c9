"""Training and cross-validation harness.

Implements the paper's evaluation protocol (§III-A/B): train from scratch
with Adam, additive-noise data augmentation, k-fold cross-validation with
non-overlapping validation subsets, averaged over repeats.  All randomness
flows from explicit seeds so every benchmark table is reproducible
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.crossval import stratified_kfold_indices
from repro.data.dataset import ArrayDataset
from repro.data.transforms import GaussianNoiseAugment
from repro.nn import CrossEntropyLoss, clip_latent_weights
from repro.nn.module import Module
from repro.optim import Adam, SGD
from repro.tensor import Tensor, no_grad

__all__ = ["TrainConfig", "TrainResult", "CrossValResult", "train_model",
           "evaluate_accuracy", "evaluate_topk", "predict_scores",
           "evaluate_report", "cross_validate", "evaluate_compiled",
           "backend_agreement", "artifact_agreement"]


@dataclass
class TrainConfig:
    """Hyper-parameters for one training run.

    The paper trains 1000 epochs; offline benches default far lower and
    document the paper value in their module docstrings.
    """

    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    optimizer: str = "adam"          # 'adam' or 'sgd'
    momentum: float = 0.9            # SGD only
    weight_decay: float = 0.0
    augment_sigma: float = 0.0       # additive-noise augmentation
    latent_clip: float = 1.0         # BNN latent-weight clip
    read_noise_sigma: float = 0.0    # RRAM sense-offset sigma in the loop
    # Arm only these binary layers (qualified module names); None = all.
    # Matching the deployment matters: classifier-on-chip readout only
    # perturbs fc layers, so training should too.
    read_noise_layers: tuple[str, ...] | None = None
    seed: int = 0
    track_history: bool = False      # record per-epoch accuracies (Fig. 8)
    eval_topk: tuple[int, ...] = (1,)
    early_stop_patience: int = 0     # 0 disables; needs a validation set
    early_stop_min_delta: float = 0.0


@dataclass
class TrainResult:
    """Outcome of one training run."""

    final_accuracy: float
    history: list[dict[str, float]] = field(default_factory=list)
    stopped_epoch: int | None = None  # early-stopping trigger point, if any


@dataclass
class CrossValResult:
    """Aggregated k-fold cross-validation accuracies."""

    fold_accuracies: np.ndarray

    @property
    def mean(self) -> float:
        return float(self.fold_accuracies.mean())

    @property
    def std(self) -> float:
        return float(self.fold_accuracies.std())

    def __repr__(self) -> str:
        return f"CrossValResult(mean={self.mean:.3f}, std={self.std:.3f})"


def _make_optimizer(model: Module, cfg: TrainConfig):
    if cfg.optimizer == "adam":
        return Adam(model.parameters(), lr=cfg.lr,
                    weight_decay=cfg.weight_decay)
    if cfg.optimizer == "sgd":
        return SGD(model.parameters(), lr=cfg.lr, momentum=cfg.momentum,
                   weight_decay=cfg.weight_decay)
    raise ValueError(f"unknown optimizer {cfg.optimizer!r}")


def evaluate_accuracy(model: Module, inputs: np.ndarray, labels: np.ndarray,
                      batch_size: int = 64) -> float:
    """Top-1 accuracy in eval mode."""
    return evaluate_topk(model, inputs, labels, (1,), batch_size)[1]


def evaluate_topk(model: Module, inputs: np.ndarray, labels: np.ndarray,
                  ks: tuple[int, ...] = (1, 5), batch_size: int = 64
                  ) -> dict[int, float]:
    """Top-k accuracies in eval mode, evaluated in batches.

    One sort over the preallocated score matrix replaces the historic
    per-batch ``argsort`` + per-k Python loop; a cumulative hit mask then
    answers every ``k`` from the single sorted order.  Row-wise sorting
    is independent of batch grouping, so the accuracies are identical to
    the looped form, ties included.
    """
    labels = np.asarray(labels)
    scores = predict_scores(model, inputs, batch_size)
    # Stable sort: the looped form kept the lower class index on tied
    # scores (argsort's default introsort does not), and the docstring
    # promises tie-identical results.
    order = np.argsort(-scores, axis=1, kind="stable")
    hit_at = np.cumsum(order == labels[:, None], axis=1) > 0
    n = len(inputs)
    n_classes = scores.shape[1]
    # k < 1 means an empty candidate set: 0 hits, as in the looped form.
    return {k: float(hit_at[:, min(k, n_classes) - 1].sum()) / n
            if k >= 1 else 0.0 for k in ks}


def predict_scores(model: Module, inputs: np.ndarray,
                   batch_size: int = 64) -> np.ndarray:
    """Raw class scores ``(N, classes)`` in eval mode, batched.

    The output buffer is preallocated after the first batch reveals the
    class count, so large evaluations write in place instead of
    accumulating a Python list and concatenating at the end.
    """
    was_training = model.training
    model.eval()
    n = len(inputs)
    scores: np.ndarray | None = None
    with no_grad():
        for start in range(0, n, batch_size):
            batch = model(Tensor(inputs[start:start + batch_size])).data
            if scores is None:
                scores = np.empty((n,) + batch.shape[1:], dtype=batch.dtype)
            scores[start:start + len(batch)] = batch
    if was_training:
        model.train()
    return scores if scores is not None \
        else np.empty((0, 0), dtype=np.float64)


def evaluate_report(model: Module, inputs: np.ndarray, labels: np.ndarray,
                    positive_class: int = 1, batch_size: int = 64):
    """Full diagnostic report (confusion matrix, sensitivity/specificity,
    ROC AUC) for a binary classifier — see :mod:`repro.metrics`.

    The ROC score for each sample is the positive-class margin
    ``score[pos] - score[neg]``.
    """
    from repro.metrics import classification_report

    scores = predict_scores(model, inputs, batch_size)
    if scores.shape[1] != 2:
        raise ValueError(
            f"diagnostic report expects a binary classifier, got "
            f"{scores.shape[1]} classes")
    predictions = scores.argmax(axis=1)
    margin = scores[:, positive_class] - scores[:, 1 - positive_class]
    return classification_report(labels, predictions, scores=margin,
                                 positive_class=positive_class)


def train_model(model: Module, train_inputs: np.ndarray,
                train_labels: np.ndarray, cfg: TrainConfig,
                val_inputs: np.ndarray | None = None,
                val_labels: np.ndarray | None = None) -> TrainResult:
    """Train a model; optionally track per-epoch validation accuracy.

    With ``cfg.read_noise_sigma > 0`` the RRAM read-noise surrogate is
    armed on every binary layer (:func:`repro.nn.set_read_noise`): each
    training forward perturbs the pre-threshold accumulations like a
    noisy word-line scan at that sense-offset sigma, while validation
    (eval mode) and the gradient path stay noise-free — hardware-in-the-
    loop training on its own RNG stream, so enabling it never shifts the
    shuffle/augmentation draws.
    """
    from repro.nn import set_read_noise

    rng = np.random.default_rng(cfg.seed)
    optimizer = _make_optimizer(model, cfg)
    loss_fn = CrossEntropyLoss()
    augment = GaussianNoiseAugment(cfg.augment_sigma, rng) \
        if cfg.augment_sigma > 0 else None
    if cfg.read_noise_sigma > 0:
        set_read_noise(model, cfg.read_noise_sigma,
                       rng=np.random.default_rng((cfg.seed, 0x5EED)),
                       layer_names=cfg.read_noise_layers)
    history: list[dict[str, float]] = []
    n = len(train_inputs)
    if cfg.early_stop_patience > 0 and val_inputs is None:
        raise ValueError("early stopping requires a validation set")
    best_val = -np.inf
    best_state: dict[str, np.ndarray] | None = None
    epochs_without_gain = 0
    stopped_epoch: int | None = None

    for epoch in range(cfg.epochs):
        model.train()
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            x = train_inputs[batch]
            if augment is not None:
                x = augment(x)
            logits = model(Tensor(x))
            loss = loss_fn(logits, train_labels[batch])
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            clip_latent_weights(model, cfg.latent_clip)
        need_val = (cfg.track_history or cfg.early_stop_patience > 0) \
            and val_inputs is not None
        if need_val:
            topk = evaluate_topk(model, val_inputs, val_labels,
                                 cfg.eval_topk)
            if cfg.track_history:
                record = {"epoch": float(epoch + 1)}
                record.update({f"top{k}": v for k, v in topk.items()})
                history.append(record)
            if cfg.early_stop_patience > 0:
                val_acc = topk[min(cfg.eval_topk)]
                if val_acc > best_val + cfg.early_stop_min_delta:
                    best_val = val_acc
                    best_state = model.state_dict()
                    epochs_without_gain = 0
                else:
                    epochs_without_gain += 1
                    if epochs_without_gain >= cfg.early_stop_patience:
                        stopped_epoch = epoch + 1
                        break

    if best_state is not None:
        model.load_state_dict(best_state)
    if val_inputs is not None:
        final = evaluate_accuracy(model, val_inputs, val_labels)
    else:
        final = evaluate_accuracy(model, train_inputs, train_labels)
    return TrainResult(final_accuracy=final, history=history,
                       stopped_epoch=stopped_epoch)


def evaluate_compiled(plan, inputs: np.ndarray, labels: np.ndarray,
                      batch_size: int | None = None,
                      trials: int | None = None, seed: int = 0):
    """Top-1 accuracy of a compiled runtime plan (any backend).

    The deployment-side mirror of :func:`evaluate_accuracy`: the same
    batched protocol (64-sample batches unless ``batch_size`` is given),
    but running the folded/packed/programmed plan produced by
    :func:`repro.runtime.compile` instead of the float stack.

    With ``trials`` set, the plan's Monte-Carlo axis is exercised instead:
    ``trials`` noisy evaluations run trial-batched on deterministic child
    streams of ``seed`` (:meth:`~repro.runtime.CompiledModel.
    predict_trials`) and the per-trial accuracy vector ``(trials,)`` is
    returned — the distribution behind the paper's robustness claims.  On
    deterministic backends every trial coincides.  The trials path runs
    unbatched unless ``batch_size`` is given explicitly, matching
    ``predict_trials``: noisy results are reproducible per ``(seed,
    batch_size)`` pair, so no batching is imposed silently.
    """
    labels = np.asarray(labels)
    if trials is None:
        predictions = plan.predict(
            np.asarray(inputs),
            batch_size=64 if batch_size is None else batch_size)
        return float((predictions == labels).mean())
    predictions = plan.predict_trials(np.asarray(inputs), trials, seed=seed,
                                      batch_size=batch_size)
    return (predictions == labels[None]).mean(axis=1)


def backend_agreement(model: Module, inputs: np.ndarray,
                      backends=("reference", "packed"),
                      batch_size: int = 64, **compile_kwargs):
    """Compile ``model`` for every backend and compare predictions.

    Returns ``(predictions, agreement)``: per-backend predicted labels and
    each backend's agreement fraction with the first one.  The standing
    deployment contract (Eq. 3) is that ``reference`` and ``packed`` agree
    bit-for-bit and ideal RRAM matches both; this helper is how the tests
    and examples check it on real data (the CLI ``compile`` command keeps
    its own loop because it also times each compiled plan).
    """
    from repro.runtime import compile as compile_model

    inputs = np.asarray(inputs)
    predictions: dict[str, np.ndarray] = {}
    for backend in backends:
        plan = compile_model(model, backend=backend, **compile_kwargs)
        key, suffix = plan.backend.name, 2
        while key in predictions:       # two configs of the same substrate
            key = f"{plan.backend.name}#{suffix}"
            suffix += 1
        predictions[key] = plan.predict(inputs, batch_size)
    names = list(predictions)
    baseline = predictions[names[0]]
    agreement = {name: float((predictions[name] == baseline).mean())
                 for name in names}
    return predictions, agreement


def artifact_agreement(artifact, inputs: np.ndarray,
                       backends=("reference", "packed"),
                       batch_size: int = 64, front_end=None):
    """Reload a saved plan artifact on every backend and compare
    predictions — :func:`backend_agreement` for deployment artifacts.

    ``artifact`` is a path (or a loaded
    :class:`~repro.io.PlanArtifact`); no model is needed.  Returns the
    same ``(predictions, agreement)`` pair as :func:`backend_agreement`,
    with duplicate substrate names disambiguated the same way.  This is
    the reproduction path for tables computed from a shipped artifact:
    the accuracy numbers come from the file, not from a re-trained model.
    """
    from repro.io import load_compiled, load_plan, PlanArtifact

    if not isinstance(artifact, PlanArtifact):
        artifact = load_plan(artifact)
    inputs = np.asarray(inputs)
    predictions: dict[str, np.ndarray] = {}
    for backend in backends:
        plan = load_compiled(artifact, backend=backend,
                             front_end=front_end)
        key, suffix = plan.backend.name, 2
        while key in predictions:       # two configs of the same substrate
            key = f"{plan.backend.name}#{suffix}"
            suffix += 1
        predictions[key] = plan.predict(inputs, batch_size)
    names = list(predictions)
    baseline = predictions[names[0]]
    agreement = {name: float((predictions[name] == baseline).mean())
                 for name in names}
    return predictions, agreement


def cross_validate(model_factory: Callable[[np.random.Generator], Module],
                   dataset: ArrayDataset, cfg: TrainConfig, k: int = 5,
                   repeats: int = 1,
                   fit_hook: Callable[[Module, np.ndarray], None]
                   | None = None) -> CrossValResult:
    """K-fold cross-validation, repeated with fresh models.

    ``model_factory(rng)`` builds an untrained model; ``fit_hook(model,
    train_inputs)`` runs any data-dependent setup (e.g. the ECG model's
    input normalization) on the training split only — never on validation
    data.
    """
    accuracies = []
    for repeat in range(repeats):
        split_rng = np.random.default_rng(cfg.seed + 1000 * repeat)
        folds = stratified_kfold_indices(dataset.labels, k, split_rng)
        for fold, (train_idx, val_idx) in enumerate(folds):
            model_rng = np.random.default_rng(
                cfg.seed + 1000 * repeat + fold)
            model = model_factory(model_rng)
            train_x = dataset.inputs[train_idx]
            train_y = dataset.labels[train_idx]
            if fit_hook is not None:
                fit_hook(model, train_x)
            fold_cfg = TrainConfig(**{**cfg.__dict__,
                                      "seed": cfg.seed + 1000 * repeat + fold,
                                      "track_history": False})
            train_model(model, train_x, train_y, fold_cfg)
            accuracies.append(evaluate_accuracy(
                model, dataset.inputs[val_idx], dataset.labels[val_idx]))
    return CrossValResult(np.asarray(accuracies))
