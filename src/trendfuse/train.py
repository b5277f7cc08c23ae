"""Training loop, binary cross-entropy loss, metrics, and the ablation harness.

The forward pass per sample batch: the text feature runs through the
embedding/convolution path; the per-day [normalized price, prior bit]
pairs, stacked as one (B, T, 2) block, unroll through the configured
recurrent cell (`models.unroll`); the per-step states are
attention-pooled with the final state as query; the pooled state and the
text context meet in the convex fusion gate; a fully connected head
emits the upward-move probability. The feedforward baseline instead maps
the flattened inputs straight to the probability.

`forward_batch` runs that pass in numpy and `_backward_batch` runs the
primitives' backwards in reverse. A training step records them as one
tape node with no parents, whose backward adds into the parameters'
gradients itself, then the BCE loss node (and, in lockstep,
`numerics.sum_`); scoring runs `forward_batch` alone, over row blocks of
at most SCORE_CHUNK held-out samples, so its temporaries do not grow with
the test span. `train_replicas` trains several models in lockstep as one
stacked model, and `train_model` is its one-replica case. Samples arrive
as one `ingest.Samples` block of row-aligned arrays, and batches are row
slices of them. A store made from `pipeline_layout`'s rows holds every
parameter and gradient as views of its flat vectors, which the Adam state
(`numerics.adam_state`) points at: each step zeroes the flat gradient,
the backward adds into it, and `numerics.adam_step` updates in place.

Batches run in chronological order with no shuffling, so a fixed
(config, data, seed) triple reproduces bit-identical parameters, loss
traces, and reports.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import fusion, models, numerics as nm
from .errors import (ConfigError, ContractError, DivergenceError, check_bool,
                     check_integer, is_real)
from .ingest import Samples
from .models import ModelSpec
from .numerics import ParameterStore, Row, Tensor

# Lower clamp of p and of 1 - p inside the loss.
PROB_CLAMP = 1e-7

# Held-out rows per scoring forward: a bound on its temporaries, which
# would otherwise grow with the test span.
SCORE_CHUNK = 512


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    model: ModelSpec = field(default_factory=ModelSpec)
    prior_effect: bool = True
    window: int = 6
    feature_len: int = 16
    embed_width: int = 16
    kernel_len: int = 3

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0), ("window", 2),
                          ("feature_len", 1), ("embed_width", 1), ("kernel_len", 1)):
            check_integer(name, getattr(self, name), low)
        check_bool("prior_effect", self.prior_effect)
        if not is_real(self.lr) or not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a finite number > 0, got {self.lr!r}")
        if self.kernel_len > self.embed_width:
            raise ConfigError(f"kernel_len must be in [1, embed_width={self.embed_width}], "
                              f"got {self.kernel_len}")


@dataclass
class EvalReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int
    loss_trace: list[float] = field(default_factory=list)
    predictions: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field, shallow (no copy of the predictions), and `metrics_at`."""
        return {**{f.name: getattr(self, f.name) for f in dataclasses.fields(self)},
                "metrics_at": "final_epoch"}


def bce_loss(p: Tensor, targets) -> Tensor:
    """Mean BCE of a (..., B, 1) probability column against (..., B) targets,
    as one tape node of the leading shape (a scalar for one column).

    Probabilities are clamped below at 1e-7 on both sides (p and 1 - p);
    no gradient flows through a clamped side. Each row's loss and gradient
    come from its one selected probability, p for a target of 1 and 1 - p
    for 0: the value and gradient of y log p + (1 - y) log(1 - p), whose
    other term is an exact zero.
    """
    y = np.asarray(targets, dtype=np.float64)[..., None]
    if p.shape != y.shape:
        raise ContractError(f"{p.shape} probabilities for {y.shape} targets")
    pd = p.data
    if np.any((pd < 0) | (pd > 1)):
        raise ContractError("probabilities must lie in [0, 1]")
    up = y == 1
    if not np.all(up | (y == 0)):
        raise ContractError("targets must be 0 or 1")
    picked = np.where(up, pd, 1.0 - pd)
    clamped = np.maximum(picked, PROB_CLAMP)
    scale = 1.0 / pd.shape[-2]

    def back(g: np.ndarray) -> None:
        c = g[..., None, None] * scale
        nm.accumulate(p, np.where(picked > PROB_CLAMP, np.where(up, -c, c) / clamped, 0.0))

    return nm.fused((p,), -(np.log(clamped).sum(axis=(-2, -1)) * scale), back)


def pipeline_layout(config: TrainConfig) -> Iterator[Row]:
    """The (name, shape, start) rows of the full forward pass, in draw order."""
    spec = config.model
    conv_len = fusion.conv_output_len(config.embed_width, config.kernel_len)
    yield from fusion.text_path_layout(config.feature_len, config.embed_width, config.kernel_len)
    if spec.kind == "feedforward":
        yield from models.model_layout(spec, 2 * (config.window - 1) + conv_len)
        return
    yield from fusion.fuse_gate_layout(conv_len, spec.output_width)
    yield from models.model_layout(spec, 2)
    yield from models.head_layout(spec.output_width)


def init_pipeline_params(config: TrainConfig) -> ParameterStore:
    """Parameters for the full forward pass, drawn from `default_rng(seed)`."""
    return ParameterStore(pipeline_layout(config), np.random.default_rng(config.seed))


def batch_arrays(samples: Samples,
                 prior_effect: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The block's (priors, prices, texts, targets) row matrices.

    With the prior effect disabled the prior block is zero-masked, keeping
    every input width identical across ablation arms.
    """
    priors = samples.priors if prior_effect else np.zeros_like(samples.priors)
    return priors, samples.prices, samples.texts, samples.targets


def forward_batch(store: ParameterStore, config: TrainConfig, priors: np.ndarray,
                  prices: np.ndarray, texts: np.ndarray,
                  saved: list | None = None) -> np.ndarray:
    """Probability column for a batch of stacked sample arrays, which may
    carry a leading replica axis to match parameters stacked as (R, ...).
    With a `saved` list, each primitive keeps what `_backward_batch` needs."""
    text_params = store.view("text")
    embedded = fusion.embed(texts, text_params, saved)
    context = fusion.conv_text(embedded, text_params, saved)
    if config.model.kind == "feedforward":
        return models.feedforward_net(prices, priors, context, store.view("cell"), saved)
    pairs = np.stack([prices, priors], axis=-1)                     # (..., B, T, 2)
    steps, final = models.unroll(config.model, store.view("cell"), pairs, saved)
    _, pooled = fusion.attention_over_features(final, steps, saved)
    fused = fusion.fuse(pooled, context, text_params, saved)
    return models.output_head(fused, store.view("head"), saved)


def _backward_batch(config: TrainConfig, saved: list, d_p: np.ndarray) -> None:
    """Backward of `forward_batch` from d_p, the probabilities' gradient:
    the primitives' backwards in reverse, adding into the parameters' grads."""
    if config.model.kind == "feedforward":
        d_context = models.feedforward_net_back(d_p, saved)
    else:
        d_pooled, d_context = fusion.fuse_back(models.output_head_back(d_p, saved), saved)
        d_final, d_steps = fusion.attention_over_features_back(None, d_pooled, saved)
        models.unroll_back(d_steps, d_final, saved)
    fusion.embed_back(fusion.conv_text_back(d_context, saved), saved)


def train_replicas(samples_per_replica: Sequence[Samples],
                   configs: Sequence[TrainConfig]) -> list[tuple[ParameterStore, list[float]]]:
    """Adam-train R predictors in lockstep (`torch.func` model ensembling);
    returns (params, per-epoch loss) per replica.

    The replicas' initial stores are stacked as (R, ...) into one store,
    each batch runs as (R, B, ·) blocks through one forward, backward and
    flat Adam step, and each returned store is made from its slice. The
    loss sums the replicas' mean BCE, so each gets exactly its own
    gradient. Configs may differ only in `seed` (each replica draws its
    init from its own `default_rng(seed)`) and `prior_effect`, with one
    sample count for all; else ContractError. Each replica equals its solo
    `train_model` run: the same loss trace and labels, parameters and
    probabilities within 1e-12.
    """
    if not configs or len(configs) != len(samples_per_replica):
        raise ContractError(f"{len(samples_per_replica)} sample sets for "
                            f"{len(configs)} replica configs")
    base = configs[0]
    if any(dataclasses.replace(c, seed=base.seed, prior_effect=base.prior_effect) != base
           for c in configs):
        raise ContractError("replica configs may differ only in seed and prior_effect")
    n = len(samples_per_replica[0])
    if any(len(s) != n for s in samples_per_replica):
        raise ContractError("every replica needs the same number of training samples")
    if not n:
        raise ContractError("training set is empty")
    lead = (len(configs),) if len(configs) > 1 else ()  # one replica runs unstacked

    def stack(parts: Sequence[np.ndarray]) -> np.ndarray:
        return np.stack(parts).reshape(*lead, *parts[0].shape)

    stores = [init_pipeline_params(c) for c in configs]
    store = ParameterStore((name, (*lead, *t.shape), stack([s[name].data for s in stores]))
                           for name, t in stores[0].items())
    state = nm.adam_state(store, lr=base.lr)
    arrays = [stack(parts) for parts in zip(*(
        batch_arrays(s, c.prior_effect) for s, c in zip(samples_per_replica, configs)))]
    traces = np.empty((base.epochs, len(configs)))
    for epoch in range(base.epochs):
        totals = np.zeros(len(configs))
        for start in range(0, n, base.batch_size):
            rows = (slice(None),) * len(lead) + (slice(start, start + base.batch_size),)
            priors, prices, texts, targets = (a[rows] for a in arrays)
            saved: list = []
            probs = Tensor(forward_batch(store, base, priors, prices, texts, saved),
                           requires_grad=True,
                           backward=lambda g: _backward_batch(base, saved, g))
            means = bce_loss(probs, targets)
            finite = np.isfinite(means.data).reshape(-1)
            if not finite.all():
                raise DivergenceError(f"non-finite loss at epoch {epoch}, batch "
                                      f"{start // base.batch_size}, replica {finite.argmin()}")
            state.grad.fill(0.0)
            nm.backward(nm.sum_(means) if lead else means)
            nm.adam_step(state)
            totals += means.data * targets.shape[-1]
        traces[epoch] = totals / n
    return [(ParameterStore((name, t.shape, store[name].data.reshape(-1, *t.shape)[r])
                            for name, t in stores[0].items()), traces[:, r].tolist())
            for r in range(len(configs))]


def train_model(samples: Samples,
                config: TrainConfig) -> tuple[ParameterStore, list[float]]:
    """Adam-train the configured predictor; returns params and per-epoch loss."""
    return train_replicas([samples], [config])[0]


def confusion_report(labels, targets) -> EvalReport:
    """EvalReport metrics from predicted and actual binary labels.

    Precision and recall fall back to 0 when their denominator is 0, and
    F1 to 0 when precision + recall is 0, so reports stay well-formed.
    """
    labels = np.asarray(labels, dtype=int).reshape(-1)
    targets = np.asarray(targets, dtype=int).reshape(-1)
    if labels.shape != targets.shape:
        raise ContractError(f"{labels.shape} labels for {targets.shape} targets")
    tp = int(np.sum((labels == 1) & (targets == 1)))
    fp = int(np.sum((labels == 1) & (targets == 0)))
    tn = int(np.sum((labels == 0) & (targets == 0)))
    fn = int(np.sum((labels == 0) & (targets == 1)))
    accuracy = (tp + tn) / len(labels)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(accuracy=accuracy, precision=precision, recall=recall, f1=f1,
                      tp=tp, fp=fp, tn=tn, fn=fn)


def evaluate(store: ParameterStore, config: TrainConfig,
             samples: Samples,
             loss_trace: list[float] | None = None) -> EvalReport:
    """Confusion counts and derived metrics over a held-out sample set.

    A probability of 0.5 or more labels as 1. Scoring keeps nothing for a
    backward pass and runs `forward_batch` over row blocks of at most
    SCORE_CHUNK samples; each row's probability is the one a single forward
    over every row gives (within 1e-12, as for replicas). A non-finite
    probability is a DivergenceError naming the first such row's date.
    """
    if not samples:
        raise ContractError("evaluation set is empty")
    priors, prices, texts, targets = batch_arrays(samples, config.prior_effect)
    blocks = (slice(start, start + SCORE_CHUNK) for start in range(0, len(samples), SCORE_CHUNK))
    probs = np.concatenate([
        forward_batch(store, config, priors[rows], prices[rows], texts[rows]).reshape(-1)
        for rows in blocks])
    finite = np.isfinite(probs)
    if not finite.all():
        raise DivergenceError("non-finite probability for held-out date "
                              f"{samples.dates[finite.argmin()]}")
    labels = (probs >= 0.5).astype(int)
    report = confusion_report(labels, targets)
    report.loss_trace = list(loss_trace or [])
    report.predictions = [
        {"date": day.isoformat(), "probability": pr, "label": lb, "target": tg}
        for day, pr, lb, tg in zip(samples.dates, probs.tolist(), labels.tolist(),
                                   targets.astype(int).tolist())
    ]
    return report


def train_and_evaluate(train_samples: Samples, test_samples: Samples,
                       config: TrainConfig) -> tuple[ParameterStore, EvalReport]:
    store, trace = train_model(train_samples, config)
    return store, evaluate(store, config, test_samples, loss_trace=trace)


def ablate_prior_effect(train_samples: Samples, test_samples: Samples,
                        config: TrainConfig) -> tuple[EvalReport, EvalReport, dict[str, float]]:
    """Train twice from the same seed, toggling only the prior-history input.

    The disabled arm feeds a zero vector of the same length, so both arms
    share identical architectures and parameter shapes, and they train in
    lockstep as two replicas. Returns the two reports plus the F1/recall
    deltas (enabled minus disabled).
    """
    arms = [dataclasses.replace(config, prior_effect=flag) for flag in (True, False)]
    trained = train_replicas([train_samples] * 2, arms)
    report_with, report_without = (evaluate(store, cfg, test_samples, loss_trace=trace)
                                   for (store, trace), cfg in zip(trained, arms))
    deltas = {"f1_delta": report_with.f1 - report_without.f1,
              "recall_delta": report_with.recall - report_without.recall}
    return report_with, report_without, deltas
