"""Feature stack between raw inputs and the recurrent predictor.

Text features are lifted by an affine embedding, scanned by a valid 1-D
convolution with ReLU, and blended with the recurrent output through a
learnable convex gate. Attention weighting assigns softmax weights over a
set of candidate feature vectors using a dot-product score against a
state vector.

Attention weighting (scores, max-shifted softmax and the weighted context
over the (B, m, H) block of candidates that `models.unroll` returns) and
the fusion gate (optional projection plus the convex blend) are each
one tape primitive (`numerics.fused`) with a hand-written backward.
`tests/oracles.py` keeps their compositions from single tape ops as
references.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import numerics as nm
from .errors import ContractError, DivergenceError, ShapeError
from .numerics import ParameterStore, Tensor


def embed(feature: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    """Affine lift of a feature row-batch into the embedding width."""
    w, b = params["w_e"], params["b_e"]
    if feature.shape[1] != w.shape[0]:
        raise ShapeError(f"feature width {feature.shape} does not match "
                         f"embedding weights {w.shape}")
    return nm.add(nm.matmul(feature, w), b)


def conv_text(embedded: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    """Valid stride-1 cross-correlation over each row, bias, then ReLU."""
    return nm.relu(nm.add(nm.conv1d_rows(embedded, params["w_c"]), params["b_c"]))


def attention_over_features(query: Tensor, candidates: Tensor) -> tuple[Tensor, Tensor]:
    """Softmax-weighted combination of candidate features, as one tape primitive.

    `candidates` stacks m candidate rows per query row as (B, m, H), as
    `models.unroll` returns its step rows. Scores are plain dot products
    between the query rows and each candidate, weighted by a max-shifted
    softmax; returns (weights of shape (B, m), context of query width).
    """
    stacked = candidates.data
    if stacked.ndim != 3 or stacked.shape[1] == 0:
        raise ContractError(f"need a (B, m, H) block of at least one candidate, "
                            f"got {candidates.shape}")
    if stacked.shape[::2] != query.shape:
        raise ShapeError(f"candidate shape {candidates.shape} does not match "
                         f"query shape {query.shape}")
    scores = (query.data[:, None, :] * stacked).sum(axis=2)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    context = np.einsum("bm,bmh->bh", alpha, stacked)

    def back(g_alpha, g_context) -> None:
        d_alpha = np.zeros_like(alpha) if g_alpha is None else g_alpha
        d_feats = 0.0
        if g_context is not None:
            d_alpha = d_alpha + (g_context[:, None, :] * stacked).sum(axis=2)
            d_feats = alpha[:, :, None] * g_context[:, None, :]
        d_scores = alpha * (d_alpha - (d_alpha * alpha).sum(axis=1, keepdims=True))
        nm.accumulate(query, np.einsum("bm,bmh->bh", d_scores, stacked))
        nm.accumulate(candidates, d_feats + d_scores[:, :, None] * query.data[:, None, :])

    return nm.fused((query, candidates), (alpha, context), back)


def fuse(recurrent_out: Tensor, text_context: Tensor,
         params: Mapping[str, Tensor]) -> Tensor:
    """Convex blend Z = g * recurrent + (1 - g) * text, g = sigmoid(gamma_raw),
    as one tape primitive.

    When the text context is narrower or wider than the recurrent output it
    first passes through the learned projection in `params`. Non-finite
    inputs mean training has diverged and raise DivergenceError.
    """
    if not (np.isfinite(recurrent_out.data).all() and np.isfinite(text_context.data).all()):
        raise DivergenceError("fuse inputs must be finite: the recurrent output or "
                              "the text context holds NaN or inf")
    rec, text = recurrent_out.data, text_context.data
    proj = ()
    if text.shape[1] != rec.shape[1]:
        if "proj_w" not in params:
            raise ShapeError(f"text context width {text.shape[1]} needs a "
                             f"projection to {rec.shape[1]}")
        proj = (params["proj_w"], params["proj_b"])
        text = text @ proj[0].data + proj[1].data
    gamma_raw = params["gamma_raw"]
    gamma = nm.logistic(gamma_raw.data)

    def back(g: np.ndarray) -> None:
        nm.accumulate(recurrent_out, g * gamma)
        d_text = g * (1.0 - gamma)
        d_gamma = _sum_rows_cols(g * rec) - _sum_rows_cols(g * text)
        nm.accumulate(gamma_raw, d_gamma * gamma * (1.0 - gamma))
        if not proj:
            nm.accumulate(text_context, d_text)
            return
        w, b = proj
        nm.accumulate(w, text_context.data.T @ d_text)
        nm.accumulate(b, d_text.sum(axis=0, keepdims=True))
        if text_context.requires_grad:
            nm.accumulate(text_context, d_text @ w.data.T)

    out = gamma * rec + (1.0 - gamma) * text
    return nm.fused((recurrent_out, text_context, gamma_raw, *proj), (out,), back)[0]


def _sum_rows_cols(a: np.ndarray) -> np.ndarray:
    """Sum of a 2-D array as a (1, 1) array, rows first."""
    return a.sum(axis=0, keepdims=True).sum(axis=1, keepdims=True)


def conv_output_len(input_len: int, kernel_len: int) -> int:
    if kernel_len > input_len:
        raise ShapeError(f"kernel length {kernel_len} exceeds input length {input_len}")
    return input_len - kernel_len + 1


def add_text_path_params(store: ParameterStore, rng: np.random.Generator,
                         feature_len: int, embed_width: int, kernel_len: int,
                         prefix: str = "text") -> None:
    """Create the embedding and convolution parameters for the text path."""
    conv_output_len(embed_width, kernel_len)
    store.add(f"{prefix}.w_e", nm.uniform_init(rng, feature_len, (feature_len, embed_width)))
    store.add(f"{prefix}.b_e", np.zeros((1, embed_width)))
    store.add(f"{prefix}.w_c", nm.uniform_init(rng, kernel_len, (kernel_len,)))
    store.add(f"{prefix}.b_c", np.zeros((1, 1)))


def add_fuse_gate_params(store: ParameterStore, rng: np.random.Generator,
                         conv_len: int, out_width: int,
                         prefix: str = "text") -> None:
    """Create the gate scalar plus the width-aligning projection if needed."""
    if conv_len != out_width:
        store.add(f"{prefix}.proj_w", nm.uniform_init(rng, conv_len, (conv_len, out_width)))
        store.add(f"{prefix}.proj_b", np.zeros((1, out_width)))
    store.add(f"{prefix}.gamma_raw", np.zeros((1, 1)))
