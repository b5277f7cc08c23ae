"""Feature stack between raw inputs and the recurrent predictor.

Text features are lifted by an affine embedding, scanned by a valid 1-D
convolution with ReLU, and blended with the recurrent output through a
learnable convex gate. Attention weighting assigns softmax weights over a
set of candidate feature vectors using a dot-product score against a
state vector.

The embedding, the convolution with its bias and ReLU, attention
weighting over the (B, m, H) candidates that `models.unroll` returns, and
the fusion gate are each one tape primitive (`numerics.fused`) with a
hand-written backward, which also takes (R, B, ·) replica blocks.
`tests/oracles.py` keeps their single-op compositions as references.
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
    if feature.shape[-1] != w.shape[-2]:
        raise ShapeError(f"feature width {feature.shape} does not match "
                         f"embedding weights {w.shape}")
    return nm.fused((feature, w, b), (feature.data @ w.data + b.data,),
                    lambda g: nm.affine_back(feature, w, b, g))[0]


def conv_text(embedded: Tensor, params: Mapping[str, Tensor]) -> Tensor:
    """Valid stride-1 cross-correlation over each row with the (k,) kernel,
    bias, then ReLU: out[..., i] = relu(b + sum_j kernel[j] * x[..., i + j])."""
    kernel, bias, x = params["w_c"], params["b_c"], embedded.data
    out_len = conv_output_len(x.shape[-1], kernel.shape[-1])
    taps = [kernel.data[..., j, None, None] for j in range(kernel.shape[-1])]
    pre = np.zeros((*x.shape[:-1], out_len))
    for j, tap in enumerate(taps):
        pre += tap * x[..., j:j + out_len]
    pre += bias.data

    def back(g: np.ndarray) -> None:
        d = g * (pre > 0)
        nm.accumulate(bias, _sum_rows_cols(d))
        nm.accumulate(kernel, np.stack([(d * x[..., j:j + out_len]).sum(axis=(-2, -1))
                                        for j in range(len(taps))], axis=-1))
        if embedded.requires_grad:
            d_x = np.zeros_like(x)
            for j, tap in enumerate(taps):
                d_x[..., j:j + out_len] += tap * d
            nm.accumulate(embedded, d_x)

    return nm.fused((embedded, kernel, bias), (np.maximum(0.0, pre),), back)[0]


def attention_over_features(query: Tensor, candidates: Tensor) -> tuple[Tensor, Tensor]:
    """Softmax-weighted combination of candidate features, as one tape primitive.

    `candidates` stacks m candidate rows per query row as (..., B, m, H), as
    `models.unroll` returns its step rows. Scores are plain dot products
    between the query rows and each candidate, weighted by a max-shifted
    softmax; returns (weights of shape (..., B, m), context of query width).
    """
    stacked = candidates.data
    if stacked.ndim < 3 or stacked.shape[-2] == 0:
        raise ContractError(f"need a (B, m, H) block of at least one candidate, "
                            f"got {candidates.shape}")
    if stacked.shape[:-2] + stacked.shape[-1:] != query.shape:
        raise ShapeError(f"candidate shape {candidates.shape} does not match "
                         f"query shape {query.shape}")
    scores = (query.data[..., None, :] * stacked).sum(axis=-1)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    context = np.einsum("...m,...mh->...h", alpha, stacked)

    def back(g_alpha, g_context) -> None:
        d_alpha = np.zeros_like(alpha) if g_alpha is None else g_alpha
        d_feats = 0.0
        if g_context is not None:
            d_alpha = d_alpha + (g_context[..., None, :] * stacked).sum(axis=-1)
            d_feats = alpha[..., None] * g_context[..., None, :]
        d_scores = alpha * (d_alpha - (d_alpha * alpha).sum(axis=-1, keepdims=True))
        nm.accumulate(query, np.einsum("...m,...mh->...h", d_scores, stacked))
        nm.accumulate(candidates, d_feats + d_scores[..., None] * query.data[..., None, :])

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
    if text.shape[-1] != rec.shape[-1]:
        if "proj_w" not in params:
            raise ShapeError(f"text context width {text.shape[-1]} needs a "
                             f"projection to {rec.shape[-1]}")
        proj = (params["proj_w"], params["proj_b"])
        text = text @ proj[0].data + proj[1].data
    gamma_raw = params["gamma_raw"]
    gamma = nm.logistic(gamma_raw.data)

    def back(g: np.ndarray) -> None:
        nm.accumulate(recurrent_out, g * gamma)
        d_text = g * (1.0 - gamma)
        d_gamma = _sum_rows_cols(g * rec) - _sum_rows_cols(g * text)
        nm.accumulate(gamma_raw, d_gamma * gamma * (1.0 - gamma))
        if proj:
            nm.affine_back(text_context, *proj, d_text)
        else:
            nm.accumulate(text_context, d_text)

    out = gamma * rec + (1.0 - gamma) * text
    return nm.fused((recurrent_out, text_context, gamma_raw, *proj), (out,), back)[0]


def _sum_rows_cols(a: np.ndarray) -> np.ndarray:
    """Sum over the last two axes, kept as (..., 1, 1), rows first."""
    return nm.row_sum(a).sum(axis=-1, keepdims=True)


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
