"""Feature stack between raw inputs and the recurrent predictor.

Text features are lifted by an affine embedding, scanned by a valid 1-D
convolution with ReLU, and blended with the recurrent output through a
learnable convex gate. The convolution is one matmul by the kernel's
banded (E, out_len) matrix, filled from index arrays cached per (E, k);
its backward multiplies by the band's transpose and sums xᵀ @ d along
the band's diagonals for the kernel's gradient. Attention weighting
assigns softmax weights over a set of candidate feature vectors using a
dot-product score against a state vector.

Each primitive is a numpy forward and its backward, `<name>_back`, on the
package's `saved`-list convention, which `models` and `encoder` follow too:
- the forward takes its parameters as the `numerics.Tensor`s of a store
  or store view, read through `.data`, and last `saved=None`; given a
  list, it appends what its backward needs, and without one it keeps
  nothing;
- `<name>_back(output gradients..., saved)` pops that entry, adds each
  parameter's gradient into the parameter's `grad` array, which the
  caller zeroes, and returns the input gradients;
- so one list serves a whole model when the backwards run in the reverse
  order of the forwards. `tests/test_numerics.py` checks the signatures.

Here every primitive takes (R, B, ·) replica blocks against parameters
stacked as (R, ...), whose layout rows `train.pipeline_layout` joins.
`train._backward_batch` runs the backwards in reverse; `tests/oracles.py`
puts each pair on the tape (`taped`) and keeps single-op compositions as
references.
"""

from __future__ import annotations

import functools
from typing import Iterator, Mapping

import numpy as np

from . import numerics as nm
from .errors import ContractError, ShapeError
from .numerics import Row, Tensor

Params = Mapping[str, Tensor]


def embed(feature: np.ndarray, params: Params, saved: list | None = None) -> np.ndarray:
    """Affine lift of a feature row-batch into the embedding width."""
    w, b = params["w_e"], params["b_e"]
    if feature.shape[-1] != w.shape[-2]:
        raise ShapeError(f"feature width {feature.shape} does not match "
                         f"embedding weights {w.shape}")
    if saved is not None:
        saved.append((feature, params))
    return feature @ w.data + b.data


def embed_back(g: np.ndarray, saved: list) -> np.ndarray:
    feature, params = saved.pop()
    return nm.affine_back(feature, params["w_e"], params["b_e"], g)


def conv_text(embedded: np.ndarray, params: Params, saved: list | None = None) -> np.ndarray:
    """Valid stride-1 cross-correlation over each row with the (k,) kernel,
    bias, then ReLU: out[..., i] = relu(b + sum_j kernel[j] * x[..., i + j]).

    The correlation is one matmul by the kernel's banded (E, out_len)
    matrix, which holds kernel[j] at row i + j of column i."""
    kernel, x = params["w_c"].data, embedded
    rows, cols = _band_index(x.shape[-1], kernel.shape[-1])
    band = np.zeros((*kernel.shape[:-1], x.shape[-1], cols.shape[-1]))
    band[..., rows, cols] = kernel[..., None]
    pre = x @ band
    pre += params["b_c"].data
    if saved is not None:
        saved.append((x, params, band, rows, cols, pre))
    return np.maximum(0.0, pre)


def conv_text_back(g: np.ndarray, saved: list) -> np.ndarray:
    x, params, band, rows, cols, pre = saved.pop()
    d = g * (pre > 0)
    params["b_c"].grad += _sum_rows_cols(d)
    params["w_c"].grad += (nm.mT(x) @ d)[..., rows, cols].sum(axis=-1)
    return d @ nm.mT(band)


@functools.lru_cache(maxsize=None)
def _band_index(length: int, kernel_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices, each (k, out_len), of the entries of the
    banded convolution matrix: tap j of column i sits at row i + j."""
    cols = np.arange(conv_output_len(length, kernel_len))
    rows = cols + np.arange(kernel_len)[:, None]
    rows.flags.writeable = False
    return rows, np.broadcast_to(cols, rows.shape)


def attention_over_features(query: np.ndarray, candidates: np.ndarray,
                            saved: list | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Softmax-weighted combination of candidate features.

    `candidates` stacks m candidate rows per query row as (..., B, m, H), as
    `models.unroll` returns its step rows. Scores are plain dot products
    between the query rows and each candidate, weighted by a max-shifted
    softmax; returns (weights of shape (..., B, m), context of query width).
    Both sums over a short axis are matmuls: the scores are
    `candidates @ query` and the context `alpha @ candidates`, row by row.
    """
    if candidates.ndim < 3 or candidates.shape[-2] == 0:
        raise ContractError(f"need a (B, m, H) block of at least one candidate, "
                            f"got {candidates.shape}")
    if candidates.shape[:-2] + candidates.shape[-1:] != query.shape:
        raise ShapeError(f"candidate shape {candidates.shape} does not match "
                         f"query shape {query.shape}")
    alpha = nm.softmax_probs((candidates @ query[..., :, None])[..., 0])
    if saved is not None:
        saved.append((query, candidates, alpha))
    return alpha, (alpha[..., None, :] @ candidates)[..., 0, :]


def attention_over_features_back(g_alpha: np.ndarray | None, g_context: np.ndarray | None,
                                 saved: list) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the query and the candidates; one of the outputs'
    gradients may be None (no gradient)."""
    query, stacked, alpha = saved.pop()
    d_alpha, d_feats = g_alpha, 0.0
    if g_context is not None:
        from_context = (stacked @ g_context[..., :, None])[..., 0]
        d_alpha = from_context if g_alpha is None else g_alpha + from_context
        d_feats = alpha[..., :, None] * g_context[..., None, :]
    d_scores = nm.softmax_back(d_alpha, alpha)
    return ((d_scores[..., None, :] @ stacked)[..., 0, :],
            d_feats + d_scores[..., :, None] * query[..., None, :])


def fuse(recurrent_out: np.ndarray, text_context: np.ndarray, params: Params,
         saved: list | None = None) -> np.ndarray:
    """Convex blend Z = g * recurrent + (1 - g) * text, g = sigmoid(gamma_raw).

    When the text context is narrower or wider than the recurrent output it
    first passes through the learned projection in `params`. Non-finite
    inputs pass through: training's loss check and scoring's probability
    check (`train`) name where a run diverged.
    """
    rec, text = recurrent_out, text_context
    project = text.shape[-1] != rec.shape[-1]
    if project:
        if "proj_w" not in params:
            raise ShapeError(f"text context width {text.shape[-1]} needs a "
                             f"projection to {rec.shape[-1]}")
        text = text @ params["proj_w"].data + params["proj_b"].data
    gamma = nm.logistic(params["gamma_raw"].data)
    if saved is not None:
        saved.append((rec, text_context, text, gamma, project, params))
    return gamma * rec + (1.0 - gamma) * text


def fuse_back(g: np.ndarray, saved: list) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the recurrent output and of the text context."""
    rec, text_context, text, gamma, project, params = saved.pop()
    d_text = g * (1.0 - gamma)
    params["gamma_raw"].grad += _sum_rows_cols(g * (rec - text)) * gamma * (1.0 - gamma)
    if project:
        d_text = nm.affine_back(text_context, params["proj_w"], params["proj_b"], d_text)
    return g * gamma, d_text


def _sum_rows_cols(a: np.ndarray) -> np.ndarray:
    """Sum over the last two axes, kept as (..., 1, 1), as one reduction."""
    return a.reshape(*a.shape[:-2], 1, -1).sum(axis=-1, keepdims=True)


def conv_output_len(input_len: int, kernel_len: int) -> int:
    if kernel_len > input_len:
        raise ShapeError(f"kernel length {kernel_len} exceeds input length {input_len}")
    return input_len - kernel_len + 1


def text_path_layout(feature_len: int, embed_width: int, kernel_len: int) -> Iterator[Row]:
    """The embedding and convolution rows of the text path, in draw order."""
    yield "text.w_e", (feature_len, embed_width), nm.Uniform(feature_len)
    yield "text.b_e", (1, embed_width), 0.0
    yield "text.w_c", (kernel_len,), nm.Uniform(kernel_len)
    yield "text.b_c", (1, 1), 0.0


def fuse_gate_layout(conv_len: int, out_width: int) -> Iterator[Row]:
    """The gate scalar's row, after the width-aligning projection's if needed."""
    if conv_len != out_width:
        yield "text.proj_w", (conv_len, out_width), nm.Uniform(conv_len)
        yield "text.proj_b", (1, out_width), 0.0
    yield "text.gamma_raw", (1, 1), 0.0
