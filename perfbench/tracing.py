"""Outside-in tracing: spans around the program's public layer functions.

The program calls these functions through module attribute lookups, so
replacing the attributes from the benchmark lets a wrapper see every call
without any change to the program. Spans (name, start, end, parent span,
run id) stay in memory and are written out when the run ends. Tape-node
counts are taken by walking the loss tensor's graph after the span that
built it has closed; that walk is recorded as a `bench.*` span, which is
excluded from every layer's time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from trendfuse import cli, encoder, fusion, ingest, models, numerics, train
from trendfuse.models import RECURRENT_KINDS, VALID_KINDS

LAYERS = ("numerics", "models", "fusion", "train", "encoder", "ingest", "cli")

# (owner, attribute); the span is named "<layer>.<attribute>".
POINTS = [
    (numerics, "backward"), (numerics, "adam_step"),
    (numerics.ParameterStore, "save"), (numerics.ParameterStore, "load"),
    (models, "unroll"), (models, "feedforward_net"), (models, "output_head"),
    (fusion, "embed"), (fusion, "conv_text"), (fusion, "attention_over_features"),
    (fusion, "fuse"),
    (train, "train_model"), (train, "evaluate"), (train, "train_and_evaluate"),
    (train, "ablate_prior_effect"), (train, "batch_arrays"), (train, "forward_batch"),
    (train, "bce_loss"),
    (encoder, "pretrain_mlm"), (encoder, "similar_word_mask"), (encoder, "encode_text"),
    (encoder, "mlm_predictions"), (encoder, "mlm_loss"), (encoder, "encode_feature"),
    (encoder, "read_features"), (encoder, "write_features"), (encoder, "load_encoder"),
    (ingest, "parse_market_csv"), (ingest, "to_binary_labels"), (ingest, "make_windows"),
    (ingest, "split_train_test"), (ingest, "load_summaries"), (ingest, "summarize"),
    (cli, "main"), (cli, "cmd_featurize"), (cli, "cmd_train"), (cli, "cmd_evaluate"),
    (cli, "cmd_ablate"), (cli, "cmd_report"),
]
# Functions whose result is a scalar loss: its graph is the step's tape.
LOSS_SPANS = {"train.bce_loss", "encoder.mlm_loss"}
# Spans that own training steps; a step ends with numerics.adam_step.
STEP_OWNERS = {"train.train_model", "encoder.pretrain_mlm"}

NAME, START, END, PARENT, RUN, TAG, COUNT = range(7)


def _layer(owner) -> str:
    module = owner.__name__ if isinstance(owner, type(numerics)) else owner.__module__
    return module.rsplit(".", 1)[-1]


def _model_kind(args, kwargs):
    for value in (*args, *kwargs.values()):
        if isinstance(value, train.TrainConfig):
            return value.model.kind
    return None


def tape_nodes(loss) -> int:
    """Number of distinct tensors reachable from `loss` through its parents."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        self.spans: list = []
        self.run = 0
        self._stack: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        for owner, attr in POINTS:
            raw = vars(owner)[attr]
            name = f"{_layer(owner)}.{attr}"
            tag = _model_kind if name in ("train.train_model", "train.evaluate") else None
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, tag))
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _wrap(self, fn, name, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counted = name in LOSS_SPANS

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run,
                                tag(args, kwargs) if tag else None, None)
            if counted:
                walk_start = clock()
                nodes = tape_nodes(out)
                spans.append(("bench.tape_nodes", walk_start, clock(), parent,
                              self.run, None, nodes))
            return out

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run, tag, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run, "tag": tag,
                                     "count": count}) + "\n")


def _per(total: float, n: int, scale: float = 1e3) -> float:
    return scale * total / n if n else 0.0


def pass_metrics(spans: list, first: int, end: int) -> tuple[dict, dict]:
    """Per-layer times and exact counts for the spans of one pass.

    The pass's spans are spans[first:end]; parents index the full list.
    Returns (times, counts); each count is the set of distinct values seen,
    so the caller can flag a pass whose steps disagree.
    """
    child = defaultdict(float)
    owner: dict[int, int] = {}
    for i in range(first, end):
        span = spans[i]
        parent = span[PARENT]
        if parent >= first:
            child[parent] += span[END] - span[START]
        owner[i] = i if span[NAME] in STEP_OWNERS else owner.get(parent, -1)

    def kind(i):
        o = owner[i]
        return spans[o][TAG] if o >= 0 and spans[o][NAME] == "train.train_model" else None

    def in_pretrain(i):
        return owner[i] >= 0 and spans[owner[i]][NAME] == "encoder.pretrain_mlm"

    busy = defaultdict(float)          # (name, kind) -> seconds inside train_model
    nbusy = defaultdict(int)
    calls = defaultdict(float)         # name -> seconds, every call
    ncalls = defaultdict(int)
    sentence = defaultdict(float)      # name -> seconds inside pretrain_mlm
    nsentence = defaultdict(int)
    nodes = defaultdict(set)           # kind or "sentence" -> distinct tape sizes
    self_s = dict.fromkeys(LAYERS, 0.0)
    cover = [0.0, 0.0]                 # covered, interval over all training steps
    for i in range(first, end):
        name = spans[i][NAME]
        dur = spans[i][END] - spans[i][START]
        layer = name.split(".", 1)[0]
        if layer in self_s:
            self_s[layer] += dur - child[i]
        calls[name] += dur
        ncalls[name] += 1
        k = kind(i)
        if k is not None:
            busy[name, k] += dur
            nbusy[name, k] += 1
        if in_pretrain(i):
            sentence[name] += dur
            nsentence[name] += 1
        if name == "bench.tape_nodes":
            nodes[k if k is not None else "sentence" if in_pretrain(i) else "other"].add(
                spans[i][COUNT])
        if name in STEP_OWNERS:
            _step_cover(spans, i, end, cover)

    def step_sum(name, kinds):
        return sum(busy[name, k] for k in kinds)

    steps = {k: nbusy["numerics.adam_step", k] for k in VALID_KINDS}
    all_steps = sum(steps.values())
    rec_steps = sum(steps[k] for k in RECURRENT_KINDS)
    sentences = nsentence["numerics.adam_step"]
    times = {}
    for k in VALID_KINDS:
        times[f"numerics.backward_ms_per_step.{k}"] = _per(busy["numerics.backward", k], steps[k])
        times[f"numerics.adam_ms_per_step.{k}"] = _per(busy["numerics.adam_step", k], steps[k])
    for k in RECURRENT_KINDS:
        times[f"models.unroll_ms_per_step.{k}"] = _per(busy["models.unroll", k], steps[k])
    times["models.feedforward_net_ms_per_step"] = _per(
        busy["models.feedforward_net", "feedforward"], steps["feedforward"])
    times["models.output_head_ms_per_step"] = _per(
        step_sum("models.output_head", RECURRENT_KINDS), rec_steps)
    times["fusion.text_path_ms_per_step"] = _per(
        step_sum("fusion.embed", VALID_KINDS) + step_sum("fusion.conv_text", VALID_KINDS),
        all_steps)
    times["fusion.attention_ms_per_step"] = _per(
        step_sum("fusion.attention_over_features", RECURRENT_KINDS), rec_steps)
    times["fusion.fuse_ms_per_step"] = _per(step_sum("fusion.fuse", RECURRENT_KINDS), rec_steps)
    for name in ("batch_arrays", "forward_batch", "bce_loss"):
        times[f"train.{name}_ms_per_step"] = _per(step_sum(f"train.{name}", VALID_KINDS),
                                                  all_steps)
    times["train.evaluate_ms"] = _per(calls["train.evaluate"], ncalls["train.evaluate"])
    times["numerics.backward_ms_per_sentence"] = _per(sentence["numerics.backward"], sentences)
    times["encoder.similar_word_mask_ms_per_sentence"] = _per(
        sentence["encoder.similar_word_mask"], sentences)
    times["encoder.encode_text_ms_per_sentence"] = _per(sentence["encoder.encode_text"],
                                                        sentences)
    times["encoder.mlm_ms_per_sentence"] = _per(
        sentence["encoder.mlm_predictions"] + sentence["encoder.mlm_loss"], sentences)
    times["encoder.encode_feature_ms_per_text"] = _per(calls["encoder.encode_feature"],
                                                       ncalls["encoder.encode_feature"])
    for metric, name in (("ingest.parse_market_csv_ms", "ingest.parse_market_csv"),
                         ("ingest.make_windows_ms", "ingest.make_windows"),
                         ("ingest.load_summaries_ms", "ingest.load_summaries"),
                         ("encoder.read_features_ms", "encoder.read_features"),
                         ("encoder.write_features_ms", "encoder.write_features"),
                         ("encoder.load_encoder_ms", "encoder.load_encoder"),
                         ("numerics.checkpoint_save_ms", "numerics.save"),
                         ("numerics.checkpoint_load_ms", "numerics.load")):
        times[metric] = _per(calls[name], ncalls[name])
    for cmd in ("featurize", "train", "evaluate", "ablate", "report"):
        times[f"cli.{cmd}_s"] = calls[f"cli.cmd_{cmd}"]
    for layer in LAYERS:
        times[f"layer_self_s.{layer}"] = self_s[layer]
    times["trace.step_coverage"] = cover[0] / cover[1] if cover[1] else 0.0

    counts = {f"numerics.tape_nodes_per_step.{k}": nodes[k] for k in VALID_KINDS}
    counts["numerics.tape_nodes_per_sentence"] = nodes["sentence"]
    counts["train.steps"] = {all_steps}
    counts["train.models_trained"] = {ncalls["train.train_model"]}
    return times, counts


def _step_cover(spans, owner_index, end, cover) -> None:
    """Add the span-covered time and the duration of each step of one owner.

    A step runs from the owner's first direct child after the previous
    update to the end of its numerics.adam_step; bench spans inside it are
    tracer overhead and are taken out of both sums.
    """
    owner_end = spans[owner_index][END]
    step_start, covered, bench = None, 0.0, 0.0
    for j in range(owner_index + 1, end):
        span = spans[j]
        if span[START] >= owner_end:
            break
        if span[PARENT] != owner_index:
            continue
        if step_start is None:
            step_start = span[START]
        dur = span[END] - span[START]
        if span[NAME].startswith("bench."):
            bench += dur
        else:
            covered += dur
        if span[NAME] == "numerics.adam_step":
            cover[0] += covered
            cover[1] += span[END] - step_start - bench
            step_start, covered, bench = None, 0.0, 0.0
