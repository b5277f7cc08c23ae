"""Loss, training loop, metrics, and the prior-effect ablation."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from oracles import confusion_counts, taped

from trendfuse import fusion, models, synthetic
from trendfuse import numerics as nm
from trendfuse import train as tr
from trendfuse.errors import ConfigError, ContractError, DivergenceError
from trendfuse.ingest import Samples, split_train_test
from trendfuse.models import RECURRENT_KINDS, VALID_KINDS, ModelSpec
from trendfuse.numerics import Tensor


def _config(**overrides):
    base = dict(epochs=4, batch_size=16, lr=1e-3, seed=1, window=6, feature_len=8,
                embed_width=8, kernel_len=3, model=ModelSpec(kind="lstm", hidden=8))
    base.update(overrides)
    return tr.TrainConfig(**base)


class TestBceLoss:
    def test_perfect_prediction_near_zero(self):
        loss = tr.bce_loss(Tensor([[1.0]]), [1])
        assert 0.0 <= loss.data.item() < 1e-6

    def test_half_probability_is_log_two(self):
        loss = tr.bce_loss(Tensor([[0.5]]), [1])
        np.testing.assert_allclose(loss.data.item(), math.log(2), atol=1e-12)

    def test_mean_of_equal_terms(self):
        loss = tr.bce_loss(Tensor([[0.5], [0.5]]), [1, 0])
        np.testing.assert_allclose(loss.data.item(), math.log(2), atol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.uniform(0, 1, size=(6, 1))
            y = rng.integers(0, 2, size=6)
            assert tr.bce_loss(Tensor(p), y).data.item() >= 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            tr.bce_loss(Tensor([[0.5]]), [1, 0])

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ContractError):
            tr.bce_loss(Tensor([[1.5]]), [1])

    def test_non_binary_target_rejected(self):
        with pytest.raises(ContractError):
            tr.bce_loss(Tensor([[0.5]]), [0.3])
        with pytest.raises(ContractError):
            tr.bce_loss(Tensor([[0.5], [0.5]]), [1, np.nan])

    def test_matches_oracle_on_and_off_the_clamps(self):
        # p at 0, at the 1e-7 clamp and at 1, against both targets, then interior rows
        p = np.array([0.0, 0.0, 1e-7, 1e-7, 1.0, 1.0, 1.0 - 1e-7, 0.3, 0.8]).reshape(-1, 1)
        y = np.array([1, 0, 1, 0, 1, 0, 0, 1, 0])
        oracles.assert_same_values_and_grads(lambda q: tr.bce_loss(q["p"], y),
                                             lambda q: oracles.bce_loss(q["p"], y),
                                             {"p": p}, seed=1)
        leaf = Tensor(p, requires_grad=True)
        grad = oracles.gradients(tr.bce_loss(leaf, y), {"p": leaf})["p"].reshape(-1)
        assert grad[0] == 0.0 and grad[2] == 0.0 and grad[5] == 0.0  # clamped sides

    def test_matches_oracle_on_a_random_batch(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0, 1, size=(32, 1))
        y = rng.integers(0, 2, size=32)
        oracles.assert_same_values_and_grads(lambda q: tr.bce_loss(q["p"], y),
                                             lambda q: oracles.bce_loss(q["p"], y),
                                             {"p": p}, seed=2)

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["solo", "replicas"])
    def test_value_and_gradient_are_bitwise_both_terms(self, lead):
        """One selected probability per row gives bit for bit the value and
        gradient of both terms on every row, clamped rows and the signs of
        their zeros included."""
        rng = np.random.default_rng(4)
        p = rng.uniform(0, 1, size=(*lead, 40, 1))
        p[..., :6, 0] = [0.0, 0.0, 1e-9, 1e-9, 1.0, 1.0]  # clamped rows, both targets
        y = rng.integers(0, 2, size=(*lead, 40))
        y[..., :6] = [1, 0, 1, 0, 1, 0]
        g = rng.normal(size=lead)
        leaf = Tensor(p, requires_grad=True)
        loss = tr.bce_loss(leaf, y)
        nm.backward(nm.sum_(oracles.mul(loss, g)))
        value, grad = oracles.bce_both_terms(p, y, g)
        assert loss.data.tobytes() == value.tobytes()
        assert leaf.grad.tobytes() == grad.tobytes()

    def test_constant_probabilities_build_no_tape(self):
        loss = tr.bce_loss(Tensor([[0.25], [0.75]]), [0, 1])
        assert not loss.requires_grad
        assert loss.data.item() == oracles.bce_loss(Tensor([[0.25], [0.75]]), [0, 1]).data.item()


class TestTrainModel:
    def test_zero_epochs_rejected_by_config(self):
        with pytest.raises(ConfigError):
            _config(epochs=0)

    def test_seed_determinism_bit_identical(self):
        samples = oracles.periodic_pattern_samples(20, 6, feature_len=8)
        cfg = _config()
        store1, trace1 = tr.train_model(samples, cfg)
        store2, trace2 = tr.train_model(samples, cfg)
        assert trace1 == trace2
        for name in oracles.names(store1):
            np.testing.assert_array_equal(store1[name].data, store2[name].data)

    def test_loss_trace_finite_every_epoch(self):
        samples = synthetic.markov_samples(24, 6, seed=0, feature_len=8)
        _, trace = tr.train_model(samples, _config(epochs=6))
        assert len(trace) == 6
        assert all(math.isfinite(v) for v in trace)

    def test_divergence_detected(self, monkeypatch):
        samples = oracles.periodic_pattern_samples(8, 6, feature_len=8)

        def bad_forward(store, config, priors, prices, texts, saved=None):
            return np.full((len(priors), 1), np.nan)

        monkeypatch.setattr(tr, "forward_batch", bad_forward)
        with pytest.raises(DivergenceError, match="epoch 0"):
            tr.train_model(samples, _config())

    def test_empty_training_set_rejected(self):
        with pytest.raises(ContractError):
            tr.train_model([], _config())

    def test_learns_separable_pattern(self):
        samples = oracles.periodic_pattern_samples(32, 6, feature_len=8)
        cfg = _config(epochs=150, batch_size=32)
        store, trace = tr.train_model(samples, cfg)
        report = tr.evaluate(store, cfg, samples)
        assert trace[-1] < trace[0]
        assert report.accuracy >= 0.9


class TestTrainingStepTape:
    """Tape nodes of one training step at the benchmark's zoo-train shape:
    batch 32, window 6, feature_len 8, embed_width 8, hidden 8."""

    # the one forward node, whose backward adds into the parameters'
    # gradients itself, and the loss: no parameter is a node of the tape
    NODES = dict.fromkeys(VALID_KINDS, 2)
    # the reference tape of `oracles.forward_batch`, one node per primitive
    PER_PRIMITIVE_NODES = {"feedforward": 14, "lstm": 21, "bilstm": 23, "gru": 23,
                           "mogrifier": 23, "stlstm": 24, "swinlstm": 23}

    @staticmethod
    def _step_tapes(kind, arms, monkeypatch):
        """Tape size at each `numerics.backward` of one epoch of one batch."""
        sizes, real = [], nm.backward

        def counting(loss):
            sizes.append(oracles.tape_size(loss))
            real(loss)

        monkeypatch.setattr(nm, "backward", counting)
        samples = synthetic.markov_samples(32, 6, seed=0, feature_len=8)
        cfg = _config(epochs=1, batch_size=32, model=ModelSpec(kind=kind, hidden=8))
        tr.train_replicas([samples] * len(arms),
                          [dataclasses.replace(cfg, prior_effect=flag) for flag in arms])
        return sizes

    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_nodes_per_step_are_pinned(self, kind, monkeypatch):
        assert self._step_tapes(kind, (True,), monkeypatch) == [self.NODES[kind]]

    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_lockstep_step_adds_one_node_for_the_replica_sum(self, kind, monkeypatch):
        assert self._step_tapes(kind, (True, False), monkeypatch) == [self.NODES[kind] + 1]

    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_per_primitive_composition_nodes_are_pinned(self, kind):
        samples = synthetic.markov_samples(32, 6, seed=0, feature_len=8)
        cfg = _config(batch_size=32, model=ModelSpec(kind=kind, hidden=8))
        priors, prices, texts, targets = tr.batch_arrays(samples, True)
        p = oracles.forward_batch(tr.init_pipeline_params(cfg), cfg, priors, prices, texts)
        assert oracles.tape_size(tr.bce_loss(p, targets)) == self.PER_PRIMITIVE_NODES[kind]

    def test_samples_are_stacked_once_per_run(self, monkeypatch):
        calls = []
        real = tr.batch_arrays

        def counting(samples, prior_effect):
            calls.append(len(samples))
            return real(samples, prior_effect)

        monkeypatch.setattr(tr, "batch_arrays", counting)
        tr.train_model(synthetic.markov_samples(40, 6, seed=2, feature_len=8),
                       _config(epochs=3, batch_size=16))
        assert calls == [40]


class TestTrainReplicas:
    """Lockstep training: each replica equals its solo `train_model` run."""

    @staticmethod
    def _replicas(kind, n=40):
        base = _config(epochs=3, model=ModelSpec(kind=kind, hidden=6))
        data = [synthetic.markov_samples(n + 24, 6, seed=60 + r, feature_len=8)
                for r in range(3)]
        configs = [dataclasses.replace(base, seed=seed, prior_effect=prior)
                   for seed, prior in ((1, True), (4, False), (1, False))]
        return data, configs

    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_each_replica_matches_its_solo_run(self, kind):
        data, configs = self._replicas(kind)
        trained = tr.train_replicas([d[:40] for d in data], configs)
        assert len(trained) == 3
        for (store, trace), d, cfg in zip(trained, data, configs):
            solo, solo_trace = tr.train_model(d[:40], cfg)
            assert trace == solo_trace
            assert oracles.names(store) == oracles.names(solo)
            for name, t in solo.items():
                assert store[name].shape == t.shape
                assert np.max(np.abs(store[name].data - t.data)) <= 1e-12, name
            report, solo_report = (tr.evaluate(s, cfg, d[40:]) for s in (store, solo))
            assert ((report.tp, report.fp, report.tn, report.fn)
                    == (solo_report.tp, solo_report.fp, solo_report.tn, solo_report.fn))
            for row, solo_row in zip(report.predictions, solo_report.predictions):
                assert row["label"] == solo_row["label"]
                assert abs(row["probability"] - solo_row["probability"]) <= 1e-12

    @pytest.mark.parametrize("kind", ["feedforward", "swinlstm"])
    def test_other_replicas_do_not_see_one_replicas_data(self, kind):
        data, configs = self._replicas(kind)
        first = tr.train_replicas([d[:40] for d in data], configs)
        changed = [data[0][:40], data[1][:40], data[1][:40][::-1]]
        second = tr.train_replicas(changed, configs)
        assert first[2][1] != second[2][1]
        for (store, trace), (again, again_trace) in zip(first[:2], second[:2]):
            assert trace == again_trace
            for name, t in store.items():
                assert t.data.tobytes() == again[name].data.tobytes()

    def test_params_come_back_as_ordinary_stores(self):
        data, configs = self._replicas("lstm")
        trained = tr.train_replicas([d[:40] for d in data], configs)
        for (store, _), cfg in zip(trained, configs):
            assert [(name, t.shape) for name, t in store.items()] == \
                [(name, shape) for name, shape, _ in tr.pipeline_layout(cfg)]
            assert all(t.requires_grad for _, t in store.items())

    def test_contract(self):
        data, configs = self._replicas("lstm")
        samples = [d[:40] for d in data]
        with pytest.raises(ContractError, match="sample sets"):
            tr.train_replicas(samples[:2], configs)
        with pytest.raises(ContractError, match="sample sets"):
            tr.train_replicas([], [])
        with pytest.raises(ContractError, match="same number"):
            tr.train_replicas([samples[0], samples[1], samples[2][:39]], configs)
        with pytest.raises(ContractError, match="empty"):
            tr.train_replicas([[], [], []], configs)
        for change in ({"lr": 2e-3}, {"epochs": 2}, {"batch_size": 8},
                       {"model": ModelSpec(kind="lstm", hidden=5)}):
            odd = [*configs[:2], dataclasses.replace(configs[2], **change)]
            with pytest.raises(ContractError, match="seed and prior_effect"):
                tr.train_replicas(samples, odd)

    @pytest.mark.parametrize("arms", [(True,), (True, False)], ids=["solo", "lockstep"])
    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_flat_training_is_bitwise_the_per_step_gradient_loop(self, kind, arms):
        """`oracles.train_replicas` allocates fresh gradients every step and
        runs the store Adam: traces, parameters and held-out probabilities
        are bitwise those of the flat vector and flat gradient."""
        samples = synthetic.markov_samples(64, 6, seed=9, feature_len=8)
        base = _config(epochs=3, model=ModelSpec(kind=kind, hidden=6))
        configs = [dataclasses.replace(base, prior_effect=flag) for flag in arms]
        trained = tr.train_replicas([samples[:40]] * len(arms), configs)
        expected = oracles.train_replicas([oracles.sample_rows(samples[:40])] * len(arms),
                                          configs)
        for (store, trace), (ref, ref_trace), cfg in zip(trained, expected, configs):
            assert trace == ref_trace
            assert oracles.names(store) == oracles.names(ref)
            for name, t in ref.items():
                assert store[name].data.tobytes() == t.data.tobytes(), name
            probs = [np.array([row["probability"] for row in
                               tr.evaluate(s, cfg, samples[40:]).predictions])
                     for s in (store, ref)]
            assert probs[0].tobytes() == probs[1].tobytes()

    def test_ablation_arms_match_solo_runs(self):
        samples = synthetic.markov_samples(40, 6, seed=5, feature_len=8)
        train_s, test_s = split_train_test(samples, 0.8)
        cfg = _config(epochs=3)
        reports = tr.ablate_prior_effect(train_s, test_s, cfg)[:2]
        for report, prior in zip(reports, (True, False)):
            arm = dataclasses.replace(cfg, prior_effect=prior)
            _, solo = tr.train_and_evaluate(train_s, test_s, arm)
            assert report.loss_trace == solo.loss_trace
            assert [r["label"] for r in report.predictions] == \
                [r["label"] for r in solo.predictions]


def _replica_block_cases():
    """Each rank-agnostic primitive with R = 2 stacked arrays."""
    rng = np.random.default_rng(71)
    reps, batch = 2, 4

    def arrays(**shapes):
        return {k: rng.normal(size=(reps, *shape)) for k, shape in shapes.items()}

    targets = np.array([1, 0, 0, 1])
    cases = {
        "embed": (lambda p: taped(fusion.embed)(p["f"], p),
                  arrays(f=(batch, 5), w_e=(5, 6), b_e=(1, 6))),
        "conv_text": (lambda p: taped(fusion.conv_text)(p["e"], p),
                      arrays(e=(batch, 6), w_c=(3,), b_c=(1, 1))),
        # price and prior columns are constants; the context is the rest of x
        "feedforward_net": (lambda p: taped(models.feedforward_net)(
            p["x"].data[..., :1], p["x"].data[..., 1:2],
            oracles.take(p["x"], (Ellipsis, slice(2, None))), p), arrays(
            x=(batch, 5), w1=(5, 6), b1=(1, 6), w2=(6, 4), b2=(1, 4), w3=(4, 1), b3=(1, 1))),
        "attention": (lambda p: taped(fusion.attention_over_features)(p["q"], p["feats"]),
                      arrays(q=(batch, 3), feats=(batch, 5, 3))),
        "fuse": (lambda p: taped(fusion.fuse)(p["o"], p["c"], p), arrays(
            o=(batch, 3), c=(batch, 5), proj_w=(5, 3), proj_b=(1, 3), gamma_raw=(1, 1))),
        "output_head": (lambda p: taped(models.output_head)(p["z"], p),
                        arrays(z=(batch, 3), w_out=(3, 1), b_out=(1, 1))),
        "bce_loss": (lambda p: tr.bce_loss(oracles.sigmoid(p["logits"]), np.broadcast_to(
            targets, p["logits"].shape[:-1])), arrays(logits=(batch, 1))),
        "window_pool": (lambda p: taped(models.window_pool)(p["x"], p, 2),
                        oracles.stack_gates(arrays(x=(batch, 3, 5), wq=(1, 1), wk=(1, 1),
                                                   wv=(1, 1), wp=(1, 1)))),
    }
    for kind in RECURRENT_KINDS:
        spec = ModelSpec(kind=kind, hidden=3, mogrifier_rounds=3)
        stores = [nm.ParameterStore(models.model_layout(spec, 2), rng) for _ in range(reps)]
        weights = {k: np.stack([s["cell." + k].data for s in stores])
                   for k in stores[0].view("cell")}
        cases[f"unroll.{kind}"] = (lambda p, spec=spec: taped(models.unroll)(spec, p, p["xs"]),
                                   {**weights, "xs": rng.normal(size=(reps, batch, 4, 2))})
    return cases


class TestReplicaBlocks:
    @pytest.mark.parametrize("name", sorted(_replica_block_cases()))
    def test_each_replica_is_its_solo_run(self, name):
        build, arrays = _replica_block_cases()[name]
        oracles.assert_replicas_match_solo(build, arrays, seed=72)


class TestEvaluate:
    def test_accuracy_from_counts(self):
        report = tr.confusion_report([1, 1, 0, 0, 1, 0, 1, 0],
                                     [1, 1, 0, 0, 0, 1, 1, 0])
        assert report.accuracy == 0.75
        assert report.tp + report.fp + report.tn + report.fn == 8

    def test_exact_metric_arithmetic(self):
        # tp=3, fp=1, fn=3 -> precision 0.75, recall 0.5, f1 0.6
        labels = [1, 1, 1, 1, 0, 0, 0]
        targets = [1, 1, 1, 0, 1, 1, 1]
        report = tr.confusion_report(labels, targets)
        assert (report.tp, report.fp, report.fn) == (3, 1, 3)
        assert report.precision == 0.75
        assert report.recall == 0.5
        assert report.f1 == pytest.approx(0.6, abs=1e-12)

    def test_random_sets_match_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            labels = rng.integers(0, 2, size=n)
            targets = rng.integers(0, 2, size=n)
            report = tr.confusion_report(labels, targets)
            tp, fp, tn, fn = confusion_counts(labels, targets)
            assert (report.tp, report.fp, report.tn, report.fn) == (tp, fp, tn, fn)
            assert report.accuracy == (tp + tn) / n

    def test_zero_denominators(self):
        report = tr.confusion_report([0, 0], [0, 0])
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0
        report = tr.confusion_report([0, 0], [1, 1])
        assert report.recall == 0.0 and report.precision == 0.0

    def test_report_consistency_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            report = tr.confusion_report(rng.integers(0, 2, n), rng.integers(0, 2, n))
            counts = report.tp + report.fp + report.tn + report.fn
            assert counts == n
            assert report.accuracy == (report.tp + report.tn) / n
            if report.precision + report.recall:
                harmonic = 2 * report.precision * report.recall / (
                    report.precision + report.recall)
                assert abs(report.f1 - harmonic) < 1e-12

    def test_evaluate_end_to_end_fields(self):
        samples = oracles.periodic_pattern_samples(12, 6, feature_len=8)
        cfg = _config(epochs=2)
        store, trace = tr.train_model(samples, cfg)
        report = tr.evaluate(store, cfg, samples, loss_trace=trace)
        assert len(report.predictions) == 12
        first = report.predictions[0]
        assert set(first) == {"date", "probability", "label", "target"}
        assert report.loss_trace == trace
        payload = report.to_dict()
        assert payload["metrics_at"] == "final_epoch"
        priors, prices, texts, targets = tr.batch_arrays(samples, cfg.prior_effect)
        probs = tr.forward_batch(store, cfg, priors, prices, texts).reshape(-1)
        labels = (probs >= 0.5).astype(int)
        rows = [{"date": day.isoformat(), "probability": float(pr),
                 "label": int(lb), "target": int(tg)}
                for day, pr, lb, tg in zip(samples.dates, probs, labels, targets.astype(int))]
        assert report.predictions == rows
        assert [[type(v) for v in row.values()] for row in report.predictions] \
            == [[str, float, int, int]] * len(rows)

    def test_empty_set_rejected(self):
        cfg = _config()
        store = tr.init_pipeline_params(cfg)
        with pytest.raises(ContractError):
            tr.evaluate(store, cfg, [])

    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_non_finite_probability_is_divergence_naming_its_date(self, kind):
        """NaN prices in two rows of the second scoring block: the error names
        the first of them, whatever the kind."""
        samples = synthetic.markov_samples(tr.SCORE_CHUNK + 100, 6, seed=4, feature_len=8)
        prices = samples.prices.copy()
        prices[[tr.SCORE_CHUNK + 40, tr.SCORE_CHUNK + 70], 2] = np.nan
        poisoned = Samples(samples.dates, samples.priors, prices, samples.texts,
                           samples.targets)
        cfg = _config(model=ModelSpec(kind=kind, hidden=8))
        with pytest.raises(DivergenceError) as raised:
            tr.evaluate(tr.init_pipeline_params(cfg), cfg, poisoned)
        assert str(raised.value) == ("non-finite probability for held-out date "
                                     f"{samples.dates[tr.SCORE_CHUNK + 40].isoformat()}")

    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_scoring_builds_no_tape(self, kind, monkeypatch):
        samples = synthetic.markov_samples(48, 6, seed=4, feature_len=8)
        cfg = _config(epochs=2, model=ModelSpec(kind=kind, hidden=8))
        store, _ = tr.train_model(samples[:32], cfg)
        calls = []
        real = tr.forward_batch

        def keeping(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(tr, "forward_batch", keeping)
        report = tr.evaluate(store, cfg, samples[32:])
        ((args, kwargs),) = calls
        assert len(args) == 5 and not kwargs  # no saved list: nothing kept for a backward
        saved = []
        kept = real(store, cfg, *tr.batch_arrays(samples[32:], True)[:3], saved)
        assert saved
        assert np.array([r["probability"] for r in report.predictions]).tobytes() \
            == kept.reshape(-1).tobytes()

    @pytest.mark.parametrize("prior_effect", [True, False])
    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_blocks_match_one_forward_over_every_row(self, kind, prior_effect):
        """Scoring in blocks of SCORE_CHUNK rows gives the labels and counts
        of one forward over all rows, and probabilities within 1e-12."""
        samples = synthetic.markov_samples(2 * tr.SCORE_CHUNK + 37, 6, seed=6, feature_len=8)
        cfg = _config(model=ModelSpec(kind=kind, hidden=8), prior_effect=prior_effect)
        store = tr.init_pipeline_params(cfg)
        report = tr.evaluate(store, cfg, samples)
        priors, prices, texts, targets = tr.batch_arrays(samples, prior_effect)
        whole = tr.forward_batch(store, cfg, priors, prices, texts).reshape(-1)
        labels = (whole >= 0.5).astype(int)
        np.testing.assert_allclose([row["probability"] for row in report.predictions], whole,
                                   rtol=0, atol=1e-12)
        assert [row["label"] for row in report.predictions] == labels.tolist()
        assert (report.tp, report.fp, report.tn, report.fn) == confusion_counts(labels, targets)

    @pytest.mark.parametrize("n", [1, tr.SCORE_CHUNK, tr.SCORE_CHUNK + 1,
                                   2 * tr.SCORE_CHUNK + 37])
    def test_no_scoring_forward_sees_more_than_a_chunk(self, n, monkeypatch):
        samples = synthetic.markov_samples(n, 6, seed=7, feature_len=8)
        cfg = _config()
        store = tr.init_pipeline_params(cfg)
        rows = []
        real = tr.forward_batch

        def spy(store, config, priors, prices, texts, *rest):
            rows.append(len(priors))
            return real(store, config, priors, prices, texts, *rest)

        monkeypatch.setattr(tr, "forward_batch", spy)
        assert len(tr.evaluate(store, cfg, samples).predictions) == n
        assert rows == [min(tr.SCORE_CHUNK, n - start)
                        for start in range(0, n, tr.SCORE_CHUNK)]

    def test_zero_head_ties_to_one(self):
        """A probability of exactly 0.5 labels as 1; saturated heads label
        every row 1 or 0."""
        samples = synthetic.markov_samples(12, 6, seed=3, feature_len=8)
        cfg = _config()
        store = tr.init_pipeline_params(cfg)
        store["head.w_out"].data[...] = 0.0
        for bias, label in ((0.0, 1), (10.0, 1), (-10.0, 0)):
            store["head.b_out"].data[...] = bias
            rows = tr.evaluate(store, cfg, samples).predictions
            assert {row["label"] for row in rows} == {label}
            if bias == 0.0:
                assert {row["probability"] for row in rows} == {0.5}

    def test_training_after_evaluate_is_unchanged(self):
        samples = synthetic.markov_samples(48, 6, seed=5, feature_len=8)
        cfg = _config(epochs=3)
        fresh, fresh_trace = tr.train_model(samples, cfg)
        tr.evaluate(fresh, cfg, samples)
        again, again_trace = tr.train_model(samples, cfg)
        assert again_trace == fresh_trace
        for name, t in again.items():
            assert t.data.tobytes() == fresh[name].data.tobytes()


class TestBatchArrays:
    def test_prior_zero_masked_when_disabled(self):
        samples = synthetic.markov_samples(5, 6, seed=3, feature_len=8)
        priors_on, _, _, _ = tr.batch_arrays(samples, True)
        priors_off, prices, texts, targets = tr.batch_arrays(samples, False)
        assert priors_on.shape == priors_off.shape
        assert np.any(priors_on != 0)
        np.testing.assert_array_equal(priors_off, np.zeros_like(priors_off))
        np.testing.assert_array_equal(prices, samples.prices)
        rows = oracles.sample_rows(samples)
        for prior_effect in (True, False):  # bitwise the np.stack blocks
            for got, want in zip(tr.batch_arrays(samples, prior_effect),
                                 oracles.batch_arrays(rows, prior_effect)):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()


class TestAblation:
    def test_control_case_identical_reports(self):
        samples = synthetic.markov_samples(40, 6, seed=4, feature_len=8)
        train_s, test_s = split_train_test(samples, 0.8)
        cfg = _config(epochs=3)
        trained = tr.train_replicas([train_s] * 2, [cfg] * 2)
        with_r, without_r = (tr.evaluate(store, cfg, test_s, loss_trace=trace)
                             for store, trace in trained)
        assert with_r.to_dict() == without_r.to_dict()

    def test_arms_differ_only_in_prior(self):
        samples = synthetic.markov_samples(40, 6, seed=5, feature_len=8)
        train_s, test_s = split_train_test(samples, 0.8)
        cfg = _config(epochs=3)
        with_r, without_r, deltas = tr.ablate_prior_effect(train_s, test_s, cfg)
        assert deltas["f1_delta"] == pytest.approx(with_r.f1 - without_r.f1)
        assert deltas["recall_delta"] == pytest.approx(with_r.recall - without_r.recall)

    def test_direction_on_persistent_labels(self):
        # small version of the full ablation check: 3 seeds, lstm only
        wins = 0
        for seed in range(3):
            samples = synthetic.markov_samples(160, 6, seed=100 + seed,
                                               persistence=0.85, feature_len=8)
            train_s, test_s = split_train_test(samples, 0.8)
            cfg = _config(epochs=120, batch_size=32, seed=seed)
            _, _, deltas = tr.ablate_prior_effect(train_s, test_s, cfg)
            wins += deltas["f1_delta"] > 0
        assert wins >= 2


class TestReductionThroughPipeline:
    def test_mogrifier_zero_rounds_equals_lstm_end_to_end(self):
        samples = synthetic.markov_samples(30, 6, seed=6, feature_len=8)
        base = dict(epochs=3, batch_size=16, lr=1e-3, seed=7, window=6,
                    feature_len=8, embed_width=8, kernel_len=3)
        cfg_l = tr.TrainConfig(model=ModelSpec(kind="lstm", hidden=8), **base)
        cfg_m = tr.TrainConfig(model=ModelSpec(kind="mogrifier", hidden=8,
                                               mogrifier_rounds=0), **base)
        store_l, trace_l = tr.train_model(samples, cfg_l)
        store_m, trace_m = tr.train_model(samples, cfg_m)
        assert trace_l == trace_m
        for name in oracles.names(store_l):
            np.testing.assert_array_equal(store_l[name].data, store_m[name].data)
