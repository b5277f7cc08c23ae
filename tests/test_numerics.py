"""Tensor arithmetic, reverse-mode gradients, and Adam."""

import ast
import importlib
import inspect
from pathlib import Path
from types import FunctionType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import fd_gradients, max_rel_err, naive_matmul

from trendfuse import numerics as nm
from trendfuse.errors import ContractError, ShapeError
from trendfuse.numerics import ParameterStore, Tensor


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = oracles.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_zero(self):
        out = oracles.matmul(Tensor(np.zeros((2, 2))), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_against_triple_loop(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = oracles.matmul(Tensor(a), Tensor(b))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])
        np.testing.assert_array_equal(out.data, naive_matmul(a, b))

    def test_random_against_triple_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4, 5))
            assert max_rel_err(oracles.matmul(Tensor(a), Tensor(b)).data,
                               naive_matmul(a, b)) < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            oracles.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_associativity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b, c = (Tensor(rng.normal(size=(3, 3))) for _ in range(3))
            left = oracles.matmul(oracles.matmul(a, b), c).data
            right = oracles.matmul(a, oracles.matmul(b, c)).data
            assert max_rel_err(left, right, floor=1.0) < 1e-9

    def test_determinism(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        first = oracles.matmul(Tensor(a), Tensor(b)).data
        second = oracles.matmul(Tensor(a.copy()), Tensor(b.copy())).data
        np.testing.assert_array_equal(first, second)


class TestElementwise:
    def test_sigmoid_zero(self):
        assert oracles.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_relu(self):
        np.testing.assert_array_equal(oracles.relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])

    def test_sigmoid_saturates_finite(self):
        out = oracles.sigmoid(Tensor([-800.0, 800.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[1] == 1.0


class TestSoftmax:
    def test_symmetric(self):
        np.testing.assert_allclose(oracles.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5],
                                   atol=1e-15)

    def test_exact_exponentials(self):
        out = oracles.softmax(Tensor([np.log(1.0), np.log(3.0)])).data
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    def test_constant_rows_are_uniform(self, c):
        out = oracles.softmax(Tensor([c, c, c, c])).data
        np.testing.assert_allclose(out, [0.25] * 4, atol=1e-12)

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8),
           st.floats(min_value=-30, max_value=30))
    def test_sum_one_and_shift_invariance(self, values, shift):
        base = oracles.softmax(Tensor(values)).data
        assert abs(base.sum() - 1.0) < 1e-12
        assert np.all(base > 0)
        shifted = oracles.softmax(Tensor(np.asarray(values) + shift)).data
        assert np.max(np.abs(base - shifted)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            oracles.softmax(Tensor(np.zeros(0)))


class TestBackward:
    def test_square_analytic(self):
        theta = Tensor([3.0], requires_grad=True)
        loss = nm.sum_(oracles.mul(theta, theta))
        nm.backward(loss)
        np.testing.assert_allclose(theta.grad, [6.0], atol=1e-12)

    def test_constant_loss_zero_grads(self):
        theta = Tensor([2.0, -1.0], requires_grad=True)
        loss = oracles.add(nm.sum_(oracles.mul(theta, 0.0)), 5.0)
        grads = oracles.gradients(loss, {"theta": theta})
        np.testing.assert_array_equal(grads["theta"], [0.0, 0.0])

    def test_non_scalar_loss_rejected(self):
        theta = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            nm.backward(oracles.mul(theta, 2.0))

    def test_off_tape_parameter_rejected(self):
        theta = Tensor([1.0], requires_grad=True)
        stranger = Tensor([1.0], requires_grad=True)
        loss = nm.sum_(oracles.mul(theta, theta))
        with pytest.raises(oracles.GraphError, match="stranger"):
            oracles.gradients(loss, {"stranger": stranger})

    def test_three_layer_composition_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        arrays = {
            "w1": rng.normal(size=(4, 5)), "w2": rng.normal(size=(5, 3)),
            "w3": rng.normal(size=(3, 1)), "x": rng.normal(size=(2, 4)),
        }

        def run(a):
            h1 = oracles.sigmoid(oracles.matmul(Tensor(a["x"], requires_grad=True),
                                                Tensor(a["w1"], requires_grad=True)))
            h2 = oracles.sigmoid(oracles.matmul(h1, Tensor(a["w2"], requires_grad=True)))
            return nm.sum_(oracles.matmul(h2, Tensor(a["w3"], requires_grad=True)))

        params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}

        def run_tensors(p):
            h1 = oracles.sigmoid(oracles.matmul(p["x"], p["w1"]))
            h2 = oracles.sigmoid(oracles.matmul(h1, p["w2"]))
            return nm.sum_(oracles.matmul(h2, p["w3"]))

        loss = run_tensors(params)
        analytic = oracles.gradients(loss, params)
        numeric = fd_gradients(lambda a: run(a).data.item(), arrays)
        for name in arrays:
            assert max_rel_err(analytic[name], numeric[name]) < 1e-4

    def test_backward_accumulation_deterministic(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(3, 3))

        def run():
            w = Tensor(data, requires_grad=True)
            y = nm.sum_(oracles.mul(oracles.sigmoid(oracles.matmul(w, w)), oracles.softmax(w)))
            nm.backward(y)
            return y.data.copy(), w.grad.copy()

        y1, g1 = run()
        y2, g2 = run()
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(g1, g2)


class TestFused:
    def test_records_only_the_parents_that_need_gradients(self):
        w = Tensor(np.ones((2, 2)), requires_grad=True)
        const = Tensor(np.ones((2, 2)))
        out = nm.fused((const, w), w.data * 2.0, lambda g: w._accumulate(2.0 * g))
        assert out.requires_grad and out._parents == (w,)
        nm.backward(nm.sum_(out))
        np.testing.assert_array_equal(w.grad, np.full((2, 2), 2.0))
        frozen = nm.fused((const,), const.data, lambda g: None)
        assert not frozen.requires_grad and frozen._parents == () and frozen._backward is None


class TestAccumulate:
    def test_first_gradient_is_a_copy(self):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        g = np.arange(6.0).reshape(2, 3)
        a._accumulate(g)
        b._accumulate(g)
        a._accumulate(g)
        np.testing.assert_array_equal(a.grad, 2 * np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(b.grad, np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(g, np.arange(6.0).reshape(2, 3))

    def test_first_gradient_takes_the_tensor_shape_and_dtype(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        t._accumulate(np.ones((1, 3)))
        np.testing.assert_array_equal(t.grad, np.ones((2, 3)))
        m = Tensor(np.zeros(2), requires_grad=True)
        m._accumulate(np.array([True, False]))
        assert m.grad.dtype == np.float64
        m._accumulate(np.array([0.5, 0.5]))
        np.testing.assert_array_equal(m.grad, [1.5, 0.5])


def _primitive_cases():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 4))
    cases = {
        "add": (lambda p: nm.sum_(oracles.add(p["x"], p["y"])), {"x": x, "y": y}),
        "sub": (lambda p: nm.sum_(oracles.sub(p["x"], p["y"])), {"x": x, "y": y}),
        "mul": (lambda p: nm.sum_(oracles.mul(p["x"], p["y"])), {"x": x, "y": y}),
        "neg": (lambda p: nm.sum_(oracles.neg(p["x"])), {"x": x}),
        "matmul": (lambda p: nm.sum_(oracles.matmul(p["x"], p["y"])),
                   {"x": rng.normal(size=(3, 4)), "y": rng.normal(size=(4, 2))}),
        "sigmoid": (lambda p: nm.sum_(oracles.sigmoid(p["x"])), {"x": x}),
        "relu": (lambda p: nm.sum_(oracles.relu(p["x"])), {"x": x + np.sign(x) * 0.05}),
        "log": (lambda p: nm.sum_(oracles.log(p["x"])), {"x": np.abs(x) + 0.5}),
        "pow": (lambda p: nm.sum_(oracles.pow_scalar(p["x"], -0.5)), {"x": np.abs(x) + 0.5}),
        "clip_min": (lambda p: nm.sum_(oracles.clip_min(p["x"], 0.3)),
                     {"x": np.abs(x) + 0.5}),
        "softmax": (lambda p: nm.sum_(oracles.mul(oracles.softmax(p["x"], axis=-1), p["y"])),
                    {"x": x, "y": y}),
        "mean": (lambda p: nm.sum_(oracles.mul(oracles.mean_(p["x"], axis=1, keepdims=True), 3.0)),
                 {"x": x}),
        "concat": (lambda p, m=Tensor(rng.normal(size=(3, 8))):
                   nm.sum_(oracles.mul(oracles.concat([p["x"], p["y"]], axis=1), m)),
                   {"x": x, "y": y}),
        "take": (lambda p: nm.sum_(oracles.take(p["x"], (slice(1, None), slice(0, 2)))), {"x": x}),
        "transpose": (lambda p, m=Tensor(rng.normal(size=(4, 3))):
                      nm.sum_(oracles.mul(oracles.transpose(p["x"]), m)),
                      {"x": x}),
        "gather_rows": (lambda p: nm.sum_(oracles.gather_rows(p["x"], [0, 2, 2, 1])),
                        {"x": x}),
        "conv1d": (lambda p: nm.sum_(oracles.conv1d_rows(p["x"], p["k"])),
                   {"x": x, "k": rng.normal(size=2)}),
    }
    return cases


@pytest.mark.parametrize("name", sorted(_primitive_cases()))
def test_primitive_gradients_match_finite_differences(name):
    build, arrays = _primitive_cases()[name]

    def value(a):
        return build({k: Tensor(v) for k, v in a.items()}).data.item()

    params = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
    analytic = oracles.gradients(build(params), params)
    numeric = fd_gradients(value, arrays)
    for key in arrays:
        assert max_rel_err(analytic[key], numeric[key]) < 1e-4, key


class TestAdam:
    def _store(self, value):
        store = ParameterStore()
        store.add("theta", np.array([value]))
        return store

    def _step(self, store, state, g):
        """One `adam_step` on the store's flat vector with gradient g."""
        flat, grad = store.flatten()
        grad[...] = g
        nm.adam_step(state, flat, grad)

    def test_zero_gradient_keeps_params(self):
        store = self._store(1.5)
        state = nm.adam_state(store)
        self._step(store, state, [0.0])
        assert store["theta"].data[0] == 1.5
        assert state.t == 1

    @pytest.mark.parametrize("g", [1e-4, 0.7, 3.0, 250.0])
    def test_first_step_bias_correction_identity(self, g):
        store = self._store(0.0)
        state = nm.adam_state(store, lr=1e-3)
        self._step(store, state, [g])
        expected = -state.lr * g / (abs(g) + state.epsilon)
        np.testing.assert_allclose(store["theta"].data[0], expected, rtol=1e-12)
        # approximately -lr; the deviation is the epsilon share of |g|
        assert abs(store["theta"].data[0] + state.lr) <= state.lr * (state.epsilon / g) * 1.01

    def test_descends_quadratic(self):
        store = self._store(1.0)
        state = nm.adam_state(store, lr=1e-1)
        flat, grad = store.flatten()
        for _ in range(100):
            grad[...] = 2.0 * flat
            nm.adam_step(state, flat, grad)
        final = store["theta"].data[0]
        assert abs(final) < 0.1
        assert final ** 2 < 1.0
        assert state.t == 100

    def test_gradient_of_another_size_is_shape_error(self):
        store = self._store(1.0)
        store.add("other", np.array([2.0]))
        state = nm.adam_state(store)
        flat, _ = store.flatten()
        with pytest.raises(ShapeError, match=r"gradient of shape \(1,\)"):
            nm.adam_step(state, flat, np.array([0.1]))
        assert state.t == 0
        assert flat.tolist() == [1.0, 2.0]

    def test_flat_update_is_bitwise_the_per_parameter_update(self):
        rng = np.random.default_rng(12)
        shapes = {"a.w": (3, 4), "a.b": (1, 4), "c": (1, 1), "d": (5,)}
        store = ParameterStore()
        for name, shape in shapes.items():
            store.add(name, rng.normal(size=shape))
        expected = {name: t.data.copy() for name, t in store.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        state = nm.adam_state(store, lr=0.05)
        vector, grad = store.flatten()
        b1, b2, eps = state.beta1, state.beta2, state.epsilon
        for t in range(1, 6):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
                     for name, shape in shapes.items()}
            for name, g in grads.items():
                store[name].grad[...] = g
            nm.adam_step(state, vector, grad)
            for name, g in grads.items():
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * g * g
                m_hat = m[name] / (1.0 - b1 ** t)
                v_hat = v[name] / (1.0 - b2 ** t)
                expected[name] -= 0.05 * m_hat / (np.sqrt(v_hat) + eps)
            for name in shapes:
                np.testing.assert_array_equal(store[name].data, expected[name])
            for flat, moments in ((state.m, m), (state.v, v)):
                np.testing.assert_array_equal(
                    flat, np.concatenate([moments[name].reshape(-1) for name in shapes]))

    def test_bad_lr_rejected(self):
        with pytest.raises(ContractError):
            nm.adam_state(self._store(1.0), lr=0.0)


class TestParameterStore:
    def test_checkpoint_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(4)
        store = ParameterStore()
        store.add("a.w", rng.normal(size=(3, 5)) * np.pi)
        store.add("a.b", rng.normal(size=(1, 5)) / 3.0)
        path = tmp_path / "ckpt.json"
        store.save(path)
        loaded = ParameterStore.load(path)
        assert oracles.names(loaded) == oracles.names(store)
        for name in oracles.names(store):
            np.testing.assert_array_equal(loaded[name].data, store[name].data)
        loaded.save(tmp_path / "ckpt2.json")
        assert (tmp_path / "ckpt.json").read_bytes() == (tmp_path / "ckpt2.json").read_bytes()

    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ContractError):
            store.add("w", np.zeros(2))

    def test_view_strips_prefix(self):
        store = ParameterStore()
        store.add("cell.w", np.zeros(1))
        store.add("head.w", np.ones(1))
        view = store.view("cell")
        assert list(view) == ["w"]

    def test_view_is_cached_until_the_next_add(self):
        store = ParameterStore()
        store.add("cell.w", np.zeros(1))
        first = store.view("cell")
        assert store.view("cell") is first
        store.add("cell.u", np.ones(2))
        after = store.view("cell")
        assert after is not first
        assert list(after) == ["w", "u"]
        assert after["u"] is store["cell.u"]

    def test_flatten_makes_data_and_grad_views_of_two_vectors(self):
        rng = np.random.default_rng(6)
        store = ParameterStore()
        for name, shape in (("a.w", (3, 4)), ("a.b", (1, 4)), ("c", ()), ("d", (2, 1, 3))):
            store.add(name, rng.normal(size=shape))
        before = store.state_dict()
        flat, grad = store.flatten()
        assert store.state_dict() == before
        assert flat.shape == grad.shape == (sum(t.size for _, t in store.items()),)
        assert not grad.any()
        assert flat.tolist() == [x for entry in before["params"].values()
                                 for x in entry["data"]]
        for name, t in store.items():
            assert t.shape == tuple(before["params"][name]["shape"])
            assert t.grad.shape == t.shape
            assert np.shares_memory(t.data, flat) and np.shares_memory(t.grad, grad), name
        flat += 1.0
        grad -= 2.0
        for _, t in store.items():
            assert np.all(t.grad == -2.0)
        assert store["c"].data.tolist() == before["params"]["c"]["data"][0] + 1.0


# Public functions that nothing in the package calls, each with its caller.
NO_PACKAGE_CALLER = {
    "cli.main": "the `trendfuse` console script",
    "synthetic.markov_samples": "perfbench's zoo-train workload",
    "synthetic.toy_corpus": "perfbench's text-encoder workload",
    "synthetic.write_markov_market_csv": "scripts/run_synthetic_experiment.py and perfbench",
    "synthetic.write_toy_summaries": "scripts/run_synthetic_experiment.py and perfbench",
    "encoder.encode_feature": "perfbench's text-encoder workload and tracer",
    "encoder.mlm_loss": "perfbench's tracer, which wraps it",
    "ingest.zscore_normalize": "acceptance criterion 3's normalization laws",
}


def _is_main_guard(node):
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name) and node.test.left.id == "__name__")


def _package_trees():
    package = Path(nm.__file__).parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in package.glob("*.py")}


def test_every_public_function_has_a_caller_in_the_package():
    """A function that only tests use belongs in `oracles`, not in the
    package. A caller is a use in another module of the package, or in the
    function's own module outside its `if __name__ == "__main__"` block;
    the functions in NO_PACKAGE_CALLER are called from outside."""
    trees = _package_trees()
    used = {module: set() for module in trees}
    for module, tree in trees.items():
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    elif node.module in used:
                        used[node.module].add(alias.name)
        body = [stmt for stmt in tree.body if not _is_main_guard(stmt)]
        for node in (n for stmt in body for n in ast.walk(stmt)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used[module].add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                used[aliases[node.value.id]].add(node.attr)
    uncalled = set()
    for module in trees:
        mod = importlib.import_module(f"trendfuse.{module}")
        uncalled.update(f"{module}.{name}" for name, f in vars(mod).items()
                        if inspect.isfunction(f) and f.__module__ == mod.__name__
                        and not name.startswith("_") and name not in used[module])
    assert "fused" in used["numerics"] and "unroll" in used["models"]
    assert sorted(uncalled) == sorted(NO_PACKAGE_CALLER)


# Public methods that nothing in the package reads by name, each with its caller.
NO_PACKAGE_ATTRIBUTE_USE = {
    "cli._Parser.error": "argparse, on a usage error",
}


def test_every_public_method_is_read_in_the_package():
    """A method that only tests use belongs in `oracles`, not in the package.
    A use is an attribute read of its name (`x.name`, whatever `x` is)
    anywhere in the package outside an `if __name__ == "__main__"` block;
    the methods in NO_PACKAGE_ATTRIBUTE_USE are called from outside."""
    trees = _package_trees()
    read = {node.attr for tree in trees.values()
            for stmt in tree.body if not _is_main_guard(stmt)
            for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
    unread = set()
    for module in trees:
        mod = importlib.import_module(f"trendfuse.{module}")
        for cls_name, cls in vars(mod).items():
            if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                unread.update(f"{module}.{cls_name}.{name}" for name, member in vars(cls).items()
                              if isinstance(member, (FunctionType, staticmethod, classmethod,
                                                     property))
                              and not name.startswith("_") and name not in read)
    assert {"flatten", "view", "summarize"} <= read
    assert sorted(unread) == sorted(NO_PACKAGE_ATTRIBUTE_USE)
