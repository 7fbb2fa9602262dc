import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedssl.nn import (
    Batch,
    ModelSpec,
    NonFiniteError,
    OptimState,
    ParamVector,
    PassPlan,
    Workspace,
    central_diff,
    finite_diff_grad,
    forward_probs,
    init_params,
    loss_and_grad,
    sgd_step,
)


def small_spec(hidden=(5,), d=4, c=3):
    return ModelSpec(input_dim=d, hidden_dims=tuple(hidden), num_classes=c)


class TestInitParams:
    def test_same_seed_bit_identical(self):
        spec = small_spec()
        a = init_params(spec, 7)
        b = init_params(spec, 7)
        assert np.array_equal(a.values, b.values)

    def test_no_hidden_layer_param_count(self):
        spec = ModelSpec(input_dim=6, hidden_dims=(), num_classes=4)
        p = init_params(spec, 0)
        assert len(p) == 6 * 4 + 4

    def test_different_seeds_differ(self):
        spec = small_spec()
        a = init_params(spec, 1)
        b = init_params(spec, 2)
        assert np.any(a.values != b.values)

    def test_layout_matches_layer_dims(self):
        spec = ModelSpec(input_dim=3, hidden_dims=(4, 2), num_classes=5)
        assert spec.layer_dims == ((3, 4), (4, 2), (2, 5))
        assert spec.num_params == 3 * 4 + 4 + 4 * 2 + 2 + 2 * 5 + 5
        assert spec == ModelSpec(input_dim=3, hidden_dims=[4, 2], num_classes=5)

    def test_biases_zero(self):
        spec = ModelSpec(input_dim=3, hidden_dims=(2,), num_classes=2)
        p = init_params(spec, 3)
        # layout: W0 (3*2), b0 (2), W1 (2*2), b1 (2)
        assert np.all(p.values[6:8] == 0.0)
        assert np.all(p.values[12:14] == 0.0)


class TestForwardProbs:
    def test_zero_params_uniform(self):
        spec = small_spec(c=5)
        p = ParamVector(np.zeros(spec.num_params), spec.spec_hash)
        probs = forward_probs(p, spec, np.random.default_rng(0).normal(size=(3, 4)))
        assert np.allclose(probs, 0.2, atol=1e-12)

    def test_rows_sum_to_one(self):
        spec = small_spec()
        p = init_params(spec, 11)
        probs = forward_probs(p, spec, np.random.default_rng(1).normal(size=(8, 4)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_shift_invariance(self):
        # adding a constant to all logits leaves softmax unchanged; shifting
        # every output bias by c does exactly that
        spec = ModelSpec(input_dim=3, hidden_dims=(), num_classes=4)
        p = init_params(spec, 5)
        x = np.random.default_rng(2).normal(size=(6, 3))
        shifted = p.copy()
        shifted.values[3 * 4:] += 2.5
        assert np.allclose(forward_probs(p, spec, x), forward_probs(shifted, spec, x), atol=1e-12)

    def test_shape_mismatch_raises(self):
        spec = small_spec(d=4)
        p = init_params(spec, 0)
        with pytest.raises(ValueError):
            forward_probs(p, spec, np.zeros((2, 5)))

    @given(seed=st.integers(0, 2**31), n=st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_probability_rows_property(self, seed, n):
        spec = small_spec(hidden=(3,), d=2, c=4)
        p = init_params(spec, seed % 1000)
        x = np.random.default_rng(seed).normal(size=(n, 2)) * 3.0
        probs = forward_probs(p, spec, x)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestLossAndGrad:
    def test_all_weights_zero(self):
        spec = small_spec()
        p = init_params(spec, 4)
        batch = Batch(np.ones((3, 4)))
        loss, grad = loss_and_grad(p, spec, batch, np.array([0, 1, 2]), np.zeros(3))
        assert loss == 0.0
        assert np.all(grad.values == 0.0)

    def test_uniform_prediction_ln10(self):
        spec = ModelSpec(input_dim=4, hidden_dims=(), num_classes=10)
        p = ParamVector(np.zeros(spec.num_params), spec.spec_hash)
        batch = Batch(np.ones((1, 4)))
        loss, _ = loss_and_grad(p, spec, batch, np.array([7]), np.ones(1))
        assert loss == pytest.approx(np.log(10.0), abs=1e-12)

    def test_matches_finite_differences(self):
        spec = small_spec(hidden=(5,), d=4, c=3)
        p = init_params(spec, 13)
        rng = np.random.default_rng(13)
        batch = Batch(rng.normal(size=(2, 4)))
        targets = np.array([0, 2])
        weights = np.ones(2)
        _, grad = loss_and_grad(p, spec, batch, targets, weights)
        fd = finite_diff_grad(p, spec, batch, targets, weights, step=1e-5)
        denom = np.maximum(np.abs(fd.values), 1e-8)
        rel = np.abs(grad.values - fd.values) / denom
        assert rel.max() < 1e-4

    def test_partial_mask_gradients(self):
        # masked-out examples contribute nothing: grad equals the grad of
        # the kept examples alone, scaled by the same 1/B
        spec = small_spec()
        p = init_params(spec, 21)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(4, 4))
        targets = np.array([0, 1, 2, 0])
        mask = np.array([1.0, 0.0, 1.0, 0.0])
        _, g_masked = loss_and_grad(p, spec, Batch(x), targets, mask)
        fd = finite_diff_grad(p, spec, Batch(x), targets, mask)
        assert np.abs(g_masked.values - fd.values).max() < 1e-6

    def test_target_out_of_range(self):
        spec = small_spec(c=3)
        p = init_params(spec, 0)
        with pytest.raises(ValueError):
            loss_and_grad(p, spec, Batch(np.ones((1, 4))), np.array([3]), np.ones(1))

    def test_return_probs_adds_the_forward_probabilities(self):
        spec = small_spec()
        p = init_params(spec, 8)
        x = np.random.default_rng(8).normal(size=(6, 4))
        targets, weights = np.array([0, 1, 2, 0, 1, 2]), np.array([1, 0, 1, 1, 0, 1.0])
        loss, grad = loss_and_grad(p, spec, Batch(x), targets, weights)
        loss_p, grad_p, probs = loss_and_grad(p, spec, Batch(x), targets, weights,
                                              return_probs=True)
        assert loss_p == loss
        assert np.array_equal(grad_p.values, grad.values)
        assert np.allclose(probs, forward_probs(p, spec, x), rtol=0, atol=1e-12)
        assert np.array_equal(probs.argmax(axis=1), forward_probs(p, spec, x).argmax(axis=1))


class TestStackedBatches:
    """A [K, P] stack with a [K, B, d] batch is K independent objectives."""

    def _stack(self, k=4, b=7, spec=None, seed=0):
        spec = spec or small_spec(hidden=(6, 5))
        rng = np.random.default_rng(seed)
        params = ParamVector(np.stack([init_params(spec, i).values for i in range(k)]),
                             spec.spec_hash)
        x = rng.normal(size=(k, b, spec.input_dim))
        targets = rng.integers(0, spec.num_classes, size=(k, b))
        weights = (rng.random((k, b)) < 0.7).astype(np.float64)
        return spec, params, x, targets, weights

    def test_each_slice_bitwise_equals_the_unstacked_call(self):
        spec, params, x, targets, weights = self._stack()
        loss, grad, probs = loss_and_grad(params, spec, Batch(x), targets, weights,
                                          return_probs=True)
        assert loss.shape == (4,) and grad.values.shape == params.values.shape
        stacked_fwd = forward_probs(params, spec, x)
        for k in range(4):
            one = ParamVector(params.values[k], spec.spec_hash)
            l1, g1, p1 = loss_and_grad(one, spec, Batch(x[k]), targets[k], weights[k],
                                       return_probs=True)
            assert loss[k] == l1
            assert np.array_equal(grad.values[k], g1.values)
            assert np.array_equal(probs[k], p1)
            assert np.array_equal(stacked_fwd[k], forward_probs(one, spec, x[k]))

    def test_one_vector_serves_every_slice(self):
        spec, params, x, _, _ = self._stack()
        one = ParamVector(params.values[1], spec.spec_hash)
        shared = forward_probs(one, spec, x)
        for k in range(4):
            assert np.array_equal(shared[k], forward_probs(one, spec, x[k]))

    def test_stack_mismatch_raises(self):
        spec, params, x, targets, weights = self._stack()
        with pytest.raises(ValueError):
            forward_probs(params, spec, x[:3])
        with pytest.raises(ValueError):
            loss_and_grad(params, spec, Batch(x[:3]), targets[:3], weights[:3])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_error_names_the_first_bad_slice(self):
        spec, params, x, targets, weights = self._stack()
        x[2, 0, 0] = np.nan
        x[3, 1, 1] = np.inf
        with pytest.raises(NonFiniteError) as info:
            loss_and_grad(params, spec, Batch(x), targets, np.ones_like(weights))
        assert info.value.index == 2
        with pytest.raises(FloatingPointError):
            loss_and_grad(ParamVector(params.values[2], spec.spec_hash), spec, Batch(x[2]),
                          targets[2], np.ones(7))

    def test_a_plan_serves_every_batch_of_a_loop_as_loss_and_grad_would(self):
        # one plan over two batch shapes, its parameters stepped in place
        # between runs: every run gives loss_and_grad's loss, gradient and
        # probabilities on the parameters as they are, and the argmax labels
        spec, params, x, targets, weights = self._stack(b=7)
        _, _, x3, targets3, weights3 = self._stack(b=3, seed=1)
        ws = Workspace()
        grad = ParamVector(ws.take("grad", params.values.shape), spec.spec_hash)
        plan = PassPlan(params, spec, ws, [(4, 3), (4, 7)])
        assert params.layers(spec) is plan.layers
        labels = np.empty((4, 7), dtype=np.int64)
        for step in range(4):
            inputs, t, w = (x, targets, weights) if step % 2 == 0 else (x3, targets3, weights3)
            probs = ws.take("probs", (*t.shape, spec.num_classes))
            loss = plan.run(inputs, t, w, grad, probs, labels[:, :t.shape[1]])
            ref_loss, ref_grad, ref_probs = loss_and_grad(
                ParamVector(params.values.copy(), spec.spec_hash), spec, Batch(inputs), t, w,
                return_probs=True)
            assert loss.tobytes() == ref_loss.tobytes()
            assert grad.values.tobytes() == ref_grad.values.tobytes()
            assert probs.tobytes() == ref_probs.tobytes()
            assert np.array_equal(labels[:, :t.shape[1]], ref_probs.argmax(axis=-1))
            params.values -= 0.1 * grad.values
        x[2, 0, 0] = np.nan
        with pytest.raises(NonFiniteError) as info:
            plan.run(x, targets, np.ones_like(weights), grad)
        assert info.value.index == 2

    def test_sgd_step_steps_each_slice(self):
        spec, params, x, targets, weights = self._stack()
        _, grad = loss_and_grad(params, spec, Batch(x), targets, weights)
        opt = OptimState(0.1, 0.5, 0.01, velocity=np.ones(params.values.shape))
        out = sgd_step(params, grad, opt)
        for k in range(4):
            opt1 = OptimState(0.1, 0.5, 0.01, velocity=np.ones(spec.num_params))
            one = sgd_step(ParamVector(params.values[k], spec.spec_hash),
                           ParamVector(grad.values[k], spec.spec_hash), opt1)
            assert np.array_equal(out.values[k], one.values)
            assert np.array_equal(opt.velocity[k], opt1.velocity)
        assert len(out) == spec.num_params

    def test_sgd_step_names_both_shapes_on_a_stacked_mismatch(self):
        spec, params, x, targets, weights = self._stack()
        _, grad = loss_and_grad(params, spec, Batch(x), targets, weights)
        opt = OptimState(0.1, velocity=np.zeros((2, spec.num_params)))
        p = spec.num_params
        with pytest.raises(ValueError,
                           match=rf"^velocity shape \(2, {p}\) != params shape \(4, {p}\)$"):
            sgd_step(params, grad, opt)


class TestSgdStep:
    def test_zero_grad_identity(self):
        spec = small_spec()
        p = init_params(spec, 9)
        opt = OptimState(learning_rate=0.5, velocity=np.zeros(spec.num_params))
        zero = ParamVector(np.zeros(len(p)), p.spec_hash)
        out = sgd_step(p, zero, opt)
        assert np.array_equal(out.values, p.values)

    def test_plain_arithmetic(self):
        spec = ModelSpec(input_dim=1, hidden_dims=(), num_classes=2)
        hash_ = spec.spec_hash
        p = ParamVector(np.array([1.0, 0.0, 0.0, 0.0]), hash_)
        g = ParamVector(np.array([2.0, 0.0, 0.0, 0.0]), hash_)
        opt = OptimState(learning_rate=0.1, velocity=np.zeros(4))
        out = sgd_step(p, g, opt)
        assert out.values[0] == pytest.approx(0.8)

    def test_momentum_two_step_unroll(self):
        # v1 = g1, theta1 = theta0 - lr*v1
        # v2 = m*v1 + g2, theta2 = theta1 - lr*v2
        spec = ModelSpec(input_dim=1, hidden_dims=(), num_classes=2)
        hash_ = spec.spec_hash
        theta0 = np.array([1.0, -1.0, 0.5, 0.0])
        g1 = np.array([0.3, 0.1, -0.2, 0.4])
        g2 = np.array([-0.1, 0.2, 0.3, -0.4])
        lr, m = 0.1, 0.9
        opt = OptimState(learning_rate=lr, momentum=m, velocity=np.zeros(4))
        p1 = sgd_step(ParamVector(theta0.copy(), hash_), ParamVector(g1, hash_), opt)
        p2 = sgd_step(p1, ParamVector(g2, hash_), opt)
        v1 = g1.copy()
        t1 = theta0 - lr * v1
        v2 = m * v1 + g2
        t2 = t1 - lr * v2
        assert np.allclose(p1.values, t1, atol=1e-15)
        assert np.allclose(p2.values, t2, atol=1e-15)

    def test_weight_decay_term(self):
        spec = ModelSpec(input_dim=1, hidden_dims=(), num_classes=2)
        hash_ = spec.spec_hash
        p = ParamVector(np.array([2.0, 0.0, 0.0, 0.0]), hash_)
        g = ParamVector(np.zeros(4), hash_)
        opt = OptimState(learning_rate=0.1, weight_decay=0.5, velocity=np.zeros(4))
        out = sgd_step(p, g, opt)
        # v = 0.5*2 = 1; theta = 2 - 0.1*1
        assert out.values[0] == pytest.approx(1.9)

    def test_length_mismatch_raises(self):
        spec = small_spec()
        p = init_params(spec, 0)
        bad = ParamVector(np.zeros(len(p) + 1), p.spec_hash)
        with pytest.raises(ValueError):
            sgd_step(p, bad, OptimState(learning_rate=0.1, velocity=np.zeros(len(p))))


class TestFiniteDiff:
    def test_central_diff_exact_on_quadratic(self):
        # f(x) = sum(3 x^2 + 2 x): derivative 6x + 2, exact for central diff
        x = np.array([0.5, -1.0, 2.0])
        got = central_diff(lambda v: float(np.sum(3 * v * v + 2 * v)), x, step=1e-3)
        assert np.abs(got - (6 * x + 2)).max() < 1e-8

    def test_cross_checks_analytic(self):
        spec = small_spec(hidden=(4,), d=3, c=3)
        p = init_params(spec, 31)
        rng = np.random.default_rng(31)
        batch = Batch(rng.normal(size=(3, 3)))
        targets = np.array([1, 0, 2])
        weights = np.array([1.0, 0.5, 1.0])
        fd = finite_diff_grad(p, spec, batch, targets, weights)
        _, g = loss_and_grad(p, spec, batch, targets, weights)
        denom = np.maximum(np.abs(fd.values), 1e-8)
        assert (np.abs(g.values - fd.values) / denom).max() < 1e-4

    def test_zero_mask_zero_vector(self):
        spec = small_spec()
        p = init_params(spec, 2)
        fd = finite_diff_grad(p, spec, Batch(np.ones((2, 4))), np.array([0, 1]), np.zeros(2))
        assert np.all(fd.values == 0.0)


class TestDeterminism:
    def test_identical_training_trajectory(self):
        spec = small_spec()
        rng = np.random.default_rng(17)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, size=6)

        def run():
            p = init_params(spec, 99)
            opt = OptimState(learning_rate=0.05, momentum=0.9, weight_decay=1e-4,
                             velocity=np.zeros(spec.num_params))
            for _ in range(10):
                _, g = loss_and_grad(p, spec, Batch(x), y, np.ones(6))
                p = sgd_step(p, g, opt)
            return p.values

        assert np.array_equal(run(), run())
