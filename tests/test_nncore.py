import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from netgen import nncore as nn
from netgen.dataset import SynthSpec, generate_synthetic, pearson_features, zscore_normalize
from netgen.encoders import EncoderConfig
from netgen.graphgen import LossWeights
from netgen.nncore import Param, Tensor
from netgen.predictor import PIPELINES, GcnConfig, build_model
from netgen.training import total_loss


def square_loss(t):
    return (t * t).sum()


class TestLayerGradients:
    """Analytic gradients vs central finite differences, 20 seeds per layer."""

    SEEDS = range(20)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dense(self, seed):
        rng = np.random.default_rng(seed)
        layer = nn.Dense(3, 4, rng)
        x = rng.standard_normal((5, 3))
        err = nn.gradient_check(
            lambda: square_loss(layer(Tensor(x))), layer.named_params(), seed=seed
        )
        assert err < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv1d(self, seed):
        rng = np.random.default_rng(seed)
        layer = nn.Conv1d(2, 3, 4, 2, rng)
        x = rng.standard_normal((2, 2, 11))
        err = nn.gradient_check(
            lambda: square_loss(layer(Tensor(x))), layer.named_params(), seed=seed
        )
        assert err < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_relu(self, seed):
        rng = np.random.default_rng(seed)
        x = Param(rng.standard_normal((4, 3)))
        err = nn.gradient_check(lambda: square_loss(nn.relu(x)), [("x", x)], seed=seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax_rows(self, seed):
        rng = np.random.default_rng(seed)
        x = Param(rng.standard_normal((4, 5)))
        weights = Tensor(rng.standard_normal((4, 5)))
        err = nn.gradient_check(
            lambda: (nn.softmax(x) * weights).sum(), [("x", x)], seed=seed
        )
        assert err < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_max_pool(self, seed):
        rng = np.random.default_rng(seed)
        x = Param(rng.standard_normal((3, 2, 7)))
        err = nn.gradient_check(lambda: square_loss(nn.max_last(x)), [("x", x)], seed=seed)
        assert err < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_norm(self, seed):
        rng = np.random.default_rng(seed)
        layer = nn.BatchNorm1d(3)
        x = rng.standard_normal((6, 3))
        target = Tensor(rng.standard_normal((6, 3)))
        err = nn.gradient_check(
            lambda: square_loss(layer(Tensor(x)) - target), layer.named_params(), seed=seed
        )
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_gru_direction(self, seed, reverse):
        rng = np.random.default_rng(seed)
        cell = nn.GruCell(3, 4, rng)
        x = Param(rng.standard_normal((2, 5, 3)))
        params = cell.named_params() + [("x", x)]
        err = nn.gradient_check(
            lambda: square_loss(
                nn.gru_direction(x, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh, reverse=reverse)
            ),
            params,
            seed=seed,
        )
        assert err < 1e-4


def gru_step(x, h, w_ih, w_hh, b_ih, b_hh):
    """One GRU step in plain numpy; gate columns are [reset | update | candidate]."""
    hid = h.shape[-1]
    gx = x @ w_ih + b_ih
    gh = h @ w_hh + b_hh
    r = 1.0 / (1.0 + np.exp(-(gx[:, :hid] + gh[:, :hid])))
    z = 1.0 / (1.0 + np.exp(-(gx[:, hid : 2 * hid] + gh[:, hid : 2 * hid])))
    n = np.tanh(gx[:, 2 * hid :] + r * gh[:, 2 * hid :])
    return (1.0 - z) * n + z * h


def test_gru_direction_matches_stepwise_cell():
    rng = np.random.default_rng(3)
    cell = nn.GruCell(3, 4, rng)
    x = rng.standard_normal((2, 5, 3))
    h = np.zeros((2, 4))
    stepwise = []
    for s in range(5):
        h = gru_step(x[:, s, :], h, cell.w_ih.data, cell.w_hh.data, cell.b_ih.data, cell.b_hh.data)
        stepwise.append(h)
    fused = nn.gru_direction(Tensor(x), cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh)
    assert np.array_equal(fused.data, np.stack(stepwise, axis=1))


def test_relu_forward_and_mask():
    x = Tensor(np.array([[-1.0, 2.0]]))
    out = nn.relu(x)
    out.backward(np.ones((1, 2)))
    assert np.array_equal(out.data, [[0.0, 2.0]])
    assert np.array_equal(x.grad, [[0.0, 1.0]])


def test_dense_identity_weights_passes_input_through():
    rng = np.random.default_rng(0)
    layer = nn.Dense(3, 3, rng)
    layer.w.data = np.eye(3)
    layer.b.data = np.zeros(3)
    x = rng.standard_normal((4, 3))
    out = layer(Tensor(x))
    assert np.allclose(out.data, x)


def test_dense_shape_mismatch_raises():
    rng = np.random.default_rng(0)
    layer = nn.Dense(3, 2, rng)
    with pytest.raises(ValueError):
        layer(Tensor(np.zeros((4, 5))))


class TestSoftmaxRows:
    def test_uniform_on_equal_inputs(self):
        assert np.allclose(nn.softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_no_overflow_on_large_inputs(self):
        out = nn.softmax_rows(np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, [[0.5, 0.5]])
        assert np.all(np.isfinite(out))

    def test_hand_value(self):
        out = nn.softmax_rows(np.array([[0.0, np.log(3.0)]]))
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)

    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(-50, 50),
        )
    )
    def test_rows_sum_to_one(self, m):
        out = nn.softmax_rows(m)
        assert np.all(np.abs(out.sum(axis=-1) - 1.0) < 1e-12)
        assert np.all(out > 0)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 5)),
            elements=st.floats(-20, 20),
        ),
        st.floats(-30, 30),
    )
    def test_shift_invariance(self, m, c):
        assert np.all(np.abs(nn.softmax_rows(m) - nn.softmax_rows(m + c)) < 1e-12)


class TestAdam:
    def test_zero_gradient_zero_decay_is_fixed_point(self):
        p = Param(np.array([1.0, -2.0]))
        opt = nn.Adam([("p", p)], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        before = p.data.copy()
        opt.step()
        assert np.array_equal(p.data, before)

    def test_first_step_moves_by_lr_times_sign(self):
        p = Param(np.array([3.0, -1.0, 0.5]))
        opt = nn.Adam([("p", p)], lr=0.01, weight_decay=0.0)
        p.grad = np.array([0.2, -4.0, 1e-3])
        before = p.data.copy()
        opt.step()
        step = before - p.data
        assert np.allclose(step, 0.01 * np.sign(p.grad), rtol=1e-5)

    def test_hand_checked_single_step(self):
        # w=1, g=2w, lr=0.1: m_hat/(sqrt(s_hat)+eps) ~ 1 so w -> 0.9
        p = Param(np.array([1.0]))
        opt = nn.Adam([("p", p)], lr=0.1, weight_decay=0.0)
        p.grad = 2.0 * p.data
        opt.step()
        assert abs(p.data[0] - 0.9) < 1e-8

    def test_non_finite_gradient_raises(self):
        p = Param(np.array([1.0]))
        opt = nn.Adam([("p", p)])
        p.grad = np.array([np.inf])
        with pytest.raises(ValueError, match="non-finite gradient"):
            opt.step()

    def test_weight_decay_pulls_toward_zero(self):
        p = Param(np.array([5.0]))
        opt = nn.Adam([("p", p)], lr=0.1, weight_decay=1e-2)
        p.grad = np.zeros(1)
        opt.step()
        assert p.data[0] < 5.0


class TestGradientCheck:
    def test_quadratic_is_tight(self):
        p = Param(np.array([3.0]))
        err = nn.gradient_check(lambda: (p * p).sum(), [("p", p)])
        assert err < 1e-8

    def test_corrupted_gradient_is_reported(self):
        p = Param(np.array([3.0]))

        def doubled_backward():
            def bw(g):
                return (2.0 * g * 2.0 * p.data,)  # gradient deliberately x2

            return Tensor((p.data**2).sum(), (p,), bw)

        err = nn.gradient_check(doubled_backward, [("p", p)])
        assert 0.4 < err < 0.6

    def test_coordinate_subsampling_still_covers_every_tensor(self):
        rng = np.random.default_rng(0)
        layer = nn.Dense(10, 10, rng)
        x = rng.standard_normal((4, 10))
        err = nn.gradient_check(
            lambda: square_loss(layer(Tensor(x))),
            layer.named_params(),
            seed=0,
            max_coords_per_param=5,
        )
        assert err < 1e-4


class TestBatchNorm:
    def test_training_mode_standardizes_batch(self):
        # eps=1e-5 bounds the variance precision to eps/var, so probe with
        # input variance comfortably above 10
        rng = np.random.default_rng(0)
        layer = nn.BatchNorm1d(4)
        x = 10.0 * rng.standard_normal((32, 4)) + 3.0
        out = layer(Tensor(x))
        assert np.all(np.abs(out.data.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(out.data.var(axis=0) - 1.0) < 1e-6)

    def test_batch_of_one_raises_in_training_mode(self):
        layer = nn.BatchNorm1d(3)
        with pytest.raises(ValueError, match="at least 2"):
            layer(Tensor(np.ones((1, 3))))

    def test_eval_mode_uses_running_stats(self):
        rng = np.random.default_rng(1)
        layer = nn.BatchNorm1d(2)
        for _ in range(200):
            layer(Tensor(rng.standard_normal((16, 2)) * 2.0 + 1.0))
        layer.training = False
        out = layer(Tensor(np.array([[1.0, 1.0]])))
        # running stats approach (mean 1, std 2): output near 0
        assert np.all(np.abs(out.data) < 0.2)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        arrays = {
            "a": np.random.default_rng(0).standard_normal((3, 4)),
            "b": np.array([1e-300, 1.0, np.pi]),
        }
        path = tmp_path / "ckpt.json"
        nn.save_checkpoint(path, {"kind": "test"}, arrays)
        meta, loaded = nn.load_checkpoint(path)
        assert meta == {"kind": "test"}
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])

    def test_shape_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        nn.save_checkpoint(path, {}, {"w": np.zeros((2, 3))})
        _, loaded = nn.load_checkpoint(path)
        with pytest.raises(nn.CheckpointError, match="shape"):
            nn.check_shapes(loaded, {"w": np.zeros((3, 3))})
        with pytest.raises(nn.CheckpointError, match="missing"):
            nn.check_shapes(loaded, {"w": np.zeros((2, 3)), "v": np.zeros(2)})


def planted_batch(n=8, v=6, t=40, seed=0):
    """Model inputs of `n` planted samples, as `training` feeds them."""
    ds = generate_synthetic(SynthSpec(v=v, t=t, n=n, modules={"m1": 3, "m2": 3}, planted="m1"),
                            seed=seed)
    return zscore_normalize(ds.x), pearson_features(ds.x), ds.y


def small_model(pipeline):
    return build_model(pipeline, EncoderConfig(window=8, dim=4),
                       GcnConfig(widths=(8, 4), mlp_hidden=8), v=6, seed=0)


class TestNoGrad:
    """Ops record a tape only where a gradient is needed."""

    @pytest.mark.parametrize("pipeline", ["fbnetgen-gru", "fbnetgen-cnn"])
    def test_eval_forward_under_no_grad_keeps_no_tape(self, pipeline):
        xs, feats, _ = planted_batch()
        model = small_model(pipeline)
        model.set_training(False)
        recorded, _ = model.forward(Tensor(xs), Tensor(feats))
        with nn.no_grad():
            logits, graphs = model.forward(Tensor(xs), Tensor(feats))
        assert logits._parents == () and logits._bw is None and not logits.requires_grad
        assert graphs._parents == () and graphs._bw is None
        assert recorded._parents and np.array_equal(logits.data, recorded.data)

    def test_recording_resumes_after_no_grad(self):
        x = Param(np.ones(3))
        with nn.no_grad():
            assert not (x * 2.0).requires_grad
        assert (x * 2.0)._parents

    def test_backward_gives_no_gradient_to_a_constant_parent(self):
        p, c = Param(np.arange(3.0)), Tensor(np.full(3, 2.0), requires_grad=False)
        (p * c).sum().backward()
        assert c.grad is None and np.array_equal(p.grad, c.data)

    def test_param_built_inside_no_grad_requires_gradient(self):
        with nn.no_grad():
            p = Param(np.ones(3))
            leaf = Tensor(np.ones(3))
        assert p.requires_grad and leaf.requires_grad
        assert not nn.as_tensor(np.ones(3)).requires_grad

    def test_data_leaf_gets_no_gradient_from_a_training_step(self):
        xs, feats, y = planted_batch()
        model = small_model("fbnetgen-gru")
        x, f = Tensor(xs, requires_grad=False), Tensor(feats, requires_grad=False)
        logits, graphs = model.forward(x, f)
        total_loss(logits, y, graphs, LossWeights())[0].backward()
        assert x.grad is None and f.grad is None
        assert all(p.grad is not None for _, p in model.named_params())

    # Leaves as recording tensors, as constant tensors, and as the plain
    # arrays the library passes.
    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_step_gradients_match_recording_leaves_bit_for_bit(self, pipeline):
        xs, feats, y = planted_batch()
        grads = []
        for leaf in (Tensor, lambda a: Tensor(a, requires_grad=False), np.asarray):
            with nn.default_dtype(np.float32):
                model = small_model(pipeline)
                logits, graphs = model.forward(leaf(xs), leaf(feats))
                total_loss(logits, y, graphs, LossWeights())[0].backward()
            grads.append({name: p.grad for name, p in model.named_params()})
        recorded = grads[0]
        for other in grads[1:]:
            for name, g in recorded.items():
                assert g.dtype == other[name].dtype and np.array_equal(g, other[name]), name
