import numpy as np
import pytest

from netgen import nncore as nn
from netgen.encoders import CnnEncoder, EncoderConfig, GruEncoder, build_encoder
from netgen.nncore import Tensor


def rand_input(b, v, t, seed=0):
    return np.random.default_rng(seed).standard_normal((b, v, t))


class TestCnnEncoder:
    def test_full_atlas_shape(self):
        enc = CnnEncoder(EncoderConfig(kind="cnn", window=6, dim=8), np.random.default_rng(0))
        out = enc(Tensor(rand_input(1, 264, 120)))
        assert out.shape == (1, 264, 8)

    def test_constant_input_gives_identical_rows(self):
        enc = CnnEncoder(EncoderConfig(kind="cnn", window=4, dim=4), np.random.default_rng(0))
        out = enc(Tensor(np.zeros((1, 5, 40)))).data[0]
        assert np.all(out == out[0])

    def test_too_short_series_reports_minimum(self):
        enc = CnnEncoder(EncoderConfig(kind="cnn", window=4, dim=4), np.random.default_rng(0))
        assert enc.min_length() == 32  # window + 28 for the fixed conv stack
        with pytest.raises(ValueError, match="t >= 32"):
            enc(Tensor(rand_input(1, 3, 31)))

    def test_gradient_check(self):
        enc = CnnEncoder(EncoderConfig(kind="cnn", window=4, dim=4), np.random.default_rng(1))
        x = rand_input(1, 4, 40, seed=2)
        err = nn.gradient_check(
            lambda: (enc(Tensor(x)) ** 2).sum(),
            enc.named_params(),
            seed=0,
            max_coords_per_param=10,
        )
        assert err < 1e-4


class TestGruEncoder:
    def test_segments_and_readout_width(self):
        enc = GruEncoder(EncoderConfig(kind="gru", window=32, dim=8), np.random.default_rng(0))
        assert enc.segment_count(512) == 16
        assert enc.out.w.data.shape == (64, 8)  # the 2 * window readout feeds the dense map
        out = enc(Tensor(rand_input(1, 3, 512)))
        assert out.shape == (1, 3, 8)

    def test_trailing_remainder_dropped(self):
        enc = GruEncoder(EncoderConfig(kind="gru", window=4, dim=5), np.random.default_rng(0))
        assert enc.segment_count(10) == 2
        x = rand_input(2, 3, 10, seed=1)
        out = enc(Tensor(x))
        assert out.shape == (2, 3, 5)
        # the dropped trailing steps cannot influence the embedding
        x2 = x.copy()
        x2[:, :, 8:] += 100.0
        assert np.array_equal(enc(Tensor(x2)).data, out.data)

    def test_window_longer_than_series_rejected(self):
        enc = GruEncoder(EncoderConfig(kind="gru", window=16, dim=4), np.random.default_rng(0))
        with pytest.raises(ValueError, match="exceeds"):
            enc(Tensor(rand_input(1, 2, 8)))

    def test_sensitive_to_time_shuffle(self):
        # contrast with Pearson features, which are shuffle-invariant
        enc = GruEncoder(EncoderConfig(kind="gru", window=4, dim=4), np.random.default_rng(3))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 3, 16))
        perm = rng.permutation(16)
        out = enc(Tensor(x)).data
        out_shuffled = enc(Tensor(x[:, :, perm])).data
        assert np.abs(out - out_shuffled).max() > 1e-6

    def test_gradient_check(self):
        enc = GruEncoder(EncoderConfig(kind="gru", window=4, dim=4), np.random.default_rng(5))
        x = rand_input(1, 4, 40, seed=6)
        err = nn.gradient_check(
            lambda: (enc(Tensor(x)) ** 2).sum(),
            enc.named_params(),
            seed=0,
            max_coords_per_param=10,
        )
        assert err < 1e-4


@pytest.mark.parametrize("kind,window,t", [("cnn", 4, 40), ("gru", 4, 16)])
def test_roi_permutation_equivariance(kind, window, t):
    enc = build_encoder(EncoderConfig(kind=kind, window=window, dim=4), np.random.default_rng(7))
    x = rand_input(1, 5, t, seed=8)
    perm = np.array([3, 0, 4, 1, 2])
    out = enc(Tensor(x)).data
    out_perm = enc(Tensor(x[:, perm, :])).data
    assert np.allclose(out_perm, out[:, perm, :], atol=1e-12)


@pytest.mark.parametrize("kind,window,t", [("cnn", 4, 40), ("gru", 4, 16)])
def test_determinism_same_seed_same_output(kind, window, t):
    cfg = EncoderConfig(kind=kind, window=window, dim=4)
    a = build_encoder(cfg, np.random.default_rng(9))
    b = build_encoder(cfg, np.random.default_rng(9))
    x = rand_input(2, 3, t, seed=10)
    assert np.array_equal(a(Tensor(x)).data, b(Tensor(x)).data)


def test_build_encoder_rejects_unknown_kind():
    with pytest.raises(ValueError, match="cnn"):
        build_encoder(EncoderConfig(kind="lstm"), np.random.default_rng(0))
