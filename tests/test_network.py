import numpy as np
import pytest

from ffinit import (
    Activation,
    ConfigurationError,
    DimensionError,
    InvalidInputError,
    LayerSpec,
    NetworkParams,
    NetworkState,
    apply_activation,
    branch_combine,
    branch_predictions,
    feedforward_init,
    mutual_prediction_residual,
)
from helpers import make_params, random_sizes, random_state, random_tied_params


class TestActivation:
    def test_hard_sigmoid_identity_region(self):
        assert apply_activation(Activation.HARD_SIGMOID, np.array([0.5])) == [0.5]

    def test_hard_sigmoid_saturates_both_sides(self):
        out = apply_activation(Activation.HARD_SIGMOID, np.array([-1.0, 2.0]))
        assert np.array_equal(out, [0.0, 1.0])

    def test_hard_sigmoid_boundary_fixed_points(self):
        out = apply_activation(Activation.HARD_SIGMOID, np.array([0.0, 1.0]))
        assert np.array_equal(out, [0.0, 1.0])

    def test_hard_sigmoid_range(self):
        rng = np.random.default_rng(0)
        out = apply_activation(Activation.HARD_SIGMOID, rng.normal(0, 5, size=200))
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("kind", list(Activation))
    def test_monotone_non_decreasing(self, kind):
        rng = np.random.default_rng(1)
        x = np.sort(rng.normal(0, 3, size=500))
        out = apply_activation(kind, x)
        assert np.all(np.diff(out) >= 0.0)


class TestSpecAndParams:
    def test_layer_spec_needs_two_layers(self):
        with pytest.raises(ConfigurationError):
            LayerSpec(sizes=(4,))

    def test_layer_spec_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            LayerSpec(sizes=(4, 0, 3))

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            make_params((2, 3), [np.zeros((2, 3))])  # transposed shape

    def test_non_finite_weights_rejected(self):
        w = np.zeros((3, 2))
        w[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            make_params((2, 3), [w])

    def test_gains_not_both_zero(self):
        with pytest.raises(ConfigurationError):
            make_params((2, 3), [np.zeros((3, 2))], gains=(0.0, 0.0))

    def test_negative_gain_rejected(self):
        with pytest.raises(ConfigurationError):
            make_params((2, 3), [np.zeros((3, 2))], gains=(-1.0, 1.0))

    # The top layer has only its bottom-up branch, so its gain must be positive.
    @pytest.mark.parametrize("gains", [(0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
                                       (1.0, np.nan), (1.0, np.inf)],
                             ids=["zero-bu", "nan-bu", "inf-bu", "nan-td", "inf-td"])
    def test_gain_outside_domain_rejected(self, gains):
        with pytest.raises(ConfigurationError):
            make_params((2, 3), [np.zeros((3, 2))], gains=gains)

    def test_arrays_read_only(self):
        params = make_params((2, 3), [np.zeros((3, 2))])
        with pytest.raises(ValueError):
            params.ff_weights[0][0, 0] = 1.0
        state = NetworkState(visible=np.zeros(2), hidden=(np.zeros(3),))
        with pytest.raises(ValueError):
            state.visible[0] = 1.0

    def test_is_tied(self):
        rng = np.random.default_rng(2)
        assert random_tied_params(rng).is_tied
        w = rng.normal(size=(3, 2))
        untied = make_params((2, 3), [w], fb_weights=[w.T + 1e-16])
        assert not untied.is_tied


class TestNetworkState:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            NetworkState(visible=np.array([0.5, bad]), hidden=(np.zeros(3),))
        with pytest.raises(InvalidInputError):
            NetworkState(visible=np.zeros((2, 2)),
                         hidden=(np.array([[0.0, 0.0, 0.0], [0.5, bad, 0.0]]),))


class TestBottomUp:
    """The bottom-up branch of ``branch_predictions``: ``b_k + W_k rho(s_{k-1})``."""

    def test_zero_weights_expose_offset(self):
        params = make_params((2, 1), [np.zeros((1, 2))], ff_offsets=[[0.3]])
        d_bu, d_td = branch_predictions(params, [np.array([0.9, 0.1])], 1)
        assert np.array_equal(d_bu, [0.3]) and d_td is None

    def test_identity_weight_interior(self):
        params = make_params((1, 1), [[[1.0]]])
        assert np.array_equal(branch_predictions(params, [np.array([0.5])], 1)[0], [0.5])

    def test_matches_elementwise_affine_oracle(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        params = make_params((3, 2), [w], ff_offsets=[b])
        rho_h = np.clip(rng.uniform(-0.5, 1.5, size=3), 0.0, 1.0)
        got = branch_predictions(params, [rho_h], 1)[0]
        want = [b[i] + sum(w[i, j] * rho_h[j] for j in range(3)) for i in range(2)]
        assert np.allclose(got, want, atol=1e-14)

    def test_result_is_not_rate_coded(self):
        params = make_params((1, 1), [[[4.0]]])
        assert branch_predictions(params, [np.array([1.0])], 1)[0][0] == 4.0


class TestTopDown:
    """The top-down branch of ``branch_predictions``: ``c_k + V_{k+1} rho(s_{k+1})``."""

    def test_zero_weights_expose_offset(self):
        params = make_params((1, 1, 2), [np.zeros((1, 1)), np.zeros((2, 1))],
                             fb_offsets=[[0.0], [0.7]])
        rates = [np.array([0.4]), np.array([0.6]), np.array([0.2, 0.9])]
        assert np.array_equal(branch_predictions(params, rates, 1)[1], [0.7])

    def test_hand_evaluated_case(self):
        params = make_params((1, 1, 1), [[[0.0]], [[0.0]]], fb_weights=[[[0.0]], [[2.0]]])
        rates = [np.array([0.5]), np.array([0.5]), np.array([0.25])]
        assert np.array_equal(branch_predictions(params, rates, 1)[1], [0.5])

    def test_transpose_tied_matches_explicit_transpose(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(4, 3))
        c = rng.normal(size=3)
        params = make_params((2, 3, 4), [np.zeros((3, 2)), w], fb_offsets=[np.zeros(2), c])
        x = rng.uniform(0, 1, size=4)
        got = branch_predictions(params, [np.zeros(2), np.zeros(3), x], 1)[1]
        want = c + w.T @ x
        assert np.allclose(got, want, atol=1e-14)


class TestBranchCombine:
    def test_equal_gains_mean(self):
        params = make_params((1, 1), [[[0.0]]])
        out = branch_combine(params, np.array([0.2]), np.array([0.4]))
        assert np.allclose(out, [0.3], atol=1e-15)

    def test_degenerate_gain_returns_bottom_up(self):
        params = make_params((1, 1), [[[0.0]]], gains=(1.0, 0.0))
        out = branch_combine(params, np.array([0.9]), np.array([123.0]))
        assert np.array_equal(out, [0.9])

    def test_weighted_case(self):
        params = make_params((1, 1), [[[0.0]]], gains=(2.0, 1.0))
        out = branch_combine(params, np.array([0.3]), np.array([0.9]))
        assert np.allclose(out, [0.5], atol=1e-15)

    def test_length_mismatch(self):
        params = make_params((1, 1), [[[0.0]]])
        with pytest.raises(DimensionError):
            branch_combine(params, np.zeros(2), np.zeros(3))

    def test_convexity_property(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            gains = tuple(rng.uniform(0.1, 3.0, size=2))
            params = make_params((1, 1), [[[0.0]]], gains=gains)
            d_bu = rng.normal(size=6)
            d_td = rng.normal(size=6)
            out = branch_combine(params, d_bu, d_td)
            lo = np.minimum(d_bu, d_td) - 1e-12
            hi = np.maximum(d_bu, d_td) + 1e-12
            assert np.all(out >= lo) and np.all(out <= hi)


class TestFeedforwardInit:
    def test_zero_network_gives_zero_hidden(self):
        params = make_params((2, 3, 2), [np.zeros((3, 2)), np.zeros((2, 3))])
        state = feedforward_init(params, np.array([0.4, 0.6]))
        assert all(np.array_equal(h, np.zeros_like(h)) for h in state.hidden)

    def test_identity_chain_propagates(self):
        params = make_params((1, 1, 1), [[[1.0]], [[1.0]]])
        state = feedforward_init(params, np.array([0.5]))
        assert np.array_equal(state.hidden[0], [0.5])
        assert np.array_equal(state.hidden[1], [0.5])

    def test_matches_per_layer_oracle_loop(self):
        rng = np.random.default_rng(6)
        params = random_tied_params(rng, sizes=(20, 12, 9, 5), with_offsets=True)
        v = rng.uniform(0, 1, size=20)
        state = feedforward_init(params, v)
        cur = np.clip(v, 0, 1)
        for k in range(3):
            cur = np.clip(params.ff_offsets[k] + params.ff_weights[k] @ cur, 0, 1)
            assert np.allclose(state.hidden[k], cur, atol=1e-14)

    def test_visible_stored_unchanged(self):
        rng = np.random.default_rng(7)
        params = random_tied_params(rng, sizes=(4, 3))
        v = rng.uniform(0, 1, size=4)
        state = feedforward_init(params, v)
        assert np.array_equal(state.visible, v)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        params = random_tied_params(rng, sizes=(5, 4, 3))
        v = rng.uniform(0, 1, size=5)
        a = feedforward_init(params, v)
        b = feedforward_init(params, v)
        assert all(np.array_equal(x, y) for x, y in zip(a.hidden, b.hidden))

    def test_shape_error(self):
        params = make_params((2, 3), [np.zeros((3, 2))])
        with pytest.raises(DimensionError):
            feedforward_init(params, np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_visible_rejected(self, bad):
        params = make_params((2, 3), [np.ones((3, 2))])
        with pytest.raises(InvalidInputError):
            feedforward_init(params, np.array([0.5, bad]))
        with pytest.raises(InvalidInputError):
            feedforward_init(params, np.array([[0.5, 0.5], [bad, 0.5]]))


class TestMutualPredictionResidual:
    def test_hand_built_exact_autoencoder(self):
        params = make_params((1, 1, 1), [[[1.0]], [[1.0]]])
        state = feedforward_init(params, np.array([0.5]))
        assert np.all(mutual_prediction_residual(params, state) <= 1e-12)

    def test_zero_network_zero_state(self):
        params = make_params((2, 3, 2), [np.zeros((3, 2)), np.zeros((2, 3))])
        state = NetworkState(visible=np.zeros(2), hidden=(np.zeros(3), np.zeros(2)))
        assert np.array_equal(mutual_prediction_residual(params, state), [0.0, 0.0])

    def test_matches_direct_reevaluation_oracle(self):
        rng = np.random.default_rng(9)
        params = random_tied_params(rng, sizes=(6, 5, 4, 3), with_offsets=True)
        state = feedforward_init(params, rng.uniform(0, 1, size=6))
        got = mutual_prediction_residual(params, state)
        layers = (state.visible, *state.hidden)
        rates = [np.clip(s, 0, 1) for s in layers]
        for k in range(1, 4):
            d_bu = params.ff_offsets[k - 1] + rates[k - 1] @ params.ff_weights[k - 1].T
            worst = np.abs(d_bu - layers[k]).max()
            if k < 3:
                d_td = params.fb_offsets[k] + rates[k + 1] @ params.fb_weights[k].T
                worst = max(worst, np.abs(d_td - layers[k]).max())
            assert got[k - 1] == pytest.approx(worst, abs=1e-15)

    def test_constructed_good_autoencoder_condition(self):
        from ffinit import synth_autoencodable
        data, params = synth_autoencodable(10, LayerSpec(sizes=(7, 5, 4)), seed=3)
        for x in data.items:
            res = mutual_prediction_residual(params, feedforward_init(params, x))
            assert np.all(res <= 1e-12)


def test_shape_closure_property():
    rng = np.random.default_rng(10)
    for _ in range(20):
        params = random_tied_params(rng, random_sizes(rng), with_offsets=True)
        sizes = params.spec.sizes
        state = random_state(rng, params)
        ff = feedforward_init(params, state.visible)
        assert [h.shape[0] for h in ff.hidden] == list(sizes[1:])
        rates = [np.clip(s, 0, 1) for s in (state.visible, *state.hidden)]
        for k in range(1, params.n_layers + 1):
            d_bu, d_td = branch_predictions(params, rates, k)
            assert d_bu.shape == (sizes[k],)
            assert d_td is None if k == params.n_layers else d_td.shape == (sizes[k],)
        assert mutual_prediction_residual(params, state).shape == (params.n_layers,)
