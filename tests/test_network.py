import sys
from dataclasses import replace

import numpy as np
import pytest

from ffinit import (
    Activation,
    ConfigurationError,
    DatasetHandle,
    InvalidInputError,
    LayerSpec,
    NetworkParams,
    NetworkState,
    apply_activation,
    feedforward_init,
    init_random_tied,
    mutual_prediction_residual,
)
from ffinit import network
from helpers import (ADOPTED_CASES, COPIED_CASES, make_params, random_sizes, random_state,
                     random_tied_params, random_untied_params)


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

    @pytest.mark.parametrize("sizes", [(10**30, 2), (4, sys.maxsize + 1), (16, 2**62),
                                       (3, 2, sys.maxsize // 8)],
                             ids=["1e30", "maxsize+1", "product", "last-pair-product"])
    def test_layer_spec_rejects_size_beyond_any_array(self, sizes):
        with pytest.raises(ConfigurationError):
            LayerSpec(sizes=sizes)

    def test_layer_spec_accepts_the_largest_weight_matrix(self):
        assert LayerSpec(sizes=(1, sys.maxsize // 8, 1)).sizes[1] == sys.maxsize // 8

    def test_activation_value_string_becomes_the_member(self):
        params = init_random_tied(LayerSpec(sizes=(3, 2)), "hard-sigmoid")
        assert params.activation is Activation.HARD_SIGMOID

    @pytest.mark.parametrize("activation", [None, "tanh"])
    def test_activation_outside_the_enum_rejected(self, activation):
        with pytest.raises(ConfigurationError):
            make_params((2, 3), [np.zeros((3, 2))], activation=activation)

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError,
                           match=r"ff_weights\[0\] must have shape \(3, 2\), got \(2, 3\)"):
            make_params((2, 3), [np.zeros((2, 3))])  # transposed shape
        with pytest.raises(InvalidInputError, match="fb_offsets must have 1 entries, got 2"):
            make_params((2, 3), [np.zeros((3, 2))], fb_offsets=[np.zeros(2), np.zeros(2)])

    def test_params_compare_by_value(self):
        params = random_untied_params(np.random.default_rng(4), sizes=(4, 3, 2))
        copy = replace(params)
        assert copy is not params and copy == params and not copy != params
        w = params.fb_weights[1].copy()
        w[0, 0] = np.nextafter(w[0, 0], np.inf)   # one ulp away
        assert replace(params, fb_weights=(params.fb_weights[0], w)) != params
        assert make_params((4, 3), [params.ff_weights[0]]) != params
        assert params != params.ff_weights
        with pytest.raises(TypeError):
            hash(params)

    def test_non_finite_weights_rejected(self):
        w = np.zeros((3, 2))
        w[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            make_params((2, 3), [w])

    # The branches are combined by their plain mean, so (1, 1) are the only gains.
    @pytest.mark.parametrize("gains", [(0.0, 0.0), (-1.0, 1.0), (0.0, 1.0), (np.nan, 1.0),
                                       (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf), (1.0, 0.0),
                                       (2.0, 1.0), (1.0, 2.0), (1.25, 0.75), (True, True),
                                       (1.0,), (1.0, 1.0, 5.0), 1.0, [1.0, 1.0]],
                             ids=["both-zero", "negative", "zero-bu", "nan-bu", "inf-bu",
                                  "nan-td", "inf-td", "zero-td", "weighted-bu", "weighted-td",
                                  "weighted-mean", "bools", "one", "three", "scalar", "list"])
    def test_gains_other_than_the_plain_mean_rejected(self, gains):
        with pytest.raises(ConfigurationError, match=r"branch_gains must be \(1.0, 1.0\)"):
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


# Hand an array of shape (3, 2) to a container; return the array it holds.
HOLDERS = {
    "NetworkParams": lambda x: NetworkParams(
        spec=LayerSpec((2, 3)), ff_weights=(x,), fb_weights=(np.zeros((2, 3)),),
        ff_offsets=(np.zeros(3),), fb_offsets=(np.zeros(2),)).ff_weights[0],
    "NetworkState.visible": lambda x: NetworkState(visible=x, hidden=(np.zeros((3, 3)),)).visible,
    "NetworkState.hidden": lambda x: NetworkState(visible=np.zeros((3, 3)), hidden=(x,)).hidden[0],
}


class TestOwnership:
    @pytest.mark.parametrize("holder", HOLDERS)
    @pytest.mark.parametrize("case", COPIED_CASES)
    def test_array_is_copied(self, holder, case):
        a = np.arange(6.0).reshape(3, 2) / 8
        x, writer = COPIED_CASES[case](a.copy())
        held = HOLDERS[holder](x)
        assert not np.shares_memory(held, x)
        assert held.flags.c_contiguous and held.dtype == np.float64
        if writer is not None:
            writer[...] = 1.0
        assert np.array_equal(held, a)

    @pytest.mark.parametrize("holder", HOLDERS)
    @pytest.mark.parametrize("case", ADOPTED_CASES)
    def test_array_is_adopted(self, holder, case):
        x = ADOPTED_CASES[case](np.arange(6.0).reshape(3, 2) / 8)
        assert np.shares_memory(HOLDERS[holder](x), x)

    def test_every_held_array_is_read_only(self):
        rng = np.random.default_rng(3)
        params = random_tied_params(rng, sizes=(4, 3, 2))
        state = feedforward_init(params, rng.uniform(0, 1, size=(5, 4)))
        held = [*params.ff_weights, *params.fb_weights, *params.ff_offsets,
                *params.fb_offsets, state.visible, *state.hidden]
        assert not any(a.flags.writeable for a in held)


class TestNetworkState:
    def test_three_dimensional_layer_rejected(self):
        with pytest.raises(InvalidInputError, match=r"visible must be a 1-d vector or a 2-d "
                                                    r"block, got shape \(1, 1, 2\)"):
            NetworkState(visible=np.zeros((1, 1, 2)), hidden=(np.zeros(3),))

    @pytest.mark.parametrize("visible, hidden, message", [
        (np.zeros(3), (np.zeros(3),), "visible has length 3, expected 2"),
        (np.zeros(2), (np.zeros(3), np.zeros(3)), "state has 2 hidden layers, expected 1"),
    ], ids=["visible-length", "hidden-layer-count"])
    def test_check_state_rejects_a_state_of_another_network(self, visible, hidden, message):
        params = make_params((2, 3), [np.zeros((3, 2))])
        with pytest.raises(InvalidInputError, match=message):
            network.check_state(params, NetworkState(visible=visible, hidden=hidden))

    def test_states_and_datasets_compare_and_hash_by_identity(self):
        params = random_tied_params(np.random.default_rng(5), sizes=(4, 3))
        a, b = (feedforward_init(params, np.full(4, 0.5)) for _ in range(2))
        assert a == a and a != b and len({a, b, a}) == 2
        data = DatasetHandle(np.zeros((2, 4)))
        assert data == data and data != DatasetHandle(data.items) and len({data, data}) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            NetworkState(visible=np.array([0.5, bad]), hidden=(np.zeros(3),))
        with pytest.raises(InvalidInputError):
            NetworkState(visible=np.zeros((2, 2)),
                         hidden=(np.array([[0.0, 0.0, 0.0], [0.5, bad, 0.0]]),))


class TestBottomUp:
    """The bottom-up branch of ``network._branch_predictions``: ``b_k + W_k rho(s_{k-1})``."""

    def test_zero_weights_expose_offset(self):
        params = make_params((2, 1), [np.zeros((1, 2))], ff_offsets=[[0.3]])
        d_bu, d_td = network._branch_predictions(params, [np.array([0.9, 0.1])], 1)
        assert np.array_equal(d_bu, [0.3]) and d_td is None

    def test_identity_weight_interior(self):
        params = make_params((1, 1), [[[1.0]]])
        assert np.array_equal(network._branch_predictions(params, [np.array([0.5])], 1)[0], [0.5])

    def test_matches_elementwise_affine_oracle(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        params = make_params((3, 2), [w], ff_offsets=[b])
        rho_h = np.clip(rng.uniform(-0.5, 1.5, size=3), 0.0, 1.0)
        got = network._branch_predictions(params, [rho_h], 1)[0]
        want = [b[i] + sum(w[i, j] * rho_h[j] for j in range(3)) for i in range(2)]
        assert np.allclose(got, want, atol=1e-14)

    def test_result_is_not_rate_coded(self):
        params = make_params((1, 1), [[[4.0]]])
        assert network._branch_predictions(params, [np.array([1.0])], 1)[0][0] == 4.0


class TestTopDown:
    """The top-down branch of ``network._branch_predictions``: ``c_k + V_{k+1} rho(s_{k+1})``."""

    def test_zero_weights_expose_offset(self):
        params = make_params((1, 1, 2), [np.zeros((1, 1)), np.zeros((2, 1))],
                             fb_offsets=[[0.0], [0.7]])
        rates = [np.array([0.4]), np.array([0.6]), np.array([0.2, 0.9])]
        assert np.array_equal(network._branch_predictions(params, rates, 1)[1], [0.7])

    def test_hand_evaluated_case(self):
        params = make_params((1, 1, 1), [[[0.0]], [[0.0]]], fb_weights=[[[0.0]], [[2.0]]])
        rates = [np.array([0.5]), np.array([0.5]), np.array([0.25])]
        assert np.array_equal(network._branch_predictions(params, rates, 1)[1], [0.5])

    def test_transpose_tied_matches_explicit_transpose(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(4, 3))
        c = rng.normal(size=3)
        params = make_params((2, 3, 4), [np.zeros((3, 2)), w], fb_offsets=[np.zeros(2), c])
        x = rng.uniform(0, 1, size=4)
        got = network._branch_predictions(params, [np.zeros(2), np.zeros(3), x], 1)[1]
        want = c + w.T @ x
        assert np.allclose(got, want, atol=1e-14)


class TestLayerTarget:
    """``network._layer_target``: the clipped plain mean of the branch predictions,
    or the clipped bottom-up prediction at the top layer."""

    @staticmethod
    def interior(fb_weight, fb_offset):
        """A two-hidden-layer net whose layer 1 takes its top-down prediction
        from ``fb_weight`` and ``fb_offset``; its other weights are zero."""
        n, m = fb_weight.shape
        return make_params((3, n, m), [np.zeros((n, 3)), np.zeros((m, n))],
                           fb_weights=[np.zeros((3, n)), fb_weight],
                           fb_offsets=[np.zeros(3), fb_offset])

    def test_plain_mean(self):
        params = self.interior(np.zeros((1, 1)), np.array([0.4]))
        out = network._layer_target(params, [None, None, np.zeros(1)], 1, np.array([0.2]))
        assert np.allclose(out, [0.3], atol=1e-15)

    def test_convexity_property(self):
        rng = np.random.default_rng(5)
        rates = [None, None, np.zeros(1)]
        for _ in range(50):
            params = self.interior(np.zeros((6, 1)), rng.normal(size=6))
            d_bu = rng.normal(size=6)
            d_td = network._branch_predictions(params, rates, 1, d_bu)[1]
            out = network._layer_target(params, rates, 1, d_bu)
            lo = np.clip(np.minimum(d_bu, d_td), 0.0, 1.0) - 1e-12
            hi = np.clip(np.maximum(d_bu, d_td), 0.0, 1.0) + 1e-12
            assert np.all(out >= lo) and np.all(out <= hi)

    def test_bits_of_the_clipped_mean(self):
        """The kernel gives exactly the bits of ``np.clip((d_bu + d_td) / 2, 0, 1)``,
        and of ``np.clip(d_bu, 0, 1)`` at the top layer, on random blocks and on
        signed zeros, subnormals and values near the float maximum (where
        ``a + b`` overflows). ``d_bu`` is handed in; ``d_td`` comes from the
        top-down offsets, over a zero product at the edge values."""
        rng = np.random.default_rng(6)
        tiny, huge = np.finfo(float).smallest_subnormal, np.finfo(float).max
        edges = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, -1e-310,
                          huge, -huge, huge / 2, np.nextafter(huge, 0.0), 1.0, -1.0])
        cases = [  # (d_bu, top-down weight, top-down offset, rate of layer 2)
            (rng.normal(scale=10.0, size=(40, 25)), rng.normal(size=(25, 6)),
             rng.normal(scale=10.0, size=25), rng.uniform(0.0, 1.0, size=(40, 6))),
            # every (d_bu, offset) pair of edge values: row i pairs edges[i] with each
            (np.repeat(edges[:, None], len(edges), axis=1), np.zeros((len(edges), 1)),
             edges, np.zeros((len(edges), 1))),
        ]
        for d_bu, v, c, rate in cases:
            interior = self.interior(v, c)
            top = make_params((3, d_bu.shape[1]), [np.zeros((d_bu.shape[1], 3))])
            rates = [None, None, rate]
            with np.errstate(over="ignore"):
                d_td = network._branch_predictions(interior, rates, 1, d_bu)[1]
                want = np.clip((d_bu + d_td) / 2, 0, 1)
                got = network._layer_target(interior, rates, 1, d_bu)
            assert got.tobytes() == want.tobytes()
            top_got = network._layer_target(top, [None], 1, d_bu)
            assert top_got.tobytes() == np.clip(d_bu, 0, 1).tobytes()

    @pytest.mark.parametrize("sizes", [(5, 4), (5, 4, 3)], ids=["L1", "L2"])
    def test_a_drive_handed_in_is_not_written(self, sizes):
        rng = np.random.default_rng(7)
        params = random_tied_params(rng, sizes, scale=2.0, with_offsets=True)
        state = random_state(rng, params, lo=-1.0, hi=2.0)
        rates = [apply_activation(params.activation, s) for s in (state.visible, *state.hidden)]
        for r in rates:
            r.setflags(write=False)
        drive = network._drive(params, state.visible)
        drive.setflags(write=False)
        kept = drive.copy()
        got = network._layer_target(params, rates, 1, drive)
        assert got.tobytes() == network._layer_target(params, rates, 1).tobytes()
        top = network._layer_target(params, rates, params.n_layers,
                                    drive if params.n_layers == 1 else None)
        for out in (got, top):
            assert out.flags.writeable and out.flags.owndata
            assert not any(np.shares_memory(out, a) for a in (drive, *rates))
        assert drive.tobytes() == kept.tobytes()


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
        with pytest.raises(InvalidInputError, match=r"visible must have length 2, got \(3,\)"):
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
            d_bu, d_td = network._branch_predictions(params, rates, k)
            assert d_bu.shape == (sizes[k],)
            assert d_td is None if k == params.n_layers else d_td.shape == (sizes[k],)
        assert mutual_prediction_residual(params, state).shape == (params.n_layers,)
