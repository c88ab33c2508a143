import dataclasses
import math
import warnings

import numpy as np
import pytest

from ffinit import inference, network
from ffinit import (
    Activation,
    ConfigurationError,
    ConvergenceTrace,
    EnergyModel,
    InvalidInputError,
    LayerSpec,
    NetworkState,
    RelaxationConfig,
    Scheme,
    TrainConfig,
    TrainRule,
    apply_activation,
    direct_update_layer,
    energy,
    energy_gradient,
    feedforward_init,
    infer_from_feedforward,
    init_random_tied,
    mutual_prediction_residual,
    norm_matched_random,
    relax,
    synth_autoencodable,
    synth_blobs,
    train_stacked_ae,
)
from helpers import (
    dense_energy_oracle,
    make_params,
    random_sizes,
    random_state,
    random_tied_params,
    sweep_oracle,
    traced_peak,
)


class TestRelaxationConfig:
    def test_tau_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            RelaxationConfig(scheme=Scheme.LEAKY, tau=0.5)

    def test_langevin_requires_noise(self):
        with pytest.raises(ConfigurationError):
            RelaxationConfig(scheme=Scheme.LANGEVIN, noise_scale=0.0)

    def test_deterministic_schemes_reject_noise(self):
        with pytest.raises(ConfigurationError):
            RelaxationConfig(scheme=Scheme.LEAKY, noise_scale=0.1)

    def test_budget_and_tolerance(self):
        with pytest.raises(ConfigurationError):
            RelaxationConfig(max_iters=0)
        with pytest.raises(ConfigurationError):
            RelaxationConfig(tol=0.0)


class TestDirectUpdateLayer:
    def test_constructed_fixed_point(self):
        params = make_params((1, 1, 1), [[[1.0]], [[1.0]]])
        state = NetworkState(visible=np.array([0.5]),
                             hidden=(np.array([0.5]), np.array([0.5])))
        assert np.array_equal(direct_update_layer(params, state, 1), [0.5])
        assert np.array_equal(direct_update_layer(params, state, 2), [0.5])

    def test_matches_compositional_oracle(self):
        rng = np.random.default_rng(1)
        params = random_tied_params(rng, sizes=(5, 4, 3, 2), with_offsets=True)
        state = random_state(rng, params)
        rates = [np.clip(s, 0, 1) for s in (state.visible, *state.hidden)]
        for k in range(1, 4):
            d_bu = params.ff_offsets[k - 1] + rates[k - 1] @ params.ff_weights[k - 1].T
            d_td = (params.fb_offsets[k] + rates[k + 1] @ params.fb_weights[k].T
                    if k < 3 else None)
            want = apply_activation(params.activation,
                                    d_bu if d_td is None else (d_bu + d_td) / 2)
            assert np.array_equal(direct_update_layer(params, state, k), want)

    def test_does_not_mutate_state(self):
        rng = np.random.default_rng(2)
        params = random_tied_params(rng, sizes=(3, 3, 3))
        state = random_state(rng, params)
        before = [h.copy() for h in state.hidden]
        direct_update_layer(params, state, 1)
        assert all(np.array_equal(a, b) for a, b in zip(before, state.hidden))

    @pytest.mark.parametrize("k", [0, -1, 4, 1.0, 1.5, True])
    def test_layer_index_out_of_range(self, k):
        # At 6-4-4-4 a negative index would wrap onto a layer of the same size;
        # True would read layer 1 and a float would fail in list indexing.
        rng = np.random.default_rng(3)
        params = random_tied_params(rng, sizes=(6, 4, 4, 4), with_offsets=True)
        with pytest.raises(InvalidInputError, match="out of range 1..3"):
            direct_update_layer(params, random_state(rng, params), k)


class TestRelax:
    def test_fixed_point_start_converges_immediately(self):
        data, params = synth_autoencodable(5, LayerSpec(sizes=(6, 5, 4)), seed=0)
        state = feedforward_init(params, data.items[0])
        _, trace = relax(params, state, RelaxationConfig())
        assert trace.converged
        assert trace.iters_run == 1
        assert trace.step_magnitudes[0] <= 1e-12

    def test_leaky_tau_one_bit_identical_to_direct(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            params = random_tied_params(rng, random_sizes(rng), with_offsets=True)
            state = random_state(rng, params)
            cfg_leaky = RelaxationConfig(scheme=Scheme.LEAKY, tau=1.0,
                                         max_iters=50, tol=1e-300)
            cfg_direct = RelaxationConfig(scheme=Scheme.DIRECT_ALTERNATING,
                                          max_iters=50, tol=1e-300)
            sa, ta = relax(params, state, cfg_leaky)
            sb, tb = relax(params, state, cfg_direct)
            assert all(np.array_equal(x, y) for x, y in zip(sa.hidden, sb.hidden))
            assert np.array_equal(ta.step_magnitudes, tb.step_magnitudes)

    def test_direct_is_leaky_at_tau_1(self):
        rng = np.random.default_rng(4)
        params = random_tied_params(rng, sizes=(4, 3))
        state = random_state(rng, params)
        a, _ = relax(params, state, RelaxationConfig(max_iters=10, tol=1e-300))
        b, _ = relax(params, state,
                     RelaxationConfig(scheme=Scheme.LEAKY, tau=1.0, max_iters=10, tol=1e-300))
        assert all(np.array_equal(x, y) for x, y in zip(a.hidden, b.hidden))

    def test_leaky_moves_gradually(self):
        rng = np.random.default_rng(5)
        params = random_tied_params(rng, sizes=(4, 3))
        state = random_state(rng, params)
        direct, _ = relax(params, state, RelaxationConfig(max_iters=1, tol=1e-300))
        leaky, _ = relax(params, state,
                         RelaxationConfig(scheme=Scheme.LEAKY, tau=10.0,
                                          max_iters=1, tol=1e-300))
        d_direct = np.linalg.norm(np.concatenate(direct.hidden)
                                  - np.concatenate(state.hidden))
        d_leaky = np.linalg.norm(np.concatenate(leaky.hidden)
                                 - np.concatenate(state.hidden))
        assert d_leaky < d_direct

    def test_matches_straight_line_sweep_oracle(self):
        rng = np.random.default_rng(6)
        params = random_tied_params(rng, sizes=(30, 20, 20, 20), with_offsets=True)
        state = feedforward_init(params, rng.uniform(0, 1, size=30))
        final, trace = relax(params, state, RelaxationConfig(max_iters=25, tol=1e-300))
        oracle_hidden, oracle_steps = sweep_oracle(params, state, 25)
        assert all(np.array_equal(a, b) for a, b in zip(final.hidden, oracle_hidden))
        assert np.array_equal(trace.step_magnitudes, np.asarray(oracle_steps))
        assert np.all(trace.step_magnitudes > 0.0)

    def test_leaky_matches_the_sweep_oracle_from_states_outside_the_unit_interval(self):
        # Hidden states outside [0, 1] are where a layer's rate differs from
        # its state, so the engine's rate, clipped once per update of its
        # layer, must match the oracle's, clipped afresh every half-sweep.
        rng = np.random.default_rng(29)
        for sizes in ((10, 8), (10, 8, 6), (12, 9, 7, 5)):
            params = random_tied_params(rng, sizes, with_offsets=True)
            state = random_state(rng, params, lo=-1.0, hi=2.0)
            cfg = RelaxationConfig(scheme=Scheme.LEAKY, tau=2.5, max_iters=25, tol=1e-300)
            final, trace = relax(params, state, cfg)
            oracle_hidden, oracle_steps = sweep_oracle(params, state, 25, tau=2.5)
            assert all(np.array_equal(a, b) for a, b in zip(final.hidden, oracle_hidden))
            assert np.array_equal(trace.step_magnitudes, np.asarray(oracle_steps))
            assert any(((h < 0.0) | (h > 1.0)).any() for h in final.hidden)

    @pytest.mark.parametrize("sizes", [(10, 8), (10, 8, 6), (12, 9, 7, 5)],
                             ids=["L1", "L2", "L3"])
    def test_direct_matches_the_sweep_oracle_from_states_outside_the_unit_interval(self, sizes):
        # The direct scheme takes each clipped target as the layer's state and
        # rate at once, while the oracle mixes 0 * s + 1 * T and clips afresh;
        # a start outside [0, 1] is where a state and its rate differ.
        rng = np.random.default_rng(33)
        params = random_tied_params(rng, sizes, scale=1.5, with_offsets=True)
        states = [random_state(rng, params, lo=-1.0, hi=2.0) for _ in range(3)]
        cfg = RelaxationConfig(max_iters=25, tol=1e-300)
        oracles = [sweep_oracle(params, state, 25) for state in states]

        def assert_matches(hidden, steps, oracle):
            oracle_hidden, oracle_steps = oracle
            n = len(steps)   # a fixed point (step 0.0) stops the run early
            assert all(np.array_equal(a, b) for a, b in zip(hidden, oracle_hidden))
            assert np.array_equal(steps, oracle_steps[:n])
            assert not any(oracle_steps[n:])

        final, trace = relax(params, states[0], cfg)
        assert_matches(final.hidden, trace.step_magnitudes, oracles[0])
        assert any(((h < 0.0) | (h > 1.0)).any() for h in states[0].hidden)
        one, one_trace = relax(params, block_of(states[:1]), cfg)
        assert_matches([h[0] for h in one.hidden], row_of(one_trace, 0).step_magnitudes,
                       oracles[0])
        # Rows of a larger block differ from their own runs by gemm rounding only.
        block, block_trace = relax(params, block_of(states), cfg)
        for i, (oracle_hidden, oracle_steps) in enumerate(oracles):
            steps = row_of(block_trace, i).step_magnitudes
            assert len(steps) <= 25 and not any(oracle_steps[len(steps):])
            np.testing.assert_allclose(steps, oracle_steps[:len(steps)], rtol=1e-12, atol=1e-13)
            for h, o in zip(block.hidden, oracle_hidden):
                np.testing.assert_allclose(h[i], o, rtol=0, atol=1e-12)

    def test_leaky_at_tau_one_runs_as_the_direct_scheme(self):
        # States, steps, convergence and iteration counts, for a vector and a
        # block whose rows stop at different sweeps.
        rng = np.random.default_rng(34)
        params = random_tied_params(rng, (12, 9, 7, 5), scale=1.5, with_offsets=True)
        states = [random_state(rng, params, lo=-1.0, hi=2.0) for _ in range(5)]
        leaky = RelaxationConfig(scheme=Scheme.LEAKY, tau=1.0, max_iters=80, tol=1e-9)
        direct = RelaxationConfig(max_iters=80, tol=1e-9)
        for state in (states[0], block_of(states)):
            a_state, a = relax(params, state, leaky)
            b_state, b = relax(params, state, direct)
            assert all(np.array_equal(x, y) for x, y in zip(a_state.hidden, b_state.hidden))
            assert np.array_equal(a.step_magnitudes, b.step_magnitudes, equal_nan=True)
            assert np.array_equal(a.converged, b.converged)
            assert np.array_equal(a.iters_run, b.iters_run)
            assert np.all(a.iters_run > 1)
        assert len(set(a.iters_run.tolist())) > 1

    @pytest.mark.parametrize("sizes", [(12, 9), (12, 9, 7)], ids=["L1", "L2"])
    def test_langevin_matches_the_noisy_sweep_oracle(self, sizes):
        # At L = 1 every sweep after the first moves the top layer by noise
        # only, and only the clamped drive keeps it near its feedforward rate.
        rng = np.random.default_rng(31)
        params = random_tied_params(rng, sizes, with_offsets=True)
        v = rng.uniform(0, 1, size=12)
        cfg = RelaxationConfig(scheme=Scheme.LANGEVIN, noise_scale=0.05, tau=2.0,
                               max_iters=15, seed=9)
        final, trace = infer_from_feedforward(params, v, cfg)
        oracle_hidden, oracle_steps = sweep_oracle(params, feedforward_init(params, v), 15,
                                                   tau=2.0, noise_scale=0.05, seed=9)
        assert all(np.array_equal(a, b) for a, b in zip(final.hidden, oracle_hidden))
        assert np.array_equal(trace.step_magnitudes, np.asarray(oracle_steps))

    @pytest.mark.parametrize("sizes", [(12, 9), (12, 9, 7)], ids=["L1", "L2"])
    @pytest.mark.parametrize("block", [False, True], ids=["vector", "block"])
    def test_forms_the_clamped_drive_once_per_call(self, sizes, block):
        # Without energy snapshots, the drive b_1 + W_1 rho(v) is the only
        # product ff_weights[0] enters: one per call, however many sweeps run.
        rng = np.random.default_rng(32)
        params = random_tied_params(rng, sizes, scale=1.5, with_offsets=True)
        states = [random_state(rng, params) for _ in range(4)]
        state = block_of(states) if block else states[0]
        cfg = RelaxationConfig(scheme=Scheme.LEAKY, tau=2.5, max_iters=8, tol=1e-300)
        want_state, want = relax(params, state, cfg)
        counted = params.ff_weights[0].view(CountsProducts)
        counted.log = []
        object.__setattr__(params, "ff_weights", (counted, *params.ff_weights[1:]))
        got_state, got = relax(params, state, cfg)
        assert counted.log == ["matmul"]
        assert np.all(got.iters_run == 8)
        assert all(np.array_equal(a, b) for a, b in zip(got_state.hidden, want_state.hidden))
        assert np.array_equal(got.step_magnitudes, want.step_magnitudes)

    def test_langevin_deterministic_under_seed(self):
        rng = np.random.default_rng(7)
        params = random_tied_params(rng, sizes=(5, 4, 3))
        state = random_state(rng, params)
        cfg = RelaxationConfig(scheme=Scheme.LANGEVIN, noise_scale=0.05,
                               max_iters=20, seed=99)
        a, ta = relax(params, state, cfg)
        b, tb = relax(params, state, cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a.hidden, b.hidden))
        assert np.array_equal(ta.step_magnitudes, tb.step_magnitudes)
        other, _ = relax(params, state,
                         RelaxationConfig(scheme=Scheme.LANGEVIN, noise_scale=0.05,
                                          max_iters=20, seed=100))
        assert any(not np.array_equal(x, y) for x, y in zip(a.hidden, other.hidden))

    def test_langevin_never_converges(self):
        data, params = synth_autoencodable(2, LayerSpec(sizes=(5, 4)), seed=1)
        state = feedforward_init(params, data.items[0])
        cfg = RelaxationConfig(scheme=Scheme.LANGEVIN, noise_scale=1e-6, max_iters=15)
        _, trace = relax(params, state, cfg)
        assert not trace.converged
        assert trace.iters_run == 15

    def test_energy_trace_needs_tied_params(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 4))
        v = rng.normal(size=(4, 3))
        params = make_params((4, 3), [w], fb_weights=[v])
        with pytest.raises(ConfigurationError, match="energy requires .* untied"):
            EnergyModel(params)

    @pytest.mark.parametrize("rows", [(), (3,)], ids=["vector", "block"])
    def test_energy_model_of_other_params_rejected(self, rows):
        # Relaxing a's state under b's model would record b's energies along
        # a's trajectory (2.926 where a's own final energy is 2.873).
        spec = LayerSpec(sizes=(16, 8, 6))
        a = init_random_tied(spec, Activation.HARD_SIGMOID, seed=1)
        others = (init_random_tied(spec, Activation.HARD_SIGMOID, seed=2),
                  dataclasses.replace(a, fb_offsets=(a.fb_offsets[0] + 0.25, a.fb_offsets[1])),
                  init_random_tied(LayerSpec(sizes=(16, 8)), Activation.HARD_SIGMOID, seed=1))
        x = np.random.default_rng(0).uniform(size=rows + (16,))
        cfg = RelaxationConfig(max_iters=50, tol=1e-10)
        for other in others:
            with pytest.raises(ConfigurationError, match="energy_model"):
                infer_from_feedforward(a, x, cfg, energy_model=EnergyModel(other))
            with pytest.raises(ConfigurationError, match="energy_model"):
                relax(a, feedforward_init(a, x), cfg, EnergyModel(other))

    def test_clamping_across_schemes(self):
        rng = np.random.default_rng(9)
        params = random_tied_params(rng, sizes=(6, 4, 3))
        v = rng.uniform(0, 1, size=6)
        state = NetworkState(visible=v, hidden=tuple(rng.uniform(0, 1, n)
                                                     for n in (4, 3)))
        for cfg in (RelaxationConfig(max_iters=10),
                    RelaxationConfig(scheme=Scheme.LEAKY, tau=4.0, max_iters=10),
                    RelaxationConfig(scheme=Scheme.LANGEVIN, noise_scale=0.1,
                                     max_iters=10)):
            out, _ = relax(params, state, cfg)
            assert np.array_equal(out.visible, v)
            assert np.array_equal(state.visible, v)

    def test_state_boundedness_without_noise(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            params = random_tied_params(rng, random_sizes(rng), scale=3.0,
                                        with_offsets=True)
            state = random_state(rng, params)
            for cfg in (RelaxationConfig(max_iters=5, tol=1e-300),
                        RelaxationConfig(scheme=Scheme.LEAKY, tau=2.0,
                                         max_iters=5, tol=1e-300)):
                out, _ = relax(params, state, cfg)
                for h in out.hidden:
                    assert h.min() >= 0.0 and h.max() <= 1.0

    def test_fixed_point_soundness(self):
        rng = np.random.default_rng(11)
        tol = 1e-7
        for _ in range(10):
            params = random_tied_params(rng, random_sizes(rng), with_offsets=True)
            state = random_state(rng, params)
            final, trace = relax(params, state,
                                 RelaxationConfig(max_iters=500, tol=tol))
            if not trace.converged:
                continue
            worst = max(
                np.abs(direct_update_layer(params, final, k)
                       - final.hidden[k - 1]).max()
                for k in range(1, params.n_layers + 1))
            assert worst <= tol * 10

    def test_mutual_prediction_link_at_converged_states(self):
        # exact instance: both branches agree, residual exactly zero
        data, params = synth_autoencodable(3, LayerSpec(sizes=(7, 6, 5)), seed=2)
        final, trace = infer_from_feedforward(params, data.items[0],
                                              RelaxationConfig())
        assert trace.converged
        assert np.all(mutual_prediction_residual(params, final) <= 1e-12)
        # interior fixed points: residual bounded by the branch spread
        rng = np.random.default_rng(12)
        params = random_tied_params(rng, sizes=(5, 4, 3), scale=0.3,
                                    with_offsets=True)
        state = random_state(rng, params)
        final, trace = relax(params, state, RelaxationConfig(max_iters=500, tol=1e-12))
        assert trace.converged
        res = mutual_prediction_residual(params, final)
        rates = [np.clip(s, 0, 1) for s in (final.visible, *final.hidden)]
        for k in range(1, params.n_layers):
            d_bu = params.ff_offsets[k - 1] + rates[k - 1] @ params.ff_weights[k - 1].T
            d_td = params.fb_offsets[k] + rates[k + 1] @ params.fb_weights[k].T
            spread = np.abs(d_bu - d_td).max()
            assert res[k - 1] <= spread + 1e-9


class TestInferFromFeedforward:
    def test_equals_relax_of_feedforward_init(self):
        rng = np.random.default_rng(13)
        params = random_tied_params(rng, sizes=(6, 5, 4))
        v = rng.uniform(0, 1, size=6)
        cfg = RelaxationConfig(max_iters=20)
        a_state, a_trace = infer_from_feedforward(params, v, cfg)
        b_state, b_trace = relax(params, feedforward_init(params, v), cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a_state.hidden, b_state.hidden))
        assert np.array_equal(a_trace.step_magnitudes, b_trace.step_magnitudes)

    @pytest.mark.parametrize("scheme", [
        RelaxationConfig(max_iters=60, tol=1e-9),
        RelaxationConfig(scheme=Scheme.LEAKY, tau=2.5, max_iters=60, tol=1e-9),
        RelaxationConfig(scheme=Scheme.LANGEVIN, noise_scale=0.05, tau=2.0, max_iters=15, seed=3),
    ], ids=["direct", "leaky", "langevin"])
    @pytest.mark.parametrize("sizes", [(12, 9), (12, 9, 7), (12, 9, 7, 5)],
                             ids=["L1", "L2", "L3"])
    @pytest.mark.parametrize("block", [False, True], ids=["vector", "block"])
    def test_shares_the_feedforward_drive_bit_for_bit(self, scheme, sizes, block):
        # The relaxation takes layer 1's clamped drive from the feedforward
        # sweep; at L = 1 Langevin runs its whole budget on that drive, so a
        # drive written in place would show there.
        rng = np.random.default_rng(30)
        params = random_tied_params(rng, sizes, scale=1.5, with_offsets=True)
        model = EnergyModel(params)
        items = rng.uniform(0, 1, size=(6, 12))
        v = items if block else items[0]
        got_state, got = infer_from_feedforward(params, v, scheme, model)
        want_state, want = relax(params, feedforward_init(params, v), scheme, model)
        assert all(np.array_equal(a, b) for a, b in zip(got_state.hidden, want_state.hidden))
        assert np.array_equal(got_state.visible, want_state.visible)
        assert np.array_equal(got.step_magnitudes, want.step_magnitudes, equal_nan=True)
        assert np.array_equal(got.energies, want.energies, equal_nan=True)
        assert np.array_equal(got.converged, want.converged)
        assert np.array_equal(got.iters_run, want.iters_run)
        if len(sizes) > 2 or scheme.scheme is Scheme.LANGEVIN:   # else one sweep settles it
            assert np.max(got.iters_run) > 1

        # The layer-1 product with ff_weights[0] is formed once per call.
        counted = params.ff_weights[0].view(CountsProducts)
        counted.log = []
        object.__setattr__(params, "ff_weights", (counted, *params.ff_weights[1:]))
        counted_state, _ = infer_from_feedforward(params, v, scheme)
        assert counted.log == ["matmul"]
        assert all(np.array_equal(a, b) for a, b in zip(counted_state.hidden, got_state.hidden))

        # The residual reads the drive the relaxed state carries, and has the
        # bits of a hand-built state's, which forms its own.
        residual = mutual_prediction_residual(params, counted_state)
        assert counted.log == ["matmul"]
        by_hand = NetworkState(visible=counted_state.visible, hidden=counted_state.hidden)
        assert mutual_prediction_residual(params, by_hand).tobytes() == residual.tobytes()
        assert counted.log == ["matmul", "matmul"]

    @pytest.mark.parametrize("visible, message", [
        (np.zeros(3), r"visible must have length 2, got \(3,\)"),
        (np.zeros((4, 3)), r"visible must have length 2, got \(4, 3\)"),
        (np.zeros((1, 4, 2)), r"visible must have length 2, got \(1, 4, 2\)"),
        (np.zeros(()), r"visible must have length 2, got \(\)"),
        (np.array([0.5, np.nan]), "visible contains non-finite entries"),
        (np.array([np.inf, 0.5]), "visible contains non-finite entries"),
        (np.array([[0.5, 0.5], [0.5, -np.inf]]), "visible contains non-finite entries"),
    ], ids=["wrong-length", "wrong-length-block", "3-d", "0-d", "nan", "inf", "block-minus-inf"])
    def test_rejects_what_feedforward_init_rejects(self, visible, message):
        params = make_params((2, 3, 2), [np.ones((3, 2)), np.ones((2, 3))])
        with pytest.raises(InvalidInputError, match=message) as want:
            feedforward_init(params, visible)
        with pytest.raises(InvalidInputError, match=message) as got:
            infer_from_feedforward(params, visible, RelaxationConfig())
        assert str(got.value) == str(want.value)

    def test_exact_autoencoder_converges_fast(self):
        data, params = synth_autoencodable(20, LayerSpec(sizes=(8, 6, 5, 4)), seed=3)
        for x in data.items:
            _, trace = infer_from_feedforward(params, x, RelaxationConfig())
            assert trace.converged
            assert trace.iters_run <= 2
            assert trace.step_magnitudes[0] <= 1e-9

    def test_zero_weight_single_layer_rests_at_coded_offset(self):
        params = make_params((2, 3), [np.zeros((3, 2))],
                             ff_offsets=[[0.3, -0.5, 1.4]])
        state, trace = infer_from_feedforward(params, np.array([0.1, 0.9]),
                                              RelaxationConfig())
        assert trace.converged and trace.iters_run <= 2
        assert np.array_equal(state.hidden[0], [0.3, 0.0, 1.0])

    def test_zero_weight_network_with_agreeing_offsets_rests(self):
        # a zero-weight interior layer settles at the average of its
        # bottom-up offset and the top-down offset from above; when the
        # two agree the feedforward coding is already the fixed point
        params = make_params((2, 3, 2), [np.zeros((3, 2)), np.zeros((2, 3))],
                             ff_offsets=[[0.3, -0.5, 1.4], [0.6, 0.2]],
                             fb_offsets=[[0.0, 0.0], [0.3, -0.5, 1.4]])
        state, trace = infer_from_feedforward(params, np.array([0.1, 0.9]),
                                              RelaxationConfig())
        assert trace.converged and trace.iters_run <= 2
        assert np.array_equal(state.hidden[0], [0.3, 0.0, 1.0])
        assert np.array_equal(state.hidden[1], [0.6, 0.2])

    def test_exact_autoencoder_beats_random_by_ten_x(self):
        spec = LayerSpec(sizes=(12, 9, 7, 5))
        data, trained = synth_autoencodable(10, spec, seed=4)
        random_params = init_random_tied(spec, Activation.HARD_SIGMOID,
                                         init_scale=1.0, seed=5)
        cfg = RelaxationConfig(max_iters=50)
        for x in data.items:
            _, t_trace = infer_from_feedforward(trained, x, cfg)
            _, r_trace = infer_from_feedforward(random_params, x, cfg)
            assert t_trace.step_magnitudes[0] <= 0.1 * r_trace.step_magnitudes[0]

    def test_exact_instance_settles_in_one_sweep_and_matched_random_does_not(self):
        # The paper's direction on an instance where every pair reconstructs
        # exactly: the feedforward state is already the fixed point, while
        # random weights of the same norms need further sweeps.
        data, exact = synth_autoencodable(50, LayerSpec(sizes=(12, 10, 8, 6)), seed=0)
        cfg = RelaxationConfig()
        _, exact_trace = infer_from_feedforward(exact, data.items, cfg)
        _, random_trace = infer_from_feedforward(norm_matched_random(exact, 0),
                                                 data.items, cfg)
        assert exact_trace.converged.all() and (exact_trace.iters_run == 1).all()
        assert (random_trace.iters_run > 1).all()

    @staticmethod
    def overflowing_params():
        # Finite weights whose branch predictions overflow to +inf and -inf
        # combine to NaN inside the first sweep.
        return make_params((2, 1, 2), [[[1e308, 1e308]], np.ones((2, 1))],
                           fb_weights=[np.ones((2, 1)), [[-1e308, -1e308]]])

    def test_overflow_to_a_non_finite_state_raises(self):
        # The run must not return the NaN state.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError):
                infer_from_feedforward(self.overflowing_params(), np.ones(2),
                                       RelaxationConfig(max_iters=5))

    def test_overflow_raises_within_the_first_sweep(self, monkeypatch):
        # A NaN step is never below tol; the engine must stop at it instead
        # of sweeping on to max_iters.
        layers = []
        predictions = network._branch_predictions

        def counting(params, rates, k, d_bu=None):
            layers.append(k)
            return predictions(params, rates, k, d_bu)

        monkeypatch.setattr(network, "_branch_predictions", counting)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match="sweep 1$"):
                infer_from_feedforward(self.overflowing_params(), np.ones(2),
                                       RelaxationConfig(max_iters=100))
        assert layers == [1, 2]


class TestStepOverflow:
    """A finite state whose step's ``d @ d`` overflows relaxes: such a row's
    step is scaled by its largest magnitude, and every other step keeps the
    bits of ``sqrt(d @ d)``."""

    PARAMS = init_random_tied(LayerSpec((16, 8, 4)), Activation.HARD_SIGMOID)
    SCHEMES = {"direct": RelaxationConfig(max_iters=30, tol=1e-9),
               "leaky": RelaxationConfig(scheme=Scheme.LEAKY, tau=2.0, max_iters=30,
                                         tol=1e-300)}

    def start(self, big, seed=0):
        """A feedforward state with every unit of hidden layer 1 at ``big``."""
        v = np.random.default_rng(seed).uniform(0, 1, 16)
        top = feedforward_init(self.PARAMS, v).hidden[1]
        return NetworkState(visible=v, hidden=(np.full(8, big), top))

    def relax_quietly(self, state, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no RuntimeWarning may escape
            return relax(self.PARAMS, state, cfg)

    def expected_steps(self, state, cfg, n_iters):
        """The oracle's steps, one sweep at a time: ``sqrt(d @ d)`` where it is
        finite, else the overflow-free ``math.hypot`` of the sweep's change."""
        steps = []
        for _ in range(n_iters):
            with np.errstate(over="ignore"):
                hidden, (step,) = sweep_oracle(self.PARAMS, state, 1, tau=cfg.tau)
            change = np.concatenate(hidden) - np.concatenate(state.hidden)
            steps.append((step, math.hypot(*change)))
            state = NetworkState(visible=state.visible, hidden=tuple(hidden))
        return state, steps

    @pytest.mark.parametrize("big", [1e155, 1e160])
    @pytest.mark.parametrize("scheme", ["direct", "leaky"])
    def test_vector_matches_the_oracle(self, big, scheme):
        cfg = self.SCHEMES[scheme]
        final, trace = self.relax_quietly(self.start(big), cfg)
        oracle, expected = self.expected_steps(self.start(big), cfg, trace.iters_run)
        assert all(np.array_equal(h, g) for h, g in zip(final.hidden, oracle.hidden))
        assert np.isfinite(trace.step_magnitudes).all()
        assert expected[0][0] == np.inf   # the first sweep's d @ d overflows
        for got, (step, hypot) in zip(trace.step_magnitudes, expected, strict=True):
            if step < np.inf:
                assert got == step
            else:
                assert got == pytest.approx(hypot, rel=1e-14)

    @pytest.mark.parametrize("big", [1e155, 1e160])
    @pytest.mark.parametrize("scheme", ["direct", "leaky"])
    def test_block_rows_match_their_vector_runs(self, big, scheme):
        cfg = self.SCHEMES[scheme]
        states = [self.start(big, 0), self.start(0.5, 1), self.start(-big, 2)]
        block, trace = self.relax_quietly(block_of(states), cfg)
        for i, state in enumerate(states):
            _, alone_trace = self.relax_quietly(state, cfg)
            row = row_of(trace, i)
            assert row.iters_run == alone_trace.iters_run
            assert np.allclose(row.step_magnitudes, alone_trace.step_magnitudes,
                               rtol=1e-12, atol=1e-12)
        # A batch of one keeps the vector's bits, and a row whose d @ d stays
        # finite keeps its bits beside rows whose d @ d overflows.
        _, one_trace = self.relax_quietly(block_of(states[:1]), cfg)
        assert np.array_equal(one_trace.step_magnitudes[0],
                              self.relax_quietly(states[0], cfg)[1].step_magnitudes)
        _, calm = self.relax_quietly(block_of([self.start(0.5, i) for i in range(3)]), cfg)
        assert np.array_equal(trace.step_magnitudes[1], calm.step_magnitudes[1], equal_nan=True)

    def test_a_step_beyond_the_float_range_raises(self):
        # Every state is finite, but the first step is 1e308 * sqrt(8).
        with pytest.raises(InvalidInputError, match="step exceeded the float range in sweep 1$"):
            self.relax_quietly(self.start(1e308), self.SCHEMES["direct"])

    def test_a_non_finite_state_is_named(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match="non-finite state in sweep 1$"):
                infer_from_feedforward(TestInferFromFeedforward.overflowing_params(),
                                       np.ones(2), RelaxationConfig(max_iters=5))


class TestCarriedDrive:
    """The bottom-up predictions a state carries from feedforward_init and relax."""

    @staticmethod
    def counting_layer(params, i=0):
        """``params`` with ``ff_weights[i]`` logging the products it enters."""
        counted = params.ff_weights[i].view(CountsProducts)
        counted.log = []
        weights = list(params.ff_weights)
        weights[i] = counted
        object.__setattr__(params, "ff_weights", tuple(weights))
        return counted.log

    def test_equal_valued_params_form_their_own_drive(self):
        rng = np.random.default_rng(35)
        a = random_tied_params(rng, (12, 9, 7), scale=1.5, with_offsets=True)
        v = rng.uniform(0, 1, size=12)
        cfg = RelaxationConfig(max_iters=30, tol=1e-300)
        state, _ = infer_from_feedforward(a, v, cfg)
        want, want_trace = relax(a, state, cfg)
        b = dataclasses.replace(a)
        assert b is not a and all(np.array_equal(x, y) for x, y in zip(a.ff_weights, b.ff_weights))
        log = self.counting_layer(b)
        got, got_trace = relax(b, state, cfg)
        assert log == ["matmul"]
        assert all(np.array_equal(x, y) for x, y in zip(got.hidden, want.hidden))
        assert np.array_equal(got_trace.step_magnitudes, want_trace.step_magnitudes)
        mutual_prediction_residual(b, got)   # carries b's drive now
        assert log == ["matmul"]
        mutual_prediction_residual(b, state)   # carries a's
        assert log == ["matmul", "matmul"]

    def test_other_params_never_read_a_stale_drive(self):
        rng = np.random.default_rng(36)
        a = random_tied_params(rng, (12, 9, 7), scale=1.5, with_offsets=True)
        b = dataclasses.replace(a, ff_offsets=(a.ff_offsets[0] + 0.25, *a.ff_offsets[1:]))
        v = rng.uniform(0, 1, size=(3, 12))
        cfg = RelaxationConfig(scheme=Scheme.LEAKY, tau=2.0, max_iters=20, tol=1e-300)
        state, _ = infer_from_feedforward(a, v, cfg)
        by_hand = NetworkState(visible=state.visible, hidden=state.hidden)
        got, got_trace = relax(b, state, cfg)
        want, want_trace = relax(b, by_hand, cfg)
        assert all(np.array_equal(x, y) for x, y in zip(got.hidden, want.hidden))
        assert np.array_equal(got_trace.step_magnitudes, want_trace.step_magnitudes)
        assert (mutual_prediction_residual(b, state).tobytes()
                == mutual_prediction_residual(b, by_hand).tobytes())
        assert not np.array_equal(mutual_prediction_residual(b, state),
                                  mutual_prediction_residual(a, state))

    @pytest.mark.parametrize("scheme", [
        RelaxationConfig(max_iters=40, tol=1e-9),
        RelaxationConfig(scheme=Scheme.LEAKY, tau=2.5, max_iters=40, tol=1e-9),
        RelaxationConfig(scheme=Scheme.LANGEVIN, noise_scale=0.05, tau=2.0, max_iters=15, seed=3),
    ], ids=["direct", "leaky", "langevin"])
    @pytest.mark.parametrize("sizes", [(12, 9), (12, 9, 7)], ids=["L1", "L2"])
    def test_the_carried_predictions_are_read_only_and_never_written(self, scheme, sizes):
        rng = np.random.default_rng(37)
        params = random_tied_params(rng, sizes, scale=1.5, with_offsets=True)
        for v in (rng.uniform(0, 1, size=12), rng.uniform(0, 1, size=(4, 12))):
            state = feedforward_init(params, v)
            carrier, (drive,) = state._carried[0], state._carried[1].values()
            assert carrier is params and not drive.flags.writeable
            assert drive.shape == v.shape[:-1] + (sizes[1],)
            kept = drive.copy()
            relaxed, _ = relax(params, state, scheme)
            carrier, carried = relaxed._carried
            assert carrier is params and carried[1] is drive
            kept_carried = {k: d.copy() for k, d in carried.items()}
            mutual_prediction_residual(params, relaxed)
            relax(params, relaxed, scheme)
            assert drive.tobytes() == kept.tobytes()
            for k, d in carried.items():
                assert not d.flags.writeable and d.tobytes() == kept_carried[k].tobytes()
                assert d.shape == v.shape[:-1] + (sizes[k],)

    @pytest.mark.parametrize("sizes", [(12, 9, 7), (12, 9, 7, 5), (12, 9, 7, 5, 4)],
                             ids=["L2", "L3", "L4"])
    def test_the_residual_reads_the_last_sweeps_bottom_up_predictions(self, sizes):
        # After a sweep, the bottom-up predictions into the even layers, which
        # it updates last, are current. A block carries them only when no row
        # stopped early: a gemm over fewer rows may round a row differently.
        rng = np.random.default_rng(39)
        params = random_tied_params(rng, sizes, scale=1.5, with_offsets=True)
        items = rng.uniform(0, 1, size=(4, 12))
        even = set(range(2, len(sizes), 2))
        log = self.counting_layer(params, 1)   # the products into layer 2
        for v, cfg, carried in ((items[0], RelaxationConfig(max_iters=60, tol=1e-9), {1} | even),
                                (items, RelaxationConfig(max_iters=6, tol=1e-300), {1} | even),
                                (items, RelaxationConfig(max_iters=60, tol=1e-9), {1})):
            state, trace = infer_from_feedforward(params, v, cfg)
            assert set(state._carried[1]) == carried
            log.clear()
            residual = mutual_prediction_residual(params, state)
            assert log == ([] if 2 in carried else ["matmul"])
            by_hand = NetworkState(visible=state.visible, hidden=state.hidden)
            assert mutual_prediction_residual(params, by_hand).tobytes() == residual.tobytes()
        assert len(set(trace.iters_run.tolist())) > 1   # the last block's rows stopped apart

    @staticmethod
    def counting_weights(params):
        """``params`` with each weight matrix logging the products it enters; returns
        the logs, ``{"ff0": ..., "fb0": ..., "ff1": ..., ...}``."""
        logs = {}
        for name in ("ff", "fb"):
            weights = []
            for i, w in enumerate(getattr(params, f"{name}_weights")):
                counted = w.view(CountsProducts)
                counted.log = logs[f"{name}{i}"] = []
                weights.append(counted)
            object.__setattr__(params, f"{name}_weights", tuple(weights))
        return logs

    @pytest.mark.parametrize("scheme", [
        RelaxationConfig(max_iters=40, tol=1e-3),
        RelaxationConfig(scheme=Scheme.LEAKY, tau=2.5, max_iters=40, tol=1e-3),
        RelaxationConfig(scheme=Scheme.LANGEVIN, noise_scale=0.05, tau=2.0, max_iters=8, seed=3),
    ], ids=["direct", "leaky", "langevin"])
    @pytest.mark.parametrize("block", [False, True], ids=["vector", "block"])
    def test_energy_snapshots_form_one_product_at_two_hidden_layers(self, scheme, block):
        # At L = 2 the initial snapshot forms layer 2's bottom-up prediction;
        # every later one reads the prediction the sweep just formed, and the
        # drive. So do the readers of a relaxed state, and none of them forms
        # a product with ff_weights[0].
        rng = np.random.default_rng(41)
        params = random_tied_params(rng, (12, 9, 7), scale=1.5, with_offsets=True)
        model = EnergyModel(params)
        items = rng.uniform(0, 1, size=(5, 12))
        start = feedforward_init(params, items if block else items[0])
        logs = self.counting_weights(params)
        relax(params, start, scheme)
        without = {name: len(log) for name, log in logs.items()}
        for log in logs.values():
            log.clear()
        relaxed, trace = relax(params, start, scheme, model)
        assert {name: len(log) for name, log in logs.items()} == {**without,
                                                                   "ff1": without["ff1"] + 1}
        if block and scheme.scheme is not Scheme.LANGEVIN:
            assert len(set(trace.iters_run.tolist())) > 1   # rows left the block apart
        for state in (start, relaxed):
            for log in logs.values():
                log.clear()
            energy(model, state)
            assert sum(map(len, logs.values())) == (0 if 2 in state._carried[1] else 1)
            energy_gradient(model, state)
            mutual_prediction_residual(params, state)
            for k in (1, 2):
                direct_update_layer(params, state, k)
            assert logs["ff0"] == []

    def test_energy_snapshots_carry_read_only_predictions_they_never_write(self, monkeypatch):
        rng = np.random.default_rng(42)
        params = random_tied_params(rng, (12, 9, 7, 5, 4), scale=1.5, with_offsets=True)
        model = EnergyModel(params)
        snapshots = []

        def recording(model, state):
            owner, carried = state._carried
            assert owner is params
            snapshots.append({k: (d, d.copy()) for k, d in carried.items()})
            return energy(model, state)

        monkeypatch.setattr(inference, "energy", recording)
        for v in (rng.uniform(0, 1, size=12), rng.uniform(0, 1, size=(4, 12))):
            snapshots.clear()
            _, trace = infer_from_feedforward(params, v, RelaxationConfig(max_iters=30), model)
            assert len(snapshots) == np.max(trace.iters_run) + 1
            assert [set(carried) for carried in snapshots] == (
                [{1}] + [{1, 2, 4}] * (len(snapshots) - 1))
            for carried in snapshots:
                for d, kept in carried.values():
                    assert not d.flags.writeable and d.tobytes() == kept.tobytes()

    def test_equal_valued_params_form_their_own_energy_predictions(self):
        rng = np.random.default_rng(43)
        a = random_tied_params(rng, (12, 9, 7), scale=1.5, with_offsets=True)
        b = dataclasses.replace(a)
        v = rng.uniform(0, 1, size=(3, 12))
        cfg = RelaxationConfig(scheme=Scheme.LEAKY, tau=2.0, max_iters=20, tol=1e-300)
        state = feedforward_init(a, v)
        relaxed, want = relax(a, state, cfg, EnergyModel(a))
        model = EnergyModel(b)
        logs = self.counting_weights(b)
        assert energy(model, relaxed) == pytest.approx(energy(EnergyModel(a), relaxed),
                                                       rel=1e-12)
        assert len(logs["ff0"]) == len(logs["ff1"]) == 1
        for log in logs.values():
            log.clear()
        _, got = relax(a, state, cfg, model)   # a's predictions, read under b
        assert len(logs["ff0"]) == len(logs["ff1"]) == 21
        assert got.energies == pytest.approx(want.energies, rel=1e-12)

    def test_replace_carries_no_drive(self):
        rng = np.random.default_rng(38)
        params = random_tied_params(rng, (12, 9, 7), scale=1.5, with_offsets=True)
        state, _ = infer_from_feedforward(params, rng.uniform(0, 1, size=12),
                                          RelaxationConfig(max_iters=10))
        assert state._carried is not None
        assert dataclasses.replace(state)._carried is None
        w = rng.uniform(0, 1, size=12)
        moved = dataclasses.replace(state, visible=w)
        assert moved._carried is None
        by_hand = NetworkState(visible=w, hidden=state.hidden)
        assert (mutual_prediction_residual(params, moved).tobytes()
                == mutual_prediction_residual(params, by_hand).tobytes())
        assert not np.array_equal(mutual_prediction_residual(params, moved),
                                  mutual_prediction_residual(params, state))


class CountsProducts(np.ndarray):
    """A matrix that appends to its ``log`` every matrix product it enters."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.log.append(ufunc.__name__)
        plain = [x.view(np.ndarray) if isinstance(x, CountsProducts) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def block_of(states):
    """Stack single-input states into one block state."""
    return NetworkState(visible=np.stack([s.visible for s in states]),
                        hidden=tuple(np.stack(h) for h in zip(*(s.hidden for s in states))))


def row_of(trace, i):
    """Row ``i`` of a block trace as a single input's trace, cut at its last sweep."""
    n = trace.iters_run[i]
    return ConvergenceTrace(
        step_magnitudes=trace.step_magnitudes[i, :n], converged=bool(trace.converged[i]),
        energies=None if trace.energies is None else trace.energies[i, :n + 1])


class TestBlockRelaxation:
    """A block of inputs relaxes as one state whose rows stop independently."""

    def test_batch_of_one_is_bit_identical_to_the_oracles(self):
        rng = np.random.default_rng(20)
        params = random_tied_params(rng, sizes=(30, 20, 20, 20), with_offsets=True)
        x = rng.uniform(0, 1, size=30)
        state = feedforward_init(params, x)
        block, trace = relax(params, feedforward_init(params, x[None]),
                             RelaxationConfig(max_iters=25, tol=1e-300))
        oracle_hidden, oracle_steps = sweep_oracle(params, state, 25)
        assert trace.step_magnitudes.shape == (1, 25)
        assert all(np.array_equal(h[0], o) for h, o in zip(block.hidden, oracle_hidden))
        assert np.array_equal(trace.step_magnitudes[0], np.asarray(oracle_steps))
        assert np.array_equal(block.visible[0], x)

    def test_batch_of_one_equals_the_vector_call(self):
        rng = np.random.default_rng(21)
        params = random_tied_params(rng, sizes=(12, 9, 7, 5), with_offsets=True)
        model = EnergyModel(params)
        x = rng.uniform(0, 1, size=12)
        cfg = RelaxationConfig(max_iters=40)
        one, trace = infer_from_feedforward(params, x, cfg, energy_model=model)
        block, block_trace = infer_from_feedforward(params, x[None], cfg, energy_model=model)
        assert all(np.array_equal(h[0], g) for h, g in zip(block.hidden, one.hidden))
        assert np.array_equal(block_trace.step_magnitudes, trace.step_magnitudes[None])
        assert np.array_equal(block_trace.energies, trace.energies[None])
        assert block_trace.converged.tolist() == [trace.converged]
        assert block_trace.iters_run.tolist() == [trace.iters_run]
        assert np.array_equal(mutual_prediction_residual(params, block)[0],
                              mutual_prediction_residual(params, one))
        assert energy(model, block)[0] == energy(model, one)

    def test_rows_match_their_per_item_runs(self):
        rng = np.random.default_rng(22)
        for scheme in (RelaxationConfig(max_iters=200),
                       RelaxationConfig(scheme=Scheme.LEAKY, tau=2.5, max_iters=200)):
            for _ in range(5):
                params = random_tied_params(rng, random_sizes(rng, max_size=40),
                                            with_offsets=True)
                model = EnergyModel(params)
                items = rng.uniform(0, 1, size=(9, params.spec.visible_size))
                block, block_trace = infer_from_feedforward(params, items, scheme,
                                                            energy_model=model)
                assert block.hidden[0].shape == (9, params.spec.sizes[1])
                residuals = mutual_prediction_residual(params, block)
                assert residuals.shape == (9, params.n_layers)
                for i, x in enumerate(items):
                    state, trace = infer_from_feedforward(params, x, scheme,
                                                          energy_model=model)
                    row = row_of(block_trace, i)
                    assert row.iters_run == trace.iters_run
                    assert row.converged == trace.converged
                    for h, g in zip(block.hidden, state.hidden):
                        assert np.abs(h[i] - g).max() <= 1e-12
                    assert np.abs(row.step_magnitudes - trace.step_magnitudes).max() <= 1e-12
                    assert np.abs(row.energies - trace.energies).max() <= 1e-12
                    assert np.abs(residuals[i]
                                  - mutual_prediction_residual(params, state)).max() <= 1e-12

    def test_a_converged_row_is_frozen_at_its_own_convergence(self):
        data, params = synth_autoencodable(2, LayerSpec(sizes=(8, 6, 5, 4)), seed=3)
        rng = np.random.default_rng(23)
        at_rest = feedforward_init(params, data.items[0])
        far = NetworkState(visible=data.items[1],
                           hidden=tuple(rng.uniform(0, 1, size=n) for n in (6, 5, 4)))
        cfg = RelaxationConfig(max_iters=200)
        block, trace = relax(params, block_of([at_rest, far]), cfg)
        t_rest, t_far = row_of(trace, 0), row_of(trace, 1)
        alone, t_alone = relax(params, at_rest, cfg)
        assert t_rest.converged and t_rest.iters_run == t_alone.iters_run == 1
        assert t_far.iters_run > t_rest.iters_run
        for h, g, start in zip(block.hidden, alone.hidden, at_rest.hidden):
            assert np.abs(h[0] - g).max() <= 1e-12
            assert np.abs(h[0] - start).max() <= 1e-12
        far_alone, t_far_alone = relax(params, far, cfg)
        assert t_far.iters_run == t_far_alone.iters_run
        assert all(np.abs(h[1] - g).max() <= 1e-12
                   for h, g in zip(block.hidden, far_alone.hidden))

    def test_rows_that_stop_early_are_padded_with_nan(self):
        # Rows stop at different sweeps, some by convergence and some at the
        # budget; the block's trace is as wide as its longest row.
        rng = np.random.default_rng(28)
        params = random_tied_params(rng, sizes=(10, 8, 6, 4), scale=1.5, with_offsets=True)
        states = ([random_state(rng, params) for _ in range(5)]
                  + [feedforward_init(params, rng.uniform(0, 1, size=10))])
        cfg, model = RelaxationConfig(max_iters=57, tol=1e-9), EnergyModel(params)
        _, trace = relax(params, block_of(states), cfg, energy_model=model)
        alone = [relax(params, state, cfg, energy_model=model)[1] for state in states]
        assert trace.iters_run.tolist() == [t.iters_run for t in alone]
        assert trace.converged.tolist() == [t.converged for t in alone]
        assert len(set(trace.iters_run)) > 2 and len(set(trace.converged)) == 2
        width = max(t.iters_run for t in alone)
        assert trace.step_magnitudes.shape == (6, width)
        assert trace.energies.shape == (6, width + 1)
        for steps, energies, n in zip(trace.step_magnitudes, trace.energies, trace.iters_run):
            assert np.isfinite(steps[:n]).all() and np.isnan(steps[n:]).all()
            assert np.isfinite(energies[:n + 1]).all() and np.isnan(energies[n + 1:]).all()

    def test_tied_block_energies_never_increase(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            params = random_tied_params(rng, random_sizes(rng), scale=1.5,
                                        with_offsets=True)
            states = [random_state(rng, params) for _ in range(6)]
            _, trace = relax(params, block_of(states),
                             RelaxationConfig(max_iters=30, tol=1e-12),
                             energy_model=EnergyModel(params))
            assert trace.energies.shape == (6, trace.step_magnitudes.shape[1] + 1)
            for i in range(6):
                energies = row_of(trace, i).energies
                assert np.isfinite(energies).all()
                assert np.all(np.diff(energies) <= 1e-10)

    def test_energy_snapshots_adopt_the_working_blocks(self, monkeypatch):
        # Each snapshot's NetworkState adopts the engine's read-only blocks, also
        # after rows have left the block; its energies keep the bits of a run
        # whose states copy every block.
        rng = np.random.default_rng(26)
        params = random_tied_params(rng, sizes=(12, 9, 7, 5), with_offsets=True)
        state = feedforward_init(params, rng.uniform(0, 1, size=(8, 12)))
        cfg, model = RelaxationConfig(max_iters=60, tol=1e-9), EnergyModel(params)
        frozen, copied = network._frozen, []

        def recording(x):
            out = frozen(x)
            if out is not x:
                copied.append(x.shape)
            return out

        monkeypatch.setattr(network, "_frozen", lambda x: frozen(np.array(x)))
        _, want = relax(params, state, cfg, energy_model=model)
        monkeypatch.setattr(network, "_frozen", recording)
        final, got = relax(params, state, cfg, energy_model=model)
        monkeypatch.undo()
        assert copied == []
        assert len(set(got.iters_run)) > 1   # rows leave at different sweeps
        assert np.array_equal(got.energies, want.energies, equal_nan=True)
        for row, n in enumerate(got.iters_run):
            last = NetworkState(visible=final.visible[row],
                                hidden=tuple(h[row] for h in final.hidden))
            assert got.energies[row, n] == pytest.approx(dense_energy_oracle(params, last),
                                                         rel=1e-12, abs=1e-12)

    def test_langevin_rows_match_their_per_item_runs(self):
        rng = np.random.default_rng(25)
        params = random_tied_params(rng, sizes=(10, 8, 6), with_offsets=True)
        cfg = RelaxationConfig(scheme=Scheme.LANGEVIN, noise_scale=0.05, tau=2.0,
                               max_iters=20, seed=7)
        states = [random_state(rng, params) for _ in range(5)]
        block, block_trace = relax(params, block_of(states), cfg)
        assert block_trace.step_magnitudes.shape == (5, 20)
        for i, state in enumerate(states):
            alone, trace = relax(params, state, cfg)
            row = row_of(block_trace, i)
            assert row.iters_run == trace.iters_run == 20
            assert not row.converged
            assert all(np.abs(h[i] - g).max() <= 1e-12
                       for h, g in zip(block.hidden, alone.hidden))
            assert np.abs(row.step_magnitudes - trace.step_magnitudes).max() <= 1e-12

    def test_empty_block(self):
        rng = np.random.default_rng(26)
        params = random_tied_params(rng, sizes=(4, 3, 2))
        block, trace = infer_from_feedforward(params, np.empty((0, 4)), RelaxationConfig(),
                                              energy_model=EnergyModel(params))
        assert trace.step_magnitudes.shape == (0, 0) and trace.energies.shape == (0, 1)
        assert trace.iters_run.shape == (0,) and trace.converged.shape == (0,)
        assert block.hidden[1].shape == (0, 2)
        assert mutual_prediction_residual(params, block).shape == (0, 2)

    def test_block_rows_must_agree(self):
        rng = np.random.default_rng(27)
        params = random_tied_params(rng, sizes=(4, 3))
        state = NetworkState(visible=np.zeros((2, 4)), hidden=(np.zeros((3, 3)),))
        with pytest.raises(InvalidInputError,
                           match=r"hidden layer 1 has shape \(3, 3\), expected \(2, 3\)"):
            relax(params, state, RelaxationConfig())


class TestMemory:
    """The engine holds no block past its last read, on a 200-row block at the
    benchmark's shapes (784-500-500), the block ``run_experiment`` relaxes.
    A block of 200 x 1000 doubles, every hidden layer's, is 1.6 MB; the
    traced peak counts the feedforward state the run starts from (1.5
    blocks) and the state it returns."""

    SPEC = LayerSpec(sizes=(784, 500, 500))
    BLOCK = 200 * 1000 * 8

    @pytest.fixture(scope="class")
    def data(self):
        return synth_blobs(2000, 784, 8, 0.02, 0)

    @pytest.fixture(scope="class")
    def items(self, data):
        items = data.items[:200].copy()
        items.setflags(write=False)   # adopted, as run_experiment's are
        return items

    # Traced peaks 15.26 -> 8.37 MB (9.5 -> 5.2 blocks): the energy snapshot,
    # the step's two concatenations and its difference, the pre-sized result
    # and the old row blocks had outlived their last reads. The bound of 6.5
    # blocks leaves a block and more either side.
    def test_tied_block_with_energy(self, items):
        params = init_random_tied(self.SPEC, Activation.HARD_SIGMOID)
        (_, trace), peak = traced_peak(infer_from_feedforward, params, items,
                                       RelaxationConfig(), EnergyModel(params))
        assert trace.iters_run.min() < trace.iters_run.max()   # rows stop apart
        assert peak <= 6.5 * self.BLOCK

    # Traced peaks 13.16 -> 9.03 MB (8.2 -> 5.6 blocks); the bound is 7 blocks.
    def test_untied_block(self, data, items):
        params = train_stacked_ae(data, self.SPEC,
                                  TrainConfig(epochs=1, rule=TrainRule.LOCAL_BRANCH))
        (_, trace), peak = traced_peak(infer_from_feedforward, params, items,
                                       RelaxationConfig())
        assert trace.iters_run.min() < trace.iters_run.max()
        assert peak <= 7 * self.BLOCK
