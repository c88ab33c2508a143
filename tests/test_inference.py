import numpy as np
import pytest

from ffinit import inference, network
from ffinit import (
    Activation,
    ConfigurationError,
    DimensionError,
    EnergyModel,
    InvalidInputError,
    LayerSpec,
    NetworkState,
    NotAnEnergyModelError,
    RelaxationConfig,
    Scheme,
    apply_activation,
    branch_combine,
    branch_predictions,
    direct_update_layer,
    energy,
    feedforward_init,
    infer_from_feedforward,
    init_random_tied,
    mutual_prediction_residual,
    norm_matched_random,
    relax,
    synth_autoencodable,
)
from helpers import (
    dense_energy_oracle,
    make_params,
    random_sizes,
    random_state,
    random_tied_params,
    sweep_oracle,
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

    def test_degenerate_gain_reduces_to_feedforward(self):
        rng = np.random.default_rng(0)
        base = random_tied_params(rng, sizes=(4, 3, 2), with_offsets=True)
        params = make_params(base.spec.sizes, base.ff_weights,
                             fb_weights=base.fb_weights, ff_offsets=base.ff_offsets,
                             fb_offsets=base.fb_offsets, gains=(1.0, 0.0))
        state = random_state(rng, params)
        got = direct_update_layer(params, state, 1)
        d_bu = params.ff_offsets[0] + np.clip(state.visible, 0, 1) @ params.ff_weights[0].T
        assert np.array_equal(got, np.clip(d_bu, 0, 1))

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
                                    branch_combine(params, d_bu, d_td))
            assert np.array_equal(direct_update_layer(params, state, k), want)

    def test_does_not_mutate_state(self):
        rng = np.random.default_rng(2)
        params = random_tied_params(rng, sizes=(3, 3, 3))
        state = random_state(rng, params)
        before = [h.copy() for h in state.hidden]
        direct_update_layer(params, state, 1)
        assert all(np.array_equal(a, b) for a, b in zip(before, state.hidden))


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

    def test_direct_ignores_tau(self):
        rng = np.random.default_rng(4)
        params = random_tied_params(rng, sizes=(4, 3))
        state = random_state(rng, params)
        a, _ = relax(params, state, RelaxationConfig(tau=5.0, max_iters=10, tol=1e-300))
        b, _ = relax(params, state, RelaxationConfig(tau=1.0, max_iters=10, tol=1e-300))
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
        with pytest.raises(NotAnEnergyModelError):
            EnergyModel(params)

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
        _, exact_traces = infer_from_feedforward(exact, data.items, cfg)
        _, random_traces = infer_from_feedforward(norm_matched_random(exact, 1.0, 0),
                                                  data.items, cfg)
        assert all(t.converged and t.iters_run == 1 for t in exact_traces)
        assert all(t.iters_run > 1 for t in random_traces)

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

        def counting(params, rates, k, d_bu=None):
            layers.append(k)
            return branch_predictions(params, rates, k, d_bu)

        monkeypatch.setattr(inference, "branch_predictions", counting)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match="sweep 1$"):
                infer_from_feedforward(self.overflowing_params(), np.ones(2),
                                       RelaxationConfig(max_iters=100))
        assert layers == [1, 2]


def block_of(states):
    """Stack single-input states into one block state."""
    return NetworkState(visible=np.stack([s.visible for s in states]),
                        hidden=tuple(np.stack(h) for h in zip(*(s.hidden for s in states))))


class TestBlockRelaxation:
    """A block of inputs relaxes as one state whose rows stop independently."""

    def test_batch_of_one_is_bit_identical_to_the_oracles(self):
        rng = np.random.default_rng(20)
        params = random_tied_params(rng, sizes=(30, 20, 20, 20), with_offsets=True)
        x = rng.uniform(0, 1, size=30)
        state = feedforward_init(params, x)
        block, traces = relax(params, feedforward_init(params, x[None]),
                              RelaxationConfig(max_iters=25, tol=1e-300))
        oracle_hidden, oracle_steps = sweep_oracle(params, state, 25)
        assert len(traces) == 1
        assert all(np.array_equal(h[0], o) for h, o in zip(block.hidden, oracle_hidden))
        assert np.array_equal(traces[0].step_magnitudes, np.asarray(oracle_steps))
        assert np.array_equal(block.visible[0], x)

    def test_batch_of_one_equals_the_vector_call(self):
        rng = np.random.default_rng(21)
        params = random_tied_params(rng, sizes=(12, 9, 7, 5), with_offsets=True)
        model = EnergyModel(params)
        x = rng.uniform(0, 1, size=12)
        cfg = RelaxationConfig(max_iters=40)
        one, trace = infer_from_feedforward(params, x, cfg, energy_model=model)
        block, (row_trace,) = infer_from_feedforward(params, x[None], cfg,
                                                     energy_model=model)
        assert all(np.array_equal(h[0], g) for h, g in zip(block.hidden, one.hidden))
        assert np.array_equal(row_trace.step_magnitudes, trace.step_magnitudes)
        assert np.array_equal(row_trace.energies, trace.energies)
        assert row_trace.converged == trace.converged
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
                block, traces = infer_from_feedforward(params, items, scheme,
                                                       energy_model=model)
                assert block.hidden[0].shape == (9, params.spec.sizes[1])
                residuals = mutual_prediction_residual(params, block)
                assert residuals.shape == (9, params.n_layers)
                for i, x in enumerate(items):
                    state, trace = infer_from_feedforward(params, x, scheme,
                                                          energy_model=model)
                    assert traces[i].iters_run == trace.iters_run
                    assert traces[i].converged == trace.converged
                    for h, g in zip(block.hidden, state.hidden):
                        assert np.abs(h[i] - g).max() <= 1e-12
                    assert np.abs(traces[i].step_magnitudes
                                  - trace.step_magnitudes).max() <= 1e-12
                    assert np.abs(traces[i].energies - trace.energies).max() <= 1e-12
                    assert np.abs(residuals[i]
                                  - mutual_prediction_residual(params, state)).max() <= 1e-12

    def test_a_converged_row_is_frozen_at_its_own_convergence(self):
        data, params = synth_autoencodable(2, LayerSpec(sizes=(8, 6, 5, 4)), seed=3)
        rng = np.random.default_rng(23)
        at_rest = feedforward_init(params, data.items[0])
        far = NetworkState(visible=data.items[1],
                           hidden=tuple(rng.uniform(0, 1, size=n) for n in (6, 5, 4)))
        cfg = RelaxationConfig(max_iters=200)
        block, (t_rest, t_far) = relax(params, block_of([at_rest, far]), cfg)
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

    def test_tied_block_energies_never_increase(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            params = random_tied_params(rng, random_sizes(rng), scale=1.5,
                                        with_offsets=True)
            states = [random_state(rng, params) for _ in range(6)]
            _, traces = relax(params, block_of(states),
                              RelaxationConfig(max_iters=30, tol=1e-12),
                              energy_model=EnergyModel(params))
            for trace in traces:
                assert len(trace.energies) == trace.iters_run + 1
                assert np.all(np.diff(trace.energies) <= 1e-10)

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
        assert len({t.iters_run for t in got}) > 1   # rows leave at different sweeps
        for row, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g.energies, w.energies)
            last = NetworkState(visible=final.visible[row],
                                hidden=tuple(h[row] for h in final.hidden))
            assert g.energies[-1] == pytest.approx(dense_energy_oracle(params, last),
                                                   rel=1e-12, abs=1e-12)

    def test_langevin_rows_match_their_per_item_runs(self):
        rng = np.random.default_rng(25)
        params = random_tied_params(rng, sizes=(10, 8, 6), with_offsets=True)
        cfg = RelaxationConfig(scheme=Scheme.LANGEVIN, noise_scale=0.05, tau=2.0,
                               max_iters=20, seed=7)
        states = [random_state(rng, params) for _ in range(5)]
        block, traces = relax(params, block_of(states), cfg)
        for i, state in enumerate(states):
            alone, trace = relax(params, state, cfg)
            assert traces[i].iters_run == trace.iters_run == 20
            assert not traces[i].converged
            assert all(np.abs(h[i] - g).max() <= 1e-12
                       for h, g in zip(block.hidden, alone.hidden))
            assert np.abs(traces[i].step_magnitudes - trace.step_magnitudes).max() <= 1e-12

    def test_empty_block(self):
        rng = np.random.default_rng(26)
        params = random_tied_params(rng, sizes=(4, 3, 2))
        block, traces = infer_from_feedforward(params, np.empty((0, 4)), RelaxationConfig(),
                                               energy_model=EnergyModel(params))
        assert traces == [] and block.hidden[1].shape == (0, 2)
        assert mutual_prediction_residual(params, block).shape == (0, 2)

    def test_block_rows_must_agree(self):
        rng = np.random.default_rng(27)
        params = random_tied_params(rng, sizes=(4, 3))
        state = NetworkState(visible=np.zeros((2, 4)), hidden=(np.zeros((3, 3)),))
        with pytest.raises(DimensionError):
            relax(params, state, RelaxationConfig())
