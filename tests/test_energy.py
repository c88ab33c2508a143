import dataclasses

import numpy as np
import pytest


from ffinit import (
    ConfigurationError,
    EnergyModel,
    NetworkState,
    RelaxationConfig,
    Scheme,
    energy,
    energy_gradient,
    feedforward_init,
    relax,
)
from helpers import (
    dense_energy_oracle,
    make_params,
    random_sizes,
    random_state,
    random_tied_params,
    random_untied_params,
)


class TestEnergyModelValidation:
    def test_untied_params_refused(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError, match="energy requires .* untied"):
            EnergyModel(random_untied_params(rng, sizes=(3, 4, 2)))

    def test_one_ulp_asymmetry_refused(self):
        w = np.array([[0.5, -0.25]])
        params = make_params((2, 1), [w], fb_weights=[w.T * (1 + 2e-16)])
        with pytest.raises(ConfigurationError, match="energy requires .* untied"):
            EnergyModel(params)


class TestEnergyValue:
    def test_zero_state_zero_offsets(self):
        params = make_params((2, 3), [np.zeros((3, 2))])
        state = NetworkState(visible=np.zeros(2), hidden=(np.zeros(3),))
        assert energy(EnergyModel(params), state) == 0.0

    def test_single_pair_hand_evaluation(self):
        # one visible and one hidden unit, coupling 2, both states at 1:
        # quadratic 1/2 + 1/2, pair counted once with weight 2 -> E = 1 - 2
        params = make_params((1, 1), [[[2.0]]])
        state = NetworkState(visible=np.array([1.0]), hidden=(np.array([1.0]),))
        assert energy(EnergyModel(params), state) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_dense_full_matrix_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            params = random_tied_params(rng, random_sizes(rng, max_size=6),
                                        with_offsets=True)
            state = random_state(rng, params, lo=-0.5, hi=1.5)
            got = energy(EnergyModel(params), state)
            want = dense_energy_oracle(params, state)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def hand_built(state):
    """A copy of ``state``'s arrays as a state that carries no predictions."""
    return NetworkState(visible=np.array(state.visible),
                        hidden=tuple(np.array(h) for h in state.hidden))


def rows_of(state):
    """Every row of a block state as a single-input state, or the state itself."""
    if state.visible.ndim == 1:
        return [state]
    return [NetworkState(visible=state.visible[i], hidden=tuple(h[i] for h in state.hidden))
            for i in range(len(state.visible))]


class TestEnergyOfCarriedPredictions:
    """``energy`` reads the branch predictions a state carries, in the parity form."""

    @pytest.mark.parametrize("scheme", [
        RelaxationConfig(max_iters=40, tol=1e-3),
        RelaxationConfig(scheme=Scheme.LEAKY, tau=2.5, max_iters=40, tol=1e-3),
        RelaxationConfig(scheme=Scheme.LANGEVIN, noise_scale=0.05, tau=2.0, max_iters=8, seed=3),
    ], ids=["direct", "leaky", "langevin"])
    @pytest.mark.parametrize("sizes", [(12, 9), (12, 9, 7), (12, 9, 7, 5), (12, 9, 7, 5, 4)],
                             ids=["L1", "L2", "L3", "L4"])
    @pytest.mark.parametrize("block", [False, True], ids=["vector", "block"])
    def test_matches_the_dense_oracle_and_every_recorded_energy(self, scheme, sizes, block):
        rng = np.random.default_rng(40)
        params = random_tied_params(rng, sizes, scale=1.5, with_offsets=True)
        model = EnergyModel(params)
        items = rng.uniform(0, 1, size=(5, 12))
        start = feedforward_init(params, items if block else items[0])
        final, trace = relax(params, start, scheme, model)
        for state in (start, final):
            got = energy(model, state)
            assert np.shape(got) == state.visible.shape[:-1]
            want = [dense_energy_oracle(params, row) for row in rows_of(state)]
            assert np.atleast_1d(got) == pytest.approx(want, rel=1e-12)
            assert got == pytest.approx(energy(model, hand_built(state)), rel=1e-12)
        # Column j of the trace is the energy after j sweeps, of every row still relaxing.
        energies = np.atleast_2d(trace.energies)
        for j in range(energies.shape[1]):
            state = start if j == 0 else relax(params, start,
                                               dataclasses.replace(scheme, max_iters=j))[0]
            live = ~np.isnan(energies[:, j])
            assert live.any()
            assert energies[live, j] == pytest.approx(
                np.atleast_1d(energy(model, hand_built(state)))[live], rel=1e-12)
        if block and len(sizes) > 2 and scheme.scheme is not Scheme.LANGEVIN:
            assert len(set(trace.iters_run.tolist())) > 1   # rows left the block apart


class TestEnergyGradient:
    def test_zero_coupling_single_hidden_layer_gradient_is_state(self):
        params = make_params((2, 3), [np.zeros((3, 2))])
        rng = np.random.default_rng(2)
        h = rng.uniform(0.1, 0.9, size=3)
        state = NetworkState(visible=rng.uniform(0, 1, size=2), hidden=(h,))
        (grad,) = energy_gradient(EnergyModel(params), state)
        assert np.allclose(grad, h, atol=1e-15)

    def test_zero_coupling_interior_layers_double_quadratic_weight(self):
        # interior hidden layers integrate two branches, so their
        # containment term is twice the top layer's
        params = make_params((2, 3, 2), [np.zeros((3, 2)), np.zeros((2, 3))])
        rng = np.random.default_rng(3)
        state = random_state(rng, params, lo=0.1, hi=0.9)
        g1, g2 = energy_gradient(EnergyModel(params), state)
        assert np.allclose(g1, 2.0 * state.hidden[0], atol=1e-15)
        assert np.allclose(g2, state.hidden[1], atol=1e-15)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 30:
            params = random_tied_params(rng, random_sizes(rng), with_offsets=True)
            state = kink_avoiding_state(rng, params)
            model = EnergyModel(params)
            grad = np.concatenate(energy_gradient(model, state))
            fd = finite_difference_gradient(model, state)
            denom = max(float(np.linalg.norm(fd)), 1e-12)
            assert np.linalg.norm(grad - fd) / denom <= 1e-5
            checked += 1

    def test_gradient_zero_at_interior_fixed_point(self):
        rng = np.random.default_rng(5)
        found = 0
        for _ in range(20):
            params = interior_biased_params(rng)
            state = random_state(rng, params, lo=0.2, hi=0.8)
            model = EnergyModel(params)
            final, trace = relax(params, state,
                                 RelaxationConfig(tol=1e-13, max_iters=2000))
            if not trace.converged:
                continue
            if not all(np.all((h > 1e-3) & (h < 1 - 1e-3)) for h in final.hidden):
                continue
            grads = energy_gradient(model, final)
            assert max(np.abs(g).max() for g in grads) <= 1e-8
            found += 1
        assert found >= 5  # construction must actually produce interior cases


def interior_biased_params(rng):
    """Small-weight tied params with offsets that pull units inside (0, 1)."""
    sizes = random_sizes(rng, max_size=6)
    ws, bs, cs = [], [], []
    for k in range(len(sizes) - 1):
        bound = 0.25 / np.sqrt(sizes[k])
        ws.append(rng.uniform(-bound, bound, size=(sizes[k + 1], sizes[k])))
        bs.append(rng.uniform(0.4, 0.6, size=sizes[k + 1]))
        cs.append(rng.uniform(0.4, 0.6, size=sizes[k]))
    return make_params(sizes, ws, ff_offsets=bs, fb_offsets=cs)


def kink_avoiding_state(rng, params, gap=1e-3):
    """Random state with every unit at least `gap` away from 0 and 1."""
    def sample(n):
        vals = rng.uniform(-0.4, 1.4, size=n)
        for kink in (0.0, 1.0):
            near = np.abs(vals - kink) < gap
            vals[near] = kink + gap * np.where(vals[near] >= kink, 2.0, -2.0)
        return vals
    sizes = params.spec.sizes
    return NetworkState(visible=rng.uniform(0, 1, size=sizes[0]),
                        hidden=tuple(sample(n) for n in sizes[1:]))


def finite_difference_gradient(model, state, eps=1e-6):
    """Central finite differences of the energy over all hidden units."""
    parts = []
    for k, h in enumerate(state.hidden):
        grad = np.empty_like(h)
        for i in range(h.shape[0]):
            plus = [np.array(x) for x in state.hidden]
            minus = [np.array(x) for x in state.hidden]
            plus[k][i] += eps
            minus[k][i] -= eps
            e_plus = energy(model, NetworkState(visible=state.visible,
                                                hidden=tuple(plus)))
            e_minus = energy(model, NetworkState(visible=state.visible,
                                                 hidden=tuple(minus)))
            grad[i] = (e_plus - e_minus) / (2.0 * eps)
        parts.append(grad)
    return np.concatenate(parts)


def test_energy_never_increases_under_direct_sweeps():
    rng = np.random.default_rng(6)
    for _ in range(40):
        params = random_tied_params(rng, random_sizes(rng), scale=1.5,
                                    with_offsets=True)
        state = random_state(rng, params)
        _, trace = relax(params, state, RelaxationConfig(max_iters=30, tol=1e-12),
                         energy_model=EnergyModel(params))
        assert np.all(np.diff(trace.energies) <= 1e-10)


def test_offset_translation_with_saturated_states():
    # with every unit saturated at 1, raising one bottom-up offset by delta
    # lowers the energy by exactly delta
    delta = 0.37
    base = make_params((1, 1), [[[0.4]]], ff_offsets=[[0.2]])
    bumped = make_params((1, 1), [[[0.4]]], ff_offsets=[[0.2 + delta]])
    state = NetworkState(visible=np.array([1.0]), hidden=(np.array([1.2]),))
    e0 = energy(EnergyModel(base), state)
    e1 = energy(EnergyModel(bumped), state)
    assert e1 - e0 == pytest.approx(-delta, abs=1e-14)
