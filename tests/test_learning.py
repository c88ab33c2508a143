import ctypes
import ctypes.util
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ffinit import (
    Activation,
    ConfigurationError,
    DatasetError,
    DatasetHandle,
    InvalidInputError,
    LayerSpec,
    RelaxationConfig,
    TrainConfig,
    TrainRule,
    feedforward_init,
    init_random_tied,
    mutual_prediction_residual,
    norm_matched_random,
    reconstruction_error,
    relax,
    synth_autoencodable,
    synth_blobs,
    train_stacked_ae,
)
from ffinit import learning
from ffinit.learning import _BLOCK_ROWS, _row_blocks
from helpers import (ae_gradient_oracle, local_branch_oracle, pair_error_oracle, param_bytes,
                     random_untied_params, traced_peak)

SPEC_432 = LayerSpec(sizes=(4, 3, 2))

LINUX_MAPS = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads /proc/self/maps")


def mapped_paths():
    """The files this process has mapped, from /proc/self/maps."""
    with open("/proc/self/maps") as maps:
        fields = [line.split(maxsplit=5) for line in maps]
    return {f[5].rstrip("\n") for f in fields if len(f) == 6}


def blob_data(n=64, d=4, seed=0, spread=0.05):
    return synth_blobs(n, d, n_clusters=4, spread=spread, seed=seed)


class TestInitRandomTied:
    def test_feedback_is_element_exact_transpose(self):
        params = init_random_tied(SPEC_432, Activation.HARD_SIGMOID, 1.0, seed=1)
        for w, v in zip(params.ff_weights, params.fb_weights):
            assert np.array_equal(v, w.T)

    def test_offsets_zero(self):
        params = init_random_tied(SPEC_432, Activation.HARD_SIGMOID, 1.0, seed=1)
        assert all(np.array_equal(b, np.zeros_like(b)) for b in params.ff_offsets)
        assert all(np.array_equal(c, np.zeros_like(c)) for c in params.fb_offsets)

    def test_zero_scale_gives_zero_weights(self):
        params = init_random_tied(SPEC_432, Activation.HARD_SIGMOID, 0.0, seed=1)
        assert all(np.array_equal(w, np.zeros_like(w)) for w in params.ff_weights)

    def test_scale_bounds_entries(self):
        params = init_random_tied(SPEC_432, Activation.HARD_SIGMOID, 0.7, seed=2)
        for k, w in enumerate(params.ff_weights):
            assert np.abs(w).max() <= 0.7 / np.sqrt(SPEC_432.sizes[k])

    def test_seed_determinism(self):
        a = init_random_tied(SPEC_432, Activation.HARD_SIGMOID, 1.0, seed=3)
        b = init_random_tied(SPEC_432, Activation.HARD_SIGMOID, 1.0, seed=3)
        c = init_random_tied(SPEC_432, Activation.HARD_SIGMOID, 1.0, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a.ff_weights, b.ff_weights))
        assert any(not np.array_equal(x, y) for x, y in zip(a.ff_weights, c.ff_weights))

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0])
    def test_scale_outside_the_domain_rejected(self, scale):
        with pytest.raises(ConfigurationError):
            init_random_tied(SPEC_432, Activation.HARD_SIGMOID, scale, seed=0)

    def test_peak_memory_near_the_parameters(self):
        # The container adopts the fresh arrays instead of copying them.
        params, peak = traced_peak(init_random_tied, LayerSpec((784, 500, 500)),
                                   Activation.HARD_SIGMOID)
        assert peak <= 1.25 * param_bytes(params)


class TestNormMatchedRandom:
    def test_scaled_random_tied_weights(self):
        spec = LayerSpec(sizes=(64, 32, 16))
        target = random_untied_params(np.random.default_rng(0), spec.sizes, scale=2.0)
        got = norm_matched_random(target, seed=3)
        base = init_random_tied(spec, Activation.HARD_SIGMOID, 1.0, seed=3)
        for w, v, w_base, w_target in zip(got.ff_weights, got.fb_weights, base.ff_weights,
                                          target.ff_weights):
            assert np.array_equal(w, w_base * (np.linalg.norm(w_target) / np.linalg.norm(w_base)))
            assert np.array_equal(v, w.T)
        assert all(not b.any() for b in got.ff_offsets + got.fb_offsets)

    def test_peak_memory_near_the_parameters(self):
        target = init_random_tied(LayerSpec((784, 500, 500)), Activation.HARD_SIGMOID, seed=1)
        params, peak = traced_peak(norm_matched_random, target)
        assert peak <= 1.25 * param_bytes(params)


def update_one(row, off, soma, r, lr):
    """The local-branch kernel on one branch and a batch of one; returns the
    updated ``(row, offset)`` and leaves the arguments alone."""
    w, c = np.array([row], dtype=float), np.array([off], dtype=float)
    learning._local_branch_step(w, c, np.array([[soma]]), np.atleast_2d(r), lr)
    return w[0], float(c[0])


def updated(weights, offsets, soma, r, lr):
    """Copies of ``weights`` and ``offsets`` after one local-branch step."""
    w, c = weights.copy(), offsets.copy()
    learning._local_branch_step(w, c, soma, r, lr)
    return w, c


class TestLocalBranchUpdate:
    """``learning._local_branch_step``, the delta rule of local-branch training."""

    def test_perfect_prediction_no_update(self):
        row, off = update_one(np.array([0.5, -0.5]), 0.2,
                              soma=0.2 + 0.5 * 0.4 - 0.5 * 0.6,
                              r=np.array([0.4, 0.6]), lr=0.3)
        assert np.array_equal(row, [0.5, -0.5]) and off == 0.2

    def test_one_step_arithmetic(self):
        row, off = update_one(np.array([0.5]), 0.0, soma=1.0, r=np.array([1.0]), lr=0.1)
        assert np.allclose(row, [0.55], atol=1e-15)
        assert off == pytest.approx(0.05, abs=1e-15)

    def test_is_negative_gradient_of_half_squared_error(self):
        # C(W, c) = (soma - c - W @ r)^2 / 2, checked by central differences
        rng = np.random.default_rng(5)
        eps, lr = 1e-6, 0.37
        for _ in range(20):
            n = int(rng.integers(1, 6))
            row = rng.normal(size=n)
            off = float(rng.normal())
            soma = float(rng.normal())
            r = rng.uniform(0, 1, size=n)

            def cost(w, c):
                return 0.5 * (soma - c - float(w @ r)) ** 2

            new_row, new_off = update_one(row, off, soma, r, lr)
            for j in range(n):
                bump = np.zeros(n)
                bump[j] = eps
                fd = (cost(row + bump, off) - cost(row - bump, off)) / (2 * eps)
                assert abs((new_row[j] - row[j]) - (-lr * fd)) <= 1e-8
            fd_off = (cost(row, off + eps) - cost(row, off - eps)) / (2 * eps)
            assert abs((new_off - off) - (-lr * fd_off)) <= 1e-8

    def test_contraction_below_stability_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(1, 8))
            r = rng.uniform(0, 1, size=n)
            lr = 1.9 / (1.0 + float(r @ r))
            row = rng.normal(size=n)
            off = float(rng.normal())
            soma = float(rng.normal())
            errors = []
            for _ in range(60):
                errors.append(abs(soma - off - float(row @ r)))
                row, off = update_one(row, off, soma, r, lr)
            diffs = np.diff(errors)
            assert np.all(diffs <= 1e-12)
            assert errors[-1] < errors[0] or errors[0] == 0.0

    def test_batch_step_is_the_mean_of_single_row_steps(self):
        rng = np.random.default_rng(7)
        weights = rng.normal(size=(3, 4))
        offsets = rng.normal(size=3)
        soma = rng.normal(size=(5, 3))
        r = rng.uniform(0, 1, size=(5, 4))
        w, c = updated(weights, offsets, soma, r, 0.3)
        singles = [updated(weights, offsets, soma[i:i + 1], r[i:i + 1], 0.3)
                   for i in range(5)]
        assert np.allclose(w, np.mean([s[0] for s in singles], axis=0), rtol=0, atol=1e-14)
        assert np.allclose(c, np.mean([s[1] for s in singles], axis=0), rtol=0, atol=1e-14)

    def test_updates_in_place_and_leaves_the_batch_alone(self):
        weights, offsets = np.ones((2, 3)), np.zeros(2)
        soma, r = np.ones((1, 2)), np.full((1, 3), 0.5)
        learning._local_branch_step(weights, offsets, soma, r, 0.1)
        # d = 1.5 for both branches, so each moves by 0.1 * (1 - 1.5) * r
        assert np.allclose(weights, 1.0 - 0.025, rtol=0, atol=1e-15)
        assert np.allclose(offsets, -0.05, rtol=0, atol=1e-15)
        assert np.array_equal(soma, np.ones((1, 2))) and np.array_equal(r, np.full((1, 3), 0.5))


class TestSubOuter:
    """``learning._sub_outer``, the in-place gemm of every weight step, at
    the paper's weight shapes and batch sizes: 32 rows, 16 (the last batch
    of 2000 items) and 1. Each case runs bound to numpy's scipy-openblas
    and on the numpy fallback."""

    # The operands' sign pattern at each call site: a signed error against
    # rates or data in [0, 1] (every untied step), and rates against a
    # signed error (the tied decoder's term into w).
    OPERANDS = {
        "error-rates": lambda rng, rows, m, n: (rng.normal(size=(rows, m)),
                                                rng.uniform(0.0, 1.0, size=(rows, n))),
        "rates-error": lambda rng, rows, m, n: (rng.uniform(0.0, 1.0, size=(rows, m)),
                                                rng.normal(size=(rows, n))),
    }

    @pytest.fixture(params=["bound", "fallback"])
    def blas(self, request, monkeypatch):
        if request.param == "fallback":
            monkeypatch.setattr(learning, "_DGEMM", None)
        return request.param

    @pytest.mark.parametrize("shape", [(784, 500), (500, 784), (500, 500)],
                             ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("rows", [32, 16, 1])
    @pytest.mark.parametrize("operands", list(OPERANDS))
    def test_keeps_the_bits_of_the_numpy_expression(self, blas, shape, rows, operands):
        rng = np.random.default_rng(rows)
        c = rng.normal(size=shape)
        a, b = self.OPERANDS[operands](rng, rows, *shape)
        want = c - a.T @ b
        learning._sub_outer(c, a, b)
        assert np.array_equal(c, want)

    def test_bad_operands_raise_and_leave_c_unwritten(self, blas):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 5))
        buffer = rng.normal(size=40)
        cases = [
            # not C-contiguous: c, a, b
            (rng.normal(size=(5, 3)).T, a, b),
            (rng.normal(size=(3, 5)), np.asfortranarray(a), b),
            (rng.normal(size=(3, 5)), a, b[:, ::-1]),
            # c overlapping a, b
            (buffer[:15].reshape(3, 5), buffer[10:22].reshape(4, 3), b),
            (buffer[:15].reshape(3, 5), a, buffer[:20].reshape(4, 5)),
            # float32, mismatched shapes
            (rng.normal(size=(3, 5)), a.astype(np.float32), b),
            (rng.normal(size=(3, 4)), a, b),
            (rng.normal(size=(3, 5)), a, b[:3]),
        ]
        for c, a_, b_ in cases:
            before = c.copy()
            with pytest.raises(InvalidInputError):
                learning._sub_outer(c, a_, b_)
            assert np.array_equal(c, before)
        frozen = rng.normal(size=(3, 5))
        frozen.setflags(write=False)
        with pytest.raises(InvalidInputError):
            learning._sub_outer(frozen, a, b)

    @pytest.mark.parametrize("cfg", [
        TrainConfig(epochs=2, batch_size=16, rule=TrainRule.AE_GRADIENT, seed=3),
        TrainConfig(epochs=2, batch_size=16, rule=TrainRule.LOCAL_BRANCH, seed=3),
        TrainConfig(epochs=2, batch_size=16, tie_decoder=True, seed=3),
    ], ids=["ae-gradient", "local-branch", "ae-gradient-tied"])
    def test_training_keeps_its_bits_on_the_fallback(self, cfg, monkeypatch):
        data = blob_data(n=70, d=64)
        bound = train_stacked_ae(data, TestAeGradientStep.SPEC, cfg)
        monkeypatch.setattr(learning, "_DGEMM", None)
        fallback = train_stacked_ae(data, TestAeGradientStep.SPEC, cfg)
        for group in ("ff_weights", "fb_weights", "ff_offsets", "fb_offsets"):
            assert all(np.array_equal(x, y) for x, y in zip(getattr(bound, group),
                                                            getattr(fallback, group)))

    def test_no_binding_under_another_blas(self, monkeypatch):
        # libm is loaded and links no BLAS, as numpy's extension under another BLAS.
        libm = ctypes.util.find_library("m")
        ctypes.CDLL(libm, mode=os.RTLD_NOLOAD)
        monkeypatch.setattr(learning, "_multiarray_umath", SimpleNamespace(__file__=libm))
        assert learning._bind_dgemm() is None

    @LINUX_MAPS
    def test_no_binding_without_a_loaded_scipy_openblas(self, monkeypatch, tmp_path):
        path = tmp_path / "libscipy_openblas64_.so"
        path.write_bytes(b"")
        monkeypatch.setattr(learning, "_multiarray_umath", SimpleNamespace(__file__=str(path)))
        assert learning._bind_dgemm() is None
        assert str(path) not in mapped_paths()

    @LINUX_MAPS
    def test_binds_the_dgemm_of_the_loaded_scipy_openblas(self):
        libs = {p for p in mapped_paths() if Path(p).name.startswith("libscipy_openblas64_")}
        if not libs:
            pytest.skip("numpy has loaded no scipy-openblas")
        (lib,) = libs
        want = ctypes.CDLL(lib, mode=os.RTLD_NOLOAD).scipy_cblas_dgemm64_
        assert (ctypes.cast(learning._DGEMM, ctypes.c_void_p).value
                == ctypes.cast(want, ctypes.c_void_p).value)

    def test_binds_when_numpy_uses_its_bundled_scipy_openblas(self):
        # A wheel that bundles scipy-openblas must not train on the fallback
        # unnoticed; any other BLAS must not be bound.
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        assert (learning._DGEMM is not None) == (name == "scipy-openblas"), name


class TestTrainStackedAe:
    def test_single_vector_pair_reaches_tiny_error(self):
        data = DatasetHandle(items=np.array([[0.6]]))
        cfg = TrainConfig(learning_rate=0.05, epochs=500, batch_size=1, seed=0)
        params = train_stacked_ae(data, LayerSpec(sizes=(1, 1)), cfg)
        assert reconstruction_error(params, data, 0) <= 1e-4

    def test_zero_learning_rate_leaves_init_untouched(self):
        data = blob_data()
        cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=16,
                          init_scale=0.8, seed=7)
        trained = train_stacked_ae(data, SPEC_432, cfg)
        reference = init_random_tied(SPEC_432, Activation.HARD_SIGMOID, 0.8, seed=7)
        for a, b in zip(trained.ff_weights, reference.ff_weights):
            assert np.array_equal(a, b)
        for a, b in zip(trained.fb_weights, reference.fb_weights):
            assert np.array_equal(a, b)

    def test_training_reduces_reconstruction_error(self):
        data = blob_data(n=96)
        cfg = TrainConfig(learning_rate=0.02, epochs=80, batch_size=16, seed=1)
        trained = train_stacked_ae(data, SPEC_432, cfg)
        untrained = init_random_tied(SPEC_432, Activation.HARD_SIGMOID, 1.0, seed=1)
        assert (reconstruction_error(trained, data, 0)
                < 0.5 * reconstruction_error(untrained, data, 0))

    @pytest.mark.xfail(
        strict=True,
        reason="the trained/random ratio of the mean residual is about 0.60, and a "
               "saturation floor does not explain it: the per-branch rate gap, which "
               "ignores saturation, gives 0.53; weak training of the auto-encoder "
               "pairs is the likelier cause")
    def test_trained_residual_five_times_below_matched_random(self):
        # paired desk-scale comparison of mean feedforward-init residuals
        data = synth_blobs(128, 12, n_clusters=5, spread=0.05, seed=2)
        spec = LayerSpec(sizes=(12, 10, 8, 6))
        cfg = TrainConfig(learning_rate=0.02, epochs=300, batch_size=16,
                          init_scale=0.3, seed=3)
        trained = train_stacked_ae(data, spec, cfg)
        matched = norm_matched_random(trained, seed=3)
        r_trained = np.mean([mutual_prediction_residual(
            trained, feedforward_init(trained, x)).mean() for x in data.items[:40]])
        r_random = np.mean([mutual_prediction_residual(
            matched, feedforward_init(matched, x)).mean() for x in data.items[:40]])
        assert r_trained <= 0.2 * r_random

    def test_trained_residual_beats_matched_random(self):
        # the attainable version of the comparison above: training still
        # shrinks the mean feedforward-init residual against the
        # norm-matched random baseline, just not by 5x
        data = synth_blobs(128, 12, n_clusters=5, spread=0.05, seed=2)
        spec = LayerSpec(sizes=(12, 10, 8, 6))
        cfg = TrainConfig(learning_rate=0.02, epochs=300, batch_size=16,
                          init_scale=0.3, seed=3)
        trained = train_stacked_ae(data, spec, cfg)
        matched = norm_matched_random(trained, seed=3)
        r_trained = np.mean([mutual_prediction_residual(
            trained, feedforward_init(trained, x)).mean() for x in data.items[:40]])
        r_random = np.mean([mutual_prediction_residual(
            matched, feedforward_init(matched, x)).mean() for x in data.items[:40]])
        assert r_trained <= 0.75 * r_random

    def test_trained_feedforward_state_lies_near_the_fixed_point(self):
        """The paper's claim at the strict xfail's instance, read as a distance.

        Relaxing the first 40 items with the direct scheme to tol 1e-10, the
        median of ||h0 - h*|| / ||h*|| over the hidden layers, from the
        feedforward state h0 to the relaxed state h*, measured 0.159 for the
        trained net and 0.987 for its norm-matched random control: a ratio
        of 0.16, with every row converged.
        """
        data = synth_blobs(128, 12, n_clusters=5, spread=0.05, seed=2)
        spec = LayerSpec(sizes=(12, 10, 8, 6))
        cfg = TrainConfig(learning_rate=0.02, epochs=300, batch_size=16,
                          init_scale=0.3, seed=3)
        trained = train_stacked_ae(data, spec, cfg)
        medians = []
        for params in (trained, norm_matched_random(trained, seed=3)):
            start = feedforward_init(params, data.items[:40])
            relaxed, trace = relax(params, start, RelaxationConfig(tol=1e-10))
            assert np.all(trace.converged)
            h0, h = np.hstack(start.hidden), np.hstack(relaxed.hidden)
            medians.append(np.median(np.linalg.norm(h0 - h, axis=1) / np.linalg.norm(h, axis=1)))
        assert medians[0] <= 0.25 * medians[1], medians

    def test_local_branch_rule_matches_per_row_updates(self):
        x = np.array([0.3, 0.8, 0.5])
        data = DatasetHandle(items=x[None, :])
        spec = LayerSpec(sizes=(3, 2))
        cfg = TrainConfig(learning_rate=0.2, epochs=1, batch_size=1,
                          rule=TrainRule.LOCAL_BRANCH, init_scale=1.0, seed=11)
        trained = train_stacked_ae(data, spec, cfg)
        init = init_random_tied(spec, Activation.HARD_SIGMOID, 1.0, seed=11)
        hid = np.clip(init.ff_weights[0] @ x, 0, 1)
        weights, offsets = updated(init.fb_weights[0], np.zeros(3), x[None], hid[None], 0.2)
        assert np.array_equal(trained.fb_weights[0], weights)
        assert np.array_equal(trained.fb_offsets[0], offsets)
        # encoder stays frozen under the local-branch rule
        assert np.array_equal(trained.ff_weights[0], init.ff_weights[0])

    def test_tie_decoder_keeps_transpose(self):
        data = blob_data()
        cfg = TrainConfig(learning_rate=0.01, epochs=10, batch_size=16,
                          tie_decoder=True, seed=4)
        params = train_stacked_ae(data, SPEC_432, cfg)
        for w, v in zip(params.ff_weights, params.fb_weights):
            assert np.array_equal(v, w.T)
        untied = init_random_tied(SPEC_432, Activation.HARD_SIGMOID, 1.0, seed=4)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(params.ff_weights, untied.ff_weights))

    def test_tie_decoder_rejected_for_local_branch(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(rule=TrainRule.LOCAL_BRANCH, tie_decoder=True)

    def test_seeded_determinism_both_rules(self):
        data = blob_data()
        for rule in TrainRule:
            cfg = TrainConfig(learning_rate=0.02, epochs=5, batch_size=16,
                              rule=rule, seed=5)
            a = train_stacked_ae(data, SPEC_432, cfg)
            b = train_stacked_ae(data, SPEC_432, cfg)
            for x, y in zip(a.ff_weights + a.fb_weights + a.ff_offsets + a.fb_offsets,
                            b.ff_weights + b.fb_weights + b.ff_offsets + b.fb_offsets):
                assert np.array_equal(x, y)

    def test_divergence_reports_pair_and_epoch(self):
        # the delta rule beyond its stability bound grows geometrically
        # until the parameters overflow
        data = blob_data()
        cfg = TrainConfig(learning_rate=10.0, epochs=100, batch_size=16,
                          rule=TrainRule.LOCAL_BRANCH, seed=6)
        with pytest.raises(ConfigurationError, match=r"in pair 1 at epoch [1-9]"):
            train_stacked_ae(data, SPEC_432, cfg)

    def test_empty_dataset_rejected(self):
        data = DatasetHandle(items=np.empty((0, 4)))
        with pytest.raises(DatasetError):
            train_stacked_ae(data, SPEC_432, TrainConfig())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DatasetError):
            train_stacked_ae(blob_data(d=5), SPEC_432, TrainConfig(batch_size=8))

    def test_batch_size_larger_than_dataset_rejected(self):
        with pytest.raises(ConfigurationError):
            train_stacked_ae(blob_data(n=8), SPEC_432, TrainConfig(batch_size=9))

    def test_progress_callback_sees_every_epoch(self):
        data = blob_data()
        seen = []
        cfg = TrainConfig(learning_rate=0.01, epochs=4, batch_size=16, seed=8)
        train_stacked_ae(data, SPEC_432, cfg,
                         progress=lambda pair, epoch, err: seen.append((pair, epoch)))
        assert seen == [(pair, epoch) for pair in (1, 2) for epoch in (1, 2, 3, 4)]


class TestLocalBranchEncodesOnce:
    """Against an oracle that encodes each pair's codes once, in one gemm,
    on 64-32-16 with 70 items in batches of 16, so every epoch ends on a
    partial batch. At this size one gemm over all 70 codes rounds
    differently from 16-row gemms, so an encoding made batch by batch
    fails the test, and seed 2 leaves encoder units saturated in both
    pairs."""

    SPEC = LayerSpec(sizes=(64, 32, 16))
    CFG = TrainConfig(epochs=3, batch_size=16, rule=TrainRule.LOCAL_BRANCH, seed=2)

    def train(self, cfg=CFG):
        data = blob_data(n=70, d=64)
        curve = []
        params = train_stacked_ae(data, self.SPEC, cfg,
                                  progress=lambda pair, epoch, err: curve.append((pair, err)))
        return data, params, curve

    def test_every_array_and_error_equals_the_oracle(self):
        data, params, curve = self.train()
        arrays, errors, _ = local_branch_oracle(data.items, self.SPEC.sizes, self.CFG)
        got = (params.ff_weights, params.fb_weights, params.ff_offsets, params.fb_offsets)
        for got_list, want_list in zip(got, arrays):
            assert all(np.array_equal(a, b) for a, b in zip(got_list, want_list))
        assert [err for _, err in curve] == errors

    def test_saturated_unit_lines_equal_the_oracle(self, caplog):
        caplog.set_level(logging.INFO, logger="ffinit.learning")
        data, _, _ = self.train()
        _, _, dead = local_branch_oracle(data.items, self.SPEC.sizes, self.CFG)
        pair_epochs = [(pair, epoch) for pair in (1, 2) for epoch in (1, 2, 3)]
        want = [f"pair {pair} epoch {epoch}: {n}/{self.SPEC.sizes[pair]} encoder units "
                "saturated for the entire epoch"
                for (pair, epoch), n in zip(pair_epochs, dead) if n]
        assert len(want) == 6
        assert [r.getMessage() for r in caplog.records if r.name == "ffinit.learning"] == want

    @pytest.mark.parametrize("rule", list(TrainRule), ids=lambda rule: rule.value)
    def test_last_epoch_error_is_the_reconstruction_error(self, rule):
        data, params, curve = self.train(replace(self.CFG, rule=rule))
        last = dict(curve)
        assert [last[k] for k in (1, 2)] == [reconstruction_error(params, data, k - 1)
                                             for k in (1, 2)]


class TestAeGradientStep:
    """The ae-gradient kernel against its straight-line oracle on 64-32-16
    with 70 items in batches of 16, so every epoch ends on a batch of 6;
    and one batch step against central differences of the batch loss."""

    SPEC = LayerSpec(sizes=(64, 32, 16))

    @pytest.mark.parametrize("tie", [False, True], ids=["untied", "tied"])
    def test_every_array_error_and_saturation_line_equals_the_oracle(self, caplog, tie):
        caplog.set_level(logging.INFO, logger="ffinit.learning")
        cfg = TrainConfig(epochs=3, batch_size=16, tie_decoder=tie, seed=2)
        data = blob_data(n=70, d=64)
        curve = []
        params = train_stacked_ae(data, self.SPEC, cfg,
                                  progress=lambda pair, epoch, err: curve.append(err))
        arrays, errors, dead = ae_gradient_oracle(data.items, self.SPEC.sizes, cfg)
        got = (params.ff_weights, params.fb_weights, params.ff_offsets, params.fb_offsets)
        for got_list, want_list in zip(got, arrays):
            assert all(np.array_equal(a, b) for a, b in zip(got_list, want_list))
        assert curve == errors
        pair_epochs = [(pair, epoch) for pair in (1, 2) for epoch in (1, 2, 3)]
        want = [f"pair {pair} epoch {epoch}: {n}/{self.SPEC.sizes[pair]} encoder units "
                "saturated for the entire epoch"
                for (pair, epoch), n in zip(pair_epochs, dead) if n]
        assert len(want) == 6
        assert [r.getMessage() for r in caplog.records if r.name == "ffinit.learning"] == want

    @pytest.mark.parametrize("tie", [False, True], ids=["untied", "tied"])
    def test_one_batch_step_is_minus_lr_times_the_loss_gradient(self, tie):
        spec, lr, eps = LayerSpec(sizes=(6, 4)), 0.1, 1e-6
        x = np.random.default_rng(7).uniform(0.0, 1.0, size=(5, 6))
        init = init_random_tied(spec, Activation.HARD_SIGMOID, 1.0, seed=7)
        w, v = init.ff_weights[0].copy(), init.fb_weights[0].copy()
        b, c = np.zeros(4), np.zeros(6)
        # Every pre-activation is at least 0.01 from a kink, so the loss is
        # smooth around the initialization, and units lie on both sides.
        pre_h = x @ w.T
        pre_y = np.clip(pre_h, 0.0, 1.0) @ v.T
        for pre in (pre_h, pre_y):
            assert np.minimum(np.abs(pre), np.abs(pre - 1.0)).min() > 0.01
            assert 0 < np.count_nonzero((pre >= 0.0) & (pre <= 1.0)) < pre.size

        def loss():
            hid = np.clip(x @ w.T + b, 0.0, 1.0)
            rec = np.clip(hid @ (w.T if tie else v).T + c, 0.0, 1.0)
            return np.mean(np.sum((rec - x) ** 2, axis=1))

        variables = (w, b, c) if tie else (w, v, b, c)
        gradients = []
        for a in variables:
            g = np.empty(a.shape)
            for i in np.ndindex(a.shape):
                saved = a[i]
                a[i] = saved + eps
                up = loss()
                a[i] = saved - eps
                g[i] = (up - loss()) / (2 * eps)
                a[i] = saved
            gradients.append(g)
        trained = train_stacked_ae(DatasetHandle(items=x), spec, TrainConfig(
            learning_rate=lr, epochs=1, batch_size=5, tie_decoder=tie, seed=7))
        after = (trained.ff_weights[0], trained.fb_weights[0], trained.ff_offsets[0],
                 trained.fb_offsets[0])
        for a, g, moved in zip(variables, gradients,
                               (after[0], after[2], after[3]) if tie else after):
            assert np.allclose(moved - a, -lr * g, rtol=0, atol=1e-8)
            assert np.abs(g).max() > 1e-3


class TestReconstructionError:
    def test_exact_autoencoder_is_zero(self):
        data, params = synth_autoencodable(30, LayerSpec(sizes=(8, 6, 5, 4)), seed=9)
        for k in range(3):
            assert reconstruction_error(params, data, k) <= 1e-12

    def test_zero_network_equals_mean_squared_norm_oracle(self):
        data = blob_data(n=32, d=4, seed=10)
        params = init_random_tied(SPEC_432, Activation.HARD_SIGMOID, 0.0, seed=0)
        got = reconstruction_error(params, data, 0)
        want = sum(float(x @ x) for x in data.items) / len(data)
        assert got == pytest.approx(want, rel=1e-12)

    def test_full_batch_descent_is_monotone(self):
        data = blob_data(n=32, d=6, seed=11)
        spec = LayerSpec(sizes=(6, 4))
        errors = []
        cfg = TrainConfig(learning_rate=0.002, epochs=40, batch_size=32, seed=12)
        train_stacked_ae(data, spec, cfg,
                         progress=lambda pair, epoch, err: errors.append(err))
        assert np.all(np.diff(errors) <= 1e-9)

    def test_pair_index_validated(self):
        data = blob_data()
        params = init_random_tied(SPEC_432, Activation.HARD_SIGMOID, 1.0, seed=0)
        with pytest.raises(InvalidInputError):
            reconstruction_error(params, data, 2)

    def test_negative_pair_index_rejected_at_equal_adjacent_sizes(self):
        # At 6-4-4-4, pair -1 would read pair 2's decoder without the check.
        params = init_random_tied(LayerSpec((6, 4, 4, 4)), Activation.HARD_SIGMOID, seed=0)
        with pytest.raises(InvalidInputError):
            reconstruction_error(params, blob_data(d=6), -1)

    @pytest.mark.parametrize("k", [1.0, 1.5, True], ids=repr)
    def test_non_integer_pair_index_rejected(self, k):
        params = init_random_tied(LayerSpec((6, 4, 4, 4)), Activation.HARD_SIGMOID, seed=0)
        with pytest.raises(InvalidInputError, match="out of range 0..2"):
            reconstruction_error(params, blob_data(d=6), k)


class TestFullDataPassesInBlocks:
    """The epoch errors and reconstruction_error work in row blocks; at
    64-32-16 they keep the bits of the one-gemm oracle, whether the last
    block is as long as the others or one row shorter."""

    SPEC = LayerSpec(sizes=(64, 32, 16))
    SIZES = [257, 270, 513, 700]

    @pytest.mark.parametrize("n", [1, 256, 257, 270, 513, 700, 2000])
    def test_row_blocks_are_near_equal_and_cover_the_rows(self, n):
        blocks = _row_blocks(n)
        assert len(blocks) == -(-n // 256)
        assert [i for block in blocks for i in range(n)[block]] == list(range(n))
        lengths = {block.stop - block.start for block in blocks}
        assert max(lengths) - min(lengths) <= 1
        assert len(blocks) == 1 or min(lengths) >= 128

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("rule", list(TrainRule), ids=lambda rule: rule.value)
    def test_epoch_errors_equal_the_one_gemm_oracle(self, rule, n):
        data = blob_data(n=n, d=64, spread=0.2)
        cfg = TrainConfig(epochs=2, rule=rule, seed=5)
        curve = {}
        params = train_stacked_ae(data, self.SPEC, cfg, progress=lambda pair, epoch, err:
                                  curve.__setitem__((pair, epoch), err))
        # Pair 1 after one epoch is the same in a run that stops there.
        after_one = train_stacked_ae(data, self.SPEC, replace(cfg, epochs=1))
        assert curve[1, 1] != curve[1, 2]
        assert curve[1, 1] == pair_error_oracle(data.items, after_one, 0)
        assert curve[1, 2] == pair_error_oracle(data.items, params, 0)
        assert curve[2, 2] == pair_error_oracle(data.items, params, 1)

    @pytest.mark.parametrize("rule, progress, whole", [
        (TrainRule.AE_GRADIENT, False, 1), (TrainRule.AE_GRADIENT, True, 1),
        (TrainRule.LOCAL_BRANCH, False, 2), (TrainRule.LOCAL_BRANCH, True, 2)])
    def test_whole_encodings_only_where_read_again(self, monkeypatch, rule, progress, whole):
        # Records the rows of every product through an encoder: 270 for a
        # whole encoding, 135 for a row block, 32 or 14 for an ae-gradient
        # batch. ae-gradient encodes whole only pair 1's output, pair 2's
        # codes; local-branch encodes each pair once, in one gemm, and
        # decodes that encoding for its errors.
        rows, random_tied_arrays = [], learning._random_tied_arrays

        class Encoder(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    rows.append(len(inputs[0]))
                if "out" in kwargs:
                    kwargs["out"] = tuple(np.asarray(a) for a in kwargs["out"])
                return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

        def recorded_arrays(*args):
            ws, vs, bs, cs = random_tied_arrays(*args)
            return [w.view(Encoder) for w in ws], vs, bs, cs

        monkeypatch.setattr(learning, "_random_tied_arrays", recorded_arrays)
        data = blob_data(n=270, d=64)
        train_stacked_ae(data, self.SPEC, TrainConfig(epochs=2, rule=rule),
                         (lambda pair, epoch, err: None) if progress else None)
        assert rows.count(270) == whole
        assert set(rows) <= ({270} if rule is TrainRule.LOCAL_BRANCH else {14, 32, 135, 270})

    @pytest.mark.parametrize("n", SIZES)
    def test_reconstruction_error_equals_the_one_gemm_oracle(self, n):
        data = blob_data(n=n, d=64, spread=0.2)
        params = random_untied_params(np.random.default_rng(n), self.SPEC.sizes)
        for k in (0, 1):
            assert reconstruction_error(params, data, k) == pair_error_oracle(
                data.items, params, k)


class TestMemory:
    """Full-data passes hold row blocks, not whole-dataset encodings and
    decodings, at the benchmark's shapes (2000 x 784 items, 784-500-500).
    One encoding of all items is 8 MB, the parameters 10.3 MB."""

    SPEC = LayerSpec(sizes=(784, 500, 500))

    @pytest.fixture(scope="class")
    def data(self):
        return synth_blobs(2000, 784, 8, 0.02, 0)

    # Traced peaks, whole-data passes -> row blocks: ae-gradient 34.4 -> 25.3 MB,
    # local-branch 42.4 -> 36.7 MB. One local-branch encoding per pair instead
    # of two: 36.7 -> 28.7 MB, of which 26.3 MB are the parameters and pair 2's
    # codes and encoding.
    @pytest.mark.parametrize("rule, bound_mb", [(TrainRule.AE_GRADIENT, 30.0),
                                                (TrainRule.LOCAL_BRANCH, 31.0)],
                             ids=lambda x: getattr(x, "value", None))
    def test_training_with_progress_peak(self, data, rule, bound_mb):
        _, peak = traced_peak(train_stacked_ae, data, self.SPEC,
                              TrainConfig(epochs=2, rule=rule), lambda pair, epoch, err: None)
        assert peak <= bound_mb * 1e6

    def test_local_branch_dead_count_holds_one_block_of_masks(self):
        # With few inputs the pair's encoding (8 MB) is nearly all training
        # holds. Masks over the whole pre-activation took the traced peak to
        # 10.1 MB; one row block's masks at a time keep it at 8.5 MB.
        data = synth_blobs(2000, 16, 8, 0.02, 0)
        _, peak = traced_peak(train_stacked_ae, data, LayerSpec((16, 500)),
                              TrainConfig(epochs=1, rule=TrainRule.LOCAL_BRANCH))
        assert peak <= 1.1 * 2000 * 500 * 8

    # Whole-data passes -> row blocks: 20.6 -> 4.2 MB (k = 0), 24.1 -> 4.0 MB (k = 1).
    @pytest.mark.parametrize("k", [0, 1])
    def test_reconstruction_error_holds_less_than_one_encoding(self, data, k):
        params = init_random_tied(self.SPEC, Activation.HARD_SIGMOID)
        _, peak = traced_peak(reconstruction_error, params, data, k)
        assert peak <= 2000 * 500 * 8

    # Releasing each row block's arrays before the next is formed: 4.22 -> 2.65 MB
    # (k = 0), 4.08 -> 3.08 MB (k = 1). The bound is one row block as wide as the
    # network's three layers together, 3.65 MB.
    @pytest.mark.parametrize("k", [0, 1])
    def test_reconstruction_error_holds_one_row_block(self, data, k):
        params = init_random_tied(self.SPEC, Activation.HARD_SIGMOID)
        _, peak = traced_peak(reconstruction_error, params, data, k)
        assert peak <= _BLOCK_ROWS * sum(self.SPEC.sizes) * 8


def test_good_autoencoder_implies_fast_inference_end_to_end():
    from ffinit import RelaxationConfig, infer_from_feedforward
    data, params = synth_autoencodable(25, LayerSpec(sizes=(9, 7, 5)), seed=13)
    for k in range(2):
        assert reconstruction_error(params, data, k) <= 1e-12
    for x in data.items:
        state = feedforward_init(params, x)
        assert np.all(mutual_prediction_residual(params, state) <= 1e-9)
        _, trace = infer_from_feedforward(params, x, RelaxationConfig())
        assert trace.converged and trace.iters_run <= 2
