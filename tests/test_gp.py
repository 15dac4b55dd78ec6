import warnings

import numpy as np
import pytest

import abbo.gp as gp_module
from abbo.exceptions import NumericalError
from abbo.features import synthetic_structure_context
from abbo.gp import (
    ConstantMean,
    Dataset,
    ZeroShotMean,
    cholesky_with_jitter,
    fit_gp,
    log_marginal_likelihood,
    log_marginal_likelihood_with_grads,
    zero_shot_score,
)
from abbo.kernels import KermutKernel, Matern52Kernel, SumKernel, TanimotoKernel
from abbo.plm import substitution_softmax_pssm
from abbo.sequences import diff, one_hot_matrix

from conftest import mutant_inputs, naive_log_marginal_likelihood, naive_posterior

PARENTAL = "MKTAYIAKQRQISFVKSHFSRQ"


def _make_dataset(rng, n, kernel_field="onehot"):
    seqs, inputs = mutant_inputs(rng, PARENTAL, n, encoding=one_hot_matrix())
    y = rng.standard_normal(n)
    return Dataset(seqs, inputs, y)


def _log_table():
    return np.log(np.maximum(substitution_softmax_pssm(PARENTAL), 1e-12))


def _counting(monkeypatch, name):
    """Replace `abbo.gp.<name>` by a wrapper that counts its calls."""
    calls = [0]
    original = getattr(gp_module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(gp_module, name, counted)
    return calls


class TestDataset:
    def test_lockstep_validation(self, rng):
        seqs, inputs = mutant_inputs(rng, PARENTAL, 3, encoding=one_hot_matrix())
        with pytest.raises(ValueError):
            Dataset(seqs, inputs, np.zeros(2))
        with pytest.raises(ValueError):
            Dataset(seqs[:2] + [seqs[0]], inputs, np.zeros(3))  # duplicate
        with pytest.raises(ValueError):
            Dataset(seqs, inputs, np.array([0.0, np.nan, 1.0]))

    def test_extended_appends(self, rng):
        seqs, inputs = mutant_inputs(rng, PARENTAL, 4, encoding=one_hot_matrix())
        data = Dataset(seqs[:3], inputs[:3], np.arange(3.0))
        bigger = data.extended([seqs[3]], [inputs[3]], [3.0])
        assert len(bigger) == 4
        assert len(data) == 3
        assert bigger.sequences[-1] == seqs[3]


class TestZeroShot:
    def test_score_sums_log_ratios(self):
        table = _log_table()
        variant = "W" + PARENTAL[1:]
        ms = diff(PARENTAL, variant)
        from abbo.sequences import ALPHABET

        expected = table[0, ALPHABET.index("W")] - table[0, ALPHABET.index(PARENTAL[0])]
        assert zero_shot_score(table, ms) == pytest.approx(expected)

    def test_empty_mutation_set_scores_zero(self):
        assert zero_shot_score(_log_table(), diff(PARENTAL, PARENTAL)) == 0.0

    def test_mean_is_affine_in_score(self, rng):
        table = _log_table()
        mean = ZeroShotMean(table, alpha=2.0, beta=-0.5)
        seqs, inputs = mutant_inputs(rng, PARENTAL, 5, encoding=one_hot_matrix())
        values = mean.values(inputs)
        expected = [2.0 * zero_shot_score(table, item.mutations) - 0.5 for item in inputs]
        assert np.allclose(values, expected)

    def test_scores_computed_once_per_fit(self, rng, monkeypatch):
        n = 8
        seqs, inputs = mutant_inputs(rng, PARENTAL, n, encoding=one_hot_matrix())
        data = Dataset(seqs, inputs, rng.standard_normal(n))
        calls = _counting(monkeypatch, "zero_shot_score")
        fit_gp(data, TanimotoKernel("onehot"), ZeroShotMean(_log_table()), restarts=3, seed=2)
        assert calls[0] == n


class TestLogMarginalLikelihood:
    def test_matches_naive_inverse_on_random_datasets(self, rng):
        # 20 datasets of <= 10 points against the explicit-inverse formula
        for _ in range(20):
            n = int(rng.integers(2, 11))
            data = _make_dataset(rng, n)
            kernel = TanimotoKernel("onehot", variance=float(rng.uniform(0.3, 2.0)))
            mean = ConstantMean(float(rng.uniform(-1.0, 1.0)))
            noise = float(rng.uniform(0.01, 0.5))
            got = log_marginal_likelihood(kernel, mean, noise, data)
            gram = kernel.gram(list(data.inputs))
            mean_vec = mean.values(list(data.inputs))
            expected = naive_log_marginal_likelihood(gram, mean_vec, noise, data.y)
            assert got == pytest.approx(expected, abs=1e-8)

    def test_posterior_matches_naive_inverse(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 11))
            seqs, inputs = mutant_inputs(rng, PARENTAL, n + 4, encoding=one_hot_matrix())
            train_inp, query_inp = inputs[:n], inputs[n:]
            y = rng.standard_normal(n)
            data = Dataset(seqs[:n], train_inp, y)
            kernel = TanimotoKernel("onehot")
            mean = ConstantMean(0.3)
            noise = 0.05
            model = fit_gp(data, kernel, mean, noise=noise, fit_noise=False, restarts=1)
            # freeze at the fitted hyperparameters and compare predictions
            fitted_kernel = model.kernel
            gram = fitted_kernel.gram(list(train_inp))
            cross = fitted_kernel.cross(list(train_inp), list(query_inp))
            diag = fitted_kernel.diag(list(query_inp))
            mean_train = model.mean.values(list(train_inp))
            mean_query = model.mean.values(list(query_inp))
            want_mean, want_std = naive_posterior(
                gram, cross, diag, mean_train, mean_query, model.noise, y
            )
            got_mean, got_std = model.predict(list(query_inp))
            assert np.allclose(got_mean, want_mean, atol=1e-8)
            assert np.allclose(got_std, want_std, atol=1e-8)

    def test_gradients_match_central_differences(self, rng):
        # every hyperparameter of a full model: kernel, mean, and noise
        context = synthetic_structure_context(PARENTAL, seed=4)
        seqs, inputs = mutant_inputs(rng, PARENTAL, 7, encoding=one_hot_matrix())
        y = rng.standard_normal(7)
        data = Dataset(seqs, inputs, y)
        kernel = KermutKernel(
            context, TanimotoKernel("onehot"), variance=1.2, mix=0.55,
            gamma_h=0.9, gamma_p=1.1, gamma_d=0.2,
        )
        mean = ZeroShotMean(_log_table(), alpha=0.8, beta=0.1)
        noise = 0.15
        _, grads = log_marginal_likelihood_with_grads(kernel, mean, noise, data)

        def check(name, get, set_, base):
            h = 1e-5 * max(abs(base), 1e-2)
            set_(base + h)
            up = log_marginal_likelihood(kernel, mean, noise if name != "noise.variance" else base + h, data)
            set_(base - h)
            down = log_marginal_likelihood(kernel, mean, noise if name != "noise.variance" else base - h, data)
            set_(base)
            fd = (up - down) / (2.0 * h)
            assert grads[name] == pytest.approx(fd, rel=1e-4, abs=1e-7), name

        for pname in kernel.free_param_names():
            base = kernel.params()[pname]
            check(
                f"kernel.{pname}",
                None,
                lambda v, _p=pname: kernel.set_param(_p, v),
                base,
            )
        for pname in mean.free_param_names():
            base = mean.params()[pname]
            check(
                f"mean.{pname}",
                None,
                lambda v, _p=pname: mean.set_param(_p, v),
                base,
            )
        # noise handled through its own argument
        h = 1e-6
        up = log_marginal_likelihood(kernel, mean, noise + h, data)
        down = log_marginal_likelihood(kernel, mean, noise - h, data)
        assert grads["noise.variance"] == pytest.approx((up - down) / (2 * h), rel=1e-4)


class TestSpectralTanimoto:
    """The O(n) Tanimoto fit against the dense Cholesky route it replaces."""

    def _data(self, rng, n=25):
        data = _make_dataset(rng, n)
        kernel = TanimotoKernel("onehot")
        similarity = kernel.gram_grad_prepared(kernel.prepare(data.inputs))[1]["variance"]
        return data, gp_module._TanimotoSpectrum(similarity, data.y)

    def test_value_and_gradients_match_dense(self, rng):
        data, spectrum = self._data(rng)
        noises = [1e-8, 2e-8, 1e-6] + list(10.0 ** rng.uniform(-4.0, 0.5, size=7))
        for noise in noises:
            variance = float(10.0 ** rng.uniform(-2.0, 1.5))
            beta = float(rng.uniform(-2.0, 2.0))
            want, want_grads = log_marginal_likelihood_with_grads(
                TanimotoKernel("onehot", variance=variance), ConstantMean(beta), noise, data
            )
            got, got_grads = spectrum.log_ml_with_grads(variance, beta, noise)
            assert got == pytest.approx(want, rel=1e-10)
            assert set(got_grads) == set(want_grads)
            for name, value in want_grads.items():
                assert got_grads[name] == pytest.approx(value, rel=1e-8, abs=1e-10), (name, noise)

    def test_hopeless_spectrum_raises_numerical_error(self, rng):
        _, spectrum = self._data(rng, n=6)
        with pytest.raises(NumericalError):
            spectrum.log_ml_with_grads(1.0, 0.0, float("nan"))

    @pytest.mark.parametrize(
        "freeze_variance, fit_noise",
        [(False, True), (True, True), (False, False), (True, False)],
    )
    def test_fit_matches_dense_route(self, rng, monkeypatch, freeze_variance, fit_noise):
        # a one-child SumKernel has the same covariance but takes the dense route
        seqs, inputs = mutant_inputs(rng, PARENTAL, 30, encoding=one_hot_matrix())
        prior = TanimotoKernel("onehot", variance=1.5).gram(inputs) + 0.05 * np.eye(30)
        y = np.linalg.cholesky(prior) @ rng.standard_normal(30) + 0.3  # a draw from the model
        data = Dataset(seqs, inputs, y)
        tanimoto = TanimotoKernel("onehot", variance=0.7)
        wrapped = SumKernel([("t", TanimotoKernel("onehot", variance=0.7))])
        if freeze_variance:
            tanimoto.freeze("variance")
            wrapped.freeze("t.variance")
        settings = dict(noise=0.2, fit_noise=fit_noise, restarts=3, seed=5)
        cholesky = _counting(monkeypatch, "cholesky_with_jitter")
        fast = fit_gp(data, tanimoto, ConstantMean(0.0), **settings)
        assert cholesky[0] == 1  # only the final factorization of the fitted model
        dense = fit_gp(data, wrapped, ConstantMean(0.0), **settings)
        assert cholesky[0] > 2

        assert fast.log_ml == pytest.approx(dense.log_ml, rel=1e-10)
        want = dense.hyperparameters()
        want["kernel.variance"] = want.pop("kernel.t.variance")
        got = fast.hyperparameters()
        for name in want:
            assert got[name] == pytest.approx(want[name], rel=1e-6), name
        if freeze_variance:
            assert got["kernel.variance"] == 0.7
        if not fit_noise:
            assert got["noise.variance"] == 0.2
        assert np.allclose(fast.alpha, dense.alpha, rtol=1e-6, atol=1e-9)


class TestFitting:
    def test_fit_improves_objective(self, rng):
        data = _make_dataset(rng, 12)
        kernel = TanimotoKernel("onehot")
        mean = ConstantMean(0.0)
        start = log_marginal_likelihood(kernel, mean, 0.1, data)
        model = fit_gp(data, kernel, mean, noise=0.1, restarts=2, seed=1)
        assert model.log_marginal_likelihood() >= start - 1e-9

    def test_fit_leaves_templates_untouched(self, rng):
        data = _make_dataset(rng, 6)
        kernel = TanimotoKernel("onehot", variance=1.0)
        mean = ConstantMean(0.0)
        fit_gp(data, kernel, mean, noise=0.1, restarts=1)
        assert kernel.params()["variance"] == 1.0
        assert mean.params()["beta"] == 0.0

    def test_frozen_parameters_stay_put(self, rng):
        data = _make_dataset(rng, 6)
        kernel = TanimotoKernel("onehot", variance=1.3)
        kernel.freeze("variance")
        model = fit_gp(data, kernel, ConstantMean(0.0), noise=0.1, restarts=2)
        assert model.kernel.params()["variance"] == 1.3

    def test_interpolation_with_tiny_noise(self, rng):
        seqs, inputs = mutant_inputs(rng, PARENTAL, 6, encoding=one_hot_matrix())
        y = rng.standard_normal(6)
        data = Dataset(seqs, inputs, y)
        kernel = Matern52Kernel("onehot", lengthscale=3.0)
        kernel.freeze("lengthscale", "variance")
        model = fit_gp(data, kernel, ConstantMean(0.0), noise=1e-6, fit_noise=False, restarts=1)
        pred, std = model.predict(list(inputs))
        assert np.allclose(pred, y, atol=1e-3)
        assert np.all(std < 0.05)

    def test_noise_respects_bounds(self, rng):
        data = _make_dataset(rng, 8)
        model = fit_gp(data, TanimotoKernel("onehot"), ConstantMean(0.0), noise=0.1, restarts=2)
        assert 1e-8 <= model.noise <= 10.0

    def test_hyperparameters_exposes_all_groups(self, rng):
        data = _make_dataset(rng, 5)
        model = fit_gp(data, TanimotoKernel("onehot"), ConstantMean(0.0), restarts=1)
        keys = set(model.hyperparameters())
        assert keys == {"kernel.variance", "mean.beta", "noise.variance"}


class TestCholeskyJitter:
    def test_clean_matrix_needs_no_jitter(self, rng):
        a = rng.standard_normal((5, 5))
        spd = a @ a.T + 5.0 * np.eye(5)
        chol, jitter = cholesky_with_jitter(spd)
        assert jitter == 0.0
        assert np.allclose(chol @ chol.T, spd)

    def test_rank_deficient_matrix_gets_jitter(self):
        v = np.ones((4, 1))
        singular = v @ v.T  # rank one
        chol, jitter = cholesky_with_jitter(singular)
        assert jitter > 0.0
        assert np.all(np.isfinite(chol))

    def test_hopeless_matrix_raises_numerical_error(self):
        with pytest.raises(NumericalError):
            cholesky_with_jitter(-np.eye(3))


def test_zero_shot_score_floors_missing_probabilities():
    table = np.log(np.maximum(substitution_softmax_pssm(PARENTAL), 1e-12))
    table[0, :] = np.log(1e-300)  # below the floor once exponentiated
    ms = diff(PARENTAL, "W" + PARENTAL[1:])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = zero_shot_score(table, ms)
    assert np.isfinite(value)
    assert any("floor" in str(w.message).lower() for w in caught)
