import hashlib
import os
import pickle
import signal
import time
import types
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

import abbo._forked as forked_module
import abbo.gp as gp_module
from abbo import _blas
from abbo.exceptions import NumericalError
from abbo.features import synthetic_structure_context
from abbo.gp import (
    NOISE_BOUNDS,
    ConstantMean,
    Dataset,
    ZeroShotMean,
    cholesky_with_jitter,
    fit_gp,
    log_marginal_likelihood,
    log_marginal_likelihood_with_grads,
    zero_shot_score,
)
from abbo.kernels import (
    KermutKernel,
    KernelInputs,
    Matern52Kernel,
    SquaredExponentialKernel,
    SumKernel,
    TanimotoKernel,
)
from abbo.plm import substitution_softmax_pssm
from abbo.sequences import diff, one_hot_matrix

from conftest import (
    mutant_inputs,
    naive_log_marginal_likelihood,
    naive_posterior,
    random_mutants,
    run_on_one_and_two_cpus,
    sequence_inputs,
)

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
        bigger = data.extended([seqs[3]], inputs[3:], [3.0])
        assert len(bigger) == 4
        assert len(data) == 3
        assert bigger.sequences[-1] == seqs[3]

    def test_extended_and_sliced_batches_equal_one_built_at_once(self, rng):
        seqs, inputs = mutant_inputs(rng, PARENTAL, 10, encoding=one_hot_matrix())
        data = Dataset(seqs[:4], inputs[:4], np.arange(4.0))
        grown = data.extended(seqs[4:7], inputs[np.arange(4, 7)], np.arange(4.0, 7.0))
        grown = grown.extended(seqs[7:], inputs[7:], np.arange(7.0, 10.0))
        whole = sequence_inputs(seqs, PARENTAL, one_hot_matrix())
        assert grown.sequences == tuple(seqs)
        assert np.array_equal(grown.inputs.residues, whole.residues)
        assert np.array_equal(grown.inputs.vectors["onehot"], whole.vectors["onehot"])
        for a, b in zip(grown.inputs.entries, whole.entries):
            assert np.array_equal(a, b)


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
        expected = [2.0 * zero_shot_score(table, diff(PARENTAL, s)) - 0.5 for s in seqs]
        assert np.allclose(values, expected)

    def test_scores_computed_once_per_fit(self, rng, monkeypatch):
        n = 8
        seqs, inputs = mutant_inputs(rng, PARENTAL, n, encoding=one_hot_matrix())
        data = Dataset(seqs, inputs, rng.standard_normal(n))
        calls = [0]  # points scored
        real_prepare = ZeroShotMean.prepare

        def counted(mean, batch):
            calls[0] += len(batch)
            return real_prepare(mean, batch)

        monkeypatch.setattr(ZeroShotMean, "prepare", counted)
        fit_gp(data, TanimotoKernel("onehot"), ZeroShotMean(_log_table()), restarts=3, seed=2)
        assert calls[0] == n

    def test_batch_scores_equal_one_set_scores_bitwise(self, rng):
        table = _log_table()
        table[[0, 5, 9], :] = np.log(1e-300)  # below the floor
        seqs = [PARENTAL, *random_mutants(rng, PARENTAL, 40, max_sites=6)]
        seqs.append(seqs[3])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want = np.array([zero_shot_score(table, diff(PARENTAL, s)) for s in seqs])
        assert len(caught) > 1  # one warning per floored mutation set
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = ZeroShotMean(table).scores(sequence_inputs(seqs, PARENTAL))
        assert np.array_equal(got, want)
        (warning,) = caught
        assert warning.category is RuntimeWarning and "floored" in str(warning.message)

    def test_vector_only_batch_is_rejected(self):
        batch = KernelInputs({"onehot": np.ones((2, 4))})
        with pytest.raises(ValueError, match="no residues and parental"):
            ZeroShotMean(_log_table()).scores(batch)


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
            gram = kernel.gram(data.inputs)
            mean_vec = mean.values(data.inputs)
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
            gram = fitted_kernel.gram(train_inp)
            cross = fitted_kernel.cross(train_inp, query_inp)
            diag = fitted_kernel.diag(query_inp)
            mean_train = model.mean.values(train_inp)
            mean_query = model.mean.values(query_inp)
            want_mean, want_std = naive_posterior(
                gram, cross, diag, mean_train, mean_query, model.noise, y
            )
            got_mean, got_std = model.predict(query_inp)
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
        similarity = kernel.similarity(kernel.prepare(data.inputs))
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


# surrogate builders and the exact names `GPModel.hyperparameters` reports
_SURROGATE_GROUPS = {
    "tanimoto-constant": (
        lambda: (TanimotoKernel("onehot"), ConstantMean(0.0)),
        {"kernel.variance", "mean.beta", "noise.variance"},
    ),
    "sum-constant": (
        lambda: (
            SumKernel([("coords", Matern52Kernel("onehot")), ("seq", TanimotoKernel("onehot"))]),
            ConstantMean(0.0),
        ),
        {
            "kernel.coords.lengthscale",
            "kernel.coords.variance",
            "kernel.seq.variance",
            "mean.beta",
            "noise.variance",
        },
    ),
    "kermut-zeroshot": (
        lambda: (
            KermutKernel(synthetic_structure_context(PARENTAL, seed=4), TanimotoKernel("onehot")),
            ZeroShotMean(_log_table()),
        ),
        {
            "kernel.variance",
            "kernel.mix",
            "kernel.gamma_h",
            "kernel.gamma_p",
            "kernel.gamma_d",
            "kernel.seq.variance",
            "mean.alpha",
            "mean.beta",
            "noise.variance",
        },
    ),
}


@pytest.fixture
def one_cpu():
    """This process narrowed to one CPU for the test, so that a fit forks no worker."""
    if not hasattr(os, "sched_setaffinity"):  # no affinity, no forked restarts
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


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
        pred, std = model.predict(inputs)
        assert np.allclose(pred, y, atol=1e-3)
        assert np.all(std < 0.05)

    def test_noise_respects_bounds(self, rng):
        data = _make_dataset(rng, 8)
        model = fit_gp(data, TanimotoKernel("onehot"), ConstantMean(0.0), noise=0.1, restarts=2)
        assert 1e-8 <= model.noise <= 10.0

    def test_out_of_bounds_start_cannot_win(self, rng):
        # L-BFGS-B runs from the start clipped into the bounds; the start is
        # scored there too, so an outside noise cannot come back as the fit;
        # the targets' spread would have the unclipped noise of 50 win
        seqs, inputs = mutant_inputs(rng, PARENTAL, 8, encoding=one_hot_matrix())
        data = Dataset(seqs, inputs, 30.0 * rng.standard_normal(8))
        kernel = Matern52Kernel("onehot", lengthscale=3.0)
        kernel.freeze("variance")
        model = fit_gp(data, kernel, ConstantMean(0.0), noise=50.0, restarts=1)
        # at the upper bound, up to the rounding of exp(log(10))
        assert model.noise == pytest.approx(NOISE_BOUNDS[1], rel=1e-12)

    def test_each_start_is_evaluated_once(self, rng, monkeypatch, one_cpu):
        # the minimizer's first call is at the start and reuses its score, so
        # the objective runs once per minimizer evaluation plus the final factor;
        # on one CPU every restart runs in this process, where the calls are counted
        evaluations = _counting(monkeypatch, "_core")
        counts = []

        def counted_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            counts.append(result.nfev)
            return result

        monkeypatch.setattr(gp_module, "minimize", counted_minimize)
        kernel = Matern52Kernel("onehot", lengthscale=3.0)
        fit_gp(_make_dataset(rng, 8), kernel, ConstantMean(0.0), noise=0.1, restarts=3)
        assert len(counts) == 3
        assert evaluations[0] == sum(counts) + 1

    @pytest.mark.parametrize("case", sorted(_SURROGATE_GROUPS))
    def test_hyperparameters_exposes_all_groups(self, rng, case):
        build, names = _SURROGATE_GROUPS[case]
        kernel, mean = build()
        model = fit_gp(_make_dataset(rng, 5), kernel, mean, restarts=1)
        hyper = model.hyperparameters()
        assert set(hyper) == names
        if isinstance(kernel, KermutKernel):
            # the sequence kernel's scale is owned by the Kermut variance
            assert hyper["kernel.seq.variance"] == 1.0
            assert "seq.variance" in model.kernel.frozen()

    @pytest.mark.parametrize("case", ["tanimoto", "spectral", "matern", "se", "sum", "kermut"])
    def test_gram_blocks_built_once_per_fit(self, rng, monkeypatch, case):
        # every training prep builds its parameter-free block on the first
        # Gram and keeps it for all L-BFGS evaluations; a predict builds none
        builds = []

        def counting(cls, name):
            real = getattr(cls, name)

            def counted(kernel, *args):
                builds.append(type(kernel).__name__)
                return real(kernel, *args)

            monkeypatch.setattr(cls, name, counted)

        for cls in (TanimotoKernel, Matern52Kernel, SquaredExponentialKernel):
            counting(cls, "_structure")
        counting(KermutKernel, "_key_distances")
        evaluations = _counting(monkeypatch, "_core")
        kernel, expected = {
            "tanimoto": (TanimotoKernel("onehot"), ["TanimotoKernel"]),
            "spectral": (TanimotoKernel("onehot"), ["TanimotoKernel"]),
            "matern": (Matern52Kernel("x"), ["Matern52Kernel"]),
            "se": (SquaredExponentialKernel("x"), ["SquaredExponentialKernel"]),
            "sum": (
                SumKernel([("m", Matern52Kernel("x")), ("t", TanimotoKernel("onehot"))]),
                ["Matern52Kernel", "TanimotoKernel"],
            ),
            "kermut": (
                KermutKernel(synthetic_structure_context(PARENTAL, 2), TanimotoKernel("onehot")),
                ["KermutKernel", "TanimotoKernel"],
            ),
        }[case]
        # a constant mean sends a Tanimoto fit down the spectral route
        mean = ConstantMean(0.0) if case == "spectral" else ZeroShotMean(_log_table())
        seqs, inputs = mutant_inputs(rng, PARENTAL, 12, encoding=one_hot_matrix())
        inputs = KernelInputs(
            {**inputs.vectors, "x": rng.standard_normal((12, 4))}, inputs.residues, PARENTAL
        )
        model = fit_gp(Dataset(seqs, inputs, rng.standard_normal(12)), kernel, mean, restarts=2)
        assert sorted(builds) == expected
        # the spectral route evaluates in the eigenbasis of the block and
        # factorizes densely once, at the optimum
        assert evaluations[0] == 1 if case == "spectral" else evaluations[0] > 10

        del builds[:]
        _, query = mutant_inputs(rng, PARENTAL, 5, encoding=one_hot_matrix())
        x = rng.standard_normal((5, 4))
        model.predict(KernelInputs({**query.vectors, "x": x}, query.residues, PARENTAL))
        assert builds == []


def _fit_lines():
    """The `repr` of the hyperparameters and log ML, and a hash of the Cholesky
    factor's bytes, of a Kermut, a Matern and a sum-kernel fit, at one BLAS thread."""
    cases = [
        _SURROGATE_GROUPS["kermut-zeroshot"][0](),
        (Matern52Kernel("onehot"), ConstantMean(0.0)),
        _SURROGATE_GROUPS["sum-constant"][0](),
    ]
    data = _make_dataset(np.random.default_rng(11), 40)
    lines = []
    with _blas.one_thread():
        for kernel, mean in cases:
            model = fit_gp(data, kernel, mean, restarts=8, seed=5)
            lines.append(
                f"{model.hyperparameters()!r} {model.log_marginal_likelihood()!r} "
                f"{hashlib.sha256(model.chol.tobytes()).hexdigest()}"
            )
    return lines


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="restarts are forked only where os.fork exists")
class TestForkedRestarts:
    """A dense fit's restarts run in this process and in forked workers, one
    per CPU of the affinity beyond the first; here the affinity is faked."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """A fit that hangs fails the test after 120 s (a forked child inherits no alarm)."""

        def expire(signum, frame):
            raise TimeoutError("the fit did not finish within 120 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_results_do_not_depend_on_the_worker_count(self, monkeypatch, one_cpu):
        # five workers on one core, all reading restarts from one pipe: a lost
        # or repeated restart would move the winner or fail the index check
        serial = _fit_lines()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
        assert _fit_lines() == serial
        _assert_no_child_left()

    def test_fits_on_one_and_two_cpus_are_identical(self):
        (serial, serial_forks), (forked, forks) = run_on_one_and_two_cpus(
            "from test_gp import _fit_lines\nprint(*_fit_lines(), sep='\\n')\n"
        )
        assert serial_forks == 0 < forks
        assert len(forked) == 3 and forked == serial

    def _fit_with_worker(self, rng, monkeypatch, tmp_path, in_worker, in_parent=None):
        """A two-restart fit on two faked CPUs, in which the worker's restart
        calls `in_worker` in place of the minimizer. The parent's restart
        waits for the worker's to begin, so each process runs one restart."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        parent, begun = os.getpid(), tmp_path / "worker-began"

        def split_minimize(*args, **kwargs):
            if os.getpid() != parent:
                begun.touch()
                return in_worker(*args, **kwargs)
            if in_parent is not None:
                return in_parent(*args, **kwargs)
            deadline = time.monotonic() + 60
            while not begun.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(gp_module, "minimize", split_minimize)
        return fit_gp(_make_dataset(rng, 8), Matern52Kernel("onehot"), ConstantMean(0.0), restarts=2)

    def test_worker_exception_reaches_the_caller(self, rng, monkeypatch, tmp_path):
        def raising(*args, **kwargs):
            raise KeyError("restart failed in the worker")

        with pytest.raises(KeyError, match="restart failed in the worker") as caught:
            self._fit_with_worker(rng, monkeypatch, tmp_path, raising)
        assert "raised in forked worker" in str(caught.value.__cause__)
        _assert_no_child_left()

    @pytest.mark.parametrize(
        "death, message",
        [
            (lambda: os._exit(3), "exited with status 3"),
            (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
        ],
        ids=["exit-3", "sigkill"],
    )
    def test_worker_death_is_an_error(self, rng, monkeypatch, tmp_path, death, message):
        def dying(*args, **kwargs):
            death()

        with pytest.raises(RuntimeError, match=message):
            self._fit_with_worker(rng, monkeypatch, tmp_path, dying)
        _assert_no_child_left()

    def test_short_payload_is_an_error(self, rng, monkeypatch, tmp_path):
        parent = os.getpid()

        def short_dumps(obj):
            data = pickle.dumps(obj)
            return data if os.getpid() == parent else data[: len(data) // 2]

        monkeypatch.setattr(
            forked_module, "pickle", types.SimpleNamespace(dumps=short_dumps, loads=pickle.loads)
        )
        with pytest.raises(RuntimeError, match="exited with status 0, but its .* do not unpickle"):
            self._fit_with_worker(rng, monkeypatch, tmp_path, minimize)
        _assert_no_child_left()

    def test_parent_exception_reaps_a_running_worker(self, rng, monkeypatch, tmp_path):
        def stalling(*args, **kwargs):
            time.sleep(120)

        def raising(*args, **kwargs):
            raise KeyError("restart failed in the parent")

        start = time.monotonic()
        with pytest.raises(KeyError, match="restart failed in the parent"):
            self._fit_with_worker(rng, monkeypatch, tmp_path, stalling, in_parent=raising)
        assert time.monotonic() - start < 60
        _assert_no_child_left()


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


# ---------------------------------------------------------------------------
# batch scoring against a one-row reference


# A batch predict reorders floating-point sums, so it matches predicting each
# row alone only to rounding: within this factor of the column's largest
# absolute value. The fixture GP's noise is held at 1e-2, so the comparison
# measures summation order, not the conditioning of a near-interpolating fit.
BATCH_TOL = 1e-10


def _one_row_input(asm, seq: str) -> KernelInputs:
    """A sequence's kernel input, a batch of one, built from the one-sequence
    primitives."""
    from abbo.sequences import blosum62_matrix, encode

    fields = asm.representer.fields
    vectors = {}
    if "onehot" in fields:
        vectors["onehot"] = encode(seq, one_hot_matrix())
    if "blosum" in fields:
        vectors["blosum"] = encode(seq, blosum62_matrix())
    if fields & {"embedding", "coords", "embedding_coords"}:
        bundle = asm.providers.features.features(seq)
        if "embedding" in fields:
            vectors["embedding"] = bundle.embedding
        if "coords" in fields:
            vectors["coords"] = bundle.coords
        if "embedding_coords" in fields:
            vectors["embedding_coords"] = np.concatenate([bundle.embedding, bundle.coords])
    one = sequence_inputs([seq], PARENTAL)
    return KernelInputs({name: v[None, :] for name, v in vectors.items()}, one.residues, PARENTAL)


@pytest.mark.parametrize(
    "method", ["OneHot-T", "BLO-T", "ESM-M", "IgFold-BLO-T", "Kermut-T", "C-OneHot-T", "C-Kermut-T"]
)
def test_batch_objectives_match_one_row_reference(method, rng):
    from abbo.campaign import (
        CampaignConfig,
        ProtocolConfig,
        _assemble,
        _batch_objectives,
        _initial_dataset,
    )

    from conftest import random_mutants

    config = CampaignConfig(
        parental=PARENTAL,
        method=method,
        seed=5,
        protocol=ProtocolConfig(
            initial_pool_size=60, initial_sample_size=30, rounds=1, batch_size=8, drop_count=2
        ),
    )
    asm = _assemble(config)
    data = _initial_dataset(asm, config.seed)
    model = fit_gp(data, asm.kernel, asm.mean, noise=1e-2, fit_noise=False, restarts=1, seed=0)
    assert model.noise == 1e-2
    # the parental (no mutations), training sequences, new designs of up to
    # four sites, and one sequence twice
    candidates = [PARENTAL, *data.sequences[:5], *random_mutants(rng, PARENTAL, 40, 4)]
    candidates.append(candidates[7])

    batch = _batch_objectives(asm, model)(candidates)
    assert batch.shape == (len(candidates), 3 if method.startswith("C-") else 2)
    rows = []
    for seq in candidates:
        mean, std = model.predict(_one_row_input(asm, seq))
        row = [mean[0], std[0]]
        if method.startswith("C-"):
            row.append(asm.providers.constraint.pseudo_likelihood(seq))
        rows.append(row)
    rows = np.array(rows)

    worst = np.max(np.abs(batch - rows), axis=0) / np.max(np.abs(rows), axis=0)
    print(f"{method}: worst |batch - row| / max |column| = {worst}")
    assert np.all(worst <= BATCH_TOL), worst
