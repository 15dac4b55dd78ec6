"""Correctness checks on one campaign output, computed apart from the program.

The program supplies only inputs here: the synthetic oracle, the PSSM, the
structure context and the feature vectors of a workload. Gram matrices, prior
means, log marginal likelihoods, posteriors and pseudo-likelihoods are written
out again below with plain dense algebra (`slogdet`, `solve`) and evaluated at
the hyperparameters the run reported. Nothing is compared with a stored copy of
an earlier output.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

ALPHABET = "ACDEFGHIKLMNPQRSTVWY"
AA = {aa: i for i, aa in enumerate(ALPHABET)}
PROB_FLOOR = 1e-12
LOG_2PI = float(np.log(2.0 * np.pi))

# Tolerances, set from the largest differences seen on the three workloads
# (README.md) with a wide margin. The program factorises with Cholesky and may
# add diagonal jitter; the checks use LU-based `slogdet`/`solve` and none. The
# log ML one is the loosest: the program's Matern Gram takes distances from
# |a|^2 + |b|^2 - 2ab, which leaves its diagonal off by up to ~3e-5 at the
# smallest lengthscale, and moved one log ML of an `IgFold-ESM-M` campaign by 4.5e-6.
LOG_ML_TOL = 1e-4  # relative to max(1, |log ML|)
POSTERIOR_MEAN_TOL = 1e-6  # relative to max(1, |mean|)
POSTERIOR_VAR_TOL = 1e-6  # relative to the prior variance of the point
LABEL_TOL = 1e-9  # relative to max(1, |label|)
LIKELIHOOD_TOL = 1e-10  # relative


# ---------------------------------------------------------------------------
# dense reference surrogates


def _hamming(a: list[str], b: list[str]) -> np.ndarray:
    ca = np.array([list(s) for s in a])
    cb = np.array([list(s) for s in b])
    return (ca[:, None, :] != cb[None, :, :]).sum(axis=-1)


def tanimoto_onehot(a: list[str], b: list[str]) -> np.ndarray:
    """Tanimoto similarity of one-hot encodings: (L - d) / (L + d) at Hamming distance d."""
    length = len(a[0])
    d = _hamming(a, b)
    return (length - d) / (length + d)


def tanimoto(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Tanimoto similarity of real vectors: <a, b> / (|a|^2 + |b|^2 - <a, b>)."""
    inner = xa @ xb.T
    return inner / ((xa * xa).sum(axis=1)[:, None] + (xb * xb).sum(axis=1)[None, :] - inner)


def matern52(xa: np.ndarray, xb: np.ndarray, variance: float, lengthscale: float) -> np.ndarray:
    r = np.sqrt(((xa[:, None, :] - xb[None, :, :]) ** 2).sum(axis=-1))
    s = np.sqrt(5.0) * r / lengthscale
    return variance * (1.0 + s + s * s / 3.0) * np.exp(-s)


class Surrogate:
    """One method's GP prior: kernel(a, b, hyper) and mean(seqs, hyper)."""

    def __init__(self, kernel, mean):
        self.kernel = kernel
        self.mean = mean


def _constant_mean(seqs, h):
    return np.full(len(seqs), h["mean.beta"])


def surrogate_for(method: str, parental: str, seed: int) -> Surrogate:
    """Dense reference of the workload methods; the `C-` prefix does not change the prior."""
    base = method[2:] if method.startswith("C-") else method
    if base == "OneHot-T":
        return Surrogate(
            lambda a, b, h: h["kernel.variance"] * tanimoto_onehot(a, b), _constant_mean
        )
    if base == "IgFold-BLO-T":
        from abbo.features import SyntheticFeatureProvider
        from abbo.sequences import blosum62_matrix

        provider = SyntheticFeatureProvider(parental, seed=seed, embedding_dim=64)
        blosum = blosum62_matrix()

        def coords(seqs):
            return np.array([provider.features(s).coords for s in seqs])

        def rows(seqs):
            return np.array([np.concatenate([blosum.row(c) for c in s]) for s in seqs])

        return Surrogate(
            lambda a, b, h: matern52(
                coords(a), coords(b), h["kernel.coords.variance"], h["kernel.coords.lengthscale"]
            )
            + h["kernel.seq.variance"] * tanimoto(rows(a), rows(b)),
            _constant_mean,
        )
    if base == "Kermut-T":
        from abbo.features import synthetic_structure_context
        from abbo.plm import substitution_softmax_pssm

        context = synthetic_structure_context(parental, seed=seed)
        log_p = np.log(np.maximum(substitution_softmax_pssm(parental), PROB_FLOOR))
        return Surrogate(
            lambda a, b, h: kermut(a, b, parental, context.site_probs, context.distances, h),
            lambda seqs, h: h["mean.alpha"] * zero_shot(seqs, parental, log_p) + h["mean.beta"],
        )
    raise ValueError(f"no dense reference for method {method!r}")


def zero_shot(seqs: list[str], parental: str, log_p: np.ndarray) -> np.ndarray:
    """Sum over mutated sites of log p(new residue) - log p(parental residue)."""
    return np.array(
        [
            sum(
                log_p[i, AA[c]] - log_p[i, AA[p]]
                for i, (p, c) in enumerate(zip(parental, s))
                if p != c
            )
            for s in seqs
        ]
    )


def kermut(a, b, parental, site_probs, distances, h) -> np.ndarray:
    """variance * (mix * structural sum + (1 - mix) * seq.variance * one-hot Tanimoto)."""
    root = np.sqrt(site_probs)
    hellinger = np.sqrt(0.5 * ((root[:, None, :] - root[None, :, :]) ** 2).sum(axis=-1))

    def entries(seqs):
        rows = [
            (k, i, site_probs[i, AA[c]])
            for k, s in enumerate(seqs)
            for i, (p, c) in enumerate(zip(parental, s))
            if p != c
        ]
        owner, site, prob = (np.array(col) for col in zip(*rows)) if rows else ([],) * 3
        return np.asarray(owner, int), np.asarray(site, int), np.asarray(prob, float)

    oa, sa, pa = entries(a)
    ob, sb, pb = entries(b)
    t = np.exp(
        -h["kernel.gamma_h"] * hellinger[np.ix_(sa, sb)]
        - h["kernel.gamma_p"] * np.abs(pa[:, None] - pb[None, :])
        - h["kernel.gamma_d"] * distances[np.ix_(sa, sb)]
    )
    struct = np.zeros((len(a), len(b)))
    np.add.at(struct, (oa[:, None], ob[None, :]), t)
    seq = h["kernel.seq.variance"] * tanimoto_onehot(a, b)
    mix = h["kernel.mix"]
    return h["kernel.variance"] * (mix * struct + (1.0 - mix) * seq)


# ---------------------------------------------------------------------------
# reading an output


def initial_labels(out: dict, init: int) -> tuple[list[str], list[float]]:
    seqs = [seq for seq, _ in out["labels"][:init]]
    return seqs, [y for _, y in out["labels"][:init]]


def training_set(out: dict, init: int, round_index: int) -> tuple[list[str], np.ndarray]:
    """Sequences and labels the fit of `round_index` saw: the initial sample and
    the kept candidates of every earlier round."""
    seqs, ys = initial_labels(out, init)
    for rec in out["rounds"][1:round_index]:
        for a in rec["acquired"]:
            if not a["dropped"]:
                seqs.append(a["sequence"])
                ys.append(a["oracle_value"])
    return seqs, np.array(ys, dtype=float)


def fingerprint(out: dict) -> str:
    """Hash of the best-so-far series and the acquired sequences of every round."""
    payload = {
        "best_so_far": [rec["best_so_far"] for rec in out["rounds"]],
        "acquired": [[a["sequence"] for a in rec["acquired"]] for rec in out["rounds"]],
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# checks


def check_bookkeeping(out: dict, wl, parental: str) -> list[str]:
    """Dataset sizes, batch make-up, attrition and the best-so-far series."""
    problems = []
    rounds = out["rounds"]
    if len(rounds) != wl.rounds + 1:
        return [f"{len(rounds)} round records, expected {wl.rounds + 1}"]
    seen, ys = initial_labels(out, wl.init)
    if len(set(seen)) != wl.init:
        problems.append(f"initial sample has {len(set(seen))} distinct sequences, not {wl.init}")
    seen = set(seen)
    best_expected = max(ys)
    for k, rec in enumerate(rounds):
        want = wl.init + wl.kept * k
        if rec["n_data"] != want:
            problems.append(f"round {k}: n_data {rec['n_data']} != init + kept * round = {want}")
        if k > 0:
            acquired = rec["acquired"]
            batch = [a["sequence"] for a in acquired]
            if len(batch) != wl.batch or len(set(batch)) != wl.batch:
                problems.append(
                    f"round {k}: {len(set(batch))} distinct of {len(batch)} acquired, "
                    f"expected {wl.batch}"
                )
            bad = [s for s in batch if len(s) != len(parental) or set(s) - set(ALPHABET)]
            if bad:
                problems.append(f"round {k}: {len(bad)} acquired sequences are not valid variants")
            old = seen.intersection(batch)
            if old:
                problems.append(f"round {k}: {len(old)} acquired sequences were already labelled")
            dropped = [a for a in acquired if a["dropped"]]
            if len(dropped) != wl.drop:
                problems.append(f"round {k}: {len(dropped)} dropped, expected {wl.drop}")
            if any((a["oracle_value"] is None) != a["dropped"] for a in acquired):
                problems.append(f"round {k}: a label is missing on a kept or present on a dropped")
            kept = [a for a in acquired if not a["dropped"] and a["oracle_value"] is not None]
            seen.update(a["sequence"] for a in kept)
            best_expected = max([best_expected] + [a["oracle_value"] for a in kept])
        if rec["best_so_far"] != best_expected:
            problems.append(
                f"round {k}: best_so_far {rec['best_so_far']!r} != max label seen {best_expected!r}"
            )
    series = [rec["best_so_far"] for rec in rounds]
    if any(b < a for a, b in zip(series, series[1:])):
        problems.append(f"best_so_far decreases: {series}")
    if not series[-1] > series[0]:
        problems.append(f"best_so_far ends at {series[-1]!r}, not above round 0 ({series[0]!r})")
    return problems


def check_labels(out: dict, wl, oracle) -> list[str]:
    """The oracle was asked for the initial sample and then exactly the kept
    candidates, and every label matches a fresh oracle of the same seed."""
    problems = []
    expected = [seq for seq, _ in out["labels"][: wl.init]]
    reported = {}
    for rec in out["rounds"][1:]:
        for a in rec["acquired"]:
            if not a["dropped"]:
                expected.append(a["sequence"])
                reported[a["sequence"]] = a["oracle_value"]
    asked = [seq for seq, _ in out["labels"]]
    if asked != expected:
        problems.append(
            f"oracle asked for {len(asked)} sequences, not the {len(expected)} "
            "initial and kept ones in round order"
        )
    for seq, y in out["labels"]:
        fresh = oracle.value(seq)
        if seq in reported and reported[seq] != y:
            problems.append(f"acquired label {reported[seq]!r} != oracle answer {y!r}")
        if abs(fresh - y) > LABEL_TOL * max(1.0, abs(fresh)):
            problems.append(f"label {y!r} != fresh oracle value {fresh!r}")
    return problems


def dense_posterior(model: Surrogate, h: dict, x: list[str], y: np.ndarray, q: list[str]):
    """log ML of (x, y) and posterior mean and variance at q, by slogdet and solve."""
    a = model.kernel(x, x, h) + h["noise.variance"] * np.eye(len(x))
    res = y - model.mean(x, h)
    sign, log_det = np.linalg.slogdet(a)
    alpha = np.linalg.solve(a, res)
    log_ml = -0.5 * float(res @ alpha) - 0.5 * log_det - 0.5 * len(x) * LOG_2PI
    if sign <= 0:
        log_ml = float("nan")
    k_xq = model.kernel(x, q, h)
    mean = model.mean(q, h) + k_xq.T @ alpha
    prior_var = np.diag(model.kernel(q, q, h))
    var = prior_var - np.einsum("ij,ij->j", k_xq, np.linalg.solve(a, k_xq))
    return log_ml, mean, var, prior_var


def check_gp(out: dict, wl, model: Surrogate) -> tuple[list[str], list[str], dict]:
    """Every round's log ML and the acquired candidates' posterior mean and std.

    Returns the problems of the fit check, those of the posterior check, and
    the largest relative differences seen.
    """
    fit, posterior = [], []
    worst = {"log_ml": 0.0, "mean": 0.0, "var": 0.0}
    for k, rec in enumerate(out["rounds"][1:], start=1):
        h = rec["hyperparameters"]
        x, y = training_set(out, wl.init, k)
        q = [a["sequence"] for a in rec["acquired"]]
        log_ml, mean, var, prior_var = dense_posterior(model, h, x, y, q)
        err = abs(log_ml - rec["log_ml"]) / max(1.0, abs(log_ml))
        worst["log_ml"] = max(worst["log_ml"], err)
        if not err <= LOG_ML_TOL:
            fit.append(f"round {k}: log ML {rec['log_ml']!r} != dense {log_ml!r}")
        got_mean = np.array([a["mean"] for a in rec["acquired"]], dtype=float)
        got_var = np.array([a["std"] for a in rec["acquired"]], dtype=float) ** 2
        mean_err = np.abs(got_mean - mean) / np.maximum(1.0, np.abs(mean))
        var_err = np.abs(got_var - np.maximum(var, 0.0)) / prior_var
        worst["mean"] = max(worst["mean"], float(np.max(mean_err)))
        worst["var"] = max(worst["var"], float(np.max(var_err)))
        if not np.all(mean_err <= POSTERIOR_MEAN_TOL):
            posterior.append(f"round {k}: {int(np.sum(~(mean_err <= POSTERIOR_MEAN_TOL)))} "
                             f"posterior means differ from dense, worst {np.max(mean_err):.3g}")
        if not np.all(var_err <= POSTERIOR_VAR_TOL):
            posterior.append(f"round {k}: {int(np.sum(~(var_err <= POSTERIOR_VAR_TOL)))} "
                             f"posterior stds differ from dense, worst {np.max(var_err):.3g}")
    return fit, posterior, worst


def check_soft_constraint(out: dict, pssm: np.ndarray) -> list[str]:
    """Each acquired likelihood is the geometric mean of its PSSM probabilities,
    and each round's batch mean is their mean."""
    problems = []
    sites = np.arange(pssm.shape[0])
    for k, rec in enumerate(out["rounds"][1:], start=1):
        got = []
        for a in rec["acquired"]:
            p = pssm[sites, [AA[c] for c in a["sequence"]]]
            want = float(np.exp(np.mean(np.log(np.maximum(p, PROB_FLOOR)))))
            got.append(a["likelihood"])
            if not abs(a["likelihood"] - want) <= LIKELIHOOD_TOL * want:
                problems.append(f"round {k}: likelihood {a['likelihood']!r} != geometric mean {want!r}")
        mean = float(np.mean(got))
        if not abs(rec["batch_mean_likelihood"] - mean) <= LIKELIHOOD_TOL * mean:
            problems.append(f"round {k}: batch mean likelihood {rec['batch_mean_likelihood']!r} != {mean!r}")
    return problems


def _guarded(check, *args):
    """A check's problems; an output too malformed to check is a problem too."""
    try:
        return check(*args)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return [f"output could not be checked: {type(err).__name__}: {err}"]


def check_all(out: dict, wl, parental: str, seed: int) -> tuple[dict[str, list[str]], dict]:
    """Run every check on one output.

    Returns {check name: problems} and the largest relative differences of the
    dense recomputation (see `check_gp`).
    """
    from abbo.campaign import SyntheticOracle
    from abbo.plm import substitution_softmax_pssm

    kind = wl.oracle.removeprefix("synthetic-")
    model = surrogate_for(wl.method, parental, seed)
    gp = _guarded(lambda: check_gp(out, wl, model))
    fit, posterior, worst = gp if isinstance(gp, tuple) else (gp, gp, {})
    problems = {
        "bookkeeping": _guarded(check_bookkeeping, out, wl, parental),
        "labels": _guarded(check_labels, out, wl, SyntheticOracle(parental, kind=kind, seed=seed)),
        "gp_fit": fit,
        "posterior": posterior,
        "soft_constraint": _guarded(
            check_soft_constraint, out, substitution_softmax_pssm(parental)
        ),
    }
    return problems, worst
