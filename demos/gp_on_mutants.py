"""Fit Gaussian processes to scored antibody mutants and compare kernels.

Generates random mutants of a parental heavy-chain fragment, scores them with
the bundled synthetic affinity oracle, and fits two models: a Tanimoto kernel
on one-hot encodings, and the structure-aware Kermut kernel with a zero-shot
mean. Prints fitted hyperparameters and held-out accuracy for both.

Run with: python3 demos/gp_on_mutants.py
"""

import numpy as np

from abbo import (
    ConstantMean,
    Dataset,
    KermutKernel,
    KernelInputs,
    SyntheticOracle,
    TanimotoKernel,
    ZeroShotMean,
    fit_gp,
    mutate,
    one_hot_matrix,
    residue_indices,
    substitution_softmax_pssm,
    synthetic_structure_context,
)

PARENTAL = "EVQLVESGGGLVQPGGSLRLSCAASGFTFSSYAMSWVRQAPGK"


def random_mutants(rng, n, hot_sites):
    """Distinct mutants touching one or two of a handful of hot sites.

    Concentrating the edits keeps the dataset local enough for sequence
    kernels to interpolate, which is the regime the acquisition loop
    actually operates in.
    """
    seen, seqs = set(), []
    while len(seqs) < n:
        sites = rng.choice(hot_sites, size=rng.integers(1, 3), replace=False)
        seq = PARENTAL
        for site in sites:
            seq = mutate(seq, int(site), "ACDEFGHIKLMNPQRSTVWY"[rng.integers(20)])
        if seq != PARENTAL and seq not in seen:
            seen.add(seq)
            seqs.append(seq)
    return seqs


def to_inputs(seqs, onehot):
    """One batch: one-hot rows for the Tanimoto kernel, and the residue
    indices from which Kermut and the zero-shot mean read the mutations."""
    idx = residue_indices(seqs, len(PARENTAL))
    rows = onehot.table()[idx].reshape(len(seqs), -1)
    return KernelInputs({"onehot": rows}, idx, PARENTAL)


def main():
    rng = np.random.default_rng(5)
    oracle = SyntheticOracle(PARENTAL, kind="affinity", seed=5)
    onehot = one_hot_matrix()

    hot_sites = rng.choice(len(PARENTAL), size=6, replace=False)
    seqs = random_mutants(rng, 80, hot_sites)
    y = np.array([oracle.value(s) for s in seqs])
    inputs = to_inputs(seqs, onehot)
    train = Dataset(tuple(seqs[:60]), inputs[:60], y[:60])
    held_seqs, held_y = seqs[60:], y[60:]

    print(f"parental: {PARENTAL}")
    print(f"training on {len(train.y)} mutants, holding out {len(held_y)}\n")

    models = {
        "Tanimoto": fit_gp(train, TanimotoKernel("onehot"), ConstantMean(0.0), seed=1),
        "Kermut": fit_gp(
            train,
            KermutKernel(
                synthetic_structure_context(PARENTAL, seed=5),
                TanimotoKernel("onehot"),
            ),
            ZeroShotMean(np.log(substitution_softmax_pssm(PARENTAL))),
            seed=1,
        ),
    }

    held_inputs = to_inputs(held_seqs, onehot)
    for name, model in models.items():
        mean, std = model.predict(held_inputs)
        rmse = float(np.sqrt(np.mean((mean - held_y) ** 2)))
        cover = float(np.mean(np.abs(mean - held_y) <= 2.0 * std))
        print(f"{name} GP (log ML {model.log_ml:.2f})")
        for pname, value in model.kernel.params().items():
            print(f"  kernel.{pname} = {value:.4f}")
        print(f"  noise = {model.noise:.4f}")
        print(f"  held-out rmse {rmse:.3f}, 2-sigma coverage {cover:.0%}\n")


if __name__ == "__main__":
    main()
