"""Batch Bayesian optimization over antibody and protein variants.

The pieces compose bottom-up: sequence encodings feed kernels, kernels feed an
exact Gaussian process, a multi-objective GA proposes candidates against the
posterior, a Sharpe-ratio portfolio picks the batch, and the campaign module
wires the loop together behind named method configurations.
"""

from .acquisition import (
    PortfolioProblem,
    build_portfolio,
    default_reference_point,
    select_batch,
    soft_constrain,
    solve_sharpe,
)
from .campaign import (
    METHOD_REGISTRY,
    CampaignConfig,
    CampaignResult,
    FixtureOracle,
    MethodSpec,
    SyntheticOracle,
    registered_method_names,
    resolve_method,
    run_campaign,
    validate_campaign,
)
from .exceptions import ConfigError, FixtureError, NumericalError
from .features import (
    FeatureBundle,
    FixtureFeatureProvider,
    StructureContext,
    SyntheticFeatureProvider,
    kabsch_align,
    pairwise_distances,
    synthetic_structure_context,
)
from .gaopt import EvolveResult, GAConfig, crowding_distance, evolve, non_dominated_sort
from .gp import (
    ConstantMean,
    Dataset,
    GPModel,
    ZeroShotMean,
    fit_gp,
    log_marginal_likelihood,
    zero_shot_score,
)
from .kernels import (
    KermutKernel,
    Kernel,
    KernelInputs,
    Matern52Kernel,
    ProductKernel,
    SquaredExponentialKernel,
    SumKernel,
    TanimotoKernel,
    hellinger,
    kermut_params_from_original,
    kermut_params_to_original,
    matern52,
    tanimoto,
)
from .plm import PssmLikelihoodProvider, TableLikelihoodProvider, substitution_softmax_pssm
from .sequences import (
    ALPHABET,
    Mutation,
    MutationSet,
    blosum62_matrix,
    diff,
    encode,
    mutate,
    one_hot_matrix,
    residue_indices,
    validate_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # sequences
    "ALPHABET",
    "Mutation",
    "MutationSet",
    "validate_sequence",
    "residue_indices",
    "diff",
    "mutate",
    "encode",
    "one_hot_matrix",
    "blosum62_matrix",
    # features
    "FeatureBundle",
    "StructureContext",
    "SyntheticFeatureProvider",
    "FixtureFeatureProvider",
    "synthetic_structure_context",
    "kabsch_align",
    "pairwise_distances",
    # kernels
    "Kernel",
    "KernelInputs",
    "TanimotoKernel",
    "Matern52Kernel",
    "SquaredExponentialKernel",
    "SumKernel",
    "ProductKernel",
    "KermutKernel",
    "tanimoto",
    "matern52",
    "hellinger",
    "kermut_params_to_original",
    "kermut_params_from_original",
    # gp
    "Dataset",
    "GPModel",
    "ConstantMean",
    "ZeroShotMean",
    "fit_gp",
    "log_marginal_likelihood",
    "zero_shot_score",
    # plm
    "PssmLikelihoodProvider",
    "TableLikelihoodProvider",
    "substitution_softmax_pssm",
    # acquisition
    "PortfolioProblem",
    "build_portfolio",
    "solve_sharpe",
    "select_batch",
    "soft_constrain",
    "default_reference_point",
    # ga
    "GAConfig",
    "EvolveResult",
    "evolve",
    "non_dominated_sort",
    "crowding_distance",
    # campaign
    "MethodSpec",
    "METHOD_REGISTRY",
    "resolve_method",
    "registered_method_names",
    "SyntheticOracle",
    "FixtureOracle",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "validate_campaign",
    # errors
    "ConfigError",
    "FixtureError",
    "NumericalError",
]
