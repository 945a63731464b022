"""Strong-converse toolkit: Renyi divergences, Hoeffding anti-divergences,
and finite-size Neyman-Pearson exponents for i.i.d. and correlated families.

The package is organized in layers.  ``operators`` holds the dense Hermitian
primitives everything else consumes; ``renyi`` computes the two divergence
families and their order-1 limits; ``hoeffding`` turns sampled rate functions
into anti-divergence values via Legendre machinery; ``families`` builds the
state sequences (i.i.d., classical Markov, Gibbs chains, quasi-free fermions)
and their asymptotic rates; ``quasifree`` is the single-particle fast path;
``hyptest`` runs the finite-size error-exponent engines; ``ldp`` checks large
deviation upper and lower bounds on weighted sample sequences; ``verify``
bundles cross-module invariants; ``cli`` exposes everything as subcommands.
"""

from .families import (
    GibbsPayload,
    GibbsPairPayload,
    IIDPayload,
    MarkovPayload,
    asymptotic_rate,
    family_from_json,
    family_states,
    gibbs_rate,
    iid_rate,
    markov_psi_n,
    markov_rate,
    markov_relent_rate,
)
from .hoeffding import ConvexRate, HoeffdingResult, hoeffding_anti, polar, polar_detail
from .hyptest import (
    ErrorPair,
    ExponentReport,
    default_a_grid,
    error_pair,
    exponent_sweep,
    fit_rate,
    np_test,
    pinched_np_test,
    sc_report,
)
from .ldp import (
    GELowerVerdict,
    RateCurve,
    WeightedSampleSequence,
    binomial_sequence,
    build_rate_curve,
    chernoff_upper,
    exact_tail_rate,
    gartner_ellis_lower_check,
    lambda_bar,
    pinched_pair_sequence,
)
from .operators import HermitianOperator, StatePair, Test, pinch, tensor_power
from .quasifree import (
    QuasiFreePayload,
    TrigPolySymbol,
    fock_density,
    quasifree_block_symbol,
    quasifree_psi_singleparticle,
    quasifree_rate,
    szego_limit,
)
from .renyi import (
    max_relative_entropy,
    psi,
    psi_curve,
    psi_derivative,
    relative_entropy,
    renyi_divergence,
)
from .verify import CheckResult, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "HermitianOperator",
    "StatePair",
    "Test",
    "pinch",
    "tensor_power",
    "psi",
    "psi_curve",
    "psi_derivative",
    "renyi_divergence",
    "relative_entropy",
    "max_relative_entropy",
    "ConvexRate",
    "HoeffdingResult",
    "hoeffding_anti",
    "polar",
    "polar_detail",
    "IIDPayload",
    "MarkovPayload",
    "GibbsPayload",
    "GibbsPairPayload",
    "QuasiFreePayload",
    "TrigPolySymbol",
    "family_states",
    "family_from_json",
    "asymptotic_rate",
    "iid_rate",
    "markov_rate",
    "markov_relent_rate",
    "markov_psi_n",
    "gibbs_rate",
    "quasifree_block_symbol",
    "quasifree_psi_singleparticle",
    "quasifree_rate",
    "szego_limit",
    "fock_density",
    "ErrorPair",
    "ExponentReport",
    "np_test",
    "pinched_np_test",
    "error_pair",
    "fit_rate",
    "default_a_grid",
    "exponent_sweep",
    "sc_report",
    "WeightedSampleSequence",
    "RateCurve",
    "GELowerVerdict",
    "binomial_sequence",
    "pinched_pair_sequence",
    "build_rate_curve",
    "lambda_bar",
    "chernoff_upper",
    "exact_tail_rate",
    "gartner_ellis_lower_check",
    "CheckResult",
    "run_all_checks",
]
