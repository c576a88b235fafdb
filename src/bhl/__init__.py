"""Singular values of Hankel operators on radially weighted Bergman spaces.

Numerical toolkit: moment tables for radial weights, exact banded Gram
matrices of polynomial Hankel symbols, singular-value extraction with
convergence checks, level-set rearrangement geometry, predicted
asymptotic laws, and a config-driven CLI (``bhl``).
"""

from .asymptotics import (
    AsymptoticLaw,
    fit_power_law,
    hardy_norm,
    laplace_moment_prediction,
    predict_explog,
    predict_standard,
    predict_symbol,
)
from .errors import (
    BhlError,
    ConfigError,
    CoveringError,
    DivergenceError,
    DoublingTestError,
    EigenResidualError,
    InsufficientMomentsError,
    LawMismatchError,
    LogConvexityError,
    NonConvergedError,
    QuadratureError,
    WeightDomainError,
    WindowError,
)
from .hankel import (
    BandedGram,
    PolynomialSymbol,
    dense_gram_oracle,
    hz_squared_sequence,
    polynomial_gram,
)
from .rearrangement import (
    Lattice,
    LevelField,
    MeasureResult,
    SymbolDerivative,
    besov_sum,
    bloch_norm,
    build_lattice,
    level_measure,
    rearrangement_plus,
    trace_integral,
)
from .spectrum import (
    SingularSpectrum,
    counting,
    psi_functionals,
    schatten_norm,
    singular_values,
    symmetric_eigenvalues,
)
from .weights import (
    MomentTable,
    RadialWeight,
    TauProfile,
    compute_moments,
    kernel_norm_sq,
    moment_closed_form_standard,
    tau,
    tau_profile,
)

__version__ = "0.1.0"
