"""The correctness gates and the fixed tolerances are module constants, not caller options."""

import numpy as np
import pytest

from bhl import asymptotics, rearrangement, spectrum, weights
from bhl.asymptotics import hardy_norm
from bhl.hankel import PolynomialSymbol, polynomial_gram
from bhl.rearrangement import SymbolDerivative, level_measure, rearrangement_plus, trace_integral
from bhl.spectrum import singular_values, symmetric_eigenvalues
from bhl.weights import RadialWeight, TauProfile, kernel_norm_sq, tau, tau_profile


def test_gates_are_module_constants(std0):
    assert spectrum._EIG_TOL == 1e-10
    assert weights._TAIL_TOL == 1e-12
    assert rearrangement._MAX_LEVEL == 5
    # the bhl spectrum footer still records the certificate's tolerance
    G = polynomial_gram(std0, PolynomialSymbol([1.0, 0.5]), 40)
    assert singular_values(G).source["eig_tol"] == 1e-10


def test_tolerances_are_module_constants(std0):
    assert rearrangement._REFINE_TOL == 1e-4
    assert spectrum._DOUBLING_TOL == 1e-6
    assert asymptotics._CE_REL_TOL == 1e-6
    # the spectrum's source still records the doubling tolerance
    G = polynomial_gram(std0, PolynomialSymbol([1.0, 0.5]), 40)
    assert singular_values(G).source["doubling_rel_tol"] == 1e-6


def test_removed_gate_keywords_are_refused(std0):
    w, G = RadialWeight.standard(0.0), polynomial_gram(std0, PolynomialSymbol([1.0, 0.5]), 40)
    prof, deriv = TauProfile.standard(0.0), SymbolDerivative.polynomial([1.0, 0.6])
    for call in (
        lambda: symmetric_eigenvalues(G, tol=1e-10),
        lambda: singular_values(G, eig_tol=1e-10),
        lambda: kernel_norm_sq(std0, 0.5, tail_tol=1e-12),
        lambda: tau(w, std0, 0.5, tail_tol=1e-12),
        lambda: tau_profile(w, std0, tail_tol=1e-12),
        lambda: level_measure(prof, deriv, 0.5, 0.99, max_level=5),
        lambda: trace_integral(prof, deriv, lambda x: np.asarray(x) ** 2, 0.99, max_level=5),
    ):
        with pytest.raises(TypeError, match="unexpected keyword"):
            call()
    assert not rearrangement._FAMILY.families


def test_removed_tolerance_keywords_are_refused(std0):
    G = polynomial_gram(std0, PolynomialSymbol([1.0, 0.5]), 40)
    prof, deriv = TauProfile.standard(0.0), SymbolDerivative.polynomial([1.0, 0.6])
    for call in (
        lambda: level_measure(prof, deriv, 0.5, 0.99, rel_tol=1e-4),
        lambda: rearrangement_plus(prof, deriv, 1.0, 0.99, rel_tol=1e-4),
        lambda: trace_integral(prof, deriv, lambda x: np.asarray(x) ** 2, 0.99, rel_tol=1e-4),
        lambda: hardy_norm(SymbolDerivative.ce_family(3.0), 1.0, rel_tol=1e-6),
        lambda: singular_values(G, doubling_rel_tol=1e-6),
    ):
        with pytest.raises(TypeError, match="unexpected keyword"):
            call()
    assert not rearrangement._FAMILY.families
