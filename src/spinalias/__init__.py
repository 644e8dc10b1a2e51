"""Sampling grids, aliasing analysis and aliased spectra for spin-weighted
fields on the sphere.
"""

__version__ = "0.1.0"

from .aliasing import (
    AliasClass,
    AliasEntry,
    AliasMap,
    enumerate_aliases,
    h_q,
    i_n,
    tau,
)
from .fieldsim import (
    BandlimitReport,
    FieldSamples,
    MonteCarloReport,
    SpinCoefficients,
    aliased_coefficient,
    aliased_eb,
    analyze,
    monte_carlo_spectrum,
    sample_gaussian_coeffs,
    synthesize,
    verify_bandlimit,
)
from .sampling import (
    SamplingGrid,
    SamplingScheme,
    build_grid_equiangular,
    build_grid_gauss,
    gauss_nodes,
)
from .special import (
    HarmonicIndex,
    spin_sph_harm,
    wigner_d,
)
from .spectrum import (
    AngularPowerSpectrum,
    XiFactors,
    aliased_spectrum,
    circular_covariance,
    xi_factors,
)

__all__ = [
    "__version__",
    "AliasClass",
    "AliasEntry",
    "AliasMap",
    "AngularPowerSpectrum",
    "BandlimitReport",
    "FieldSamples",
    "HarmonicIndex",
    "MonteCarloReport",
    "SamplingGrid",
    "SamplingScheme",
    "SpinCoefficients",
    "XiFactors",
    "aliased_coefficient",
    "aliased_eb",
    "aliased_spectrum",
    "analyze",
    "build_grid_equiangular",
    "build_grid_gauss",
    "circular_covariance",
    "enumerate_aliases",
    "gauss_nodes",
    "h_q",
    "i_n",
    "monte_carlo_spectrum",
    "sample_gaussian_coeffs",
    "spin_sph_harm",
    "synthesize",
    "tau",
    "verify_bandlimit",
    "wigner_d",
    "xi_factors",
]
