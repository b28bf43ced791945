"""Exact computer algebra for elliptic-curve formal groups, level-1 modular
forms, and the 3-local descent chart with its -21-shifted duality.

Everything is computed over exact coefficient rings (Z, Q, Z/m, F_p, Z with
primes inverted or localized, quadratic extensions); no floating point
anywhere.  The modules:

- ``algebra``  -- coefficient rings, univariate polynomials, and the integer
  Smith normal form
- ``series``   -- truncated (multi)power series with exact precision tracking
- ``fgl``      -- formal group laws, heights, and regular-sequence checks
- ``weierstrass`` -- curves, invariants, curve formal groups, Hasse
  invariants, supersingular polynomials
- ``modforms`` -- the ring Z[c4, c6, Delta]/(c6^2 = c4^3 - 1728 Delta) with
  q-expansions
- ``chart``    -- the 3-local descent spectral sequence, homotopy-group
  presentations, duality pairing, and K(1)-local closed forms
- ``cli``      -- the ``tmfkit`` command-line front end
"""

from .algebra import (
    AlgebraError,
    InternalCheckError,
    NotDivisible,
    NotInvertible,
    ZZ,
    QQ,
    IntegersMod,
    PrimeField,
    LocalizedIntegers,
    QuadExtField,
    Poly,
    ring_from_json,
)
from .series import Series
from .fgl import (
    FormalGroupLaw,
    FGLInvalid,
    honda_fgl,
    height_profile,
    HeightProfile,
    check_homomorphism,
    GradedRingPresentation,
    landweber_regularity,
)
from .weierstrass import (
    WeierstrassCurve,
    formal_group,
    hasse_invariant,
    supersingular_polynomial,
    SupersingularReport,
)
from .modforms import (
    ModularForm,
    basis_monomials,
    dimension,
    q_expansion,
    j_q_expansion,
)
from .chart import (
    coh_mell,
    descent_ss,
    tmf_pi,
    tmf_pi_window,
    duality_check,
    lifts_to_homotopy,
    k1_sphere,
    k1_tmf_p2,
    render_chart_text,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraError", "InternalCheckError", "NotDivisible", "NotInvertible",
    "ZZ", "QQ", "IntegersMod", "PrimeField", "LocalizedIntegers",
    "QuadExtField", "Poly", "ring_from_json",
    "Series",
    "FormalGroupLaw", "FGLInvalid", "honda_fgl", "height_profile",
    "HeightProfile", "check_homomorphism",
    "GradedRingPresentation", "landweber_regularity",
    "WeierstrassCurve", "formal_group", "hasse_invariant",
    "supersingular_polynomial", "SupersingularReport",
    "ModularForm", "basis_monomials", "dimension",
    "q_expansion", "j_q_expansion",
    "coh_mell", "descent_ss", "tmf_pi", "tmf_pi_window",
    "duality_check", "lifts_to_homotopy", "k1_sphere", "k1_tmf_p2",
    "render_chart_text",
    "__version__",
]
