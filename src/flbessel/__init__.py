"""High-precision Legendre-basis expansions of Bessel functions.

The package computes the coefficients of J_N(kx) and I_N(kx) expanded over
Legendre polynomials from hypergeometric closed forms, converts the
expansions to ordinary power series, certifies that the power-series
coefficients have inverse-prime-power structure, and numerically verifies
the summed-series identities the expansion gives rise to.  Everything is
exact rational arithmetic up to a single final rounding, so results are
deterministic to the last displayed digit.
"""

from .mpnum import BigReal, PrimePowers, pochhammer
from .hypergeom import (
    LowerParamPole,
    TermCapExceeded,
    plain_sum_rational,
    regularized_sum_rational,
)
from .legendre import LegendreMonomials, monomials
from .series import (
    AccuracyReport,
    DigitsExceedPrecision,
    FLSeries,
    TruncationCapExceeded,
    accuracy_scan,
    build_series,
    coeff_a,
    coeff_a_modified,
    eval_allen,
    eval_series,
    maclaurin_ref,
)
from .powerprime import (
    FactorEntry,
    FactorReport,
    PowerSeries,
    certify_prime_structure,
    maclaurin_exact,
    to_power_series,
)
from .sumverify import (
    SumSpec,
    VariantMismatch,
    VerifyReport,
    partial_sums_rational,
    verify_identity,
)
from .emit import (
    EmitTarget,
    UncertifiedFactorization,
    emit_json,
    emit_legendre_code,
    emit_power_code,
    parse_json,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "BigReal",
    "DigitsExceedPrecision",
    "EmitTarget",
    "FLSeries",
    "FactorEntry",
    "FactorReport",
    "LegendreMonomials",
    "LowerParamPole",
    "PowerSeries",
    "PrimePowers",
    "SumSpec",
    "TermCapExceeded",
    "TruncationCapExceeded",
    "UncertifiedFactorization",
    "VariantMismatch",
    "VerifyReport",
    "accuracy_scan",
    "build_series",
    "certify_prime_structure",
    "coeff_a",
    "coeff_a_modified",
    "emit_json",
    "emit_legendre_code",
    "emit_power_code",
    "eval_allen",
    "eval_series",
    "maclaurin_exact",
    "maclaurin_ref",
    "monomials",
    "parse_json",
    "partial_sums_rational",
    "plain_sum_rational",
    "pochhammer",
    "regularized_sum_rational",
    "to_power_series",
    "verify_identity",
]
