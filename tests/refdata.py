"""Frozen reference data for the test suite.

Every number here was produced by an independent computation (brute-force
summation, exact rational arithmetic, or an unrelated multiprecision
library) and is frozen as text; see the individual comments.  The JSON/text
files under ``data/`` carry the published coefficient tables, the published
convergence-table rows, and the golden listing blocks.
"""

from __future__ import annotations

import json
from decimal import Decimal
from pathlib import Path

DATA = Path(__file__).parent / "data"

#: pi to 70 digits, for the sqrt(pi) factor of the regularized sums.
PI_70 = Decimal(
    "3.141592653589793238462643383279502884197169399375105820974944592307816"
)

#: Values of the underlying functions at the spot-check arguments, from an
#: independent multiprecision evaluation (40 digits).
TRUE_VALUES = {
    ("J", 0, "3"): Decimal("-0.2600519549019334376241546959773314368196"),
    ("J", 0, "8"): Decimal("0.1716508071375539060908694078519720010684"),
    ("J", 1, "3"): Decimal("0.3390589585259364589255145972064788969731"),
    ("J", 1, "8"): Decimal("0.2346363468539146243812766515904546115488"),
    ("I", 0, "15/4"): Decimal("9.118945860844566690670997606600087426155"),
    ("I", 1, "15/4"): Decimal("7.780015229824415864988676277516113103259"),
    ("I", 0, "8"): Decimal("427.5641157218047851773967913180828851256"),
    ("I", 1, "8"): Decimal("399.8731367825600982190830861458227548896"),
    ("I", 0, "3"): Decimal("4.880792585865024085611235546021319249424"),
}

#: 2F3(1/2,1; 3/2,1,1; -1/4) from 200-term brute-force summation (no
#: recurrence), 60 digits.
BRUTE_2F3 = Decimal(
    "0.919730410089760239314421194080619970661964806512577015193785"
)

#: Regularized 2F3~(1/2,1; 3/2,0,2; -1/4) -- a vanishing lower parameter --
#: from 100-term brute-force summation with explicit zero-skipping.
BRUTE_2F3_REG_ZERO = Decimal(
    "-0.0447168072439768342296132295884350661411920864797383339666872"
)

#: Published reciprocal prime-power exponents of the even-order power series
#: (x^2 .. x^42); verified exactly against 2^m j! (j+N)! factorizations.
J0_EXPONENTS = {
    2: {2: 2}, 4: {2: 6}, 6: {2: 8, 3: 2}, 8: {2: 14, 3: 2},
    10: {2: 16, 3: 2, 5: 2}, 12: {2: 20, 3: 4, 5: 2},
    14: {2: 22, 3: 4, 5: 2, 7: 2}, 16: {2: 30, 3: 4, 5: 2, 7: 2},
    18: {2: 32, 3: 8, 5: 2, 7: 2}, 20: {2: 36, 3: 8, 5: 4, 7: 2},
    22: {2: 38, 3: 8, 5: 4, 7: 2, 11: 2}, 24: {2: 44, 3: 10, 5: 4, 7: 2, 11: 2},
    26: {2: 46, 3: 10, 5: 4, 7: 2, 11: 2, 13: 2},
    28: {2: 50, 3: 10, 5: 4, 7: 4, 11: 2, 13: 2},
    30: {2: 52, 3: 12, 5: 6, 7: 4, 11: 2, 13: 2},
    32: {2: 62, 3: 12, 5: 6, 7: 4, 11: 2, 13: 2},
    34: {2: 64, 3: 12, 5: 6, 7: 4, 11: 2, 13: 2, 17: 2},
    36: {2: 68, 3: 16, 5: 6, 7: 4, 11: 2, 13: 2, 17: 2},
    38: {2: 70, 3: 16, 5: 6, 7: 4, 11: 2, 13: 2, 17: 2, 19: 2},
    40: {2: 76, 3: 16, 5: 8, 7: 4, 11: 2, 13: 2, 17: 2, 19: 2},
    42: {2: 78, 3: 18, 5: 8, 7: 6, 11: 2, 13: 2, 17: 2, 19: 2},
}

#: Same for the odd-order series (x^1 .. x^43).
J1_EXPONENTS = {
    1: {2: 1}, 3: {2: 4}, 5: {2: 7, 3: 1}, 7: {2: 11, 3: 2},
    9: {2: 15, 3: 2, 5: 1}, 11: {2: 18, 3: 3, 5: 2},
    13: {2: 21, 3: 4, 5: 2, 7: 1}, 15: {2: 26, 3: 4, 5: 2, 7: 2},
    17: {2: 31, 3: 6, 5: 2, 7: 2}, 19: {2: 34, 3: 8, 5: 3, 7: 2},
    21: {2: 37, 3: 8, 5: 4, 7: 2, 11: 1}, 23: {2: 41, 3: 9, 5: 4, 7: 2, 11: 2},
    25: {2: 45, 3: 10, 5: 4, 7: 2, 11: 2, 13: 1},
    27: {2: 48, 3: 10, 5: 4, 7: 3, 11: 2, 13: 2},
    29: {2: 51, 3: 11, 5: 5, 7: 4, 11: 2, 13: 2},
    31: {2: 57, 3: 12, 5: 6, 7: 4, 11: 2, 13: 2},
    33: {2: 63, 3: 12, 5: 6, 7: 4, 11: 2, 13: 2, 17: 1},
    35: {2: 66, 3: 14, 5: 6, 7: 4, 11: 2, 13: 2, 17: 2},
    37: {2: 69, 3: 16, 5: 6, 7: 4, 11: 2, 13: 2, 17: 2, 19: 1},
    39: {2: 73, 3: 16, 5: 7, 7: 4, 11: 2, 13: 2, 17: 2, 19: 2},
    41: {2: 77, 3: 17, 5: 8, 7: 5, 11: 2, 13: 2, 17: 2, 19: 2},
    43: {2: 80, 3: 18, 5: 8, 7: 6, 11: 3, 13: 2, 17: 2, 19: 2},
}


def coeff_tables() -> dict[str, list[tuple[int, str]]]:
    """The four published coefficient tables (values as printed, 34 digits)."""
    raw = json.loads((DATA / "coeff_tables.json").read_text())
    return {k: [(L, s) for L, s in v] for k, v in raw.items()}


def table1_rows() -> list[str]:
    return (DATA / "table1_rows.txt").read_text().split()


def golden(name: str) -> str:
    return (DATA / name).read_text().rstrip("\n")


def ulp_of(text: str) -> Decimal:
    """One unit in the last printed digit of a decimal string."""
    d = Decimal(text)
    ndigits = len(d.as_tuple().digits)
    return Decimal(1).scaleb(d.adjusted() - ndigits + 1)
