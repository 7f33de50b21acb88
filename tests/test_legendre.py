"""Legendre polynomials: exactness, orthogonality, alternate evaluation."""

from __future__ import annotations

import random
import sys
import traceback
from fractions import Fraction

import pytest

from flbessel import legendre
from flbessel.legendre import monomials
from oracles import (
    eval_P_rational,
    eval_P_via_2f1,
    leading_coefficient,
    monomial_coefficient,
)

F = Fraction


def test_monomials_published_low_degrees():
    assert monomials(1).coeffs == (F(0), F(1))
    assert monomials(2).coeffs == (F(-1, 2), F(0), F(3, 2))
    assert monomials(4).coeffs == (F(3, 8), F(0), F(-30, 8), F(0), F(35, 8))
    assert monomials(6).coeffs == (
        F(-5, 16), F(0), F(105, 16), F(0), F(-315, 16), F(0), F(231, 16),
    )


@pytest.mark.parametrize("L", list(range(0, 61)))
def test_monomials_structure(L):
    coeffs = monomials(L).coeffs
    assert len(coeffs) == L + 1
    # parity: opposite-parity slots vanish
    assert all(c == 0 for m, c in enumerate(coeffs) if (m - L) % 2)
    # P_L(1) = 1
    assert sum(coeffs) == 1
    # closed-form leading coefficient
    assert coeffs[L] == leading_coefficient(L)


def test_eval_examples():
    assert eval_P_rational(0, F(7, 3)) == 1
    assert eval_P_rational(6, F(1)) == 1
    assert eval_P_rational(4, F(1, 2)) == F(-37, 128)
    assert eval_P_rational(2, F(1, 4)) == F(3, 2) * F(1, 16) - F(1, 2)


def test_eval_matches_monomials_exactly():
    rng = random.Random(5)
    for L in range(0, 61):
        x = F(rng.randint(-300, 300), rng.randint(1, 100))
        direct = sum(c * x**m for m, c in enumerate(monomials(L).coeffs))
        assert eval_P_rational(L, x) == direct


def test_orthogonality_exact_to_30():
    moments = [F(2, m + 1) if m % 2 == 0 else F(0) for m in range(62)]
    for L in range(31):
        cl = monomials(L).coeffs
        for Lp in range(L % 2, L + 1, 2):  # opposite parity vanishes trivially
            cp = monomials(Lp).coeffs
            integral = sum(
                ci * cj * moments[i + j]
                for i, ci in enumerate(cl) if ci
                for j, cj in enumerate(cp) if cj
            )
            want = F(2, 2 * L + 1) if L == Lp else F(0)
            assert integral == want, (L, Lp)


def test_inverse_argument_form_examples():
    assert eval_P_via_2f1(2, F(1)) == 1
    assert eval_P_via_2f1(4, F(1, 2)) == F(-37, 128)
    assert eval_P_via_2f1(3, F(2)) == 17


def test_inverse_argument_form_matches_recurrence():
    rng = random.Random(99)
    for L in range(0, 41):
        x = F(0)
        while x == 0:
            x = F(rng.randint(-50, 50), rng.randint(1, 20))
        assert eval_P_via_2f1(L, x) == eval_P_rational(L, x)


def test_inverse_argument_form_rejects_zero():
    with pytest.raises(ValueError):
        eval_P_via_2f1(4, F(0))


@pytest.mark.parametrize("L", [6, 17, 30, 60])
def test_bounded_on_unit_interval(L):
    for i in range(0, 1001, 1):
        x = F(i, 500) - 1
        assert abs(eval_P_rational(L, x)) <= 1


def test_monomials_on_a_cold_cache_needs_no_deep_recursion():
    # the table is built bottom-up: with only 60 frames of headroom, a cold
    # cache still reaches degree 300, where a recursive build needs hundreds
    depth = len(traceback.extract_stack())
    limit = sys.getrecursionlimit()
    legendre._coeff_table.cache_clear()
    sys.setrecursionlimit(depth + 60)
    try:
        coeffs = monomials(300).coeffs
    finally:
        sys.setrecursionlimit(limit)
        legendre._coeff_table.cache_clear()
    assert coeffs[300] == leading_coefficient(300)
    assert sum(coeffs) == 1


def test_monomials_match_closed_forms_at_degree_600():
    # the integer Bonnet recurrence on 2^L P_L, from a cold cache, against
    # the closed-form leading coefficient and the explicit sum for every slot
    legendre._coeff_table.cache_clear()
    try:
        coeffs = monomials(600).coeffs
    finally:
        legendre._coeff_table.cache_clear()
    assert coeffs[600] == leading_coefficient(600)
    assert coeffs == tuple(monomial_coefficient(600, m) for m in range(601))
    assert sum(coeffs) == 1
