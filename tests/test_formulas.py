from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from symprice import families, formulas
from symprice.invariants import transmission


def test_sigma_cycle_small():
    assert formulas.sigma_cycle(3) == 9
    assert formulas.sigma_cycle_sym(3) == 6
    assert formulas.sigma_cycle(4) == 24
    assert formulas.sigma_cycle_sym(4) == 16
    assert formulas.pos_cycle(2) == 0


def test_sigma_backward_tournament_is_binomial_sum():
    import math

    for n in range(3, 30):
        expected = sum(math.comb(i + 1, 2) for i in range(2, n + 1))
        assert formulas.sigma_backward_tournament(n) == expected


def test_sigma_backward_tournament_matches_bfs():
    for n in (3, 5, 8):
        assert formulas.sigma_backward_tournament(n) == transmission(
            families.backward_tournament(n)
        )


def test_hnk_range_checks():
    with pytest.raises(ValueError):
        formulas.sigma_hnk(8, 2)
    with pytest.raises(ValueError):
        formulas.sigma_hnk(8, 8)


def test_exact_faults_on_a_remainder():
    assert formulas._exact(-12, 4, "form") == -3
    with pytest.raises(AssertionError, match="form evaluated to non-integer 7/2"):
        formulas._exact(7, 2, "form")


def test_pos_cubic_matches_integer_form():
    # pos_cubic is an independent Fraction polynomial in k
    for n in range(4, 151):
        for k in range(3, n):
            parity = "even" if (n - k) % 2 == 0 else "odd"
            assert formulas.pos_cubic(n, k, parity) == formulas.pos_hnk(n, k)


def test_pos_cubic_parity_consistency():
    with pytest.raises(ValueError):
        formulas.pos_cubic(12, 4, "odd")  # n-k = 8 is even
    with pytest.raises(ValueError):
        formulas.pos_cubic(12, 4, "both")
    # rational k takes either branch
    formulas.pos_cubic(12, Fraction(7, 2), "even")


def test_best_bag_pos_agrees_with_k_star():
    for n in range(11, 30):
        k, pos = formulas.best_bag_pos(n)
        r = families.k_star(n)
        assert k == r.k_star
        assert pos == r.pos_at_candidates[r.k_star]


def test_crossover_signs():
    assert formulas.crossover_sign(0) == 1
    assert formulas.crossover_sign(1) == -1
    assert formulas.crossover_sign(3) == -1
    assert formulas.crossover_sign(4) == 1
    assert formulas.crossover_sign(10) == 1
    assert formulas.crossover_sign(11) == -1


def _crossover_decimal(x):
    """The crossover cubic evaluated with 60-digit decimals."""
    s = Decimal(2).sqrt()
    return ((5 - 4 * s) / 12 * x**3 + (11 * s - 14) / 2 * x**2
            + (944 - 707 * s) / 24 * x + (2453 * s - 3408) / 48)


@pytest.mark.parametrize("lo,hi", [(0, 1), (3, 4), (10, 11)])
def test_crossover_sign_exact_near_roots(lo, hi):
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = Decimal(lo), Decimal(hi)
        up = _crossover_decimal(a) > 0
        for _ in range(120):  # bisect the sign change to ~1e-36
            mid = (a + b) / 2
            if (_crossover_decimal(mid) > 0) == up:
                a = mid
            else:
                b = mid
        for offset in (Fraction(-1, 10**12), Fraction(-1, 10**13), Fraction(1, 10**13),
                       Fraction(1, 10**12)):
            q = Fraction(a) + offset
            v = _crossover_decimal(Decimal(q.numerator) / Decimal(q.denominator))
            assert formulas.crossover_sign(q) == (1 if v > 0 else -1), (lo, offset)
