"""Exact closed forms for transmissions and transmission prices.

Everything with an integral value is evaluated in rationals and asserted
integral before being returned, so a transcription slip in a polynomial
coefficient faults instead of silently drifting.
"""
from __future__ import annotations

from fractions import Fraction


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise AssertionError(f"{what} evaluated to non-integer {x}")
    return x.numerator


def sigma_cycle(n: int) -> int:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _as_int(Fraction(n * n * (n - 1), 2), "sigma_cycle")


def sigma_cycle_sym(n: int) -> int:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n % 2 == 0:
        return _as_int(Fraction(n**3, 4), "sigma_cycle_sym")
    return _as_int(Fraction(n * (n + 1) * (n - 1), 4), "sigma_cycle_sym")


def pos_cycle(n: int) -> int:
    return sigma_cycle(n) - sigma_cycle_sym(n)


def sigma_backward_tournament(n: int) -> int:
    """(n-1)(n^2+4n+6)/6, the closed form of sum_{i=2..n} C(i+1,2)."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return _as_int(Fraction((n - 1) * (n * n + 4 * n + 6), 6), "sigma_backward")


def _check_nk(n: int, k: int) -> None:
    if not 3 <= k < n:
        raise ValueError(f"need 3 <= k < n, got k={k}, n={n}")


def sigma_hnk(n: int, k: int) -> int:
    _check_nk(n, k)
    val = (
        Fraction(n**3, 2)
        - Fraction(n**2, 2)
        + Fraction(k * (1 - k) * n, 2)
        + Fraction((k - 1) * (k * k + 4 * k + 6), 6)
    )
    return _as_int(val, "sigma_hnk")


def sigma_hnk_sym(n: int, k: int) -> int:
    _check_nk(n, k)
    if (n - k) % 2 == 0:
        val = (
            Fraction(n**3, 4)
            - Fraction((k - 2) * n**2, 4)
            - Fraction((k - 2) * (k - 6) * n, 4)
            + Fraction(k * (k - 2) * (k - 4), 4)
        )
    else:
        val = (
            Fraction(n**3, 4)
            - Fraction((k - 2) * n**2, 4)
            - Fraction((k * k - 8 * k + 13) * n, 4)
            + Fraction((k - 1) * (k - 2) * (k - 3), 4)
        )
    return _as_int(val, "sigma_hnk_sym")


def pos_hnk(n: int, k: int) -> int:
    return sigma_hnk(n, k) - sigma_hnk_sym(n, k)


def _check_parity(n: int, k, parity: str) -> None:
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if isinstance(k, int) and ("even", "odd")[(n - k) % 2] != parity:
        raise ValueError(f"parity {parity!r} inconsistent with n-k = {n - k}")


def pos_cubic(n: int, k, parity: str) -> Fraction:
    """The transmission-price cubic in k, one branch per parity of n-k.

    Agrees with ``pos_hnk`` on integers k of matching parity; also usable
    at rational k for analytic sanity checks.
    """
    _check_parity(n, k, parity)
    k = Fraction(k)
    if parity == "even":
        lin = Fraction(3 * n * n - 18 * n - 20, 12)
        const = Fraction(n**3 - 4 * n**2 + 12 * n - 4, 4)
    else:
        lin = Fraction(3 * n * n - 18 * n - 29, 12)
        const = Fraction(n**3 - 4 * n**2 + 13 * n + 2, 4)
    return -(k**3) / 12 + Fraction(8 - n, 4) * k**2 + lin * k + const


def best_bag_pos(n: int) -> tuple[int, int]:
    """(k, pos) maximising the exact bag transmission price over all
    admissible k; usable at any n >= 4, ties towards smaller k."""
    if n < 4:
        raise ValueError(f"need n >= 4 for a bag, got {n}")
    best_k, best_pos = None, None
    for k in range(3, n):
        p = pos_hnk(n, k)
        if best_pos is None or p > best_pos:
            best_k, best_pos = k, p
    return best_k, best_pos


# The cubic separating the cycle regime from the bag regime, highest
# degree first; each coefficient is a + b*sqrt(2), stored as (a, b).
_CROSSOVER_CUBIC = (
    (Fraction(5, 12), Fraction(-4, 12)),
    (Fraction(-14, 2), Fraction(11, 2)),
    (Fraction(944, 24), Fraction(-707, 24)),
    (Fraction(-3408, 48), Fraction(2453, 48)),
)


def crossover_sign(n) -> int:
    """Exact sign (+1, -1 or 0) of the crossover cubic at a rational n.

    The value is A + B*sqrt(2) with rational A and B.  When their signs
    differ, A^2 against 2B^2 decides whether A dominates, so the value
    has the sign of A(A^2 - 2B^2); otherwise it has the sign of A + B.
    """
    n = Fraction(n)
    a = b = Fraction(0)
    for ca, cb in _CROSSOVER_CUBIC:
        a, b = a * n + ca, b * n + cb
    v = a + b if a * b >= 0 else a * (a * a - 2 * b * b)
    return (v > 0) - (v < 0)
