"""Exact closed forms for transmissions and transmission prices.

Every integral form is one integer numerator over one denominator,
divided once by ``_exact``, which faults on a remainder, so a
transcription slip in a polynomial coefficient faults instead of
silently drifting.  ``Fraction`` serves only where an argument may be
rational: the price cubic ``pos_cubic`` and the crossover cubic's sign.
"""
from __future__ import annotations

from fractions import Fraction


def _exact(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"{what} evaluated to non-integer {num}/{den}")
    return q


def sigma_cycle(n: int) -> int:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _exact(n * n * (n - 1), 2, "sigma_cycle")


def sigma_cycle_sym(n: int) -> int:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _exact(n**3 if n % 2 == 0 else n * (n + 1) * (n - 1), 4, "sigma_cycle_sym")


def pos_cycle(n: int) -> int:
    return sigma_cycle(n) - sigma_cycle_sym(n)


def sigma_backward_tournament(n: int) -> int:
    """(n-1)(n^2+4n+6)/6, the closed form of sum_{i=2..n} C(i+1,2)."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return _exact((n - 1) * (n * n + 4 * n + 6), 6, "sigma_backward")


def _check_nk(n: int, k: int) -> None:
    if not 3 <= k < n:
        raise ValueError(f"need 3 <= k < n, got k={k}, n={n}")


def sigma_hnk(n: int, k: int) -> int:
    _check_nk(n, k)
    num = 3 * n**3 - 3 * n**2 + 3 * k * (1 - k) * n + (k - 1) * (k * k + 4 * k + 6)
    return _exact(num, 6, "sigma_hnk")


def sigma_hnk_sym(n: int, k: int) -> int:
    _check_nk(n, k)
    if (n - k) % 2 == 0:
        lin, const = (k - 2) * (k - 6), k * (k - 2) * (k - 4)
    else:
        lin, const = k * k - 8 * k + 13, (k - 1) * (k - 2) * (k - 3)
    return _exact(n**3 - (k - 2) * n**2 - lin * n + const, 4, "sigma_hnk_sym")


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
    pos = {k: pos_hnk(n, k) for k in range(3, n)}
    k = max(pos, key=lambda k: (pos[k], -k))
    return k, pos[k]


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
