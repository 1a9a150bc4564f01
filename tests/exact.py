"""Exact references for the closed forms the tests check, in stdlib decimal arithmetic.

Each reference takes doubles, which decimal holds exactly, and returns a
Decimal whose error lies far below a double's rounding, so float() of it is
the correctly rounded double. Nothing here imports chancap: a test that
compares chancap against a reference compares two independent computations.

The Gaussian references and ln run at DIGITS significant digits. capacity
cancels its terms down to C, which can be 1e-33 of them or less, so it takes
its digits from its inputs. tests/test_exact.py checks each reference
against independent values, and that EXTRA = 40 more digits moves none of
them by more than 1e-25 relative.
"""

import decimal
from decimal import Decimal

#: Significant digits of every reference but capacity.
DIGITS = 60
#: Digits added to every context; tests/test_exact.py raises it to check the references' precision.
EXTRA = 0
PI = Decimal(
    "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803482534211706798214808651"
)


def digits(prec: int = DIGITS):
    """A local decimal context of prec + EXTRA significant digits."""
    return decimal.localcontext(decimal.Context(prec=prec + EXTRA))


def error(got: float, want: Decimal) -> Decimal:
    """|got - want|, a double's distance from a reference."""
    with digits():
        return abs(Decimal(got) - want)


def variance(prep, t: float, c) -> Decimal:
    """Delta_t^2 = sigma2_A + (hbar t / (2 m sigma_A))^2 of a GaussianPrep at delay t, in the units c."""
    with digits():
        disp = Decimal(c.hbar) * Decimal(t) / (2 * Decimal(prep.mass) * Decimal(prep.sigma2_A).sqrt())
        return Decimal(prep.sigma2_A) + disp * disp


def density(prep, x: float, t: float, c) -> Decimal:
    """|psi(x, t)|^2 = exp(-(x - x0)^2 / (2 Delta_t^2)) / sqrt(2 pi Delta_t^2)."""
    with digits():
        var, dx = variance(prep, t, c), Decimal(x) - Decimal(prep.x0)
        return (-(dx * dx) / (2 * var)).exp() / (2 * PI * var).sqrt()


def vstar(t: float, mass: float, c) -> Decimal:
    """The optimal preparation variance v* = hbar t / (2 m)."""
    with digits():
        return Decimal(c.hbar) * Decimal(t) / (2 * Decimal(mass))


def capacity_nats(P: float, delta2: float) -> Decimal:
    """(1/2) ln(1 + P / Delta^2), exact while P / Delta^2 is well above 10**-DIGITS."""
    with digits():
        return (1 + Decimal(P) / Decimal(delta2)).ln() / 2


def ln(y: float) -> Decimal:
    with digits():
        return Decimal(y).ln()


def neg_mi(p00: float, p10: float, h0: float, h1: float, i: int, n: int) -> Decimal:
    """The grid's f(i/n) = y0 ln y0 + y1 ln y1 + q h0 + (1-q) h1, with q = i/n and 0 ln 0 = 0."""
    with digits():
        q = Decimal(i) / Decimal(n)
        y0 = q * Decimal(p00) + (1 - q) * Decimal(p10)
        total = q * Decimal(h0) + (1 - q) * Decimal(h1)
        for y in (y0, 1 - y0):
            if y > 0:
                total += y * y.ln()
        return total


def _entropy(p: Decimal) -> Decimal:
    """-p ln p - (1-p) ln(1-p), with 0 ln 0 = 0, in the current context."""
    return -sum(y * y.ln() for y in (p, 1 - p) if y)


def capacity(p00: float, p10: float) -> Decimal:
    """Muroga's (1953) capacity, in nats, of the channel with rows (a, 1-a) and (b, 1-b).

    With h the entropy of a row and D = (h(a) - h(b)) / (a - b),
    C = -h(b) + ln(exp(-(1-b) D) + exp(b D)). Its terms cancel down to C,
    which is about (a-b)^2 / (8 b (1-b)) for close rows, so the digits grow
    as the inputs shrink: 40 plus twice the largest decimal exponent of
    |a-b|, a, b, 1-a and 1-b. A fixed 60 digits gave C < 0 at (0, 5e-324).
    """
    a, b = Decimal(p00), Decimal(p10)
    if a == b:
        return Decimal(0)
    with digits(40):
        scales = (abs(a - b), a, b, 1 - a, 1 - b)
        prec = 40 + 2 * max(0, *(-s.adjusted() for s in scales if s))
    with digits(prec):
        d = (_entropy(a) - _entropy(b)) / (a - b)
        return -_entropy(b) + ((-(1 - b) * d).exp() + (b * d).exp()).ln()
