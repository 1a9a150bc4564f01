"""The exact references of tests/exact.py against independent values, and their precision."""

import exact
import numpy as np
import pytest
import test_gaussian as tg
from test_kernels import corner_channels

from chancap import kernels, verify
from chancap.gaussian import GaussianPrep
from chancap.units import UnitMode, constants_for

NAT = constants_for(UnitMode.NATURAL)
#: 1 / sqrt(2 pi) and ln 2 to 40 digits, from their published expansions.
INV_ROOT_TWO_PI = "0.3989422804014326779399460599343818684758"
LN_2 = "0.6931471805599453094172321214581765680755"
CHANNELS = list(verify.ADVERSARIAL_CHANNELS) + [
    c for seed in range(4) for c in corner_channels(np.random.default_rng(seed))
]


def close(got, want, digits=25):
    """got and want agree to 10**-digits relative."""
    return abs(got - want) <= abs(want).scaleb(-digits)


def test_gaussian_hand_values():
    prep = GaussianPrep(0.0, 1.0, 1.0)
    assert str(exact.density(prep, 0.0, 0.0, NAT)).startswith(INV_ROOT_TWO_PI)
    assert exact.variance(prep, 2.0, NAT) == 2  # 1 + (2 / 2)^2
    assert exact.vstar(2.0, 1.0, NAT) == 1
    assert str(exact.capacity_nats(3.0, 1.0)).startswith(LN_2)  # (1/2) ln 4


def test_logarithm_hand_values():
    assert str(exact.ln(2.0)).startswith(LN_2)
    # the identity channel at q = 1/2: y0 = y1 = 1/2 and rows of entropy 0, so -I = -ln 2
    assert str(exact.neg_mi(1.0, 0.0, 0.0, 0.0, 1, 2)).startswith("-" + LN_2)


def test_capacity_of_a_binary_symmetric_channel():
    # 1 - 0.89 is exact, so the rows (0.89, 0.11) and (0.11, 0.89) are symmetric to the bit: C = ln 2 - H(0.89).
    with exact.digits():
        p = exact.Decimal(0.89)
        want = exact.ln(2.0) + p * p.ln() + (1 - p) * (1 - p).ln()
    assert close(exact.capacity(0.89, 1.0 - 0.89), want, 30)


@pytest.mark.parametrize("p00,p10", [(1.0, 1.0 - 1e-9), (0.0, 5e-324)])
def test_capacity_of_a_z_channel(p00, p10):
    # Rows (1, 0) and (1-d, d), or relabelled (0, 1) and (d, 1-d): C = ln(1 + d (1-d)^((1-d)/d)),
    # about d/e. 700 digits hold 1 - d and 1 + C at d = 5e-324, where 60 gave C < 0.
    with exact.digits(700):
        d = abs(exact.Decimal(p00) - exact.Decimal(p10))
        want = (1 + d * ((1 - d) / d * (1 - d).ln()).exp()).ln()
    assert close(exact.capacity(p00, p10), want, 30)


@pytest.mark.parametrize("p00,p10", verify.ADVERSARIAL_CHANNELS)
def test_capacity_is_symmetric(p00, p10):
    # Relabelled outputs read a row (p, 1-p) as (1-p, p), the same row only
    # where 1-p is exact: p = 1 - (1-p) makes it so.
    p00, p10 = 1.0 - (1.0 - p00), 1.0 - (1.0 - p10)
    want = exact.capacity(p00, p10)
    assert close(exact.capacity(p10, p00), want)
    assert close(exact.capacity(1.0 - p00, 1.0 - p10), want)


@pytest.fixture
def with_more_digits(monkeypatch):
    """reference(*args) at 40 more digits, then as it stands."""

    def evaluate(reference, *args):
        monkeypatch.setattr(exact, "EXTRA", 40)
        more = reference(*args)
        monkeypatch.setattr(exact, "EXTRA", 0)
        return more, reference(*args)

    return evaluate


def test_capacity_has_enough_digits(with_more_digits):
    for p00, p10 in CHANNELS:
        assert close(*with_more_digits(exact.capacity, p00, p10)), (p00, p10)


def test_logarithms_have_enough_digits(with_more_digits):
    for p00, p10 in CHANNELS:
        for y in {p00, p10, 1.0 - p00} - {0.0}:
            assert close(*with_more_digits(exact.ln, y)), y
        h0, h1 = kernels._h2(p00), kernels._h2(p10)
        for i in (0, 1, 333_333, 10**6):
            assert close(*with_more_digits(exact.neg_mi, p00, p10, h0, h1, i, 10**6)), (p00, p10, i)


def test_gaussian_references_have_enough_digits(with_more_digits):
    calls = (
        [(exact.density, GaussianPrep(0.0, s2, 1.0), x, 0.0, NAT) for s2, x in tg.FAR_TAILS]
        + [(exact.capacity_nats, P, delta2) for P, delta2 in tg.OVERFLOWED_RATIOS]
        + [(exact.variance, GaussianPrep(0.0, s2, m), t, NAT) for s2, m, t in tg.SUBNORMAL_DENOMINATORS]
        + [(exact.density, prep, prep.x0, t, c) for prep, t, c in tg.SPREAD_EDGES]
        + [(exact.vstar, t, mass, c) for t, mass, c, _ in tg.VSTAR_EDGES]
        + [(exact.density, prep, x, t, NAT) for prep, x, t in tg.OVERFLOWING_DENSITIES]
        + [(exact.density, *tg.WIDE_PACKET, 0.0, NAT)]
    )
    for reference, *args in calls:
        assert close(*with_more_digits(reference, *args)), (reference.__name__, args)
