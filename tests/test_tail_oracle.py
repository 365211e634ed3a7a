"""The three tails the comparison suite computes, held to a 40-digit truth
(mpmath) and to closed forms that need no oracle: the Pearson t-test's
two-tailed p, the F(2, d) quantile of the concentration ellipse and the
complementary error function of the Mann-Whitney normal approximation.
"""
import math

import mpmath
import numpy as np
import pytest

from attachnet.compare import _f2_quantile, pearson_significance

# 628 is the most df a 36-item model's 630 item pairs allow
DFS = [1, 2, 3, 4, 5, 7, 10, 12, 15, 16, 17, 24, 31, 60, 100, 302, 333, 454, 601, 628, 1000,
       3001, 4774, 10**4, 10**5]
# every decade of |t| in eighths, and quarter steps where the two continued
# fractions of ``_t_sf`` meet (near |t| = sqrt(3)); each df's list is cut
# where the tail falls below 1e-300
T_GRID = sorted({0.0, 1e-10, 1e-8} | {10 ** (k / 8) for k in range(-64, 129)}
                | {k / 4 for k in range(1, 48)})
LEVELS = [1e-12, 1e-9, 1e-6, 1e-3] + [k / 100 for k in range(1, 100)] + [0.999, 0.999999]


def r_of(t: float, df: int) -> float:
    return t / math.sqrt(df + t * t)


def t_of(r: float, df: int) -> float:
    """The t of ``r`` with neither 1 - r nor 1 + r rounded away."""
    return abs(r) * math.sqrt(df / ((1.0 - abs(r)) * (1.0 + abs(r))))


@mpmath.workdps(40)
def true_p(r: float, df: int):
    """I_x(df/2, 1/2) at x = 1 - r^2, with r read exactly."""
    r = mpmath.mpf(r)
    return mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, 1 - r * r, regularized=True)


@pytest.mark.parametrize("df", DFS)
@mpmath.workdps(40)
def test_t_two_tailed_p_matches_mpmath(df):
    worst, checked = 0.0, 0
    for t in T_GRID:
        r = r_of(t, df)
        truth = true_p(r, df)
        if truth < 1e-300:
            break
        _, p = pearson_significance(r, df)
        worst = max(worst, float(abs(p - truth) / truth))
        checked += 1
    assert checked > 40
    # past df = 5000 the fraction's error near the centre grows with df,
    # staying under df * 2^-52 (1.5e-12 at df = 9,824, 1e-11 at 10^5)
    assert worst <= (1e-12 if df <= 5000 else df * 2**-52)


@pytest.mark.parametrize("t", [0.0, 1e-10, 7.2e-9, 1e-8, 1e-4, 0.5, 1.0, 3.0, 10.0, 1e3, 1e6])
def test_t_two_tailed_p_closed_forms(t):
    """df = 1 is the Cauchy tail (2/pi) atan(1/|t|); df = 2 has
    p = 2 / (sqrt(2 + t^2) (sqrt(2 + t^2) + |t|))."""
    for df, tail in [
        (1, lambda t: 2 / math.pi * math.atan2(1.0, t)),
        (2, lambda t: 2 / (math.sqrt(2 + t * t) * (math.sqrt(2 + t * t) + t))),
    ]:
        r = r_of(t, df)
        _, p = pearson_significance(r, df)
        _, p_neg = pearson_significance(-r, df)
        assert p_neg == p
        assert p == pytest.approx(tail(t_of(r, df)), rel=1e-14, abs=0)


@pytest.mark.parametrize("dfd", [2, 3, 5, 10, 17, 35, 50, 500, 10**4])
@mpmath.workdps(40)
def test_f2_quantile_matches_mpmath(dfd):
    d = mpmath.mpf(dfd)
    for level in LEVELS:
        level_ = mpmath.mpf(level)
        truth = d / 2 * mpmath.expm1(-2 * mpmath.log1p(-level_) / d)
        # the truth is the level quantile of F(2, d): I_x(1, d/2) at x = 2q / (2q + d)
        assert mpmath.almosteq(
            mpmath.betainc(1, d / 2, 0, 2 * truth / (2 * truth + d), regularized=True),
            level_, rel_eps=mpmath.mpf(10) ** -30)
        assert _f2_quantile(level, dfd) == pytest.approx(float(truth), rel=1e-14, abs=0)


@pytest.mark.parametrize("dfd", [2, 3, 5, 10, 50, 500])
def test_f2_cdf_at_the_quantile_gives_back_the_level(dfd):
    """F(2, d) has the CDF 1 - (1 + 2q/d)^(-d/2)."""
    for level in LEVELS:
        q = _f2_quantile(level, dfd)
        assert -math.expm1(-dfd / 2 * math.log1p(2 * q / dfd)) == pytest.approx(level, rel=1e-14, abs=0)


@mpmath.workdps(40)
def test_erfc_matches_mpmath():
    """``mann_whitney_u``'s normal tail is ``math.erfc(z / sqrt(2))``."""
    for z in np.linspace(0.0, 26.0, 2601).tolist():
        truth = mpmath.erfc(mpmath.mpf(z))
        assert math.erfc(z) == pytest.approx(float(truth), rel=1e-13, abs=0)
