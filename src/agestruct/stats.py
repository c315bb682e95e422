"""Summary statistics for Monte Carlo verification runs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "jarque_bera",
    "sample_summary",
    "SampleSummary",
    "se_of_variance",
    "se_of_covariance",
    "fit_loglog_slope",
]


def jarque_bera(samples: np.ndarray) -> tuple[float, float]:
    """Jarque-Bera normality statistic and its chi-square(2) p-value.

    JB = n/6 * (skewness^2 + excess_kurtosis^2 / 4) with moment-based
    skewness and kurtosis.  The chi-square(2) survival function is
    exp(-x / 2).
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 8:
        raise ValueError("need at least 8 samples")
    d = x - x.mean()
    m2 = np.mean(d * d)
    if m2 == 0.0:
        return 0.0, 1.0
    skew = np.mean(d ** 3) / m2 ** 1.5
    kurt = np.mean(d ** 4) / m2 ** 2 - 3.0
    stat = n / 6.0 * (skew ** 2 + 0.25 * kurt ** 2)
    return float(stat), math.exp(-float(stat) / 2.0)


@dataclass(frozen=True)
class SampleSummary:
    n: int
    mean: float
    var: float
    se_mean: float
    se_var: float
    jb_stat: float
    jb_pvalue: float


def sample_summary(samples: np.ndarray) -> SampleSummary:
    x = np.asarray(samples, dtype=float)
    n = x.size
    mean = float(x.mean())
    var = float(x.var(ddof=1)) if n > 1 else 0.0
    jb, p = jarque_bera(x) if n >= 8 else (0.0, 1.0)
    return SampleSummary(
        n=n, mean=mean, var=var,
        se_mean=math.sqrt(var / n) if n else 0.0,
        se_var=se_of_variance(x),
        jb_stat=jb, jb_pvalue=p,
    )


def se_of_variance(samples: np.ndarray) -> float:
    """Moment-based standard error of the sample variance.

    Var(s^2) ~ (m4 - s^4) / n with m4 the central fourth sample moment;
    no normality assumed.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 4:
        return math.inf
    d = x - x.mean()
    m4 = float(np.mean(d ** 4))
    s2 = float(np.var(x, ddof=1))
    return math.sqrt(max(m4 - s2 * s2, 0.0) / n)


def se_of_covariance(xs: np.ndarray, ys: np.ndarray) -> float:
    """Moment-based standard error of the sample covariance."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    n = x.size
    dx = x - x.mean()
    dy = y - y.mean()
    cov = float(np.mean(dx * dy))
    m22 = float(np.mean(dx * dx * dy * dy))
    return math.sqrt(max(m22 - cov * cov, 0.0) / n)


def fit_loglog_slope(ks: np.ndarray, errors: np.ndarray) -> float:
    """Least-squares slope of log(error) against log(K)."""
    lx = np.log(np.asarray(ks, dtype=float))
    ly = np.log(np.asarray(errors, dtype=float))
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))
