"""Inferential statistics: t-tests, Cohen's d, one-way repeated-measures ANOVA.

P-values come from the regularized incomplete beta function, evaluated with
the modified Lentz continued fraction (double precision; accurate to ~1e-10
for the degrees of freedom used here).
"""

import math

import numpy as np


def _betacf(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        # the even then the odd Lentz half-step; convergence is judged on the odd one
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_p_two_sided(t: float, df: float) -> float:
    if df <= 0:
        raise ValueError("df must be positive")
    return incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def f_p_value(f: float, df1: float, df2: float) -> float:
    if f < 0:
        raise ValueError("F must be nonnegative")
    return incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


def one_sample_t(values, mu0: float) -> tuple[float, int, float]:
    """(t, df, two-sided p) for H0: mean == mu0; sample SD (ddof=1)."""
    x = np.asarray(values, dtype=np.float64)
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 values")
    sd = x.std(ddof=1)
    if sd == 0:
        raise ValueError("zero standard deviation; t undefined")
    t = (x.mean() - mu0) / (sd / math.sqrt(n))
    df = n - 1
    return float(t), df, t_p_two_sided(t, df)


def cohens_d(values, mu0: float) -> float:
    x = np.asarray(values, dtype=np.float64)
    sd = x.std(ddof=1)
    if sd == 0:
        raise ValueError("zero standard deviation; d undefined")
    return float((x.mean() - mu0) / sd)


def paired_t(a, b) -> tuple[float, int, float]:
    """One-sample t on the elementwise differences a - b against 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal lengths")
    return one_sample_t(a - b, 0.0)


def rm_anova_oneway(matrix) -> dict:
    """One-way within-subject ANOVA on a complete subjects x conditions matrix,
    as ``stats.json`` stores it: ``F``, ``df1``, ``df2``, ``p`` and
    ``partial_eta_sq``.

    SS_error = SS_total - SS_subjects - SS_conditions with
    df = (k-1, (k-1)(n-1)); eta_p^2 = SS_cond / (SS_cond + SS_err).
    Incomplete subjects must be dropped by the caller beforehand.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise ValueError("need a 2-D matrix with >= 2 subjects and >= 2 conditions")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix has missing cells; drop incomplete subjects first")
    n, k = x.shape
    grand = x.mean()
    ss_total = float(((x - grand) ** 2).sum())
    ss_subj = float(k * ((x.mean(axis=1) - grand) ** 2).sum())
    ss_cond = float(n * ((x.mean(axis=0) - grand) ** 2).sum())
    ss_err = max(ss_total - ss_subj - ss_cond, 0.0)
    df1 = k - 1
    df2 = (k - 1) * (n - 1)
    tiny = 1e-12 * max(ss_total, 1e-300)
    if ss_cond <= tiny:
        f = 0.0
    elif ss_err <= tiny:
        f = float("inf")
    else:
        f = (ss_cond / df1) / (ss_err / df2)
    p = f_p_value(f, df1, df2) if np.isfinite(f) else 0.0
    if ss_cond + ss_err > tiny:
        eta = ss_cond / (ss_cond + ss_err)
    else:
        eta = 0.0
    return {"F": float(f), "df1": df1, "df2": df2, "p": float(p), "partial_eta_sq": float(eta)}


def bonferroni(p: float, m: int) -> float:
    return min(1.0, p * m)
