"""Shared numerical helpers: boundary-stable disc algebra, contour rules, 1-D search.

Everything here is plain numpy and works elementwise on arrays unless noted.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def one_minus_conj_mul(z, w):
    """1 - conj(z)*w, computed as (1 - conj(z)) + conj(z)*(1 - w).

    The naive expression loses all relative accuracy when both arguments
    approach the unit circle (the true value is tiny while conj(z)*w rounds
    near 1).  The regrouped form keeps relative error at machine level as
    long as 1-z and 1-w are themselves accurate, which holds for points
    generated by 1 - <small> formulas.
    """
    zc = np.conjugate(z)
    return (1.0 - zc) + zc * (1.0 - w)


def one_minus_abs2(z):
    """1 - |z|^2 with the same boundary-stable grouping; real valued."""
    return np.real(one_minus_conj_mul(z, z))


def one_minus_abs(z):
    """1 - |z| via (1 - |z|^2)/(1 + |z|)."""
    return one_minus_abs2(z) / (1.0 + np.abs(z))


def wrap_angle(x):
    """Reduce an angle difference to (-pi, pi]."""
    y = np.mod(-np.asarray(x) + np.pi, TWO_PI)
    return -(y - np.pi)


def flat_points(z) -> np.ndarray:
    """z (a scalar or an array of any shape) as a 1-D complex array."""
    return np.atleast_1d(np.asarray(z, dtype=complex)).ravel()


def like_input(vals: np.ndarray, z, kind=complex):
    """Values computed on flat_points(z), in the shape of z; a scalar z
    gives a scalar of the given kind."""
    return vals.reshape(np.shape(z)) if np.ndim(z) else kind(vals[0])


def circle_nodes(m: int):
    """Uniform angles and unit points for an m-point trapezoid contour rule."""
    theta = TWO_PI * np.arange(m) / m
    return theta, np.exp(1j * theta)


# grid sizes of the node contours: the first round, and the largest
CONTOUR_START_POINTS = 64
CONTOUR_MAX_POINTS = 1024


def nested_circle(fn, max_points: int):
    """Yield (theta, unit, values) on trapezoid grids of
    CONTOUR_START_POINTS, twice that, ..., max_points points.

    fn maps unit points to values along the last axis.  Each refinement
    evaluates fn only at the new odd-indexed points and interleaves the
    results with the kept values.  The angles 2 pi j / m are exact under
    doubling, so every round holds bit for bit fn on circle_nodes(m).
    """
    theta, unit = circle_nodes(CONTOUR_START_POINTS)
    values = fn(unit)
    yield theta, unit, values
    m = 2 * CONTOUR_START_POINTS
    while m <= max_points:
        theta, unit = circle_nodes(m)
        fresh = fn(unit[1::2])
        kept, values = values, np.empty(fresh.shape[:-1] + (m,),
                                         dtype=fresh.dtype)
        values[..., 0::2], values[..., 1::2] = kept, fresh
        yield theta, unit, values
        m *= 2


def circle_modes(theta, logs, orders, scale=None):
    """(scale, modes) with modes[i] = mean(exp(logs - scale) e^{-i k theta})
    for k = orders[i], on the trapezoid grid theta.

    scale defaults to the largest finite Re logs; a caller that compares
    rounds may freeze it at its first value so the modes stay in one unit.
    Entries at -inf (exact zeros of the integrand) count as 0.  Raises
    RuntimeError when no entry is finite: the contour then collapses at
    binary64 resolution.
    """
    re = np.real(logs)
    finite = np.isfinite(re)
    if not np.any(finite):
        raise RuntimeError("contour collapses at binary64 resolution: every "
                           "sample is an exact zero")
    if scale is None:
        scale = float(np.max(re[finite]))
    with np.errstate(invalid="ignore", over="ignore"):
        q = np.where(finite, np.exp(logs - scale), 0.0)
    return scale, np.array([np.mean(q * np.exp(-1j * k * theta))
                            for k in orders])


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int):
    if n not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GL_CACHE[n] = (x, w)
    return _GL_CACHE[n]


def segment_points(a: complex, b: complex, panels: int, order: int):
    """Gauss-Legendre nodes and weights for integrating along [a, b].

    Returns (points, weights) with complex weights including dz, flattened
    over panels so a single vectorized integrand call suffices.
    """
    x, w = gauss_legendre(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel() * (b - a)
    return a + (b - a) * t, wt


def adaptive_segment_integral(f, a: complex, b: complex, tol: float = 1e-12,
                              max_panels: int = 256, order: int = 16):
    """Integrate a vectorized analytic integrand along a straight segment.

    Doubles the panel count until the value moves by less than
    tol * (1 + |value|).  Raises RuntimeError when the cap is hit first.
    """
    if a == b:
        return 0.0 + 0.0j
    panels = 1
    pts, wts = segment_points(a, b, panels, order)
    prev = np.sum(f(pts) * wts)
    while panels < max_panels:
        panels *= 2
        pts, wts = segment_points(a, b, panels, order)
        cur = np.sum(f(pts) * wts)
        if abs(cur - prev) <= tol * (1.0 + abs(cur)):
            return cur
        prev = cur
    raise RuntimeError(
        f"segment integral did not settle below {tol:g} within {max_panels} panels")


def golden_section_max(f, lo: float, hi: float, iters: int = 40):
    """Maximize a scalar function on [lo, hi] by golden-section search."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def sample_disc(rng: np.random.Generator, n: int, r_max: float = 0.95) -> np.ndarray:
    """n points uniform w.r.t. area on |z| <= r_max."""
    r = r_max * np.sqrt(rng.random(n))
    th = TWO_PI * rng.random(n)
    return r * np.exp(1j * th)


def format_float(x: float) -> str:
    """17-significant-digit text form used in CSV artifacts."""
    return f"{x:.17g}"
