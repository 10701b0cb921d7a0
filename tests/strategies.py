"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st


@st.composite
def separated_sets(draw, allow_subnormal=True):
    """1 to 8 disc points of modulus at most 0.9, pairwise at least 0.05
    apart; allow_subnormal=False keeps every nonzero modulus at or above
    the smallest normal float."""
    n = draw(st.integers(1, 8))
    r = draw(st.lists(st.floats(0.0, 0.9, allow_subnormal=allow_subnormal),
                      min_size=n, max_size=n))
    t = draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=n, max_size=n))
    pts = np.asarray(r) * np.exp(1j * np.asarray(t))
    d = np.abs(pts[:, None] - pts[None, :]) + np.eye(n)
    assume(np.min(d) >= 0.05)
    if not allow_subnormal:
        # r e^{it} can round a normal r to a subnormal modulus
        mod = np.abs(pts)
        assume(np.all((mod == 0.0) | (mod >= np.finfo(float).tiny)))
    return pts
