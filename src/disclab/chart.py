"""The flat diagonal chart on the product of the plane with itself.

A pair (X, y) close to the diagonal is traded for base/fiber coordinates
(bq, bp).  The change of coordinates is the linear map

    bq = (X + y)/2,     bp = (P - p, q - Q)

with X = (Q, P) and y = (q, p), inverted by

    X = bq + j(bp)/2,   y = bq - j(bp)/2

where j(bp1, bp2) = (-bp2, bp1).
"""

import numpy as np


def jmap(p):
    """The rotation j(p1, p2) = (-p2, p1) on fiber vectors, shape (..., 2)."""
    p = np.asarray(p, dtype=np.float64)
    out = np.empty_like(p)
    out[..., 0] = -p[..., 1]
    out[..., 1] = p[..., 0]
    return out


def to_chart(x, y):
    """Chart coordinates of the pair (x, y); accepts (..., 2) arrays.

    Returns (bq, bp) arrays of the same shape.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    bq = 0.5 * (x + y)
    bp = np.empty_like(bq)
    bp[..., 0] = x[..., 1] - y[..., 1]   # P - p
    bp[..., 1] = y[..., 0] - x[..., 0]   # q - Q
    return bq, bp


def from_chart(bq, bp):
    """Inverse of to_chart: the pair (x, y) with x = bq + j(bp)/2, y = bq - j(bp)/2."""
    bq = np.asarray(bq, dtype=np.float64)
    bp = np.asarray(bp, dtype=np.float64)
    jp = jmap(bp)
    return bq + 0.5 * jp, bq - 0.5 * jp
