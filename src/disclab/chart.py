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

