"""The exact law of the +1 count of an Ising grid, by a transfer over columns.

Written from the grid's definition alone and importing no cubelab code, so
that it checks the chains independently of the library's closed forms and
tables, at grid sizes far beyond exact enumeration.
"""

import numpy as np


def ising_plus_count_log_law(rows: int, cols: int, J: float, h: float,
                             periodic: bool = False) -> np.ndarray:
    """Normalized log-probabilities of the +1 count u = 0..rows * cols under
    the weight exp(J sum_edges x_i x_j + h sum_i x_i), with an edge between
    neighbours along a row or a column and, when `periodic`, wrap-around
    edges along each axis of length >= 3.

    A column is one of 2^rows sign patterns. `law[f, c, u]` is the log of
    the summed weight of the columns so far whose first column is f, whose
    last is c and which hold u plus signs. Appending column b sums over c
    by log-sum-exp, after adding the edges J c.b between the two columns,
    then adds b's own weight and shifts u by b's plus signs. Only a grid
    that wraps around 3 or more columns keeps f, to close with J c.f; the
    others sum every first column into one. Everything stays in the log
    domain, so no weight overflows at any size; the work is
    O(cols 4^rows d), times 2^rows when the columns wrap.
    """
    n = 1 << rows
    signs = np.where((np.arange(n)[:, None] >> np.arange(rows)) & 1, 1.0, -1.0)
    plus = (signs > 0).sum(axis=1)
    own = h * signs.sum(axis=1) + J * (signs[:, 1:] * signs[:, :-1]).sum(axis=1)
    if periodic and rows >= 3:
        own += J * signs[:, 0] * signs[:, -1]
    link = J * signs @ signs.T
    d = rows * cols
    wrap = periodic and cols >= 3
    law = np.full((n if wrap else 1, n, d + 1), -np.inf)
    law[np.arange(n) if wrap else 0, np.arange(n), plus] = own
    for _ in range(cols - 1):
        joined = np.logaddexp.reduce(law[:, :, None, :] + link[None, :, :, None], axis=1)
        law = np.full_like(law, -np.inf)
        for b in range(n):
            law[:, b, plus[b]:] = joined[:, b, :d + 1 - plus[b]] + own[b]
    if wrap:
        law += link[:, :, None]
    out = np.logaddexp.reduce(law.reshape(-1, d + 1), axis=0)
    return out - np.logaddexp.reduce(out)
