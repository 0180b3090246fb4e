"""Closest lattice point by exhaustive search, from the generator matrix alone.

``closest_point`` is the reference every decoder test compares against. It
knows nothing of the lattice families: it enumerates every integer
coordinate vector whose point lies within the Babai point's distance of the
query (Fincke-Pohst enumeration; Agrell, Eriksson, Vardy & Zeger, "Closest
point search in lattices", IEEE Trans. IT 48(8), 2002), one coordinate
level at a time and vectorized across the query rows.
"""

import numpy as np

_CHUNK = 1024          # query rows per search; bounds the node arrays


def closest_point(x, basis):
    """Nearest point of the lattice ``basis @ Z^n`` to each row of ``x``.

    ``basis`` holds the generator vectors as columns; ``x`` is one vector
    ``(n,)`` or a batch ``(m, n)``.
    """
    x = np.asarray(x, dtype=float)
    basis = np.asarray(basis, dtype=float)
    q, r = np.linalg.qr(basis)
    y = x.reshape(-1, basis.shape[1]) @ q                 # rows of Q^T x
    k = np.vstack([_search(y[lo:lo + _CHUNK], r) for lo in range(0, len(y), _CHUNK)])
    return (k @ basis.T).reshape(x.shape)


def _search(y, r):
    """Integer k minimizing |y_i - r k| for each row y_i; r upper triangular."""
    m, n = y.shape
    # the Babai point: round the basis coordinates from the last one up
    k, z = np.zeros((m, n)), y.copy()
    for i in range(n - 1, -1, -1):
        k[:, i] = np.round(z[:, i] / r[i, i])
        z -= np.outer(k[:, i], r[:, i])
    d_babai = (z * z).sum(axis=1)
    radius2 = d_babai * (1.0 + 1e-9) ** 2      # the nearest point is no farther
    # nodes: (query row, coordinates k[i:], residual y - r k, partial distance)
    row, kk, zz, dd = np.arange(m), np.zeros((m, n)), y, np.zeros(m)
    for i in range(n - 1, -1, -1):
        c = zz[:, i] / r[i, i]
        w = np.sqrt(np.maximum(radius2[row] - dd, 0.0)) / abs(r[i, i])
        lo = np.ceil(c - w)
        cnt = np.maximum(np.floor(c + w) - lo + 1.0, 0.0).astype(int)
        parent = np.repeat(np.arange(len(row)), cnt)
        ki = lo[parent] + np.arange(len(parent)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        row, kk, zz = row[parent], kk[parent], zz[parent] - np.outer(ki, r[:, i])
        kk[:, i] = ki
        dd = dd[parent] + zz[:, i] ** 2
    # the nearest leaf of each row, where it beats the Babai point
    order = np.lexsort((dd, row))
    first = order[np.unique(row[order], return_index=True)[1]]
    better = dd[first] < d_babai[row[first]]
    k[row[first][better]] = kk[first][better]
    return k
