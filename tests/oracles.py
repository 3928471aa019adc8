"""Independent numeric oracles used to freeze expected values.

These deliberately avoid the symbolic degree rules in the package: series
behaviour is judged from float partial sums, subspace intersections from a
direct null-space computation.  ``is_canonical`` states the SparseVector
invariant entry by entry, apart from the constructor that keeps it.
"""

from __future__ import annotations

import numpy as np

NMAX = 1_000_000
TAIL_WINDOW_TOL = 0.05
GROWTH_FACTOR = 1e3


def weight_values(weight, k: np.ndarray) -> np.ndarray:
    num = [float(c) for c in reversed(weight.num)] or [0.0]
    den = [float(c) for c in reversed(weight.den)]
    return np.polyval(num, k) / np.polyval(den, k)


def powerlaw_values(p, k: np.ndarray, offset: int = 1) -> np.ndarray:
    return (k + float(offset)) ** (-float(p))


def nonneg_series_converges(terms: np.ndarray) -> bool:
    """Partial-sum verdict for nonnegative terms.

    Divergence when the sum blows past GROWTH_FACTOR times the first nonzero
    term, or when the last decade of partial sums still moves by more than
    TAIL_WINDOW_TOL; convergence otherwise.
    """
    partial = np.cumsum(terms)
    nonzero = terms[terms > 0]
    if nonzero.size == 0:
        return True
    if partial[-1] > GROWTH_FACTOR * nonzero[0]:
        return False
    tail = partial[-1] - partial[len(terms) // 10 - 1]
    return tail < TAIL_WINDOW_TOL


def alternating_series_converges(term_magnitudes: np.ndarray) -> bool:
    """Envelope verdict for eventually monotone alternating series.

    Consecutive partial sums bracket the limit with gap equal to the term
    magnitude, so the series converges exactly when the magnitudes die out.
    """
    nonzero = term_magnitudes[term_magnitudes > 0]
    if nonzero.size == 0:
        return True
    return term_magnitudes[-1] < 0.01 * max(nonzero[0], 1.0)


def subspaces_intersect_nontrivially(w_rows: np.ndarray, d1_rows: np.ndarray,
                                     tol: float) -> bool:
    """Whether span(d1) meets the orthogonal complement of span(w) beyond 0.

    Solves (w_rows @ d1_rows.T) a = 0 directly: a nontrivial null vector a
    gives x = d1_rows.T a orthogonal to every w row.
    """
    mat = w_rows @ d1_rows.T
    if mat.size == 0:
        return d1_rows.shape[0] > 0
    s = np.linalg.svd(mat, compute_uv=False)
    scale = max(s[0], 1.0) if s.size else 1.0
    rank = int(np.sum(s > tol * scale))
    return rank < d1_rows.shape[0]


def is_canonical(v) -> bool:
    """Strictly increasing int indices >= 0 and no zero value."""
    indices = [k for k, _ in v.entries]
    return (all(type(k) is int and k >= 0 for k in indices)
            and all(a < b for a, b in zip(indices, indices[1:]))
            and all(x != 0 for _, x in v.entries))
