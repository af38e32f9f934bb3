"""A branch-and-bound bracket for sup_u g(n, u), independent of the package's search.

g(n, u) = (1 / (n psi(u))) * sum_{s=1}^n psi(P(|S_n| >= s)), S_n the sum of n
signed indicators of measure u.  Given the number K of nonzero terms, S_n is
the K-step walk W_K, so P(|S_n| >= s) = sum_K Bin(n, u)(K) P(|W_K| >= s): a
binomial mixture of the exact walk tails of ``walk_distribution``, O(n^2) per
u, which shares nothing with the O(n) recurrence the package prices.

Bounds on a cell [a, b] of u.  Bin(n, u)(K) is unimodal in u with its peak at
K / n, so its maximum on the cell is at a, at b or at K / n, and mixing those
maxima bounds every tail on the cell from above; a = b gives the tails
themselves.  psi increases, so psi(tail bound) bounds each term, and
psi(u) >= psi(a) bounds the divisor.  The mixture is summed by Horner's rule in
y = b / (1 - b) on cells of (0, 1/2] and in z = (1 - a) / a on cells of
[1/2, 1], with the maxima scaled by (1 - a)^n y^K or b^n z^(n-K), which is
never below them: the scaled maxima lie in [C(n, K) 2^-n, C(n, K)], and
deep tails below float underflow keep their leading term.

The cells start at ``PER_OCTAVE`` per octave of [2^-40, 1]; each round takes
at most ``ROUND_CELLS`` of them, raises the best value found (g at the left
end of each cell whose bound passes it), closes every cell whose bound is
within a relative ``DELTA`` of it and splits each open one geometrically in
``SPLIT``.  More than ``CAP`` cells made fail loudly, so the cells waiting for
a round never pass it.  The u -> 0 limit lies outside the bracket: the caller
says which side holds the sup.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from rispaces import walk_distribution

LOG2_U_MIN = -40
PER_OCTAVE = 16  # cells per octave to start
SPLIT = 8  # cells an open cell is split into
DELTA = 1e-6  # a cell closes when its bound is within this of the best value, relatively
ROUND_CELLS = 1024  # cells per round, which bounds the round's arrays
CAP = 400_000  # cells made; the cases in the tests make at most a quarter of it


def _walk_tails(n: int) -> np.ndarray:
    """P(|W_K| >= s) at [K, s - 1], for K = 0..n and s = 1..n."""
    tails = np.zeros((n + 1, n))
    for K in range(1, n + 1):
        law = walk_distribution(K).breakpoints  # law[1 + i] = P(|W_K| >= K - 2i)
        for s in range(1, K + 1):
            tails[K, s - 1] = float(law[1 + (K - s) // 2])
    return tails


def _horner(steps, x: np.ndarray, n: int) -> np.ndarray:
    """sum_j c_j x^j for tails s = 1..n (rows) and cells (columns).

    Each step gives the next coefficient, from the highest power down, as a
    product ``row * column`` over the first m rows, m never falling: a row
    below every coefficient so far is still 0.
    """
    acc, term = np.zeros((n, x.size)), np.empty((n, x.size))
    for row, column in steps:
        m = column.shape[0]
        acc[:m] *= x
        acc[:m] += np.multiply(row, column, out=term[:m])
    return acc


def _log_tail_bounds(tails: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log of a bound of P(|S_n| >= s) over u in each cell [a, b], s = 1..n in rows."""
    n = tails.shape[1]
    K = np.arange(n + 1)[:, None]
    # log Bin(n, u)(K) where it is largest on the cell, at u = K / n clipped into it
    with np.errstate(divide="ignore"):
        log_u = np.clip(np.log(K / n), np.log(a), np.log(b))
        log_1mu = np.clip(np.log1p(-K / n), np.log1p(-b), np.log1p(-a))
    log_bin = np.array([[math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)]
                        for k in range(n + 1)]) + K * log_u
    log_bin[:n] += (n - K[:n]) * log_1mu[:n]  # u^n alone at K = n, where 1 - u may be 0
    out = np.empty((n, a.size))
    low = b <= 0.5
    al, bl = a[low], b[low]
    y = bl / (1.0 - bl)
    log_y = np.log(y)
    lead = n * np.log1p(-al)
    scaled = np.exp(log_bin[:, low] - lead - K * log_y)
    # with y^s taken out of tail s, the power y^j carries K = s + j
    steps = ((scaled[j + 1 :], tails[j + 1 :].diagonal()[:, None]) for j in range(n - 1, -1, -1))
    out[:, low] = lead + K[1:] * log_y + np.log(_horner(steps, y, n))
    ah, bh = a[~low], b[~low]
    z = (1.0 - ah) / ah  # 1 - a is exact for a >= 1/2
    lead = n * np.log(bh)
    scaled = np.exp(log_bin[:, ~low] - lead - (n - K) * np.log(z))
    steps = ((scaled[k], tails[k, :k, None]) for k in range(1, n + 1))  # z^(n-k)
    out[:, ~low] = lead + np.log(_horner(steps, z, n))
    return np.minimum(out, 0.0, out=out)


def _ratio_bound(psi, n: int, log_tails: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_s psi(tail_s) / (n psi(a)) per cell.

    From the tails at u = a this is g(n, a); from bounds of them on the cell
    [a, b], a bound of g there.
    """
    return np.exp(psi.log_eval(log_tails)).sum(axis=0) / (n * np.exp(psi.log_eval(np.log(a))))


def indicator_ratio_bracket(psi, n: int):
    """(lower, upper) ends of sup g(n, u) over u in [2^-40, 1]."""
    tails = _walk_tails(n)
    ends = 2.0 ** np.linspace(LOG2_U_MIN, 0.0, -LOG2_U_MIN * PER_OCTAVE + 1)
    pending = deque([(ends[:-1], ends[1:])])
    best, upper, cells = 0.0, 0.0, ends.size - 1
    while pending:
        a, b = pending.popleft()
        if a.size > ROUND_CELLS:
            pending.appendleft((a[ROUND_CELLS:], b[ROUND_CELLS:]))
            a, b = a[:ROUND_CELLS], b[:ROUND_CELLS]
        bound = _ratio_bound(psi, n, _log_tail_bounds(tails, a, b), a)
        rise = bound > best  # only these cells can hold a higher value
        if rise.any():
            left = a[rise]
            best = max(best, float(_ratio_bound(psi, n, _log_tail_bounds(tails, left, left),
                                                left).max()))
        shut = bound <= best * (1.0 + DELTA)
        upper = max(upper, float(bound[shut].max(initial=0.0)))
        a, b = a[~shut], b[~shut]
        if a.size:
            cells += SPLIT * a.size
            if cells > CAP:
                raise AssertionError(f"the bracket of n = {n} needs more than {CAP} cells")
            steps = np.linspace(0.0, 1.0, SPLIT + 1)
            la, lb = np.log(a)[:, None], np.log(b)[:, None]
            cut = np.clip(np.exp(la + (lb - la) * steps), a[:, None], b[:, None])
            cut[:, 0], cut[:, -1] = a, b
            pending.append((cut[:, :-1].ravel(), cut[:, 1:].ravel()))
    return best, max(best, upper)
