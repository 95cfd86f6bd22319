"""Descent and inversion statistics of permutations, from chain counts.

The inversion-weighted descent polynomial A_n(t, q) is the h-polynomial of
the order complex of the subspace lattice L_n(q). Its chain counts are sums
of q-multinomial coefficients, so a dynamic program over compositions of n
gives A_n(t, q) in O(n^3) arithmetic operations without listing the n!
permutations.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomial import ExactPoly, Scalar, h_from_f

MAX_PERMUTATION_SIZE = 30


def _chain_counts(n: int, q: Scalar) -> ExactPoly:
    """f(t) = sum_k f_k t^k, with f_k the number of k-element chains in the
    proper part of L_n(q): the sum of the q-multinomials [n; c_0, ..., c_k]_q
    over the compositions c of n into k + 1 parts."""
    qpow = [q**a for a in range(n + 1)]
    # Gaussian binomials [m choose a]_q by the q-Pascal rule
    binom = [[1]]
    for m in range(1, n + 1):
        prev = binom[-1]
        binom.append([1] + [prev[a - 1] + qpow[a] * prev[a] for a in range(1, m)] + [1])
    # comp[m][j]: sum of q-multinomials over compositions of m into j parts,
    # split by the size a of the last part
    comp = [[1] + [0] * n]
    for m in range(1, n + 1):
        row = [0] * (n + 1)
        for j in range(1, m + 1):
            row[j] = sum(comp[m - a][j - 1] * binom[m][a] for a in range(1, m - j + 2))
        comp.append(row)
    return ExactPoly(comp[n][1:])


def q_eulerian(n: int, q: Scalar) -> ExactPoly:
    """A_n(t, q) = sum over permutations of n letters of q^inv * t^des.

    Computed as h_from_f(f, n - 1), where f counts the chains of the proper
    part of the subspace lattice L_n(q) (see :func:`_chain_counts`). The
    identity holds as polynomials in q, so it holds at every rational q, not
    only at prime powers (Stanley, "Binomial posets, Mobius inversion, and
    permutation enumeration", J. Combin. Theory Ser. A 20 (1976)).
    """
    if not 1 <= n <= MAX_PERMUTATION_SIZE:
        raise ValueError(f"permutation size out of range: {n}")
    q = Fraction(q)
    if q.denominator == 1:
        q = q.numerator
    return h_from_f(_chain_counts(n, q), n - 1)


def eulerian(n: int) -> ExactPoly:
    """Descent-count generating polynomial of the symmetric group on n letters.

    Computed by the recurrence A(n, k) = (k + 1) A(n - 1, k) + (n - k)
    A(n - 1, k - 1) on the Eulerian numbers, independently of
    :func:`q_eulerian`, which it equals at q = 1.
    """
    if not 1 <= n <= MAX_PERMUTATION_SIZE:
        raise ValueError(f"permutation size out of range: {n}")
    row = [1]
    for m in range(2, n + 1):
        row = [1] + [(k + 1) * row[k] + (m - k) * row[k - 1] for k in range(1, m - 1)] + [1]
    return ExactPoly(row)
