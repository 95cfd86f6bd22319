"""Rank-uniformity, resolvability certificates, and lattice predicates.

The central object is the triangular matrix of down-set rank counts of a
quasi-rank uniform poset, stored as a sequence of monic row polynomials.
``resolve`` attempts to factor that matrix into the certificate of total
nonnegativity used throughout the verification suites: nonnegative
multipliers lambda(n, k), which rebuild the rows through the one-step
recursion of an array of row polynomials with t^k dividing the k-th column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .polynomial import ExactPoly, Scalar, _minors_nonnegative
from .posets import Poset, _line_int


# -- the rank-count matrix -------------------------------------------------------


@dataclass(frozen=True)
class RMatrix:
    """Monic row polynomials R_0, ..., R_N with deg R_n = n.

    Row n collects the rank profile of any down-set whose top element has
    quasi-rank n; entries are nonnegative integers with constant term at
    least one (the bottom element sits in every down-set).
    """

    rows: Tuple[ExactPoly, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("rank-count matrix has no rows")
        for n, row in enumerate(self.rows):
            if row.degree != n or row.leading_coefficient != 1:
                raise ValueError(f"row {n} is not monic of degree {n}")
            if any(not isinstance(c, int) or c < 0 for c in row.coeffs):
                raise ValueError(f"row {n} has a non-integer or negative entry")
            if row.coefficient(0) < 1:
                raise ValueError(f"row {n} has constant term zero")

    @classmethod
    def from_int_rows(cls, rows: Sequence[Sequence[int]]) -> "RMatrix":
        return cls(tuple(ExactPoly(r) for r in rows))

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> int:
        return self.rows[n].coefficient(k)

    def to_text(self) -> str:
        """Triangular integer rows, one row per line."""
        return "\n".join(" ".join(str(c) for c in row.coeffs) for row in self.rows) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RMatrix":
        rows = [
            [_line_int(lineno, tok) for tok in line.split()]
            for lineno, line in enumerate(text.splitlines(), start=1)
            if line.strip()
        ]
        return cls.from_int_rows(rows)


# -- quasi-rank uniformity -------------------------------------------------------


def is_quasi_rank_uniform(p: Poset) -> Tuple[bool, Optional[RMatrix]]:
    """Check that down-set rank profiles depend only on the top's quasi-rank.

    Returns (True, R(P)) on success, (False, None) otherwise. Requires a
    least element.
    """
    if p.least is None:
        raise ValueError("quasi-rank uniformity requires a least element")
    counts = p._level_counts(below=True)
    if counts is None:
        return False, None
    # a down-set meets its top's level only at the top
    return True, RMatrix(tuple(ExactPoly(row + [1]) for row in counts))


def rank_matrix(p: Poset) -> RMatrix:
    """R(P) of a quasi-rank uniform poset; error when not uniform."""
    ok, rmat = is_quasi_rank_uniform(p)
    if not ok:
        raise ValueError("poset is not quasi-rank uniform")
    return rmat


# -- resolvability ----------------------------------------------------------------


@dataclass(frozen=True)
class ResolutionWitness:
    """The multipliers lambda(n, k) certifying resolvability.

    With R(n, 0) the input row n and R(n, n) = t^n, they fix the array
    R(n+1, k) = R(n+1, k+1) + lambdas[n][k] * R(n, k), whose column k is
    then monic of degree n and divisible by t^k. They certify the rows
    when every one is nonnegative and the rebuilt column 0 of each row is
    the input row.

    ``verify`` rebuilds the array a row at a time on coefficient lists. It
    is written apart from ``resolve`` and shares no helper or loop with it:
    the builder peels each column off the row by subtracting, and the
    checker rebuilds it from t^(n+1) by adding.
    """

    lambdas: Tuple[Tuple[Scalar, ...], ...]

    def verify(self, r: RMatrix) -> bool:
        """Rebuild each row from the multipliers and compare it with the input.

        A multiplier whose type is not int or Fraction (a float, a bool,
        None) is refused, whatever its value. No ExactPoly is made.
        """
        if len(self.lambdas) != r.order:
            return False
        lower = [r.rows[0].coeffs]  # the columns of row n, R(0, 0) = 1
        for n, lams in enumerate(self.lambdas):
            if len(lams) != n + 1:
                return False
            col = [0] * (n + 1) + [1]  # R(n+1, n+1) = t^(n+1)
            upper = [col]
            for k in range(n, -1, -1):
                lam, under = lams[k], lower[k]
                if type(lam) not in (int, Fraction) or lam < 0:
                    return False
                if lam:  # R(n+1, k) = R(n+1, k+1) + lam * R(n, k), zero below t^k
                    col = col[:]
                    for i in range(k, n + 1):
                        col[i] += lam * under[i]
                upper.append(col)
            if tuple(col) != r.rows[n + 1].coeffs:
                return False
            upper.reverse()
            lower = upper
        return True

    def to_report_text(self) -> str:
        """Readable audit dump: one line of multipliers per row."""
        return "".join("lambda %d: %s\n" % (n, " ".join(map(str, lams))) for n, lams in enumerate(self.lambdas))


@dataclass(frozen=True)
class ResolveOutcome:
    ok: bool
    witness: Optional[ResolutionWitness] = None
    obstruction: Optional[str] = None
    position: Optional[Tuple[int, int]] = None

    @property
    def zero_pivot(self) -> bool:
        """``resolve`` fails on divisibility only at a zero pivot."""
        return self.obstruction == "divisibility failure"

    def describe(self) -> str:
        if self.ok:
            return "resolvable"
        where = f" at {self.position}" if self.position else ""
        flag = " (zero pivot)" if self.zero_pivot else ""
        return f"{self.obstruction}{where}{flag}"


def resolve(r: RMatrix) -> ResolveOutcome:
    """Greedy construction of the resolvability certificate.

    The multiplier lambda(n, k) is forced whenever the pivot coefficient
    [t^k] R(n, k) is nonzero, because the next column must be divisible
    by t^(k+1). A zero pivot with a zero target selects lambda = 0; a zero
    pivot with a nonzero target cannot be repaired by any multiplier and
    is reported as a divisibility failure, the zero-pivot case. The first
    obstruction encountered is reported. Nothing else can fail: row n is
    monic of degree n, so each peeled column stays monic and loses its
    t^k term, and the last is t^(n+1).

    The columns are plain coefficient lists peeled from each row's
    coefficient tuple, and only the previous row's are kept: entries stay
    ints while the multipliers do, and a multiplier is a Fraction only
    when the pivot does not divide the target. No ExactPoly is made.
    """
    current: List[Sequence[Scalar]] = [r.rows[0].coeffs]
    lambdas: List[Tuple[Scalar, ...]] = []

    for n in range(r.order):
        nxt = [r.rows[n + 1].coeffs]
        lams: List[Scalar] = []
        for k in range(n + 1):
            col, prev = nxt[k], current[k]
            target, pivot = col[k], prev[k]
            if pivot == 0:
                lam: Scalar = 0
                if target != 0:
                    return ResolveOutcome(False, obstruction="divisibility failure", position=(n, k))
            else:
                lam, rest = divmod(target, pivot)
                if rest:
                    lam = Fraction(target, pivot)
            if lam < 0:
                return ResolveOutcome(
                    False, obstruction="negative multiplier", position=(n, k)
                )
            lams.append(lam)
            # the next column: col - lam * prev, whose t^k term is zero
            # (with lam = 0 the target is zero already, so col itself)
            if lam:
                col = list(col)
                col[k] = 0
                for i in range(k + 1, n + 1):
                    col[i] -= lam * prev[i]
            nxt.append(col)
        current = nxt
        lambdas.append(tuple(lams))

    return ResolveOutcome(True, witness=ResolutionWitness(tuple(lambdas)))


def is_totally_nonnegative(r: RMatrix) -> bool:
    """All-minors total nonnegativity check, a test oracle for small orders.

    Guarded to order <= 8; the resolvability certificate is the intended
    production path.
    """
    N = r.order
    if N > 8:
        raise ValueError("minor enumeration is capped at order 8")
    size = N + 1
    mat = [[r.entry(n, k) if k <= n else 0 for k in range(size)] for n in range(size)]
    return _minors_nonnegative(mat, size)


# -- chain polynomials from the rank matrix ------------------------------------------


def chain_polys_from_rmatrix(r: RMatrix) -> List[ExactPoly]:
    """p_0 = 1 and p_n = t * sum_{k<n} r(n, k) p_k for n = 1..N.

    The recurrence runs on int coefficient lists, reading each row once;
    only the N + 1 returned polynomials are ExactPoly objects.
    """
    out: List[List[int]] = [[1]]
    for n, row in enumerate(r.rows[1:], start=1):
        acc = [0] * (n + 1)  # acc[i] is [t^i] p_n, so acc[0] stays 0
        for k, c in enumerate(row.coeffs[:n]):
            if c:
                for i, a in enumerate(out[k], start=1):
                    acc[i] += c * a
        out.append(acc)
    return [ExactPoly(p) for p in out]


def ordinal_sum_rows(r: RMatrix, s: RMatrix) -> RMatrix:
    """Rank rows of a stacked poset: rows of r, then t^(N+1) * s-row + top row of r.

    Requires every row of s to have constant term one (the lower part of
    the stack contributes its full rank polynomial below each upper
    element).
    """
    for n, row in enumerate(s.rows):
        if row.coefficient(0) != 1:
            raise ValueError(f"row {n} of the upper summand has constant term != 1")
    N = r.order
    top = r.rows[N]
    rows = list(r.rows)
    for m in range(s.order + 1):
        rows.append(s.rows[m].shift(N + 1) + top)
    return RMatrix(tuple(rows))


# -- lattice predicates ----------------------------------------------------------------


def _require_lattice(p: Poset) -> None:
    if not p.is_lattice:
        raise ValueError("not a lattice")


def _is_graded(p: Poset) -> bool:
    """Every cover climbs one quasi-rank. Each climbs at least one, so that
    holds iff the climbs, summed as the sum of rho(y) times the lower covers
    of y less the sum of rho(x) times the upper covers of x, number the covers."""
    rho = p._rho
    climbs = sum(map(mul, rho, map(len, p._cover_down))) - sum(map(mul, rho, map(len, p._cover_up)))
    return climbs == len(p.covers)


def is_atomistic(p: Poset) -> bool:
    """Every element above the bottom is a join of atoms: equivalently,
    every join-irreducible is an atom."""
    _require_lattice(p)
    bottom = (p.least,)
    return all(p._cover_down[j] == bottom for j in p.join_irreducibles())


def _has_covering_property(p: Poset) -> bool:
    """Every atom not below x lies under some upper cover of x, for every x:
    one mask OR per cover."""
    atoms = sum(1 << a for a in p.atoms())
    down = p._down
    for x, covers in enumerate(p._cover_up):
        reach = down[x]
        for c in covers:
            reach |= down[c]
        if atoms & ~reach:
            return False
    return True


def is_geometric(p: Poset) -> bool:
    """Graded, semimodular, atomistic lattice.

    Semimodularity of an atomistic lattice is decided by the covering
    property: it holds iff x join a covers x for every x and every atom a
    not below x (Stanley, EC1 section 3.3; Oxley, Matroid Theory section
    1.7). If the lattice is semimodular, x meet a is the bottom, so
    rho(x join a) <= rho(x) + rho(a) - 0 = rho(x) + 1. Conversely, let
    x != y cover z. As x is a join of atoms, some atom a below x is not
    below z, so z < z join a <= x and x = z join a; likewise y = z join b,
    and b is not below x, else y <= x. So x join y = x join b covers x,
    and likewise y: the upward cover criterion (EC1 Prop. 3.3.2). Last,
    x join a covers x iff a lies under some upper cover c of x, since then
    x < x join a <= c. The covering test runs before the atomistic one,
    whose False verdict overrides it. The verdict is stored on the poset
    (``Poset._derived``), as ``is_lattice`` stores its own, so a poset is
    tested once.
    """
    _require_lattice(p)
    return p._derived("geometric", lambda p: _is_graded(p) and _has_covering_property(p) and is_atomistic(p))
