"""Rank-uniformity, resolvability certificates, and lattice predicates.

The central object is the triangular matrix of down-set rank counts of a
quasi-rank uniform poset, stored as a sequence of monic row polynomials.
``resolve`` attempts to factor that matrix into the certificate of total
nonnegativity used throughout the verification suites: nonnegative
multipliers lambda(n, k) and an array of row polynomials satisfying the
one-step recursion with t^k dividing the k-th column.
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
    """The array R(n, k) and multipliers lambda(n, k) certifying resolvability.

    polys[n][k] is monic of degree n and divisible by t^k, with
    polys[n][0] the input row and polys[n][n] = t^n; lambdas[n][k] >= 0
    links consecutive rows via
    polys[n+1][k] = polys[n+1][k+1] + lambdas[n][k] * polys[n][k].
    """

    polys: Tuple[Tuple[ExactPoly, ...], ...]
    lambdas: Tuple[Tuple[Scalar, ...], ...]

    def verify(self, r: RMatrix) -> bool:
        """Recheck every certificate invariant against the input rows."""
        N = r.order
        if len(self.polys) != N + 1 or len(self.lambdas) != N:
            return False
        for n in range(N + 1):
            row = self.polys[n]
            if len(row) != n + 1:
                return False
            if row[0] != r.rows[n] or row[n] != ExactPoly.monomial(n):
                return False
            for k, poly in enumerate(row):
                if poly.degree != n or poly.leading_coefficient != 1:
                    return False
                if any(poly.coefficient(i) != 0 for i in range(k)):
                    return False
        for n in range(N):
            lams = self.lambdas[n]
            if len(lams) != n + 1 or any(l < 0 for l in lams):
                return False
            for k in range(n + 1):
                lhs = self.polys[n + 1][k]
                rhs = self.polys[n + 1][k + 1] + lams[k] * self.polys[n][k]
                if lhs != rhs:
                    return False
        return True

    def to_report_text(self) -> str:
        """Readable audit dump: multiplier rows then the polynomial array."""
        lines = []
        for n, lams in enumerate(self.lambdas):
            lines.append("lambda %d: %s" % (n, " ".join(str(l) for l in lams)))
        for n, row in enumerate(self.polys):
            for k, poly in enumerate(row):
                lines.append("R %d %d: %s" % (n, k, poly.to_string()))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ResolveOutcome:
    ok: bool
    witness: Optional[ResolutionWitness] = None
    obstruction: Optional[str] = None
    position: Optional[Tuple[int, int]] = None
    zero_pivot: bool = False

    def describe(self) -> str:
        if self.ok:
            return "resolvable"
        where = f" at {self.position}" if self.position else ""
        flag = " (zero pivot)" if self.zero_pivot else ""
        return f"{self.obstruction}{where}{flag}"


def resolve(r: RMatrix) -> ResolveOutcome:
    """Greedy construction of the resolvability certificate.

    The multiplier lambda(n, k) is forced whenever the pivot coefficient
    [t^k] polys[n][k] is nonzero, because the next column must be
    divisible by t^(k+1). A zero pivot with a zero target selects
    lambda = 0; a zero pivot with a nonzero target cannot be repaired by
    any multiplier and is reported as a divisibility failure with the
    zero_pivot flag set. The first obstruction encountered is reported.
    Nothing else can fail: row n is monic of degree n, so each peeled
    column stays monic and loses its t^k term, and the last is t^(n+1).
    """
    N = r.order
    polys: List[List[ExactPoly]] = [[r.rows[0]]]
    lambdas: List[List[Scalar]] = []

    for n in range(N):
        current = polys[n]
        nxt = [r.rows[n + 1]]
        lams: List[Scalar] = []
        for k in range(n + 1):
            target = nxt[k].coefficient(k)
            pivot = current[k].coefficient(k)
            if pivot == 0:
                lam: Scalar = 0
                if target != 0:
                    return ResolveOutcome(
                        False,
                        obstruction="divisibility failure",
                        position=(n, k),
                        zero_pivot=True,
                    )
            else:
                lam = Fraction(target, 1) / Fraction(pivot)
                if lam.denominator == 1:
                    lam = int(lam)
            if lam < 0:
                return ResolveOutcome(
                    False, obstruction="negative multiplier", position=(n, k)
                )
            lams.append(lam)
            nxt.append(nxt[k] - lam * current[k])
        polys.append(nxt)
        lambdas.append(lams)

    witness = ResolutionWitness(
        tuple(tuple(row) for row in polys), tuple(tuple(l) for l in lambdas)
    )
    return ResolveOutcome(True, witness=witness)


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
    """p_0 = 1 and p_n = t * sum_{k<n} r(n, k) p_k for n = 1..N."""
    out = [ExactPoly((1,))]
    for n in range(1, r.order + 1):
        acc = ExactPoly()
        for k in range(n):
            c = r.entry(n, k)
            if c:
                acc = acc + c * out[k]
        out.append(acc.shift(1))
    return out


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
    whose False verdict overrides it. The verdict is stored on the poset,
    as ``is_lattice`` stores its own, so a poset is tested once.
    """
    _require_lattice(p)
    if p._geometric is None:
        object.__setattr__(p, "_geometric", _is_graded(p) and _has_covering_property(p) and is_atomistic(p))
    return p._geometric
