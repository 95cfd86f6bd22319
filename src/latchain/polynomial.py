"""Exact univariate polynomial arithmetic and real-root predicates.

Everything is computed over the rationals, and no floating point is used
anywhere. The predicates read no root locations. Each one turns its input
into one representation, the primitive integer multiple of the
polynomial as a list of ints, lowest degree first, and works on such
lists to the verdict. Real-rootedness and interlacing are each decided by
one signed remainder sequence of such lists, whose sign variations at
-inf and +inf give a Cauchy index (Sturm's theorem), read off each term's
last entry and length. Root location in an interval is decided by
Descartes' rule of signs on two Taylor shifts of the same list, which is
exact on real-rooted input. Sturm counts give the number of distinct
roots in an interval, and with bisection they isolate the roots in
disjoint rational intervals for failure witnesses.

The same remainder sequence is the only gcd: the Sturm chain of p ends in
gcd(p, p'), which gives the square-free part of p for counts on an
interval and isolation, and the tower of repeated gcds gives the
multiplicity of each isolated root.

Every sign at a rational point a/b is the sign of b^d p(a/b), computed on
the integers a and b (``_sign_at``). On signs alone at dyadic points,
``certify_interlacing_sequence`` proves a whole sequence real-rooted in
[-1, 0] and consecutively interlacing, or leaves it to the remainder
sequences.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from typing import Iterable, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]

# degree of the zero polynomial
MINUS_INF = float("-inf")

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class DigitLimitError(ValueError):
    """A number past Python's limit on converting an int to or from decimal
    text, refused in words that name the limit rather than the setting."""

    def __init__(self):
        super().__init__(f"number over the limit of {sys.get_int_max_str_digits()} digits")


def _rational(token: str) -> Fraction:
    """The number written by an integer or "p/q" token; anything else, such as
    "1e9", "1_0", ".5", "0.5" or "1/0", is a ValueError."""
    if not _RATIONAL.fullmatch(token):
        raise ValueError(f"invalid number {token!r}: write an integer or p/q")
    if re.search("/0+$", token):
        raise ValueError(f"invalid number {token!r}: zero denominator")
    try:
        return Fraction(token)
    except ValueError:  # a well-formed token is refused only for its length
        raise DigitLimitError() from None


def _integer(token: str) -> int:
    """The integer an ASCII [+-]?[0-9]+ token writes; else a ValueError in int()'s own words."""
    if not _RATIONAL.fullmatch(token) or "/" in token:
        raise ValueError(f"invalid literal for int() with base 10: {token!r:.200}")
    try:
        return int(token)
    except ValueError:  # a well-formed token is refused only for its length
        raise DigitLimitError() from None


def _decimals(xs: Iterable[Scalar]) -> str:
    """The numbers in decimal, space-separated; one too long to print is a DigitLimitError."""
    try:
        return " ".join(map(str, xs))
    except ValueError:
        raise DigitLimitError() from None


def _norm(c: Scalar) -> Scalar:
    """Collapse integral Fractions to int; reject inexact coefficient types."""
    if type(c) is int:
        return c
    if isinstance(c, bool):
        raise TypeError("bool is not a polynomial coefficient")
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"exact coefficient required, got {type(c).__name__}")


class ExactPoly:
    """Univariate polynomial with exact rational coefficients.

    ``coeffs[k]`` holds the coefficient of t^k; the trailing entry is
    nonzero unless the polynomial is zero (empty tuple). Instances are
    immutable and hashable, so they are safe to share across threads.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_norm(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ExactPoly is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def monomial(cls, k: int) -> "ExactPoly":
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        return cls((0,) * k + (1,))

    @classmethod
    def from_string(cls, text: str) -> "ExactPoly":
        """Parse an ASCII coefficient list, lowest degree first, e.g. "1 4 5 2".

        Each entry is an integer or a rational "p/q", see :func:`_rational`.
        """
        return cls(map(_rational, text.split()))

    def to_string(self) -> str:
        """Inverse of :meth:`from_string`; the zero polynomial prints as "0"."""
        if not self.coeffs:
            return "0"
        return _decimals(self.coeffs)

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self):
        """Degree, or ``MINUS_INF`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("ExactPoly",) + tuple(map(Fraction, self.coeffs)))

    def __repr__(self) -> str:
        return f"ExactPoly({list(self.coeffs)!r})"

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ExactPoly(out)

    def __neg__(self) -> "ExactPoly":
        return ExactPoly(-c for c in self.coeffs)

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactPoly(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ExactPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci == 0:
                continue
            for j, cj in enumerate(b):
                out[i + j] += ci * cj
        return ExactPoly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int) -> "ExactPoly":
        if k < 0:
            raise ValueError("negative power")
        result = ExactPoly((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def shift(self, k: int) -> "ExactPoly":
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return ExactPoly((0,) * k + self.coeffs)

    def __call__(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


# -- Sturm sequences --------------------------------------------------------------


def _primitive(cs: list) -> list:
    """Divide integer coefficients by their positive content."""
    g = gcd(*cs)
    return cs if g == 1 else [c // g for c in cs]


def _integer_coeffs(coeffs: Sequence[Scalar]) -> list:
    """Nonzero coefficients times the positive rational that makes them
    coprime integers."""
    cs = list(coeffs)
    if not all(type(c) is int for c in cs):
        den = lcm(*(c.denominator for c in cs))
        cs = [int(c * den) for c in cs]
    return _primitive(cs)


def _signed_remainders(a: list, b: list) -> list:
    """The signed remainder sequence a, b, -rem(a, b), ... of nonzero
    integer coefficient lists, lowest degree first.

    Each term is a positive multiple of the term of the rational sequence:
    the remainders are integer pseudo-remainders scaled by |lc|, and every
    remainder is divided by its positive content. So every sign that a
    Sturm count reads is unchanged. The last term is gcd(a, b) up to a
    nonzero factor.
    """
    seq = [a, b]
    while True:
        scale, sign, db = abs(b[-1]), (1 if b[-1] > 0 else -1), len(b)
        r = a
        while len(r) >= db:
            top, shift = sign * r[-1], len(r) - db
            r = [scale * c for c in r]
            for j, c in enumerate(b):
                r[shift + j] -= top * c
            while r and r[-1] == 0:
                r.pop()
        if not r:
            return seq
        r = _primitive([-c for c in r])
        seq.append(r)
        a, b = b, r


def _sturm_chain(cs: list) -> list:
    """The signed remainder sequence of the coefficient list cs of a
    nonconstant polynomial and of its derivative."""
    return _signed_remainders(cs, _primitive([k * c for k, c in enumerate(cs)][1:]))


def _exact_quotient(a: list, b: list) -> list:
    """a / b for integer lists where b divides a over the rationals and b is
    primitive, so the quotient has integer coefficients (Gauss's lemma)."""
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    quo = [0] * (len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        q = quo[i] = r[i + db] // lead
        for j, c in enumerate(b):
            r[i + j] -= q * c
    return quo


def _squarefree_split(cs: list) -> Tuple[list, list]:
    """(s, g) for the coefficient list cs of a nonconstant polynomial p: g is
    the last term of its Sturm chain, that is gcd(p, p') up to a nonzero
    factor, and s = p / g is a nonzero multiple of the product of the
    distinct irreducible factors of p. Negating s negates every term of its
    Sturm chain, which changes no sign variation count."""
    g = _sturm_chain(cs)[-1]
    return _exact_quotient(cs, g), g


def _variations(signs: Sequence[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _sign(x: Scalar) -> int:
    return (x > 0) - (x < 0)


def _sign_at(cs: Sequence[int], a: int, b: int = 1) -> int:
    """Sign at x = a/b, b > 0, of the polynomial with nonempty integer
    coefficient list cs.

    That is the sign of b^d p(a/b), d = len(cs) - 1, which Horner's rule
    computes on the integers a and b alone: each step multiplies by a and
    adds the next coefficient times the next power of b, so no fraction is
    formed and no gcd taken. A power-of-two b multiplies by a shift.
    """
    acc = cs[-1]
    if b & (b - 1):
        scale = 1
        for c in cs[-2::-1]:
            scale *= b
            acc = acc * a + c * scale
    else:
        step = b.bit_length() - 1
        shift = 0
        for c in cs[-2::-1]:
            shift += step
            acc = acc * a + (c << shift)
    return _sign(acc)


def _variations_at(chain: Sequence[list], x: Fraction) -> int:
    a, b = x.numerator, x.denominator
    return _variations([_sign_at(cs, a, b) for cs in chain])


def _cauchy_index(seq: Sequence[list]) -> int:
    """Var(-inf) - Var(+inf): the Cauchy index of b/a over all of R for the
    signed remainder sequence of (a, b).

    Near +inf each term has the sign of its last entry; near -inf that sign
    flips for odd degree, so a pair of neighbours changes sign at -inf iff
    it changes at +inf xor their lengths differ in parity.
    """
    index = 0
    for a, b in zip(seq, seq[1:]):
        at_plus = (a[-1] > 0) != (b[-1] > 0)
        index += (at_plus != ((len(a) ^ len(b)) & 1)) - at_plus
    return index


def _real_rooted(cs: list) -> bool:
    """is_real_rooted on the integer coefficient list of a nonzero polynomial."""
    if len(cs) == 1:
        return True
    chain = _sturm_chain(cs)
    return _cauchy_index(chain) == len(cs) - len(chain[-1])


def sturm_real_root_count(
    p: ExactPoly, interval: Optional[Tuple[Scalar, Scalar]] = None
) -> int:
    """Number of distinct real roots of p, in all of R or in a closed interval.

    Repeated roots are counted once.
    """
    if p.is_zero:
        raise ValueError("undefined root count for the zero polynomial")
    if p.degree == 0:
        return 0
    cs = _integer_coeffs(p.coeffs)
    if interval is None:
        return _cauchy_index(_sturm_chain(cs))
    lo, hi = Fraction(interval[0]), Fraction(interval[1])
    if lo > hi:
        raise ValueError("empty interval")
    # on square-free s, Var(lo) - Var(hi) counts the roots in (lo, hi]
    s = _squarefree_split(cs)[0]
    chain = _sturm_chain(s)
    at_lo = _sign_at(s, lo.numerator, lo.denominator)
    return _variations_at(chain, lo) - _variations_at(chain, hi) + (at_lo == 0)


def is_real_rooted(p: ExactPoly) -> bool:
    """True iff every complex zero of p is real (constants count as real-rooted).

    The Sturm chain of (p, p') counts the distinct real roots, and ends in
    gcd(p, p'), so p has deg p - deg gcd(p, p') distinct complex roots.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    return _real_rooted(_integer_coeffs(p.coeffs))


def _no_positive_root(coeffs: Sequence[Scalar]) -> bool:
    """For the coefficients of a real-rooted polynomial: no root > 0.
    Descartes' rule is exact on real-rooted input, so this holds iff the
    coefficients have no sign variation."""
    return _variations([_sign(c) for c in coeffs]) == 0


def _taylor_shift(coeffs: Sequence[Scalar], a: Scalar) -> list:
    """Coefficients of p(a + t) from those of p(t), lowest degree first.

    Repeated synthetic division by (t - a) in place, O(d^2) scalar steps;
    the arithmetic stays in ints when a and the coefficients are ints.
    """
    cs = list(coeffs)
    if a == 0:
        return cs
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += a * cs[j + 1]
    return cs


def roots_in_interval(p: ExactPoly, lo: Scalar, hi: Scalar) -> bool:
    """True iff every root of the real-rooted polynomial p lies in [lo, hi].

    No root exceeds hi iff p(hi + t) has no positive root, and none is
    below lo iff p(lo - t) has none. Both shifts start from the primitive
    integer multiple of p that the real-rootedness check builds, whose
    coefficient signs are those of p.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    cs = _integer_coeffs(p.coeffs)
    if not _real_rooted(cs):
        raise ValueError("not real-rooted")
    if len(cs) == 1:
        return True
    lo, hi = _norm(Fraction(lo)), _norm(Fraction(hi))
    if lo > hi:
        raise ValueError("empty interval")
    return _no_positive_root(_taylor_shift(cs, hi)) and _no_positive_root(
        [-c if k % 2 else c for k, c in enumerate(_taylor_shift(cs, lo))]
    )


# -- root isolation ----------------------------------------------------------------


@dataclass(frozen=True)
class RootIsolation:
    """Disjoint rational intervals (a, b], one per distinct real root.

    ``multiplicities[i]`` is the multiplicity of the root inside
    ``intervals[i]``; intervals are sorted in increasing order.
    """

    intervals: Tuple[Tuple[Fraction, Fraction], ...]
    multiplicities: Tuple[int, ...]

    @property
    def distinct_count(self) -> int:
        return len(self.intervals)

    @property
    def count_with_multiplicity(self) -> int:
        return sum(self.multiplicities)


def _root_bound(cs: Sequence[int]) -> Fraction:
    """Cauchy bound: every real root has absolute value < the returned value."""
    return 1 + Fraction(max(map(abs, cs)), abs(cs[-1]))


def _isolate_squarefree(s: list) -> list:
    """Disjoint intervals (a, b], each holding one distinct root of the
    square-free, nonconstant polynomial with coefficient list s."""
    chain = _sturm_chain(s)
    cache = {}

    def var(x: Fraction) -> int:
        if x not in cache:
            cache[x] = _variations_at(chain, x)
        return cache[x]

    bound = _root_bound(s)
    out = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        count = var(lo) - var(hi)
        if count == 0:
            continue
        if count == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        stack.append((lo, mid))
        stack.append((mid, hi))
    out.sort()
    return out


def isolate_real_roots(p: ExactPoly) -> RootIsolation:
    """Isolate the distinct real roots of p with their multiplicities.

    The intervals isolate the roots of the square-free part s of p. The
    multiplicities come from the gcd tower g_0 = p, g_(k+1) = gcd(g_k, g_k'):
    a root of multiplicity m is a root of g_1, ..., g_(m-1) and of no later
    term, so each g_k (k >= 1) with a root in an interval adds one to it.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return RootIsolation((), ())
    s, g = _squarefree_split(_integer_coeffs(p.coeffs))
    intervals = _isolate_squarefree(s)
    mults = [1] * len(intervals)
    while len(g) > 1:
        s, g = _squarefree_split(g)
        chain = _sturm_chain(s)
        for i, (lo, hi) in enumerate(intervals):
            mults[i] += _variations_at(chain, lo) - _variations_at(chain, hi)
    return RootIsolation(tuple(intervals), tuple(mults))


# -- interlacing -------------------------------------------------------------------


def interlaces(g: ExactPoly, f: ExactPoly) -> bool:
    """True iff the zeros of g interlace those of f.

    Written g interlaces f when, sorting both root multisets decreasingly,
    beta_k <= alpha_k <= beta_{k-1} holds throughout (alpha from f, beta
    from g). Degrees may differ by at most one, otherwise the answer is
    False. Non-real-rooted or nonpositive-leading input raises ValueError,
    also beside the zero polynomial, which interlaces and is interlaced by
    itself and every other input that passes these checks.

    With h = gcd(f, g), g interlaces f iff g/h strictly interlaces f/h,
    that is iff every pole of (g/h)/(f/h) is simple with a positive
    residue, iff its Cauchy index is deg(f/h). The signed remainder
    sequence of (f, g) is h times that of (f/h, g/h) and ends in h, so it
    gives the index and deg h at once (Fisk, "Polynomials, roots, and
    interlacing", arXiv:math/0612833).

    That index also proves f/h and g/h real-rooted, so f and g are
    real-rooted iff h is: only h is checked before answering True.
    """
    nonzero = [p for p in (f, g) if not p.is_zero]
    if len(nonzero) == 2:
        n, m = f.degree, g.degree
        if f.leading_coefficient > 0 and g.leading_coefficient > 0 and m <= n <= m + 1:
            seq = _signed_remainders(_integer_coeffs(f.coeffs), _integer_coeffs(g.coeffs))
            h = seq[-1]
            if _cauchy_index(seq) == len(seq[0]) - len(h) and _real_rooted(h):
                return True
    if not all(map(is_real_rooted, nonzero)):
        raise ValueError("not real-rooted")
    if any(p.leading_coefficient <= 0 for p in nonzero):
        raise ValueError("positive leading coefficients required")
    return len(nonzero) < 2


# -- interlacing sequences certified by signs at dyadic points ---------------------


# a certificate evaluates at dyadic points n / 2^k with k at most this; the
# Dowling rows up to m = 64 at N = 64 need at most 508
_CERTIFICATE_BITS = 512


def _strip_endpoint_roots(p: ExactPoly) -> Optional[Tuple[list, int, int]]:
    """(q, a, b) with p = t^a (1 + t)^b q up to a positive factor, a and b
    at most one, and q a coefficient list with q(0) and q(-1) nonzero; None
    when p is zero, its leading coefficient is not positive or t^2 or
    (1 + t)^2 divides it."""
    if p.is_zero or p.leading_coefficient <= 0:
        return None
    q, a, b = _integer_coeffs(p.coeffs), 0, 0
    if q[0] == 0:
        q, a = q[1:], 1
    if _sign_at(q, -1) == 0:
        q, b = _exact_quotient(q, [1, 1]), 1
    if q[0] == 0 or _sign_at(q, -1) == 0:
        return None
    return q, a, b


def _separate(g: list, f: list, lo: Tuple[int, int], hi: Tuple[int, int], s: int) -> Optional[list]:
    """Dyadic points [u, v] within [lo, hi] around the one root of g there,
    with f of sign s at both; None past the bit budget, or at an exact zero
    of g where f has another sign.

    A point (n, k) is n / 2^k. g has opposite nonzero signs at lo and hi;
    bisection by the sign of g keeps that, so the root stays in [u, v],
    and an exact zero of g closes the bracket to one point.
    """
    g_lo = _sign_at(g, lo[0], 1 << lo[1])
    u, v = lo, hi
    fu, fv = _sign_at(f, u[0], 1 << u[1]), _sign_at(f, v[0], 1 << v[1])
    while fu != s or fv != s:
        k = max(u[1], v[1])
        if k >= _CERTIFICATE_BITS:
            return None
        mid = ((u[0] << (k - u[1])) + (v[0] << (k - v[1])), k + 1)
        g_mid, f_mid = _sign_at(g, mid[0], 1 << mid[1]), _sign_at(f, mid[0], 1 << mid[1])
        if g_mid == 0:
            return [mid, mid] if f_mid == s else None
        if g_mid == g_lo:
            u, fu = mid, f_mid
        else:
            v, fv = mid, f_mid
    return [u, v]


def certify_interlacing_sequence(ps: Sequence[ExactPoly]) -> Optional[bool]:
    """True when signs at dyadic points prove that every zero of every p_n
    is real and in [-1, 0] and that p_n interlaces p_(n+1), in the sense of
    :func:`interlaces`; None when they do not, which proves nothing. See
    :func:`_interlacing_certificate`."""
    return True if _interlacing_certificate(ps) is not None else None


def _interlacing_certificate(ps: Sequence[ExactPoly]) -> Optional[list]:
    """For each consecutive pair, the points u_1, v_1, ..., u_e, v_e below
    as (n, k) for n / 2^k; None when no such points are found.

    Each p_n is t^a (1 + t)^b q_n with a, b <= 1 and q_n nonzero at 0 and
    -1. For a pair g = p_n, f = p_(n+1) with deg f = deg g + 1, the e
    roots of q_g are bracketed by the previous step. Bisect each bracket,
    by the sign of q_g, to points u_i <= v_i where q_f has one nonzero
    sign s_i. The gaps (-1, u_1), (v_1, u_2), ..., (v_e, 0) must then show
    sign changes of q_f, from q_f(-1) through s_1, ..., s_e to q_f(0): one
    in every inner gap, and in an outer one none when f alone has that
    endpoint root, else one (g alone having it fails). Then
    deg f = deg g + 1 makes the number of sign changes deg q_f, so by the
    intermediate value theorem q_f has one simple root in each such gap
    and no other root, and the merged roots of f and g alternate as
    interlacing needs; the gaps bracket q_f's roots for the next step.
    The first polynomial may have one root besides 0 and -1, bracketed by
    [-1, 0]. A bisection stops at _CERTIFICATE_BITS bits, so shared or
    repeated roots, roots outside [-1, 0] and non-real roots leave the
    sequence undecided (Fisk, arXiv:math/0612833, for the convention;
    Basu, Pollack and Roy, Algorithms in Real Algebraic Geometry, for
    isolation by signs).
    """
    certificate = []
    prev = None
    for p in ps:
        stripped = _strip_endpoint_roots(p)
        if stripped is None:
            return None
        f, af, bf = stripped
        f_low, f_high = _sign_at(f, -1), _sign_at(f, 0)
        if prev is None:
            if len(f) > 2 or (len(f) == 2 and f_low == f_high):
                return None
            brackets = [((-1, 0), (0, 0))] if len(f) == 2 else []
        else:
            g, ag, bg, brackets = prev
            # the roots of q_f in the gaps next to -1 and next to 0
            low_roots, high_roots = 1 - bf + bg, 1 - af + ag
            if len(f) + af + bf != len(g) + ag + bg + 1 or not {low_roots, high_roots} <= {0, 1}:
                return None
            needs = [low_roots] + [1] * len(brackets)
            needs[-1] = high_roots if brackets else len(f) - 1
            # s: the sign q_f must have past the next gap, from q_f(-1) on
            points, s = [(-1, 0)], f_low
            for (lo, hi), need in zip(brackets, needs):
                s *= (-1) ** need
                separated = _separate(g, f, lo, hi, s)
                if separated is None:
                    return None
                points += separated
            if f_high != s * (-1) ** needs[-1]:
                return None
            certificate.append(points[1:])
            points.append((0, 0))
            brackets = [(points[2 * i], points[2 * i + 1]) for i, need in enumerate(needs) if need]
        prev = f, af, bf, brackets
    return certificate


# -- matrix positivity -------------------------------------------------------------


def _det(mat: Sequence[Sequence[Scalar]]) -> Fraction:
    """Determinant of a square matrix by Gaussian elimination over the rationals."""
    m = [[Fraction(c) for c in row] for row in mat]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            factor = m[r][c] / m[c][c]
            for cc in range(c + 1, len(m)):
                m[r][cc] -= factor * m[c][cc]
    return det


def _minors_nonnegative(rows: Iterable[Sequence[Scalar]], order: int) -> bool:
    """True iff every minor of the matrix of order at most ``order`` is
    nonnegative; a ragged matrix is a ValueError before any entry is read."""
    mat = [list(r) for r in rows]
    nc = len(mat[0]) if mat else 0
    if any(len(r) != nc for r in mat):
        raise ValueError("ragged matrix")
    return all(
        _det([[mat[i][j] for j in cols] for i in rows_idx]) >= 0
        for k in range(1, order + 1)
        for rows_idx in combinations(range(len(mat)), k)
        for cols in combinations(range(nc), k)
    )


# -- f/h transforms ----------------------------------------------------------------


# C(10000, 5000) has 3009 digits, so a small input's transform at the cap
# still prints under Python's 4300-digit limit on int-to-str conversion
MAX_TRANSFORM_DIMENSION = 10000
# each nonzero coefficient adds one row of n + 1 terms, so the work is their
# count times n + 1; at this budget the worst input, four 4299-digit
# coefficients at n = 10000, takes about 0.4 s
MAX_TRANSFORM_WORK = 50000


def _rebase(p: ExactPoly, n: int, sign: int) -> ExactPoly:
    """Expand (1 + sign*t)^n * p(t / (1 + sign*t)); requires deg p <= n.

    That is the sum of c_k * t^k * (1 + sign*t)^(n - k), so c_k adds the
    term c_k * C(m, j) * sign^j, m = n - k, to the coefficient of
    t^(k + j). Each term comes from the one before it by one small
    product and one exact division, as C(m, j) * (m - j) / (j + 1) is
    C(m, j + 1); rational input is first scaled to integers by the lcm of
    its denominators, and the result divided back, as the map is linear.
    n must lie in 0..``MAX_TRANSFORM_DIMENSION``, and the nonzero
    coefficients times n + 1 at ``MAX_TRANSFORM_WORK``; either is refused
    before any work above it.
    """
    if n > MAX_TRANSFORM_DIMENSION:
        raise ValueError(f"dimension parameter n={n} over the cap of {MAX_TRANSFORM_DIMENSION}")
    if p.degree > n:
        raise ValueError("degree exceeds the dimension parameter")
    if n < 0:
        raise ValueError(f"dimension parameter n={n} is negative")
    work = (len(p.coeffs) - p.coeffs.count(0)) * (n + 1)
    if work > MAX_TRANSFORM_WORK:
        raise ValueError(
            f"transform work of {work} (nonzero coefficients times n + 1) over the budget of {MAX_TRANSFORM_WORK}"
        )
    den = lcm(*(c.denominator for c in p.coeffs))
    out = [0] * (n + 1)
    for k, c in enumerate(p.coeffs):
        if c != 0:
            m, term = n - k, c.numerator * (den // c.denominator)
            for j in range(m + 1):
                out[k + j] += term
                term = term * (m - j) // (j + 1) * sign
    return ExactPoly(out if den == 1 else (Fraction(c, den) for c in out))


def h_from_f(f: ExactPoly, n: int) -> ExactPoly:
    """Expand (1 - t)^n * f(t / (1 - t)) exactly; requires deg f <= n."""
    return _rebase(f, n, -1)


def f_from_h(h: ExactPoly, n: int) -> ExactPoly:
    """Inverse of :func:`h_from_f`: expand (1 + t)^n * h(t / (1 + t))."""
    return _rebase(h, n, 1)


# -- the diamond product ---------------------------------------------------------


def diamond_product(f: ExactPoly, g: ExactPoly) -> ExactPoly:
    """Multiply f and g through the binomial basis.

    Writing E for the linear map sending C(t, k) to t^k, this returns
    E(E^{-1}(f) * E^{-1}(g)). It is the operation that turns products of
    zeta polynomials back into chain-generating data. By
    C(t, i) * C(t, j) = sum_k C(k, i) * C(i, k - j) * C(t, k), the term
    f_i * g_j adds f_i * g_j * C(k, i) * C(i, k - j) to the coefficient of
    t^k for max(i, j) <= k <= i + j.
    """
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            for k in range(max(i, j), i + j + 1):
                out[k] += a * b * comb(k, i) * comb(i, k - j)
    return ExactPoly(out)
