"""Finite posets with exact chain enumeration.

A poset is stored as a cover graph on elements 0..n-1. The constructor,
the front door, checks any acyclic relation and reduces it to covers; the
library's builders know their covers already and hand them, with a linear
extension, straight to the one core that derives every stored field. The
full order relation is cached as per-element bitmasks, which keeps
comparability queries, interval extraction and the chain-counting dynamic
program fast for the few-thousand-element posets this library targets.
Joins and meets are found by mask lookup: the join of x and y is the
element whose up-set is the intersection of theirs. One chain-counting
program packs each element's counts into one integer of k-byte fields, so
it makes one integer addition per comparable pair: an element of
quasi-rank r moves a chain one field for the chain polynomial and 2^r
fields for the flag f-vector. On a poset uniform by level, where every
element of a level has as many elements of each other level below it (or
above it), every element of a level ends (or starts) the same chains, so
the same program runs on the levels with one multiplication and one
addition per pair of levels (Stanley, Enumerative Combinatorics I,
section 3.13). The core stores one mask per quasi-rank level, and every
rank profile is a popcount of a down-set mask against those masks.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from operator import mul
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .polynomial import DigitLimitError, ExactPoly, _integer

MAX_ELEMENTS = 5000


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _fields(total: int, k: int) -> list:
    """A packed integer cut into its k-byte fields, lowest first, through its bytes."""
    data = total.to_bytes((total.bit_length() + 7) // 8, "little")
    return [int.from_bytes(data[i:i + k], "little") for i in range(0, len(data), k)]


def _minimal_members(mask: int, up: Sequence[int], levels: Sequence[int], r: int):
    """Yield the minimal elements of ``mask``, lowest level first.

    ``up[y]`` is the up-set mask of y and ``levels[r]`` the mask of level r,
    where the level strictly increases along the order and every member of
    ``mask`` lies above level r. The members on the lowest level met are
    minimal; removing their up-sets leaves the members above none of them,
    so repeating finds the rest, one mask step each. On a strict up-set this
    lists the upper covers: one row of the transitive reduction (Aho, Garey
    & Ullman, SIAM J. Comput. 1972).
    """
    while mask:
        r += 1
        for y in _bits(mask & levels[r]):
            yield y
            mask &= ~up[y]


class Poset:
    """Immutable finite poset given by its cover relation.

    The front door, ``Poset(n, relations, labels)``, takes any acyclic set
    of pairs (x, y) meaning x < y, so redundant and repeated pairs are
    allowed; it checks them and computes their transitive reduction (Aho,
    Garey & Ullman, SIAM J. Comput. 1972). Strict up-sets are built from
    the top of a linear extension down, and a successor y of x is a cover
    iff it lies in no other successor's strict up-set: one OR per distinct
    pair. Kahn's walk finds that linear extension and detects cycles.

    The covers then go to one core, ``_derive``, which alone derives every
    stored field. The library's builders and structural operations know
    their covers by construction and reach it through ``_from_covers``,
    with no second reduction. Its rule: each ``cover_up[x]`` is ascending,
    and ``order`` lists the elements by a key that strictly increases along
    every cover (index order, a parent's quasi-rank, its reverse for a
    dual, or the factors' orders combined for a product or an ordinal
    sum), so it is a linear extension. Down-sets and quasi-ranks are
    pushed along the covers in that order, up-sets in the reverse order.
    Once every quasi-rank is final, the core stores one mask per level, the
    only place levels are derived: the empty poset has one empty level.
    ``labels`` are optional external names carried along by the structural
    operations.
    """

    __slots__ = (
        "n",
        "covers",
        "labels",
        "_down",
        "_up",
        "_rho",
        "_levels",
        "_cover_down",
        "_cover_up",
        "_least",
        "_greatest",
        "_by_up",
        "_by_down",
        "_lattice",
        "_geometric",
        "_counts",
    )

    def __init__(
        self,
        n: int,
        relations: Iterable[Tuple[int, int]] = (),
        labels: Optional[Sequence] = None,
    ):
        if n < 0 or n > MAX_ELEMENTS:
            raise ValueError(f"element count out of range: {n}")
        labels = None if labels is None else tuple(labels)
        if labels is not None and len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        succ = [set() for _ in range(n)]
        for x, y in relations:
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"relation index out of range: ({x}, {y})")
            if x == y:
                raise ValueError(f"reflexive relation pair ({x}, {y})")
            succ[x].add(y)

        # a linear extension by Kahn's walk, where leftovers mean a cycle
        indeg = [0] * n
        for ys in succ:
            for y in ys:
                indeg[y] += 1
        order = [x for x in range(n) if not indeg[x]]
        for x in order:
            for y in succ[x]:
                indeg[y] -= 1
                if not indeg[y]:
                    order.append(y)
        if len(order) != n:
            raise ValueError("relation contains a cycle")

        # Strict up-sets from the top down. A successor y of x is a cover iff
        # it lies in no other successor's strict up-set, so one OR per pair
        # decides every successor; only when that union meets the successors
        # is each tested.
        bit = [1 << x for x in range(n)]
        above = [0] * n
        cover_up = [()] * n
        for x in reversed(order):
            ys = succ[x]
            if ys:
                reach = 0
                for y in ys:
                    reach |= above[y]
                bits = sum(map(bit.__getitem__, ys))
                covers_x = sorted(ys)
                if reach & bits:
                    covers_x = [y for y in covers_x if not reach & bit[y]]
                above[x] = reach | bits
                cover_up[x] = covers_x
        up = [a | b for a, b in zip(above, bit)]
        self._derive(n, cover_up, order, labels, up)

    @classmethod
    def _from_covers(
        cls,
        n: int,
        cover_up: Sequence[Sequence[int]],
        order: Sequence[int],
        labels: Optional[Sequence] = None,
        up: Optional[Sequence[int]] = None,
    ) -> "Poset":
        """The poset whose upper covers of x are ``cover_up[x]``.

        Only the element count is checked. Each ``cover_up[x]`` must be
        ascending and exactly the upper covers of x, and ``order`` a linear
        extension (see the class docstring). ``up``, when given, is every
        element's up-set mask, self included.
        """
        if n > MAX_ELEMENTS:
            raise ValueError(f"element count out of range: {n}")
        p = object.__new__(cls)
        p._derive(n, cover_up, order, labels, up)
        return p

    def _derive(self, n: int, cover_up, order, labels, up) -> None:
        """Set every field from the covers: the core behind both entries."""
        down = [1 << x for x in range(n)]
        rho = [0] * n
        for x in order:
            ys = cover_up[x]
            if ys:
                dx, r = down[x], rho[x] + 1
                for y in ys:
                    down[y] |= dx
                    if rho[y] < r:
                        rho[y] = r
        levels = [0] * (max(rho, default=0) + 1)
        for x, r in enumerate(rho):
            levels[r] |= 1 << x
        if up is None:
            up = [1 << x for x in range(n)]
            for x in reversed(order):
                ys = cover_up[x]
                if ys:
                    ux = up[x]
                    for y in ys:
                        ux |= up[y]
                    up[x] = ux
        # by index, so every lower-cover list comes out ascending
        cover_down = [[] for _ in range(n)]
        for x, ys in enumerate(cover_up):
            for y in ys:
                cover_down[y].append(x)
        covers = [(x, y) for x, ys in enumerate(cover_up) for y in ys]

        minimals = [x for x in range(n) if not cover_down[x]]
        maximals = [x for x in range(n) if not cover_up[x]]

        object.__setattr__(self, "n", n)
        object.__setattr__(self, "covers", tuple(covers))
        object.__setattr__(self, "labels", None if labels is None else tuple(labels))
        object.__setattr__(self, "_down", tuple(down))
        object.__setattr__(self, "_up", tuple(up))
        object.__setattr__(self, "_rho", tuple(rho))
        object.__setattr__(self, "_levels", tuple(levels))
        object.__setattr__(self, "_cover_down", tuple(map(tuple, cover_down)))
        object.__setattr__(self, "_cover_up", tuple(map(tuple, cover_up)))
        object.__setattr__(self, "_least", minimals[0] if len(minimals) == 1 else None)
        object.__setattr__(self, "_greatest", maximals[0] if len(maximals) == 1 else None)
        object.__setattr__(self, "_by_up", None)
        object.__setattr__(self, "_by_down", None)
        object.__setattr__(self, "_lattice", None)
        object.__setattr__(self, "_geometric", None)
        object.__setattr__(self, "_counts", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poset is immutable")

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={len(self.covers)})"

    def __len__(self) -> int:
        return self.n

    # -- order queries ---------------------------------------------------------

    def _check_index(self, *xs: int) -> None:
        """A ValueError naming the first of ``xs`` that is no element index."""
        for x in xs:
            if not 0 <= x < self.n:
                raise ValueError(f"element index {x} out of range for {self.n} elements")

    def leq(self, x: int, y: int) -> bool:
        return bool(self._down[y] >> x & 1)

    def down_set(self, y: int) -> Tuple[int, ...]:
        """Elements z <= y, ascending by index."""
        return tuple(_bits(self._down[y]))

    def up_set(self, x: int) -> Tuple[int, ...]:
        return tuple(_bits(self._up[x]))

    def down_mask(self, y: int) -> int:
        return self._down[y]

    def up_mask(self, x: int) -> int:
        return self._up[x]

    def rho(self, x: int) -> int:
        """Quasi-rank: length of the longest chain up to x from the bottom."""
        return self._rho[x]

    @property
    def quasi_rank(self) -> int:
        return len(self._levels) - 1

    @property
    def least(self) -> Optional[int]:
        return self._least

    @property
    def greatest(self) -> Optional[int]:
        return self._greatest

    def minimal_elements(self) -> Tuple[int, ...]:
        return tuple(x for x in range(self.n) if not self._cover_down[x])

    def atoms(self) -> Tuple[int, ...]:
        if self._least is None:
            raise ValueError("poset has no least element")
        return self._cover_up[self._least]

    def coatoms(self) -> Tuple[int, ...]:
        if self._greatest is None:
            raise ValueError("poset has no greatest element")
        return self._cover_down[self._greatest]

    def label_of(self, x: int):
        return self.labels[x] if self.labels is not None else x

    # -- chain enumeration -------------------------------------------------------

    def _extension(self, mask: int = -1) -> list:
        """A linear extension of the elements in ``mask`` (all by default):
        by quasi-rank, then index."""
        return [x for level in self._levels for x in _bits(level & mask)]

    def _level_counts(self, below: bool) -> Optional[list]:
        """The poset's level counts when it is uniform by level, else None,
        derived once per direction (``_count_levels``) and kept."""
        if self._counts is None:
            object.__setattr__(self, "_counts", {})
        if below not in self._counts:
            self._counts[below] = self._count_levels(below)
        return self._counts[below]

    def _count_levels(self, below: bool) -> Optional[list]:
        """The poset's level counts when it is uniform by level, else None.

        Below, counts[r] lists for s = 0, ..., r - 1 the number of level-s
        elements in the down-set of an element of level r; above, for
        s = r + 1, ..., R, in its up-set. The poset is uniform that way when
        these numbers are the same for every element of each level. A set
        meets its own level only at its element, so that level is left out.
        Equal set sizes per level are a prefilter: one popcount per element,
        stopping at the first that differs from its level's, rules out most
        posets before any profile is taken. Sets differ soonest where they
        are largest, so down-sets are taken from the last element and
        up-sets from the first: the library's builders number the elements
        up the levels.
        """
        sets, rho = self._down if below else self._up, self._rho
        sizes: Dict[int, int] = {}
        for r, s in zip(reversed(rho), reversed(sets)) if below else zip(rho, sets):
            c = s.bit_count()
            if sizes.setdefault(r, c) != c:
                return None
        levels = self._levels
        others = [levels[:r] if below else levels[r + 1:] for r in range(len(levels))]
        profiles: Dict[int, list] = {}
        for r, s in zip(rho, sets):
            profile = [(s & m).bit_count() for m in others[r]]
            if profiles.setdefault(r, profile) != profile:
                return None
        return [profiles.get(r, []) for r in range(len(levels))]  # the empty poset's level is empty

    def _chain_fields(self, offsets: Sequence[int], mask: int = -1) -> list:
        """Field i counts the chains of the subposet on ``mask`` (by default
        all elements) whose elements z sum offsets[rho z] to i.

        The element program (``_element_chains``) runs over the mask.
        No field can carry, whatever the offsets: all fields together count
        every chain, and a chain meets each quasi-rank level at most once,
        so the sum is at most the product of (level size in the mask + 1),
        which fits in 8k bits. The total is cut into fields through its
        bytes, in linear time.

        A whole poset uniform by level (see ``_level_counts``) runs the same
        program on its levels instead, one multiplication and one addition
        per pair of levels (``_chains_by_levels``). That pays when the
        comparable pairs outnumber twice the level pairs. An element of
        quasi-rank r has at least r elements below it, so they number at
        least the sum of the quasi-ranks, and uniformity is tested only when
        that bound exceeds twice the level pairs, which no chain-like
        poset's does: from below first, then from above (partition lattices
        are uniform only that way). A proper mask's levels are not the poset's.
        """
        sizes = [(level & mask).bit_count() for level in self._levels]
        k = (prod(size + 1 for size in sizes).bit_length() + 7) // 8
        shifts = [8 * k * offset for offset in offsets]
        if mask == -1 and sum(self._rho) > len(sizes) * (len(sizes) - 1):
            for from_below in (True, False):
                counts = self._level_counts(from_below)
                if counts is not None:
                    return _fields(self._chains_by_levels(sizes, counts, from_below, shifts), k)
        return _fields(self._element_chains(mask, shifts), k)

    def _element_chains(self, mask: int, shifts: Sequence[int]) -> int:
        """The packed chain total of the subposet on ``mask``: the element program.

        Dynamic program over a linear extension of the mask's elements
        (``_extension``): the chains with maximum x are x alone and those
        with maximum y < x in the mask, moved shifts[rho x] bits. Each element's
        counts are packed into one integer of fields, so a step is one
        addition per y < x and one shift. The total counts the empty chain
        too.
        """
        down, rho = self._down, self._rho
        ends = [0] * self.n  # ends[x]: chains with maximum x, packed
        total = 1
        for x in self._extension(mask):
            below, ys = down[x] & mask ^ (1 << x), []
            while below:  # top bit first, so the mask shrinks as it is walked
                y = below.bit_length() - 1
                ys.append(y)
                below ^= 1 << y
            # summed from the lowest index, which on the library's builders
            # tends to be the lowest rank and so the shortest packed integer:
            # the running sum then grows with its terms
            vec = sum(map(ends.__getitem__, reversed(ys)), 1) << shifts[rho[x]]
            ends[x] = vec
            total += vec
        return total

    @staticmethod
    def _chains_by_levels(sizes: Sequence[int], counts: list, below: bool, shifts: Sequence[int]) -> int:
        """The packed chain total from the level counts of a uniform poset.

        Below, e_r counts the chains ending at a given element of level r.
        By induction on r every element of the level ends the same chains:
        itself alone, and the chains ending at each of its N(r, s) elements
        of each level s < r, moved offsets[r] fields, so
        e_r = (1 + sum of N(r, s) e_s) << shifts[r]. Every chain has one
        maximum, so the total is 1 + sum of |level r| e_r (Stanley,
        Enumerative Combinatorics I, section 3.13). Above, e_r counts the
        chains starting at an element of level r, taken from the top down.
        """
        e = [0] * len(sizes)
        for r in range(len(sizes)) if below else reversed(range(len(sizes))):
            e[r] = sum(map(mul, counts[r], e if below else e[r + 1:]), 1) << shifts[r]
        return sum(map(mul, sizes, e), 1)

    def chain_polynomial(self) -> ExactPoly:
        """Generating polynomial of chains by size: each element moves a chain one field."""
        return ExactPoly(self._chain_fields([1] * len(self._levels)))

    def flag_f_vector(self) -> Dict[int, int]:
        """Flag f-vector alpha(U): chains counted by their set U of quasi-ranks.

        Keys are quasi-rank bitmasks (bit r for rank r) and values the
        number of chains whose quasi-ranks form exactly U; the empty chain
        gives alpha(0) = 1. An element of quasi-rank r moves a chain 2^r
        fields, from U to U | 2^r, as r lies above every rank in U. A longest
        chain up to an element of rank r has ranks 0, ..., r, so no count is
        zero: a nonempty poset of quasi-rank R gets all 2^(R+1) keys, the
        empty one {0: 1}. Quasi-rank strictly increases along every chain, so
        for any rank set S the chain polynomial of ``rank_selected(S)`` is
        the sum of alpha(T) t^|T| over T within S (Stanley, Enumerative
        Combinatorics I, section 3.13), graded or not.
        """
        return dict(enumerate(self._chain_fields([1 << r for r in range(len(self._levels))])))

    def quasi_rank_generating_polynomial(self) -> ExactPoly:
        """sum over elements of t^rho(x); requires a least element."""
        if self._least is None:
            raise ValueError("poset has no least element")
        return ExactPoly([level.bit_count() for level in self._levels])

    # -- induced subposets ---------------------------------------------------------

    def induced(self, keep: Iterable[int]) -> "Poset":
        """Subposet on the given elements with the inherited order and labels,
        built from its covers, peeled by the parent's levels; the core walks
        the kept elements level by level."""
        keep = sorted(set(keep))
        if keep:  # sorted, so only the ends can be out of range
            self._check_index(keep[0], keep[-1])
        index = {x: i for i, x in enumerate(keep)}
        keep_mask = 0
        for x in keep:
            keep_mask |= 1 << x
        up, rho, levels = self._up, self._rho, self._levels
        cover_up = [
            sorted(map(index.__getitem__, _minimal_members(
                (up[x] & keep_mask) ^ (1 << x), up, levels, rho[x]
            )))
            for x in keep
        ]
        order = [index[x] for level in levels for x in _bits(level & keep_mask)]
        labels = None if self.labels is None else [self.labels[x] for x in keep]
        return Poset._from_covers(len(keep), cover_up, order, labels)

    def rank_selected(self, ranks: Iterable[int]) -> "Poset":
        """Subposet of elements whose quasi-rank lies in the given set."""
        ranks = set(ranks)
        if not ranks:
            raise ValueError("empty rank set")
        # the levels are disjoint, so their sum is their union
        return self.induced(_bits(sum(level for r, level in enumerate(self._levels) if r in ranks)))

    def truncate(self) -> "Poset":
        """Drop the elements of quasi-rank one below the top."""
        top = self.quasi_rank
        return self.rank_selected(set(range(0, max(top - 1, 0))) | {top})

    def interval(self, x: int, y: int) -> "Poset":
        self._check_index(x, y)
        if not self.leq(x, y):
            raise ValueError("not an interval: elements are incomparable")
        return self.induced(_bits(self._up[x] & self._down[y]))

    def open_interval(self, x: int, y: int) -> "Poset":
        self._check_index(x, y)
        if not self.leq(x, y):
            raise ValueError("not an interval: elements are incomparable")
        return self.induced(_bits(self._up[x] & self._down[y] & ~(1 << x) & ~(1 << y)))

    def proper_part(self) -> "Poset":
        """Remove the least and greatest elements; both must exist."""
        if self._least is None or self._greatest is None:
            raise ValueError("poset is not bounded")
        return self.open_interval(self._least, self._greatest)

    # -- structural combinators ------------------------------------------------------

    def dual(self) -> "Poset":
        """The reversed order: lower covers become upper covers and down-sets
        up-sets, walked in the reverse of a linear extension."""
        order = self._extension()[::-1]
        return Poset._from_covers(self.n, self._cover_down, order, self.labels, self._down)

    def ordinal_sum(self, other: "Poset") -> "Poset":
        """Stack other on top of self: every element of self below all of other."""
        shift = self.n
        bottoms = [y + shift for y in other.minimal_elements()]
        cover_up = [ys or bottoms for ys in self._cover_up]
        cover_up += [[y + shift for y in ys] for ys in other._cover_up]
        order = self._extension() + [y + shift for y in other._extension()]
        labels = None
        if self.labels is not None or other.labels is not None:
            labels = [self.label_of(x) for x in range(self.n)]
            labels += [other.label_of(y) for y in range(other.n)]
        return Poset._from_covers(self.n + other.n, cover_up, order, labels)

    def direct_product(self, other: "Poset") -> "Poset":
        """Componentwise order on pairs, (x, y) at index x * other.n + y;
        covers change one coordinate, and pairs are walked by a linear
        extension of each factor, lexicographically."""
        m = other.n
        cover_up = [
            sorted([x * m + y2 for y2 in ys2] + [x2 * m + y for x2 in ys])
            for x, ys in enumerate(self._cover_up)
            for y, ys2 in enumerate(other._cover_up)
        ]
        second = other._extension()
        order = [x * m + y for x in self._extension() for y in second]
        labels = [
            (self.label_of(x), other.label_of(y))
            for x in range(self.n)
            for y in range(m)
        ]
        return Poset._from_covers(self.n * m, cover_up, order, labels)

    # -- lattice structure --------------------------------------------------------------

    def join_irreducibles(self) -> Tuple[int, ...]:
        """Elements with exactly one lower cover."""
        return tuple(x for x in range(self.n) if len(self._cover_down[x]) == 1)

    def _up_index(self) -> dict:
        """Each up-set mask's element, built on first use."""
        if self._by_up is None:
            object.__setattr__(self, "_by_up", {m: x for x, m in enumerate(self._up)})
        return self._by_up

    def _down_index(self) -> dict:
        """Each down-set mask's element, built on first use."""
        if self._by_down is None:
            object.__setattr__(self, "_by_down", {m: x for x, m in enumerate(self._down)})
        return self._by_down

    @property
    def is_lattice(self) -> bool:
        """Join-irreducible test: a poset with a least element is a lattice
        iff x join j exists for every x and every join-irreducible j.

        Then the join-irreducibles j_1, ..., j_k below any y have a least
        upper bound s <= y; by induction on rank each lower cover c of y is
        the least upper bound of the join-irreducibles below it, so c <= s,
        and two distinct lower covers force s = y. Hence x join y is
        x join j_1 join ... join j_k, and meets follow from joins and the
        least element.
        """
        if self._lattice is None:
            object.__setattr__(self, "_lattice", self._lattice_test())
        return self._lattice

    def _lattice_test(self) -> bool:
        if self._least is None:
            return False
        up, by_up = self._up, self._up_index()
        irreducible = [up[j] for j in self.join_irreducibles()]
        return all((ux & uj) in by_up for ux in up for uj in irreducible)

    def join(self, x: int, y: int) -> int:
        j = self._up_index().get(self._up[x] & self._up[y])
        if j is None:
            raise ValueError(f"join of {x} and {y} does not exist")
        return j

    def meet(self, x: int, y: int) -> int:
        w = self._down_index().get(self._down[x] & self._down[y])
        if w is None:
            raise ValueError(f"meet of {x} and {y} does not exist")
        return w

    # -- bottom-to-top chains ------------------------------------------------------------

    def p_polynomial(self) -> ExactPoly:
        """Generating polynomial of bottom-to-top chains by interior size.

        A chain with j interior elements contributes t^(j+1). Defined for
        bounded posets with at least two elements.
        """
        if self._least is None or self._greatest is None:
            raise ValueError("p polynomial requires a bounded poset")
        if self.n < 2:
            raise ValueError("p polynomial requires at least two elements")
        return self.bounded_chain_polynomial(self._greatest)

    def bounded_chain_polynomial(self, x: int) -> ExactPoly:
        """sum_j (number of chains bottom = z_0 < ... < z_j = x) t^j.

        Such a chain is the bottom, a chain of the open interval (bottom, x)
        and x, so ``_chain_fields`` counts the chains of that interval on
        its mask, with no subposet built.
        """
        if self._least is None:
            raise ValueError("poset has no least element")
        if x == self._least:
            return ExactPoly((1,))
        self._check_index(x)
        mask = self._down[x] ^ (1 << x) ^ (1 << self._least)
        return ExactPoly(self._chain_fields([1] * len(self._levels), mask)).shift(1)


# -- isomorphism -----------------------------------------------------------------------


def _refine(cover_down: Sequence, cover_up: Sequence, colours: list) -> list:
    """Refine a colouring of a cover graph until it is stable: the new colour
    numbers the old one with the sorted colours of the lower and of the upper
    covers. Classes only split, so when the count stops growing they are stable.
    """
    count = len(set(colours))
    while True:
        signatures = [
            (c, tuple(sorted(map(colours.__getitem__, down))), tuple(sorted(map(colours.__getitem__, up))))
            for c, down, up in zip(colours, cover_down, cover_up)
        ]
        palette = {}
        colours = [palette.setdefault(s, len(palette)) for s in signatures]
        if len(palette) == count:
            return colours
        count = len(palette)


def is_isomorphic(p: Poset, q: Poset) -> bool:
    """Decide poset isomorphism by individualization-refinement.

    (McKay & Piperno, J. Symbolic Comput. 2014.) One colouring of p and q,
    first (quasi-rank, down-set size, up-set size), is refined at each node:
    - refinement is isomorphism-invariant, so a node whose two colour
      multisets differ holds no isomorphism that keeps its colours;
    - a verified map proves True: pairing each colour's elements in index
      order gives a bijection, and if it carries every cover of p onto a
      cover of q (they have as many), it is an isomorphism;
    - trying every y keeps the search complete: a node not yet discrete
      gives the first x of p in its largest colour class a fresh colour,
      with one child per y of q in that colour taking it too. Some child
      keeps any isomorphism the node keeps, and each level adds a class,
      so a branch ends within n levels at the one colour-keeping map.
      Which class is split does not matter for soundness; splitting the
      largest keeps the search from failing deep and often on symmetric
      lattices such as projective and affine planes, where the first
      shared colour is a small class.
    Nodes wait on an explicit stack: no recursion grows with n.
    """
    n = p.n
    if n != q.n or len(p.covers) != len(q.covers):
        return False
    # one colouring of the disjoint union, where element y of q is n + y
    down = p._cover_down + tuple(tuple(n + z for z in zs) for zs in q._cover_down)
    up = p._cover_up + tuple(tuple(n + z for z in zs) for zs in q._cover_up)
    q_covers = set(q.covers)
    start = [(r._rho[x], r._down[x].bit_count(), r._up[x].bit_count()) for r in (p, q) for x in range(n)]
    stack = [(start, None, None)]
    while stack:
        colours, x, y = stack.pop()
        if x is not None:  # x and y take the fresh colour -1
            colours = [-1 if z in (x, n + y) else c for z, c in enumerate(colours)]
        colours = _refine(down, up, colours)
        cp, cq = colours[:n], colours[n:]
        order_p, order_q = sorted(range(n), key=cp.__getitem__), sorted(range(n), key=cq.__getitem__)
        if [cp[a] for a in order_p] != [cq[b] for b in order_q]:
            continue
        phi = dict(zip(order_p, order_q))
        if all((phi[a], phi[b]) in q_covers for a, b in p.covers):
            return True
        # the first element of the largest colour class, when it is shared
        sizes = Counter(cp)
        colour = max(sizes, key=sizes.__getitem__)
        if sizes[colour] > 1:
            x = cp.index(colour)
            stack += [(colours, x, y) for y in reversed(order_q) if cq[y] == colour]
    return False


# -- text format -------------------------------------------------------------------------


def poset_to_text(p: Poset) -> str:
    """Serialize in the line format: "poset n", "cover i j", "label i name"."""
    lines = [f"poset {p.n}"]
    lines += [f"cover {x} {y}" for x, y in p.covers]
    if p.labels is not None:
        lines += [f"label {i} {p.labels[i]}" for i in range(p.n)]
    return "\n".join(lines) + "\n"


def _line_int(lineno: int, token: str) -> int:
    """Parse an integer field of a text-format line; a bad one names the line."""
    try:
        return _integer(token)
    except DigitLimitError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    except ValueError:
        raise ValueError(f"line {lineno}: not an integer: {token!r:.200}") from None


def poset_from_text(text: str) -> Poset:
    """Parse the poset text format; rejects cycles and bad indices."""
    n = None
    covers = []  # (line, x, y)
    labels = {}  # index: (line, name)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind = line.split(None, 1)[0]
        # a label name is the rest of the line and may contain spaces
        parts = line.split(None, 2) if kind == "label" else line.split()
        if len(parts) == 1 and kind in ("poset", "label"):
            raise ValueError(f"line {lineno}: {kind} needs a value")
        if kind == "poset":
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate poset header")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: poset takes one value")
            n = _line_int(lineno, parts[1])
            if not 0 <= n <= MAX_ELEMENTS:
                raise ValueError(f"line {lineno}: element count out of range: {n}")
        elif kind == "cover":
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: cover needs two indices")
            covers.append((lineno, _line_int(lineno, parts[1]), _line_int(lineno, parts[2])))
        elif kind == "label":
            i = _line_int(lineno, parts[1])
            if i in labels:
                raise ValueError(f"line {lineno}: duplicate label {i}")
            labels[i] = (lineno, parts[2] if len(parts) > 2 else "")
        else:
            raise ValueError(f"line {lineno}: unknown directive {kind!r}")
    if n is None:
        raise ValueError("missing poset header")
    for lineno, x, y in covers:
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"line {lineno}: relation index out of range: ({x}, {y})")
        if x == y:
            raise ValueError(f"line {lineno}: reflexive relation pair ({x}, {y})")
    for i, (lineno, _) in labels.items():
        if not 0 <= i < n:
            raise ValueError(f"line {lineno}: label index out of range: {i}")
    label_list = [labels[i][1] if i in labels else str(i) for i in range(n)] if labels else None
    return Poset(n, [(x, y) for _, x, y in covers], label_list)


def write_poset(p: Poset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(poset_to_text(p))


# -- small builders ------------------------------------------------------------------------


def chain_poset(k: int) -> Poset:
    """Totally ordered poset on k elements."""
    if k < 0:
        raise ValueError("negative size")
    return Poset._from_covers(k, [(i + 1,) if i + 1 < k else () for i in range(k)], range(k))
