"""Builders for the lattice families exercised by the verification suites.

Boolean algebras and their truncations, subspace and affine lattices over
small prime fields, partition lattices, design posets, paving lattices
from d-partitions, group-labeled Whitney rows, modular cuts and
single-element extensions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, count, product
from math import comb
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple, Union

from .polynomial import ExactPoly, _integer
from .posets import MAX_ELEMENTS, Poset, _bits, _line_int, _minimal_members, chain_poset
from .tn import RMatrix, is_geometric, rank_matrix

# size guards, chosen so every construction stays at desk scale
MAX_BOOLEAN_GROUND = 12
MAX_SUBSPACE_DIM = 4
MAX_SUBSPACE_PRIME = 7
MAX_PARTITION_GROUND = 8
MAX_DOWLING_ORDER = 64
MAX_DOWLING_GROUP = 64  # above about 80 at N = 64 the rank rows' roots lie too close to certify fast


# -- Boolean algebras -----------------------------------------------------------------


def boolean_lattice(n: int) -> Poset:
    """Subsets of {1, ..., n} ordered by inclusion; element index is the bitmask."""
    if not 0 <= n <= MAX_BOOLEAN_GROUND:
        raise ValueError(f"ground size out of range: {n}")
    bits = [1 << i for i in range(n)]
    cover_up = [[s | b for b in bits if not s & b] for s in range(1 << n)]
    labels = [frozenset()]
    for i in range(n):  # labels[s | 2^i] = labels[s] | {i + 1} for s < 2^i
        labels += [s | {i + 1} for s in labels]
    return Poset._from_covers(1 << n, cover_up, range(1 << n), labels)


def truncated_boolean(n: int, k: int) -> Poset:
    """k-fold truncation of the Boolean algebra: subsets of size <= n-k-1 plus the top."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"truncation steps out of range: k={k}, n={n}")
    if n > MAX_BOOLEAN_GROUND:
        raise ValueError(f"ground size out of range: {n}")
    return _paving_poset(range(1, n + 1), (), n - k)


def _poset_from_sets(sets: Sequence[FrozenSet]) -> Poset:
    """Inclusion order on a family of distinct sets, listed by size.

    The sets containing S are those that contain every element of S: the
    AND of one incidence bitmask per element, so no two sets are compared.
    Size strictly increases along inclusion, so the sets listed by size are
    in a linear extension, and the poset core gets the covers and these
    up-masks: the minimal sets strictly above each set, peeled size by size,
    which come out ascending.
    """
    if len(set(sets)) != len(sets):
        raise ValueError("duplicate sets")
    # sets of one size ordered by their sorted element reprs; each distinct
    # element's repr is made once and compared as its rank among them all
    name = {e: repr(e) for e in set().union(*sets)}
    rank = {r: i for i, r in enumerate(sorted(set(name.values())))}
    key = {e: rank[r] for e, r in name.items()}
    sets = sorted(sets, key=lambda s: (len(s), sorted(map(key.__getitem__, s))))
    masks: Dict[object, int] = {}
    for i, s in enumerate(sets):
        for e in s:
            masks[e] = masks.get(e, 0) | 1 << i
    everything = (1 << len(sets)) - 1
    level = {size: r for r, size in enumerate(sorted({len(s) for s in sets}))}
    up, levels = [], [0] * len(level)
    for i, s in enumerate(sets):
        above = everything
        for e in s:
            above &= masks[e]
        up.append(above)
        levels[level[len(s)]] |= 1 << i
    cover_up = [
        list(_minimal_members(up[i] ^ (1 << i), up, levels, level[len(s)]))
        for i, s in enumerate(sets)
    ]
    return Poset._from_covers(len(sets), cover_up, range(len(sets)), sets, up)


def _paving_poset(ground: Iterable, blocks: Iterable[FrozenSet], d: int) -> Poset:
    """The sets of size below d, the blocks and the ground, by inclusion.

    For a d-partition this is its paving lattice (Oxley, Matroid Theory,
    section 2.1): the blocks are the hyperplanes. The blocks must be an
    antichain of subsets of the ground with at least d points each, and
    the points must print distinctly, as integers do; every caller
    validates that first. Then the covers are known: a set of size below
    d - 1 goes to itself plus one point, a (d - 1)-set to the blocks
    through it or else to the ground, and a block to the ground, so no
    two sets are compared. The elements come in the order of
    ``_poset_from_sets``: by size, then by the sorted reprs of their
    points. A point is a bit in that order, so the sets of one size below
    d are the combinations of the bits, in that order already, and adding
    a higher point gives a later set.
    """
    ground = frozenset(ground)
    points = sorted(ground, key=repr)
    bit = {e: 1 << i for i, e in enumerate(points)}
    bits = list(bit.values())
    small = [c for size in range(d) for c in combinations(points, size)]
    masks = [sum(map(bit.__getitem__, c)) for c in small]
    blocks = sorted(
        {b for b in map(frozenset, blocks) if b != ground},
        key=lambda b: (len(b), sorted(map(repr, b))),
    )
    top = len(small) + len(blocks)
    through: Dict[int, List[int]] = {}  # a (d - 1)-set's mask: the blocks through it
    for i, b in enumerate(blocks if d else (), len(small)):
        for c in combinations(map(bit.__getitem__, b), d - 1):
            through.setdefault(sum(c), []).append(i)
    index = {m: i for i, m in enumerate(masks)}
    cover_up = [
        through.get(m, [top]) if len(c) == d - 1 else [index[m | e] for e in bits if not m & e]
        for c, m in zip(small, masks)
    ]
    cover_up += [[top]] * len(blocks) + [[]]
    labels = [*map(frozenset, small), *blocks, ground]
    return Poset._from_covers(top + 1, cover_up, range(top + 1), labels)


def _miscovered(points: Iterable[int], blocks: Iterable[FrozenSet[int]], s: int, lam: int):
    """The first s-subset of the points, in lexicographic order, that lies in
    other than lam blocks, with its block count; None when there is none."""
    counts = Counter(sub for b in blocks for sub in combinations(sorted(b), s))
    for sub in combinations(sorted(points), s):
        if counts[sub] != lam:
            return sub, counts[sub]
    return None


# -- subspace and affine lattices ------------------------------------------------------


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def _flats(n: int, q: int, affine: bool) -> List[FrozenSet[Tuple[int, ...]]]:
    """Every subspace of F_q^n, or with ``affine`` every coset of one plus the
    empty flat, as frozensets of vectors.

    One reduced echelon basis per subspace of F_q^m, m = n + affine, whose
    span grows one row at a time. The cosets of F_q^n are the slices x_0 = 1
    of the subspaces of F_q^(n+1) with first pivot 0 (the projective
    closure): their first row takes coefficient 1 and coordinate 0 is dropped.
    """
    m = n + affine
    flats = [frozenset()] if affine else []
    for r in range(m + 1):
        for pivots in combinations(range(m), r):
            if affine and pivots[:1] != (0,):
                continue
            free_slots = [(i, j) for i in range(r) for j in range(pivots[i] + 1, m) if j not in pivots]
            for values in product(range(q), repeat=len(free_slots)):
                rows = [[0] * m for _ in range(r)]
                for i, j in enumerate(pivots):
                    rows[i][j] = 1
                for (i, j), v in zip(free_slots, values):
                    rows[i][j] = v
                span = [tuple(rows[0][1:])] if affine else [(0,) * n]
                for row in rows[affine:]:
                    row = row[affine:]
                    span = [tuple((a + c * b) % q for a, b in zip(v, row)) for v in span for c in range(q)]
                flats.append(frozenset(set(span)))
    return flats


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _check_flat_count(n: int, q: int, affine: bool) -> None:
    """Refuse a subspace or affine lattice out of range, or one whose element
    count, counted before enumerating, exceeds the poset cap."""
    kind = "affine" if affine else "subspace"
    # the range check comes first: trial division of a large q would take minutes
    if q > MAX_SUBSPACE_PRIME or not 1 <= n <= MAX_SUBSPACE_DIM:
        raise ValueError(f"{kind} lattice out of desk-scale range: n={n}, q={q}")
    if not _is_prime(q):
        raise ValueError(f"field order must be prime: {q}")
    # the cosets of a k-dimensional subspace number q^(n-k); the empty flat is the bottom
    count = (1 if affine else 0) + sum(
        (q ** (n - k) if affine else 1) * _gaussian_binomial(n, k, q) for k in range(n + 1)
    )
    if count > MAX_ELEMENTS:
        raise ValueError(
            f"{kind} lattice n={n}, q={q} has {count} elements, over the cap of {MAX_ELEMENTS}"
        )


def subspace_lattice(n: int, q: int) -> Poset:
    """Linear subspaces of F_q^n under inclusion, for prime q at desk scale."""
    _check_flat_count(n, q, affine=False)
    return _poset_from_sets(_flats(n, q, affine=False))


def affine_lattice(n: int, q: int) -> Poset:
    """Affine subspaces of F_q^n (all cosets), with the empty set as bottom."""
    _check_flat_count(n, q, affine=True)
    return _poset_from_sets(_flats(n, q, affine=True))


# -- partition lattices -----------------------------------------------------------------


def _set_partitions(n: int) -> List[Tuple[Tuple[int, ...], ...]]:
    """Set partitions of {1, ..., n}, each block ascending and the blocks
    ordered by their least elements: adding 1, ..., n in turn, each joins
    the end of a block or opens a new last block."""
    parts = [()]
    for e in range(1, n + 1):
        joined = [p[:i] + (p[i] + (e,),) + p[i + 1:] for p in parts for i in range(len(p))]
        parts = joined + [p + ((e,),) for p in parts]
    return parts


def partition_lattice(n: int) -> Poset:
    """Set partitions of {1, ..., n} ordered by refinement.

    Each cover merges two blocks, so the covers are emitted directly, found
    by a partition's tuple of block bitmasks. Blocks are disjoint and sorted
    by their least elements, so the merge of blocks a < b, one OR, takes
    the slot of block a and the rest stay in order.
    """
    if not 1 <= n <= MAX_PARTITION_GROUND:
        raise ValueError(f"partition lattice out of range: {n}")
    labels = sorted(_set_partitions(n), key=lambda p: (-len(p), p))
    block_mask = {b: sum([1 << e for e in b]) for b in {b for p in labels for b in p}}
    masks = [tuple(map(block_mask.__getitem__, p)) for p in labels]
    index = {m: i for i, m in enumerate(masks)}
    pairs = [list(combinations(range(k), 2)) for k in range(n + 1)]
    cover_up = [
        sorted([index[m[:a] + (m[a] | m[b],) + m[a + 1:b] + m[b + 1:]] for a, b in pairs[len(m)]])
        for m in masks
    ]
    return Poset._from_covers(len(labels), cover_up, range(len(labels)), labels)


# -- rank-3 point-line lattices ------------------------------------------------------------


def linear_space_lattice(num_points: int, lines: Sequence[Iterable[int]]) -> Poset:
    """Rank-3 geometric lattice of a linear space on points 1..num_points.

    Every pair of points must lie on exactly one of the given lines, every
    line must be a proper subset with at least two points, and at least
    two lines are required.
    """
    points = frozenset(range(1, num_points + 1))
    line_sets = [frozenset(l) for l in lines]
    if len(line_sets) < 2:
        raise ValueError("need at least two lines")
    for l in line_sets:
        if not l <= points or len(l) < 2 or l == points:
            raise ValueError(f"bad line {sorted(l)}")
    bad = _miscovered(points, line_sets, 2, 1)
    if bad is not None:
        (a, b), hits = bad
        raise ValueError(f"pair ({a}, {b}) lies on {hits} lines")
    return _paving_poset(points, line_sets, 2)


def fano_lattice() -> Poset:
    """The seven-point projective plane as a rank-3 lattice."""
    return linear_space_lattice(7, FANO_BLOCKS)


FANO_BLOCKS: Tuple[FrozenSet[int], ...] = tuple(
    frozenset(b)
    for b in [
        (1, 2, 3),
        (1, 4, 5),
        (1, 6, 7),
        (2, 4, 6),
        (2, 5, 7),
        (3, 4, 7),
        (3, 5, 6),
    ]
)


# -- designs ---------------------------------------------------------------------------------


@dataclass(frozen=True)
class Design:
    """An s-(n, k, lam) design: blocks of size k covering every s-set lam times."""

    points: Tuple[int, ...]
    blocks: Tuple[FrozenSet[int], ...]
    s: int
    k: int
    lam: int

    def validate(self) -> None:
        pts = set(self.points)
        if len(pts) != len(self.points):
            raise ValueError("repeated points")
        for b in self.blocks:
            # a block of fewer than s points would sit among the design poset's small sets
            if not b <= pts or len(b) != self.k or self.k < self.s:
                raise ValueError(f"bad block {sorted(b)}")
        bad = _miscovered(pts, self.blocks, self.s, self.lam)
        if bad is not None:
            raise ValueError(f"{bad[0]} lies in {bad[1]} blocks, expected {self.lam}")


def fano_design() -> Design:
    d = Design(tuple(range(1, 8)), FANO_BLOCKS, s=2, k=3, lam=1)
    d.validate()
    return d


def uniform_design(n: int, k: int) -> Design:
    """The design whose blocks are all k-subsets of an n-set.

    Refused before any block is listed when its design poset would exceed
    the poset cap: the sets of size below k - 1, the blocks, and the ground
    unless it is the block (k = n), counted size by size until the cap is
    passed.
    """
    if not 1 <= k <= n:
        raise ValueError(f"block size out of range: n={n}, k={k}")
    count = k < n
    for size in [*range(k - 1), k]:
        count += comb(n, size)
        if count > MAX_ELEMENTS:
            raise ValueError(f"uniform design n={n}, k={k} has over {MAX_ELEMENTS} poset elements")
    blocks = tuple(frozenset(c) for c in combinations(range(1, n + 1), k))
    d = Design(tuple(range(1, n + 1)), blocks, s=k - 1, k=k, lam=n - k + 1)
    d.validate()
    return d


def design_poset(design: Design) -> Poset:
    """Sets of size below s, the blocks, and the whole point set, by inclusion.

    This is the paving-style collapse of the truncated Boolean algebra on
    the points: the blocks form the level at height s, so for Steiner
    systems the result is the paving lattice whose co-atoms are the
    blocks. Keeping the size-s sets as well would break the root-location
    guarantee (the seven-point Steiner triple system already yields a
    chain polynomial with a zero near -1.4 in that variant).
    """
    design.validate()
    return _paving_poset(design.points, design.blocks, design.s)


# -- paving lattices from d-partitions --------------------------------------------------------


@dataclass(frozen=True)
class DPartition:
    """A block family in which every d-subset of the union lies in one block."""

    ground: Tuple[int, ...]
    blocks: Tuple[FrozenSet[int], ...]
    d: int

    def validate(self) -> None:
        if self.d < 1:
            raise ValueError(f"a d-partition needs d >= 1, got d={self.d}")
        if len(self.blocks) < 2:
            raise ValueError("a d-partition needs at least two blocks")
        union: Set[int] = set()
        for b in self.blocks:
            if len(b) < self.d:
                raise ValueError(f"block {sorted(b)} smaller than d={self.d}")
            union |= b
        if not union <= set(self.ground):
            raise ValueError("blocks leave the ground set")
        bad = _miscovered(union, self.blocks, self.d, 1)
        if bad is not None:
            raise ValueError(f"{bad[0]} lies in {bad[1]} blocks, expected 1")


def paving_lattice_from_dpartition(dp: DPartition) -> Poset:
    """The paving construction on the Boolean algebra of the ground set,
    listed directly: the sets of size below d, the blocks and the ground."""
    dp.validate()
    ground = frozenset(dp.ground)
    uncovered = ground.difference(*dp.blocks)
    if dp.d >= 2 and uncovered:
        raise ValueError(f"condition (iv) fails: point {min(uncovered)} lies in no block")
    out = _paving_poset(ground, dp.blocks, dp.d)
    if not is_geometric(out):
        raise AssertionError("paving lattice failed the geometric predicate")
    return out


def vamos_dpartition() -> DPartition:
    """The 3-partition of {1..8} whose paving lattice is the Vamos lattice."""
    quads = [
        frozenset({1, 2, 3, 4}),
        frozenset({1, 4, 5, 6}),
        frozenset({2, 3, 5, 6}),
        frozenset({1, 4, 7, 8}),
        frozenset({2, 3, 7, 8}),
    ]
    triples = [
        frozenset(c)
        for c in combinations(range(1, 9), 3)
        if not any(frozenset(c) <= q for q in quads)
    ]
    dp = DPartition(tuple(range(1, 9)), tuple(quads + triples), d=3)
    dp.validate()
    return dp


def vamos_lattice() -> Poset:
    return paving_lattice_from_dpartition(vamos_dpartition())


# -- group-labeled Whitney rows ----------------------------------------------------------------


def dowling_rows(m: int, N: int) -> RMatrix:
    """Rank rows of the dual group-labeled partition geometry.

    Row n holds the second-kind Whitney numbers W(n, i) for a group of
    order m: W(n, 0) = W(n, n) = 1 and
    W(n, i) = W(n-1, i-1) + (1 + m*i) * W(n-1, i).
    """
    if m < 1 or N < 0:
        raise ValueError("need m >= 1 and N >= 0")
    if N > MAX_DOWLING_ORDER:
        raise ValueError(f"dowling rows out of range: N={N}, over the cap of {MAX_DOWLING_ORDER}")
    if m > MAX_DOWLING_GROUP:
        raise ValueError(f"dowling rows out of range: m={m}, over the cap of {MAX_DOWLING_GROUP}")
    rows = [(1,)]
    for n in range(1, N + 1):
        prev = (0, *rows[-1], 0)
        rows.append(tuple(prev[i] + (1 + m * i) * prev[i + 1] for i in range(n + 1)))
    return RMatrix.from_int_rows(rows)


def dowling_step_operator(m: int, row: ExactPoly) -> ExactPoly:
    """Apply t + alpha with alpha(t^i) = (1 + m*i) t^i; one Whitney recursion step."""
    shifted = row.shift(1)
    scaled = ExactPoly((1 + m * i) * c for i, c in enumerate(row.coeffs))
    return shifted + scaled


# -- modular cuts and single-element extensions ---------------------------------------------------


def modular_cut_validate(l: Poset, cut: int) -> bool:
    """Whether the cut, a mask over the host's elements, is up-closed and
    holds the meet of every modular pair of its members.

    An up-closed set that holds the meet of all its members is the up-set
    of that meet, a principal cut (``l.up_mask(x)``), which is always
    modular; only the other cuts take the pair scan, quadratic in the
    number of members.
    """
    if not is_geometric(l):
        raise ValueError("host is not a geometric lattice")
    if cut < 0 or cut >> l.n:
        raise ValueError("cut member out of range")
    members = list(_bits(cut))
    if any(l.up_mask(x) & ~cut for x in members):
        return False
    least = cut  # the members below every member: their meet, if a member
    for x in members:
        least &= l.down_mask(x)
    if least:
        return True
    inside = set(members)
    for x, y in combinations(members, 2):
        w = l.meet(x, y)
        if w not in inside and l.rho(x) + l.rho(y) == l.rho(l.join(x, y)) + l.rho(w):
            return False
    return True


def _atom_names(l: Poset) -> Dict[int, object]:
    """Display names for atoms: unwrap singleton frozenset labels, else
    indices; derived once per poset."""
    return l._derived("atom names", _name_atoms)


def _name_atoms(l: Poset) -> Dict[int, object]:
    names: Dict[int, object] = {}
    for a in l.atoms():
        lab = l.label_of(a)
        names[a] = next(iter(lab)) if isinstance(lab, frozenset) and len(lab) == 1 else a
    if len(set(map(repr, names.values()))) != len(names):
        names = {a: a for a in l.atoms()}
    return names


def _collides(e, names: Iterable) -> bool:
    """Whether e equals an atom name or prints like one."""
    return any(e == v or repr(e) == repr(v) for v in names)


def element_with_atoms(l: Poset, atom_names: Iterable) -> int:
    """Index of the first element whose atom set carries exactly the given
    names: the first whose down-set mask meets the atoms in their mask."""
    want = frozenset(atom_names)
    bit = {v: 1 << a for a, v in _atom_names(l).items()}
    if all(v in bit for v in want):
        mask, atoms = sum(map(bit.__getitem__, want)), sum(bit.values())
        for x, down in enumerate(l._down):
            if down & atoms == mask:
                return x
    raise ValueError(f"no element with atom set {sorted(map(repr, want))}")


def single_element_extension(l: Poset, cut: int, e) -> Poset:
    """Extend a geometric lattice by one new atom e along a modular cut M,
    the mask of its members over the host's elements.

    The flats of the extension, written as atom-name sets: every flat X
    outside M, and X + e when X is in M or in the collar, the flats outside
    M with no upper cover in M (Oxley, Matroid Theory, section 7.2). Their
    covers are read from the host's covers. X outside M goes to each cover
    Y outside M, to Y + e for each cover Y in M, and to X + e in the collar.
    X + e for X in M goes to Y + e for each cover Y. X + e in the collar
    goes to Y + e for each cover Y in the collar, and for each other cover
    Y to Z + e, Z the one cover of Y in M: two would be a modular pair of
    members whose meet Y is not in M. The elements come in the order of
    ``_poset_from_sets``: by size, then by the sorted ranks of the name
    reprs. The result is checked to be geometric.
    """
    if not modular_cut_validate(l, cut):
        raise ValueError("invalid modular cut")
    names = _atom_names(l)
    if _collides(e, names.values()):
        raise ValueError(f"new atom name {e!r} collides with an existing atom")
    up = l._cover_up
    inside = set(_bits(cut))
    collar = {x for x, ys in enumerate(up) if x not in inside and inside.isdisjoint(ys)}
    rank = {v: r for r, v in enumerate(sorted([*names.values(), e], key=repr))}
    atoms = sum(1 << a for a in names)
    flats = []  # (size, sorted name ranks, host element, with e, atom names)
    for x, down in enumerate(l._down):
        flat = frozenset(names[a] for a in _bits(down & atoms))
        ranks = sorted(map(rank.__getitem__, flat))
        if x not in inside:
            flats.append((len(ranks), ranks, x, False, flat))
        if x in inside or x in collar:
            flats.append((len(ranks) + 1, sorted([*ranks, rank[e]]), x, True, flat | {e}))
    flats.sort()
    plain, plus = {}, {}
    for i, (_, _, x, with_e, _) in enumerate(flats):
        (plus if with_e else plain)[x] = i
    cover_up = []
    for _, _, x, with_e, _ in flats:
        if not with_e:
            ys = [plus[y] if y in inside else plain[y] for y in up[x]] + ([plus[x]] if x in collar else [])
        elif x in inside:
            ys = [plus[y] for y in up[x]]
        else:
            ys = {plus[y] if y in collar else plus[next(z for z in up[y] if z in inside)] for y in up[x]}
        cover_up.append(sorted(ys))
    out = Poset._from_covers(len(flats), cover_up, range(len(flats)), [f[-1] for f in flats])
    if not is_geometric(out):
        raise AssertionError("single-element extension is not geometric")
    return out


# -- instance DSL -------------------------------------------------------------------------------------


def _int_fields(parts: List[str], count: int) -> List[int]:
    """The integer fields after the head of a split DSL string; exactly ``count``."""
    if len(parts) != count + 1:
        raise ValueError(f"{parts[0]} takes {count} field(s), got {len(parts) - 1}")
    return [_integer(field) for field in parts[1:]]


def _keyed_fields(parts: List[str], keys: Sequence[str]) -> Dict[str, Union[int, str]]:
    """The ``key=value`` fields of a split DSL string, each key once; ``file`` a path, the rest integers."""
    pairs = [field.partition("=") for field in parts[1:]]
    kv = {key: value for key, sep, value in pairs if sep}
    if len(pairs) != len(keys) or sorted(kv) != sorted(keys):
        expected = ":".join(f"{key}=..." for key in keys)
        raise ValueError(f"{parts[0]} takes the fields {expected}, got {':'.join(parts[1:])!r}")
    return {key: value if key == "file" else _integer(value) for key, value in kv.items()}


# each poset head but see: its integer field count or key=value keys, and a builder finding its function
_FAMILIES: Dict[str, Tuple[Union[int, Tuple[str, ...]], Callable]] = {
    "boolean": (1, lambda n: boolean_lattice(n)),
    "trunc-boolean": (2, lambda n, k: truncated_boolean(n, k)),
    "subspace": (2, lambda n, q: subspace_lattice(n, q)),
    "affine": (2, lambda n, q: affine_lattice(n, q)),
    "partition": (1, lambda n: partition_lattice(n)),
    "chain": (1, lambda k: chain_poset(k)),
    "vamos": (0, lambda: vamos_lattice()),
    "fano-design": (0, lambda: design_poset(fano_design())),
    "uniform-design": (2, lambda n, k: design_poset(uniform_design(n, k))),
    "fano-lattice": (0, lambda: fano_lattice()),
    "paving": (("file",), lambda file: paving_lattice_from_dpartition(read_dpartition(file))),
}

# each rank-row head, read as a poset head is; the first three are the rank rows of a poset family
_ROWS: Dict[str, Tuple[Union[int, Tuple[str, ...]], Callable]] = {
    "boolean-rows": (1, lambda n: rank_matrix(boolean_lattice(n))),
    "chain-rows": (1, lambda k: rank_matrix(chain_poset(k))),
    "trunc-rows": (2, lambda n, k: rank_matrix(truncated_boolean(n, k))),
    "dowling-rows": (("m", "N"), lambda m, N: dowling_rows(m, N)),
}


def _read(table: dict, parts: List[str]):
    """Build the instance of a split DSL string whose head is in ``table``."""
    spec, build = table[parts[0]]
    return build(*_int_fields(parts, spec)) if isinstance(spec, int) else build(**_keyed_fields(parts, spec))


def _see_fields(dsl: str) -> Iterator:
    """Yield the split fields of a DSL string's host, then the atom names of its see: cuts,
    innermost first (None for cut=none), each read when reached: host errors come first."""
    parts = dsl.split(":")
    cuts = []
    while parts[0] == "see":
        if not parts[-1].startswith("cut="):
            raise ValueError("a see: instance needs a cut=... part")
        cuts.append(parts[-1][len("cut=") :])
        parts = parts[1:-1] or [""]
    yield parts
    for cut_spec in reversed(cuts):
        atom_names = None if cut_spec == "none" else [_integer(tok) for tok in cut_spec.split(",")]
        for i, name in enumerate(atom_names or ()):
            if name in atom_names[:i]:
                raise ValueError(f"repeated cut member {name}")
        yield atom_names


def build_instance(dsl: str) -> Poset:
    """Build a poset from a family DSL string.

    Forms: "boolean:4", "trunc-boolean:5:1", "subspace:3:2", "affine:2:3",
    "partition:5", "chain:4", "vamos", "fano-design", "uniform-design:5:3",
    "fano-lattice", "paving:file=blocks.txt", "see:boolean:4:cut=1,2"
    (cut=none for the empty cut, atoms by name). A wrong number of fields,
    an unknown, missing or repeated key, an integer other than ASCII
    [+-]?[0-9]+, a repeated cut member, or a rank-row head (read by
    build_rows) is a ValueError. "see:" forms nest to any depth, e.g.
    "see:see:boolean:3:cut=1:cut=2", and the cuts are applied innermost first.
    """
    layers = _see_fields(dsl)
    parts = next(layers)
    if parts[0] in _ROWS:
        raise ValueError(f"{parts[0]} builds rank rows, not a poset")
    if parts[0] not in _FAMILIES:
        raise ValueError(f"unknown family DSL: {':'.join(parts)!r}")
    return _extend_by_cuts(_read(_FAMILIES, parts), layers)


def _extend_by_cuts(host: Poset, cuts: Iterable) -> Poset:
    """Extend the host along each cut of a see: form in turn, innermost first:
    None is the empty cut, else the principal cut of the one flat whose atoms
    are exactly the named atoms; names whose join holds another atom are
    refused. The new atom is named by the least integer that is not a name yet."""
    for atom_names in cuts:
        cut = 0 if atom_names is None else host.up_mask(element_with_atoms(host, atom_names))
        e = next(e for e in count() if not _collides(e, _atom_names(host).values()))
        host = single_element_extension(host, cut, e)
    return host


def build_rows(tag: str) -> RMatrix:
    """Build a rank-row matrix from a row DSL string: "boolean-rows:3",
    "chain-rows:4" and "trunc-rows:5:2" are the rank rows of boolean:3,
    chain:4 and trunc-boolean:5:2; "dowling-rows:m=2:N=6" the Whitney rows.
    Fields are read as build_instance reads them."""
    parts = tag.split(":")
    if parts[0] not in _ROWS:
        raise ValueError(f"unknown row family {parts[0]!r}; known: {', '.join(_ROWS)}")
    return _read(_ROWS, parts)


def dpartition_to_text(dp: DPartition) -> str:
    lines = [f"dpartition {dp.d}", "ground " + " ".join(str(g) for g in dp.ground)]
    lines += ["block " + " ".join(str(x) for x in sorted(b)) for b in dp.blocks]
    return "\n".join(lines) + "\n"


def dpartition_from_text(text: str) -> DPartition:
    """Parse the d-partition text format; bad lines are ValueErrors naming the line."""
    d = ground = None
    blocks: List[FrozenSet[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *values = line.split()
        if kind not in ("dpartition", "ground", "block"):
            raise ValueError(f"line {lineno}: unknown directive {kind!r}")
        if not values:
            raise ValueError(f"line {lineno}: {kind} needs a value")
        if (kind == "dpartition" and d is not None) or (kind == "ground" and ground is not None):
            raise ValueError(f"line {lineno}: duplicate {kind} line")
        if kind == "dpartition":
            if len(values) != 1:
                raise ValueError(f"line {lineno}: dpartition takes one value")
            d = _line_int(lineno, values[0])
        elif kind == "ground":
            ground = [_line_int(lineno, t) for t in values]
        else:
            blocks.append(frozenset(_line_int(lineno, t) for t in values))
    if d is None or not ground or not blocks:
        raise ValueError("incomplete d-partition file")
    dp = DPartition(tuple(ground), tuple(blocks), d)
    dp.validate()
    return dp


def read_dpartition(path: str) -> DPartition:
    with open(path, "r", encoding="utf-8") as fh:
        return dpartition_from_text(fh.read())
