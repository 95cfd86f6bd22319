"""Batch verification suites over generated lattice corpora.

Each suite turns a family of instances into CheckReports with exact
verdicts: real-rootedness, root location in [-1, 0], interlacing,
resolvability, isomorphism, and polynomial identities. A suite is a
default corpus plus one check; every instance is a string that the
check parses itself, so any reported instance can be run again on its
own. The rank3 corpus of random lattices is prebuilt from the seed; its
tags name the seed and the draw, so they replay too. The see corpus
builds each of its hosts and products once and hands them over with the
instance string, whose cuts are applied as they are on replay, and checks
each product by the isomorphism its decomposition names; the
ordinal-sum corpus builds each pool entry once. Randomized corpora
are seeded and the seed is recorded in every report.
"""

from __future__ import annotations

import random
import re
import time
from itertools import combinations, islice
from math import comb, factorial
from operator import mul
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .families import (
    _atom_names,
    _extend_by_cuts,
    _keyed_fields,
    _see_fields,
    boolean_lattice,
    build_instance,
    build_rows,
    dowling_rows,
    linear_space_lattice,
    subspace_lattice,
    truncated_boolean,
)
from .permstats import eulerian, q_eulerian
from .polynomial import (
    ExactPoly,
    certify_interlacing_sequence,
    diamond_product,
    h_from_f,
    interlaces,
    is_real_rooted,
    isolate_real_roots,
    roots_in_interval,
)
from .posets import Poset, _bits, is_isomorphic
from .reports import CheckReport
from .tn import (
    RMatrix,
    ResolveOutcome,
    chain_polys_from_rmatrix,
    is_geometric,
    is_quasi_rank_uniform,
    ordinal_sum_rows,
    rank_matrix,
    resolve,
)


class CheckFailure(Exception):
    """Raised by a suite check; carries the reproducing witness."""

    def __init__(self, witness: dict):
        super().__init__(str(witness))
        self.witness = witness


# -- elementary checks ------------------------------------------------------------


def _require(cond: bool, **witness) -> None:
    if not cond:
        raise CheckFailure(witness)


def _check_unit_interval_roots(c: ExactPoly, tag: str) -> None:
    """Exact verdict: real-rooted with every root in [-1, 0]."""
    try:
        inside = roots_in_interval(c, -1, 0)
    except ValueError:  # c is never zero, so c is not real-rooted
        raise CheckFailure({"reason": f"{tag} is not real-rooted", "poly": c.to_string()}) from None
    if not inside:
        iso = isolate_real_roots(c)
        raise CheckFailure(
            {
                "reason": f"{tag} has a root outside [-1, 0]",
                "poly": c.to_string(),
                "root_intervals": [[str(a), str(b)] for a, b in iso.intervals],
            }
        )


def _checked_chain_polynomial(c: ExactPoly) -> ExactPoly:
    """The chain polynomial c, checked to be real-rooted in [-1, 0]."""
    _check_unit_interval_roots(c, "chain polynomial")
    return c


def brute_force_oracle(p: Poset) -> Tuple[int, ...]:
    """Chain counts by walking every totally ordered subset explicitly.

    Intentionally naive and independent of the dynamic program: each
    chain is built element by element in increasing order. Guarded to 20
    elements.
    """
    if p.n > 20:
        raise ValueError("brute-force oracle is capped at 20 elements")
    counts = [1] + [0] * p.n
    up_lists = [tuple(y for y in p.up_set(x) if y != x) for x in range(p.n)]

    def extend(last: int, size: int) -> None:
        counts[size] += 1
        for nxt in up_lists[last]:
            extend(nxt, size + 1)

    for start in range(p.n):
        extend(start, 1)
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


_ONE_PLUS_T_SQUARED = ExactPoly((1, 2, 1))


def rank3_formula(l: Poset) -> ExactPoly:
    """Closed-form chain polynomial of a rank-3 geometric lattice.

    With m1 atoms, m2 co-atoms and e atom/co-atom cover pairs the chain
    polynomial is (1 + (m1+m2) t + e t^2) (1+t)^2.
    """
    if l.quasi_rank != 3 or l.least is None or l.greatest is None:
        raise ValueError("expected a bounded rank-3 lattice")
    _, atoms, coatoms, _ = l._levels
    # a level-1 element below a level-2 one is covered by it
    e = sum((l.down_mask(y) & atoms).bit_count() for y in _bits(coatoms))
    quad = ExactPoly((1, atoms.bit_count() + coatoms.bit_count(), e))
    return quad * _ONE_PLUS_T_SQUARED


# -- random corpora -----------------------------------------------------------------


def random_rank3_geometric(rng: random.Random) -> Poset:
    """Random linear space on 4..9 points; every pair on exactly one line."""
    return linear_space_lattice(*_rank3_lines(rng))


def _rank3_lines(rng: random.Random) -> Tuple[int, List[FrozenSet[int]]]:
    """The point count and lines of one ``random_rank3_geometric`` draw.

    The pairs are taken in a shuffled order, and each pair on no line yet
    opens a line that takes each other point, in a shuffled order, with
    probability 0.45 when it shares a line with none of the line's points
    and the line stays short of n - 1 points. ``met[x]`` has bit y set
    when x and y share a line, so each test is one bit of a mask.
    """
    n = rng.randint(4, 9)
    pairs = list(combinations(range(1, n + 1), 2))
    rng.shuffle(pairs)
    met = [0] * (n + 1)
    lines = []
    for a, b in pairs:
        if met[a] >> b & 1:
            continue
        line, mask = [a, b], 1 << a | 1 << b
        shared = met[a] | met[b]  # the points that share a line with one on this line
        extras = list(range(1, n + 1))
        rng.shuffle(extras)
        for c in extras:
            if mask >> c & 1 or len(line) >= n - 1:
                continue
            if rng.random() < 0.45 and not shared >> c & 1:
                line.append(c)
                mask |= 1 << c
                shared |= met[c]
        lines.append(frozenset(line))
        for x in line:
            met[x] |= mask
    return n, lines


def random_bounded_poset(rng: random.Random) -> Poset:
    """Random bounded poset: a staircase of up to five middle elements."""
    mid = rng.randint(0, 5)
    n = mid + 2
    rels = []
    for i in range(1, mid + 1):
        rels.append((0, i))
        rels.append((i, n - 1))
    for i in range(1, mid + 1):
        for j in range(i + 1, mid + 1):
            if rng.random() < 0.35:
                rels.append((i, j))
    if mid == 0:
        rels.append((0, 1))
    return Poset(n, rels)


# -- suites: corpus(seed) -> (instance, subject) tasks, check(subject, seed) -> witness --


def _tasks(tags: Iterable[str]) -> List[Tuple[str, Any]]:
    """Tasks whose subject is the instance string itself."""
    return [(tag, tag) for tag in tags]


def _params(tag: str, head: str, keys: Sequence[str]) -> Dict[str, int]:
    """Integer fields of an instance tag ``head:key=value:...``; each key exactly once."""
    parts = tag.split(":")
    if parts[0] != head:
        raise ValueError(f"expected a {head}:... instance, got {tag!r}")
    return _keyed_fields(parts, keys)


_RANK3_DRAWS = 200


def _rank3_corpus(seed: int) -> List[Tuple[str, Any]]:
    rng = random.Random(seed)
    return [(f"rank3-random:seed={seed}:i={i:03d}", random_rank3_geometric(rng)) for i in range(_RANK3_DRAWS)]


def _rank3_replays(tags: Iterable[str]) -> List[Tuple[str, Any]]:
    """Tasks for rank3 instance strings; they share one record of line draws per seed."""
    draws: Dict[int, Tuple[random.Random, List]] = {}
    return [(tag, (tag, draws)) for tag in tags]


def _check_rank3(subject: Any, seed: int) -> dict:
    """Geometric, the closed form matches the chain count, and real-rooted.

    The subject is a prebuilt random lattice, a family DSL string, or a
    ``rank3-random:seed=S:i=III`` tag, which names draw i of the corpus at
    seed S and is replayed by drawing the lines of draws 0 to i from seed S
    again, then building draw i alone. A string may come with a dict from
    seeds to their random source and the lines drawn from it so far, which
    the tags of one run share, so each draw is made once.
    """
    subject, draws = subject if isinstance(subject, tuple) else (subject, {})
    if not isinstance(subject, str):
        l = subject
    elif subject.startswith("rank3-random:"):
        params = _params(subject, "rank3-random", ("seed", "i"))
        if not 0 <= params["i"] < _RANK3_DRAWS:
            raise ValueError(f"draw index out of range 0..{_RANK3_DRAWS - 1}: {params['i']}")
        seed = params["seed"]
        rng, lines = draws.setdefault(seed, (random.Random(seed), []))
        while len(lines) <= params["i"]:
            lines.append(_rank3_lines(rng))
        l = linear_space_lattice(*lines[params["i"]])
    else:
        l = build_instance(subject)
    _require(is_geometric(l), reason="not geometric")
    c = l.chain_polynomial()
    formula = rank3_formula(l)
    _require(
        c == formula,
        reason="closed form disagrees with chain count",
        chain=c.to_string(),
        formula=formula.to_string(),
    )
    _require(is_real_rooted(c), reason="not real-rooted", poly=c.to_string())
    return {"seed": seed, "chain": c.to_string()}


def _paving_corpus(seed: int) -> List[Tuple[str, Any]]:
    truncations = [f"trunc-boolean:{n}:{k}" for n in range(2, 8) for k in range(n - 1)]
    return _tasks(["vamos", "fano-design"] + truncations)


_SWEEP_MAX_ELEMENTS = 128
_SWEEP_MAX_RANK = 6  # a sweep covers 2^(rank + 1) rank selections


def _swept_flag_f_vector(p: Poset) -> Optional[Dict[int, int]]:
    """The flag f-vector of p if its rank selections are swept, else None.

    The empty poset and posets above _SWEEP_MAX_ELEMENTS elements or
    quasi-rank _SWEEP_MAX_RANK are not swept.
    """
    if p.n == 0 or p.n > _SWEEP_MAX_ELEMENTS or p.quasi_rank > _SWEEP_MAX_RANK:
        return None
    return p.flag_f_vector()


def _flag_sum(alpha: Iterable[Tuple[int, int]], mask: int) -> ExactPoly:
    """Sum of alpha(T) t^|T| over the flag f-vector entries (T, alpha(T)) with T within ``mask``."""
    coeffs = [0] * (mask.bit_count() + 1)
    for ranks, count in alpha:
        if ranks | mask == mask:
            coeffs[ranks.bit_count()] += count
    return ExactPoly(coeffs)


def _certify_rank_selections(p: Poset, alpha: Dict[int, int]) -> int:
    """Check [-1,0]-rootedness of every nonempty rank selection of p, from
    its flag f-vector alpha; returns their number.

    The chain polynomial c_S of the selection S sums alpha(T) t^|T| over
    the rank sets T within S, so no subposet is built. A factor rank r
    holds one element z, and z is comparable to every element: adding z to
    a chain without rank r gives a chain with rank r, one to one, so
    alpha(U + r) = alpha(U) for every U without r and c_(S + r) =
    (1 + t) c_S. As -1 lies in [-1, 0], S + r passes exactly when S does,
    and a set of factor ranks alone gives a power of 1 + t. So only the
    selections that avoid every factor rank are certified, each summed
    from the entries of alpha that avoid them; the others are counted as
    certified through their factor-free part. That part is a smaller mask,
    so walking the masks upwards meets the same first failure, with the
    same witness, as certifying every selection. The bottom and the top of
    a bounded poset are factor ranks, so at quasi-rank R it needs
    2^(R - 1) - 1 certifications for 2^(R + 1) - 1 selections. Every rank
    up to the top is taken, so each selection is nonempty.
    """
    top = p.quasi_rank
    everything = (1 << p.n) - 1
    factors = sum(
        1 << r
        for r, level in enumerate(p._levels)
        if level.bit_count() == 1 and p.down_mask(z := level.bit_length() - 1) | p.up_mask(z) == everything
    )
    free = [(ranks, count) for ranks, count in alpha.items() if not ranks & factors]
    for mask in range(1, 1 << (top + 1)):
        if not mask & factors:
            selected = [r for r in range(top + 1) if mask >> r & 1]
            _check_unit_interval_roots(_flag_sum(free, mask), f"rank selection {selected}")
    return (1 << (top + 1)) - 1


def _check_rank_selections(dsl: str, seed: int) -> dict:
    """The chain polynomial, and that of every rank selection, has its roots in [-1, 0].

    When the rank selections are swept, the chain polynomial is read from
    the sweep's flag f-vector alpha, as the sum of alpha(U) t^|U| over every
    U, so the chains are counted once; it is certified before the
    selections. A selection through a factor rank, held by one element
    comparable to all, has the chain polynomial of its factor-free part
    times 1 + t, so only the factor-free selections are certified (see
    _certify_rank_selections).
    """
    p = build_instance(dsl)
    alpha = _swept_flag_f_vector(p)
    if alpha is None:
        c = _checked_chain_polynomial(p.chain_polynomial())
        return {"chain": c.to_string(), "rank_selections_checked": 0}
    c = _checked_chain_polynomial(_flag_sum(alpha.items(), (1 << (p.quasi_rank + 1)) - 1))
    return {"chain": c.to_string(), "rank_selections_checked": _certify_rank_selections(p, alpha)}


def _resolved(rows: RMatrix, reason: str, **context) -> ResolveOutcome:
    """Resolve the rank rows and verify the witness against them.

    ``reason`` and ``context`` make the witness of a resolution failure.
    """
    outcome = resolve(rows)
    _require(outcome.ok, reason=reason, detail=outcome.describe(), **context)
    _require(outcome.witness.verify(rows), reason="witness failed verification")
    return outcome


def _certify_rows(rows: RMatrix, **context) -> Tuple[ResolveOutcome, List[ExactPoly]]:
    """Resolve the rank rows, verify the witness, and certify the chain polynomials.

    Every chain polynomial of the rows must have its roots in [-1, 0], and
    consecutive ones must interlace. Signs at dyadic points decide that for
    the whole sequence at once (``certify_interlacing_sequence``); when
    they leave it undecided, each polynomial and each pair is checked on
    its own, and that path gives every failure witness. ``context`` goes
    into the witness of a resolution failure. Returns the resolve outcome
    and the chain polynomials.
    """
    outcome = _resolved(rows, "not resolvable", **context)
    ps = chain_polys_from_rmatrix(rows)
    if not certify_interlacing_sequence(ps):
        for n, pn in enumerate(ps):
            _check_unit_interval_roots(pn, f"p_{n}")
        for n in range(len(ps) - 1):
            _require(
                interlaces(ps[n], ps[n + 1]),
                reason="consecutive chain polynomials fail to interlace",
                n=n,
            )
    return outcome, ps


def _dowling_corpus(seed: int) -> List[Tuple[str, Any]]:
    return _tasks(f"dowling-rows:m={m}:N=6" for m in (1, 2, 3))


def _check_dowling(dsl: str, seed: int) -> dict:
    """``dowling-rows:m=M:N=N``: row n of dowling_rows(M, N) holds the Whitney numbers
    W(n, k) = sum_j (-1)^(k-j) C(k, j) (1 + M j)^n / (M^k k!), j = 0..k; the rows are certified."""
    params = _params(dsl, "dowling-rows", ("m", "N"))
    rows, m = dowling_rows(**params), params["m"]
    for n, row in enumerate(rows.rows):
        expected = ExactPoly(
            sum((-1) ** (k - j) * comb(k, j) * (1 + m * j) ** n for j in range(k + 1)) // (m**k * factorial(k))
            for k in range(n + 1)
        )
        _require(
            row == expected,
            reason="rows disagree with the closed form of the Whitney numbers",
            row=n,
            expected=expected.to_string(),
            got=row.to_string(),
        )
    outcome, _ = _certify_rows(rows)
    return {"rows": rows.order, "lambda_rows": len(outcome.witness.lambdas)}


def _designs_corpus(seed: int) -> List[Tuple[str, Any]]:
    uniform = [f"uniform-design:{n}:{k}" for n, k in ((4, 2), (5, 2), (5, 3), (6, 3), (6, 4))]
    return _tasks(["fano-design"] + uniform)


def _triangular_corpus(seed: int) -> List[Tuple[str, Any]]:
    tags = [f"boolean:{n}" for n in range(1, 7)]
    tags += ["trunc-boolean:4:1", "trunc-boolean:5:1", "trunc-boolean:5:2", "trunc-boolean:6:2"]
    tags += ["subspace:2:2", "subspace:3:2", "subspace:2:3", "affine:2:3"]
    tags += ["partition:3", "partition:4", "partition:5"]
    return _tasks(tags)


def _rows_for_poset(p: Poset) -> Tuple[RMatrix, str, Poset]:
    """Rank rows of p, falling back to the dual when only it is uniform;
    also the side and the poset the rows belong to."""
    ok, rows = is_quasi_rank_uniform(p)
    if ok:
        return rows, "primal", p
    dual = p.dual()
    ok, rows = is_quasi_rank_uniform(dual)
    if ok:
        return rows, "dual", dual
    raise CheckFailure({"reason": "neither the poset nor its dual is rank uniform"})


def _check_triangular(dsl: str, seed: int) -> dict:
    """The rank rows certify, and so does the chain polynomial read off them.

    The uniform side has a least element, its one element of quasi-rank 0.
    Every chain is C or C plus the least element for exactly one chain C of
    elements above it, hence a factor 1 + t. Those C are the empty chain,
    counted by p_0 = 1, and for each x of quasi-rank n >= 1 the chains with
    maximum x, counted by p_n. So the chain polynomial is
    (1 + t) * sum_n #(rank n) p_n, and a poset and its dual share it.
    """
    p = build_instance(dsl)
    rows, side, uniform = _rows_for_poset(p)
    _, ps = _certify_rows(rows, side=side)
    sizes = uniform.quasi_rank_generating_polynomial().coeffs
    c = _checked_chain_polynomial(ExactPoly((1, 1)) * sum(map(mul, sizes, ps), ExactPoly()))
    return {"side": side, "order": rows.order, "chain": c.to_string()}


_ROW_POOL = (
    "boolean-rows:3",
    "boolean-rows:4",
    "chain-rows:4",
    "chain-rows:5",
    "trunc-rows:4:1",
    "trunc-rows:5:2",
    "dowling-rows:m=1:N=4",
    "dowling-rows:m=2:N=4",
    "dowling-rows:m=3:N=3",
)

_BOUNDED_POOL = (
    "boolean:2",
    "boolean:3",
    "chain:3",
    "chain:4",
    "trunc-boolean:4:1",
    "trunc-boolean:5:2",
)

def _ordinal_sum_corpus(seed: int) -> List[Tuple[str, Any]]:
    # each pool entry is built once and handed over with the tags that draw it
    rng = random.Random(seed)
    tasks = []
    for kind, pool, build, count in (
        ("stacked-rows", _ROW_POOL, build_rows, 24),
        ("stacked-posets", _BOUNDED_POOL, build_instance, 8),
    ):
        built = {tag: build(tag) for tag in pool}
        for i in range(count):
            left, right = rng.choice(pool), rng.choice(pool)
            tag = f"{kind}:seed={seed}:i={i:02d}:{left}+{right}"
            tasks.append((tag, (tag, (built[left], built[right]))))
    return tasks


def _check_ordinal_sum(subject: Any, seed: int) -> dict:
    """``stacked-rows:seed=S:i=II:L+R`` stacks two row-pool matrices;
    ``stacked-posets:seed=S:i=II:L+R`` the rank rows of an ordinal sum.

    The subject is such a string, or such a string with its two summands
    prebuilt."""
    tag, summands = (subject, None) if isinstance(subject, str) else subject
    fields = tag.split(":", 3)
    kind = fields[0]
    if kind not in ("stacked-rows", "stacked-posets"):
        raise ValueError(f"unknown ordinal-sum instance {tag!r}")
    _params(":".join(fields[:-1]), kind, ("seed", "i"))
    names = re.split(r"\+(?=[A-Za-z])", fields[-1])  # a '+' before a digit is a sign
    if len(names) != 2:
        raise ValueError(f"{kind} takes two instances joined by one '+', got {fields[-1]!r}")
    if kind == "stacked-rows":
        stacked = ordinal_sum_rows(*summands or map(build_rows, names))
        _resolved(stacked, "stacked rows not resolvable")
        return {"order": stacked.order}
    lp, rp = summands or map(build_instance, names)
    summed = lp.ordinal_sum(rp)
    rows = rank_matrix(summed)
    predicted = ordinal_sum_rows(rank_matrix(lp), rank_matrix(rp))
    _require(
        rows.rows == predicted.rows,
        reason="stacked rank rows disagree with the construction",
        got=[r.to_string() for r in rows.rows],
        predicted=[r.to_string() for r in predicted.rows],
    )
    _resolved(rows, "not resolvable")
    return {"order": rows.order}


def _see_corpus(seed: int) -> List[Tuple[str, Any]]:
    # every cut of the Boolean algebra; of its single truncation the principal
    # cuts: elements up to size n-2, plus the top; each host is built once, and
    # so is each product that a Boolean cut of 2 to n-1 atoms is checked against
    tasks = []
    for n in range(3, 6):
        for host, sizes, products in (
            (f"boolean:{n}", range(n + 1), {k: _see_product(n, k) for k in range(2, n)}),
            (f"trunc-boolean:{n}:1", [*range(n - 1), n], {}),
        ):
            lattice = build_instance(host)
            for size in sizes:
                for x in combinations(range(1, n + 1), size):
                    tag = f"see:{host}:cut={','.join(map(str, x)) or 'none'}"
                    tasks.append((tag, (tag, lattice, products.get(size))))
    return tasks


def _see_product(ground: int, members: int) -> Poset:
    """The product that extending B_ground along the cut of ``members`` atoms gives."""
    return truncated_boolean(members + 1, 1).direct_product(boolean_lattice(ground - members))


def _named_isomorphism(ext: Poset, product: Poset, members: Sequence[int]) -> bool:
    """Whether the map that the decomposition names is an isomorphism from
    the product T_(k+1,1) x B_(n-k) onto the extension of B_n along the cut
    of the k atoms ``members``.

    The map takes (S, R) to S + R on atom names: points 1..k+1 of T go to
    the members, in order, and then to the new atom, and points 1..n-k of
    B to the other atoms, in order. When the images are distinct labels of
    the extension, the two posets have as many elements and as many
    covers, and every cover of the product goes to a cover, the map is a
    bijection that carries the covers onto the covers.
    """
    ground = len(ext.atoms()) - 1
    new = set(_atom_names(ext).values()).difference(range(1, ground + 1))
    index = {label: x for x, label in enumerate(ext.labels or ())}
    if len(new) != 1 or len(index) != ext.n or product.n != ext.n or len(product.covers) != len(ext.covers):
        return False
    t_names = [*members, *new]
    b_names = [a for a in range(1, ground + 1) if a not in members]
    labels = product.labels
    t_image = {s: frozenset(t_names[i - 1] for i in s) for s in {s for s, _ in labels}}
    b_image = {r: frozenset(b_names[j - 1] for j in r) for r in {r for _, r in labels}}
    phi = [index.get(t_image[s] | b_image[r]) for s, r in labels]
    if None in phi or len(set(phi)) != ext.n:
        return False
    up = ext._cover_up
    return all(phi[b] in up[phi[a]] for a, b in product.covers)


def _matches_product(ext: Poset, product: Poset, members: Sequence[int]) -> bool:
    """Whether the extension is isomorphic to its product decomposition: by
    the map the decomposition names, else by the isomorphism search."""
    return _named_isomorphism(ext, product, members) or is_isomorphic(ext, product)


def _check_see(subject: Any, seed: int) -> dict:
    """The extension's chain polynomial has its roots in [-1, 0], and an
    extension of a Boolean algebra along a cut of 2 or more atoms, short of
    all, matches its product decomposition.

    The subject is a see: instance string, or such a string with its host
    prebuilt, whose cuts are then applied as ``build_instance`` applies them,
    and the product it is checked against prebuilt, or None.
    """
    if isinstance(subject, str):
        dsl, ext, product = subject, build_instance(subject), None  # geometricity asserted by the constructor
    else:
        dsl, lattice, product = subject
        ext = _extend_by_cuts(lattice, islice(_see_fields(dsl), 1, None))
    c = _checked_chain_polynomial(ext.chain_polynomial())
    witness = {"chain": c.to_string(), "elements": ext.n}
    host, *cuts = _see_fields(dsl)
    if host[0] == "boolean" and len(cuts) == 1 and cuts[0] is not None:
        ground, members = len(ext.atoms()) - 1, cuts[0]  # a cut of 2 or more atoms adds one
        if 2 <= len(members) < ground:
            if product is None:
                product = _see_product(ground, len(members))
            _require(
                _matches_product(ext, product, members),
                reason="extension does not match the product decomposition",
                elements=ext.n,
                product_elements=product.n,
            )
            witness["product_isomorphic"] = True
    return witness


def _diamond_corpus(seed: int) -> List[Tuple[str, Any]]:
    return _tasks(f"product-pair:seed={seed}:i={i:02d}" for i in range(50))


def _check_diamond(tag: str, seed: int) -> dict:
    """``product-pair:seed=S:i=II``: the p polynomial of a product of two random
    bounded posets is the diamond product of theirs."""
    params = _params(tag, "product-pair", ("seed", "i"))
    local = random.Random(params["seed"] * 1000003 + params["i"])
    lp = random_bounded_poset(local)
    rp = random_bounded_poset(local)
    for q in (lp, rp):
        _require(
            q.chain_polynomial().shift(1) == _ONE_PLUS_T_SQUARED * q.p_polynomial(),
            reason="t * chain polynomial != (1+t)^2 * p polynomial",
        )
    product = lp.direct_product(rp)
    lhs = product.p_polynomial()
    rhs = diamond_product(lp.p_polynomial(), rp.p_polynomial())
    _require(
        lhs == rhs,
        reason="product p polynomial disagrees with the diamond product",
        lhs=lhs.to_string(),
        rhs=rhs.to_string(),
    )
    return {"left": lp.n, "right": rp.n}


def counterexample_search(n: int, q_max: int = 64) -> dict:
    """Scan q = 1, 2, ... for the first failure of descent-polynomial interlacing.

    Also checks the q = 1 specialization and, for n <= 3, that the
    subspace-lattice h-polynomial over F_q matches the inversion-weighted
    descent polynomial for q in {2, 3}.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    base = eulerian(n)
    weighted = q_eulerian(n, 1)
    if weighted != base:
        raise CheckFailure({"reason": "q = 1 specialization failed"})
    found = None
    for q in range(1, q_max + 1):
        if q > 1:
            weighted = q_eulerian(n, q)
        if not interlaces(base, weighted):
            found = q
            break
    witness: dict = {
        "n": n,
        "eulerian": base.to_string(),
        "first_failing_q": found,
        "q_max": q_max,
    }
    if found is not None:
        iso = isolate_real_roots(weighted)
        witness["failing_poly"] = weighted.to_string()
        witness["failing_roots"] = [[str(a), str(b)] for a, b in iso.intervals]
    if n <= 3:
        h_checks = {}
        for q in (2, 3):
            lat = subspace_lattice(n, q)
            c = lat.proper_part().chain_polynomial()
            h = h_from_f(c, n - 1)
            expected = q_eulerian(n, q)
            _require(
                h == expected,
                reason="subspace h-polynomial mismatch",
                q=q,
                h=h.to_string(),
                expected=expected.to_string(),
            )
            h_checks[q] = True
        witness["h_polynomial_checks"] = h_checks
    return witness


def _counterexample_corpus(seed: int) -> List[Tuple[str, Any]]:
    return _tasks(["counterexample:n=3:qmax=64", "counterexample:n=4:qmax=64"])


def _check_counterexample(tag: str, seed: int) -> dict:
    params = _params(tag, "counterexample", ("n", "qmax"))
    witness = counterexample_search(params["n"], params["qmax"])
    _require(
        witness["first_failing_q"] is not None,
        reason="no interlacing failure found below the search cap",
        **witness,
    )
    return witness


_SUITES: Dict[str, Tuple[Callable[[int], List[Tuple[str, Any]]], Callable[[Any, int], dict]]] = {
    "rank3": (_rank3_corpus, _check_rank3),
    "paving": (_paving_corpus, _check_rank_selections),
    "dowling": (_dowling_corpus, _check_dowling),
    "designs": (_designs_corpus, _check_rank_selections),
    "triangular": (_triangular_corpus, _check_triangular),
    "ordinal-sum": (_ordinal_sum_corpus, _check_ordinal_sum),
    "see": (_see_corpus, _check_see),
    "diamond": (_diamond_corpus, _check_diamond),
    "counterexample": (_counterexample_corpus, _check_counterexample),
}

SUITE_NAMES = tuple(_SUITES)

# how a suite turns instance strings into tasks, where it is not one task per string alone
_REPLAYS: Dict[str, Callable[[Sequence[str]], List[Tuple[str, Any]]]] = {"rank3": _rank3_replays}


def suite_run(
    name: str,
    instances: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> List[CheckReport]:
    """Run one named suite; reports come back sorted by instance string.

    Without ``instances`` the suite's default corpus at ``seed`` is checked;
    an empty ``instances`` checks nothing. A malformed or unknown instance
    gets an ``error`` verdict.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    corpus, check = _SUITES[name]
    reports = []
    for instance, subject in corpus(seed) if instances is None else _REPLAYS.get(name, _tasks)(instances):
        start = time.monotonic()
        try:
            witness = check(subject, seed)
            verdict = "pass"
        except CheckFailure as exc:
            witness = exc.witness
            verdict = "fail"
        except Exception as exc:  # a malformed instance must not stop the suite
            witness = {"exception": f"{type(exc).__name__}: {exc}"}
            verdict = "error"
        ms = int((time.monotonic() - start) * 1000)
        reports.append(CheckReport(name, instance, verdict, witness, ms))
    reports.sort(key=lambda r: r.instance)
    return reports
