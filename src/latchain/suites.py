"""Batch verification suites over generated lattice corpora.

Each suite turns a family of instances into CheckReports with exact
verdicts: real-rootedness, root location in [-1, 0], interlacing,
resolvability, isomorphism, and polynomial identities. A suite is a
default corpus of instance strings plus one check, which parses the
string itself, so any reported instance can be run again on its own. The
checks of one run share what they build, through one table the run
creates: the see hosts and products, the ordinal-sum summands and the
rank3 line draws, each built at most once, whether the instances come
from the corpus or are replayed; nothing is kept from one run to the
next. Randomized corpora are seeded, and the rank3 tags name the seed
and the draw, so they replay too; the seed is recorded in every report.
"""

from __future__ import annotations

import random
import re
import time
from itertools import combinations
from math import comb, factorial
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .families import (
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
    isolate_real_roots,
    roots_in_interval,
)
from .posets import Poset, _bits
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


# -- suites: corpus(seed) -> instance strings, check(instance, seed, builds) -> witness --


def _shared(builds: Dict[tuple, Any], key: tuple, make: Callable[[], Any]) -> Any:
    """The value that ``make()`` built for ``key`` in this run, built on first use.

    The key names the reader as well as the string it reads. A build that
    raises is not stored, so each tag that names it raises again.
    """
    if key not in builds:
        builds[key] = make()
    return builds[key]


def _params(tag: str, head: str, keys: Sequence[str]) -> Dict[str, int]:
    """Integer fields of an instance tag ``head:key=value:...``; each key exactly once."""
    parts = tag.split(":")
    if parts[0] != head:
        raise ValueError(f"expected a {head}:... instance, got {tag!r}")
    return _keyed_fields(parts, keys)


_RANK3_DRAWS = 200


def _rank3_corpus(seed: int) -> List[str]:
    return [f"rank3-random:seed={seed}:i={i:03d}" for i in range(_RANK3_DRAWS)]


def _check_rank3(tag: str, seed: int, builds: Dict[tuple, Any]) -> dict:
    """Geometric, the closed form matches the chain count, and its roots lie in [-1, 0].

    The tag is a family DSL string or ``rank3-random:seed=S:i=III``, which
    names draw i of the corpus at seed S: the lines of draws 0 to i are
    drawn from seed S, and draw i alone is built. The tags of one run share
    each seed's random source and the lines drawn from it so far, keyed
    ``("rank3", S)``, so each draw is made once per run.
    """
    if tag.startswith("rank3-random:"):
        params = _params(tag, "rank3-random", ("seed", "i"))
        if not 0 <= params["i"] < _RANK3_DRAWS:
            raise ValueError(f"draw index out of range 0..{_RANK3_DRAWS - 1}: {params['i']}")
        seed = params["seed"]
        rng, lines = _shared(builds, ("rank3", seed), lambda: (random.Random(seed), []))
        while len(lines) <= params["i"]:
            lines.append(_rank3_lines(rng))
        l = linear_space_lattice(*lines[params["i"]])
    else:
        l = build_instance(tag)
    _require(is_geometric(l), reason="not geometric")
    c = l.chain_polynomial()
    formula = rank3_formula(l)
    _require(
        c == formula,
        reason="closed form disagrees with chain count",
        chain=c.to_string(),
        formula=formula.to_string(),
    )
    _check_unit_interval_roots(c, "chain polynomial")
    return {"seed": seed, "chain": c.to_string()}


def _paving_corpus(seed: int) -> List[str]:
    truncations = [f"trunc-boolean:{n}:{k}" for n in range(2, 8) for k in range(n - 1)]
    return ["vamos", "fano-design"] + truncations


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


def _check_rank_selections(tag: str, seed: int, builds: Dict[tuple, Any]) -> dict:
    """The chain polynomial, and that of every rank selection, has its roots in [-1, 0].

    When the rank selections are swept, the chain polynomial is read from
    the sweep's flag f-vector alpha, as the sum of alpha(U) t^|U| over every
    U, so the chains are counted once; it is certified before the
    selections. A selection through a factor rank, held by one element
    comparable to all, has the chain polynomial of its factor-free part
    times 1 + t, so only the factor-free selections are certified (see
    _certify_rank_selections).
    """
    p = build_instance(tag)
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


def _dowling_corpus(seed: int) -> List[str]:
    return [f"dowling-rows:m={m}:N=6" for m in (1, 2, 3)]


def _check_dowling(tag: str, seed: int, builds: Dict[tuple, Any]) -> dict:
    """``dowling-rows:m=M:N=N``: row n of dowling_rows(M, N) holds the Whitney numbers
    W(n, k) = sum_j (-1)^(k-j) C(k, j) (1 + M j)^n / (M^k k!), j = 0..k; the rows are certified."""
    params = _params(tag, "dowling-rows", ("m", "N"))
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


def _designs_corpus(seed: int) -> List[str]:
    uniform = [f"uniform-design:{n}:{k}" for n, k in ((4, 2), (5, 2), (5, 3), (6, 3), (6, 4))]
    return ["fano-design"] + uniform


def _triangular_corpus(seed: int) -> List[str]:
    tags = [f"boolean:{n}" for n in range(1, 7)]
    tags += ["trunc-boolean:4:1", "trunc-boolean:5:1", "trunc-boolean:5:2", "trunc-boolean:6:2"]
    tags += ["subspace:2:2", "subspace:3:2", "subspace:2:3", "affine:2:3"]
    tags += ["partition:3", "partition:4", "partition:5"]
    return tags


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


def _check_triangular(tag: str, seed: int, builds: Dict[tuple, Any]) -> dict:
    """The rank rows certify, and so does the chain polynomial of the uniform
    side, which a poset and its dual share; the uniformity test has kept the
    level counts that count its chains."""
    p = build_instance(tag)
    rows, side, uniform = _rows_for_poset(p)
    _certify_rows(rows, side=side)
    c = _checked_chain_polynomial(uniform.chain_polynomial())
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

def _ordinal_sum_corpus(seed: int) -> List[str]:
    rng = random.Random(seed)
    tags = []
    for kind, pool, count in (("stacked-rows", _ROW_POOL, 24), ("stacked-posets", _BOUNDED_POOL, 8)):
        for i in range(count):
            left, right = rng.choice(pool), rng.choice(pool)
            tags.append(f"{kind}:seed={seed}:i={i:02d}:{left}+{right}")
    return tags


def _check_ordinal_sum(tag: str, seed: int, builds: Dict[tuple, Any]) -> dict:
    """``stacked-rows:seed=S:i=II:L+R`` stacks two row-pool matrices;
    ``stacked-posets:seed=S:i=II:L+R`` the rank rows of an ordinal sum.

    The tags of one run share each summand, keyed by the tag's kind and
    the summand's name, so a name is read by the reader its kind takes:
    ``build_rows`` for stacked-rows, ``build_instance`` for stacked-posets.
    """
    fields = tag.split(":", 3)
    kind = fields[0]
    if kind not in ("stacked-rows", "stacked-posets"):
        raise ValueError(f"unknown ordinal-sum instance {tag!r}")
    _params(":".join(fields[:-1]), kind, ("seed", "i"))
    names = re.split(r"\+(?=[A-Za-z])", fields[-1])  # a '+' before a digit is a sign
    if len(names) != 2:
        raise ValueError(f"{kind} takes two instances joined by one '+', got {fields[-1]!r}")
    read = build_rows if kind == "stacked-rows" else build_instance
    lp, rp = (_shared(builds, (kind, name), lambda name=name: read(name)) for name in names)
    if kind == "stacked-rows":
        stacked = ordinal_sum_rows(lp, rp)
        _resolved(stacked, "stacked rows not resolvable")
        return {"order": stacked.order}
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


def _see_corpus(seed: int) -> List[str]:
    # every cut of the Boolean algebra; of its single truncation the principal
    # cuts: elements up to size n-2, plus the top
    tags = []
    for n in range(3, 6):
        for host, sizes in ((f"boolean:{n}", range(n + 1)), (f"trunc-boolean:{n}:1", [*range(n - 1), n])):
            for size in sizes:
                for x in combinations(range(1, n + 1), size):
                    tags.append(f"see:{host}:cut={','.join(map(str, x)) or 'none'}")
    return tags


def _see_product(ground: int, members: int) -> Poset:
    """The product that extending B_ground along the cut of ``members`` atoms gives."""
    return truncated_boolean(members + 1, 1).direct_product(boolean_lattice(ground - members))


def _named_isomorphism(ext: Poset, product: Poset, members: Sequence[int]) -> bool:
    """Whether the map that the decomposition names is an isomorphism from
    the product T_(k+1,1) x B_(n-k) onto the extension of B_n along the cut
    of the k atoms ``members``.

    The map takes (S, R) to S + R on atom names: points 1..k+1 of T go to
    the members, in order, and then to the new atom, the one name of the
    extension's top label outside 1..n, and points 1..n-k of B to the
    other atoms, in order. When the images are distinct labels of
    the extension, the two posets have as many elements and as many
    covers, and every cover of the product goes to a cover, the map is a
    bijection that carries the covers onto the covers.
    """
    ground = len(ext.atoms()) - 1
    index = {label: x for x, label in enumerate(ext.labels or ())}
    if len(index) != ext.n or product.n != ext.n or len(product.covers) != len(ext.covers):
        return False
    new = ext.labels[ext.greatest].difference(range(1, ground + 1))
    if len(new) != 1:
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


def _check_see(tag: str, seed: int, builds: Dict[tuple, Any]) -> dict:
    """The extension's chain polynomial has its roots in [-1, 0], and an
    extension of a Boolean algebra along a cut of 2 or more atoms, short of
    all, matches its product decomposition.

    The host is built as ``build_instance`` builds it and extended along the
    tag's cuts by the code ``build_instance`` runs (which asserts that each
    extension is geometric). The tags of one run share each host, keyed
    ``("host", host DSL)``, and each product, keyed ``("product", n, k)``.
    """
    layers = _see_fields(tag)
    host = ":".join(next(layers))
    ext = _extend_by_cuts(_shared(builds, ("host", host), lambda: build_instance(host)), layers)
    c = _checked_chain_polynomial(ext.chain_polynomial())
    witness = {"chain": c.to_string(), "elements": ext.n}
    head, *cuts = _see_fields(tag)
    if head[0] == "boolean" and len(cuts) == 1 and cuts[0] is not None:
        ground, members = len(ext.atoms()) - 1, cuts[0]  # a cut of 2 or more atoms adds one
        if 2 <= len(members) < ground:
            k = len(members)
            product = _shared(builds, ("product", ground, k), lambda: _see_product(ground, k))
            _require(
                _named_isomorphism(ext, product, members),
                reason="extension does not match the product decomposition",
                elements=ext.n,
                product_elements=product.n,
            )
            witness["product_isomorphic"] = True
    return witness


def _diamond_corpus(seed: int) -> List[str]:
    return [f"product-pair:seed={seed}:i={i:02d}" for i in range(50)]


def _check_diamond(tag: str, seed: int, builds: Dict[tuple, Any]) -> dict:
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


def _counterexample_corpus(seed: int) -> List[str]:
    return ["counterexample:n=3:qmax=64", "counterexample:n=4:qmax=64"]


def _check_counterexample(tag: str, seed: int, builds: Dict[tuple, Any]) -> dict:
    params = _params(tag, "counterexample", ("n", "qmax"))
    witness = counterexample_search(params["n"], params["qmax"])
    _require(
        witness["first_failing_q"] is not None,
        reason="no interlacing failure found below the search cap",
        **witness,
    )
    return witness


_SUITES: Dict[str, Tuple[Callable[[int], List[str]], Callable[[str, int, Dict[tuple, Any]], dict]]] = {
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


def suite_run(
    name: str,
    instances: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> List[CheckReport]:
    """Run one named suite; reports come back sorted by instance string.

    Without ``instances`` the suite's default corpus at ``seed`` is checked;
    an empty ``instances`` checks nothing. A malformed or unknown instance
    gets an ``error`` verdict. The checks of the run share one table of what
    they build (see ``_shared``); it is dropped when the run ends.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    corpus, check = _SUITES[name]
    builds: Dict[tuple, Any] = {}
    reports = []
    for instance in corpus(seed) if instances is None else instances:
        start = time.monotonic()
        try:
            witness = check(instance, seed, builds)
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
