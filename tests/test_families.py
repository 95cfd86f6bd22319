import inspect
import sys
import threading
from fractions import Fraction
from itertools import combinations, count
from unittest import mock

import pytest

from latchain import (
    Design,
    DPartition,
    ExactPoly,
    ModularCut,
    RMatrix,
    affine_lattice,
    boolean_lattice,
    build_instance,
    build_rows,
    chain_poset,
    design_poset,
    dowling_rows,
    fano_design,
    fano_lattice,
    is_geometric,
    is_real_rooted,
    linear_space_lattice,
    modular_cut_validate,
    partition_lattice,
    paving_lattice_from_dpartition,
    principal_cut,
    rank_matrix,
    roots_in_interval,
    single_element_extension,
    subspace_lattice,
    truncated_boolean,
    uniform_design,
    vamos_lattice,
)
from latchain.posets import MAX_ELEMENTS, is_isomorphic
from latchain import families, tn
from latchain.families import (
    FANO_BLOCKS,
    MAX_DOWLING_GROUP,
    _atom_names,
    _collides,
    dpartition_from_text,
    dpartition_to_text,
    element_with_atoms,
    vamos_dpartition,
)
from helpers import (
    all_modular_cuts,
    collapsed_tower_9,
    element_by_leq_scan,
    extension_by_flat_lists,
    generalized_dpartition_check,
    is_triangular,
    l_paving,
    modular_cut_by_definition,
    paving_construction,
    rank_uniform_tower_13,
    truncated_extension_coatoms,
    up_closed_subsets,
)

ONE_PLUS_T = ExactPoly((1, 1))


def _rank_profile(p):
    prof = [0] * (p.quasi_rank + 1)
    for x in range(p.n):
        prof[p.rho(x)] += 1
    return prof


def test_boolean_and_truncations():
    b3 = boolean_lattice(3)
    assert b3.n == 8
    assert b3.quasi_rank_generating_polynomial() == ONE_PLUS_T**3
    assert truncated_boolean(4, 1).n == 12
    assert truncated_boolean(4, 0).n == 16
    # the k-fold truncation equals k applications of the one-step truncation
    p = boolean_lattice(5)
    for k in range(1, 4):
        p = p.truncate()
        assert is_isomorphic(p, truncated_boolean(5, k))
    # co-atoms of the deep truncation are exactly the d-subsets
    t = truncated_boolean(6, 3)  # d = 2
    assert sorted(len(t.labels[c]) for c in t.coatoms()) == [2] * 15
    with pytest.raises(ValueError):
        truncated_boolean(4, 4)


def test_subspace_lattices():
    b22 = subspace_lattice(2, 2)
    assert _rank_profile(b22) == [1, 3, 1]
    b32 = subspace_lattice(3, 2)
    assert _rank_profile(b32) == [1, 7, 7, 1]
    b42 = subspace_lattice(4, 2)
    assert _rank_profile(b42) == [1, 15, 35, 15, 1]
    assert is_triangular(b32)
    assert is_geometric(b32)
    with pytest.raises(ValueError, match="prime"):
        subspace_lattice(2, 4)


def test_affine_lattices():
    a23 = affine_lattice(2, 3)
    assert _rank_profile(a23) == [1, 9, 12, 1]
    a22 = affine_lattice(2, 2)
    assert _rank_profile(a22) == [1, 4, 6, 1]
    assert is_geometric(a23)


def test_partition_lattices():
    assert partition_lattice(3).n == 5
    p4 = partition_lattice(4)
    assert p4.n == 15
    assert _rank_profile(p4) == [1, 6, 7, 1]
    assert is_geometric(p4)
    with pytest.raises(ValueError):
        partition_lattice(9)


def test_partition_lattice_8_is_certified_within_budget():
    result = []

    def certify():
        p8 = partition_lattice(8)
        result.append((p8.n, is_geometric(p8), p8.chain_polynomial()))

    worker = threading.Thread(target=certify, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "partition_lattice(8) still being certified after 30 s"
    [(n, geometric, chains)] = result
    assert n == 4140 and geometric
    # maximal chains of the partition lattice of an 8-set: 8! 7! / 2^7
    assert chains.coefficient(1) == 4140 and chains.coefficient(8) == 1587600


def test_paving_construction_reference_instance():
    tower = rank_uniform_tower_13()
    collapsed = paving_construction(tower, [7, 8, 9], 11, 2)
    assert collapsed.n == 9
    assert is_isomorphic(collapsed, collapsed_tower_9())


def test_paving_construction_condition_errors():
    tower = rank_uniform_tower_13()
    with pytest.raises(ValueError, match=r"\(i\)"):
        paving_construction(tower, [7, 8, 11], 11, 2)
    with pytest.raises(ValueError, match=r"\(ii\)"):
        paving_construction(tower, [1, 8, 9], 11, 2)
    with pytest.raises(ValueError, match=r"\(iii\)"):
        paving_construction(tower, [5, 9, 7, 8], 11, 2)
    with pytest.raises(ValueError, match=r"\(iv\)"):
        paving_construction(tower, [7, 9], 11, 2)
    with pytest.raises(ValueError, match="below y"):
        paving_construction(tower, [7, 8, 12], 11, 2)


def test_paving_from_boolean_coatom_level():
    """All rank-d elements of the Boolean algebra as blocks give the truncation."""
    b5 = boolean_lattice(5)
    blocks = [x for x in range(b5.n) if b5.rho(x) == 2]
    built = paving_construction(b5, blocks, b5.n - 1, 2)
    assert is_isomorphic(built, truncated_boolean(5, 2))


def test_dpartition_validation():
    with pytest.raises(ValueError, match="two blocks"):
        DPartition((1, 2, 3), (frozenset({1, 2, 3}),), 2).validate()
    with pytest.raises(ValueError, match="blocks"):
        DPartition((1, 2, 3, 4), (frozenset({1, 2}), frozenset({2, 3})), 2).validate()
    vamos_dpartition().validate()


@pytest.mark.parametrize("d", [-1, 0])
def test_dpartition_with_d_below_one_is_refused_naming_d(d):
    # d = -1 once reached itertools.combinations and leaked "r must be non-negative"
    with pytest.raises(ValueError) as err:
        DPartition((1, 2, 3), (frozenset({1, 2}), frozenset({2, 3})), d).validate()
    assert str(err.value) == f"a d-partition needs d >= 1, got d={d}"


def test_vamos():
    v = vamos_lattice()
    assert v.n == 79
    assert _rank_profile(v) == [1, 8, 28, 41, 1]
    assert is_geometric(v)
    assert not is_triangular(v)
    c = v.chain_polynomial()
    assert is_real_rooted(c) and roots_in_interval(c, -1, 0)


def test_small_dpartitions():
    # all 2-subsets of a 3-set rebuild the whole Boolean algebra (zero truncation steps)
    dp = DPartition((1, 2, 3), tuple(frozenset(b) for b in ((1, 2), (1, 3), (2, 3))), 2)
    assert is_isomorphic(paving_lattice_from_dpartition(dp), boolean_lattice(3))
    # the singleton 1-partition collapses to the one-step truncation
    dp1 = DPartition((1, 2, 3), tuple(frozenset({i}) for i in (1, 2, 3)), 1)
    assert is_isomorphic(paving_lattice_from_dpartition(dp1), truncated_boolean(3, 1))


def test_design_validation_and_posets():
    fano = fano_design()
    assert fano.s == 2 and fano.k == 3 and fano.lam == 1
    with pytest.raises(ValueError):
        Design(tuple(range(1, 8)), FANO_BLOCKS[:6], 2, 3, 1).validate()
    # no 2-set lies in a block of one point, but such a block would be a small set of the design poset
    with pytest.raises(ValueError, match="bad block"):
        Design((1, 2, 3), (frozenset({1}),), 2, 1, 0).validate()
    uniform_design(5, 3).validate()

    fl = design_poset(fano)
    assert fl.n == 16
    assert is_geometric(fl)
    assert is_isomorphic(fl, fano_lattice())
    # Steiner blocks are a d-partition; both routes agree
    assert is_isomorphic(fl, paving_lattice_from_dpartition(DPartition(tuple(range(1, 8)), FANO_BLOCKS, 2)))


def test_uniform_design_is_counted_before_its_blocks_are_listed():
    """Refused exactly when the design poset would pass the poset cap."""
    for n, k in [(n, k) for n in range(1, 10) for k in range(1, n + 1)] + [(13, 8), (14, 7), (18, 9)]:
        points = range(1, n + 1)
        family = {frozenset(c) for size in [*range(k - 1), k, n] for c in combinations(points, size)}
        if len(family) <= MAX_ELEMENTS:
            assert design_poset(uniform_design(n, k)).n == len(family)
        else:
            with pytest.raises(ValueError, match="over 5000 poset elements"):
                uniform_design(n, k)
    for n, k in ((3, 0), (3, 4), (0, 0)):
        with pytest.raises(ValueError, match="block size out of range"):
            uniform_design(n, k)


def test_uniform_design_poset_matches_dpartition_of_subsets():
    dp = DPartition(
        tuple(range(1, 7)),
        tuple(frozenset(c) for c in combinations(range(1, 7), 3)),
        3,
    )
    assert is_isomorphic(paving_lattice_from_dpartition(dp), truncated_boolean(6, 2))


def test_generalized_dpartition_check():
    b3 = boolean_lattice(3)
    assert generalized_dpartition_check(b3, b3.coatoms(), 2)
    assert is_isomorphic(l_paving(b3, b3.coatoms(), 2), b3)
    b32 = subspace_lattice(3, 2)
    lines = [x for x in range(b32.n) if b32.rho(x) == 2]
    # every atom lies on several lines, so uniqueness fails at d = 1
    assert not generalized_dpartition_check(b32, lines, 1)
    assert generalized_dpartition_check(b32, b32.coatoms(), 2)
    lp = l_paving(b32, b32.coatoms(), 2)
    assert is_geometric(lp) and is_isomorphic(lp, b32)


def test_l_paving_on_subspace_host():
    """A genuine collapse: pair the seven lines of the two-element-field plane."""
    b32 = subspace_lattice(3, 2)
    c = l_paving(b32, b32.coatoms(), 2).chain_polynomial()
    assert is_real_rooted(c) and roots_in_interval(c, -1, 0)


def test_whitney_recursion():
    w1 = dowling_rows(1, 4)
    assert w1.entry(2, 1) == 3
    assert dowling_rows(2, 2).entry(2, 1) == 4
    for m in (1, 2, 3):
        w = dowling_rows(m, 5)
        assert isinstance(w, RMatrix)
        for n in range(5):
            assert w.entry(n, 0) == 1 and w.entry(n, n) == 1
            for i in range(1, n + 1):
                assert w.entry(n + 1, i) == w.entry(n, i - 1) + (1 + m * i) * w.entry(n, i)


def test_dowling_rows_cap_the_group_order():
    """Above about m = 80 at N = 64 the rows' roots lie too close for the
    interlacing certificate and the suite takes minutes, so m is capped."""
    assert dowling_rows(MAX_DOWLING_GROUP, 2).entry(2, 1) == 2 + MAX_DOWLING_GROUP
    with pytest.raises(ValueError, match="^dowling rows out of range: m=65, over the cap of 64$"):
        dowling_rows(MAX_DOWLING_GROUP + 1, 1)


def test_dowling_rows_trivial_group_are_dual_partition_rows():
    ok_rows = dowling_rows(1, 4)
    from latchain import is_quasi_rank_uniform

    ok, dual_rows = is_quasi_rank_uniform(partition_lattice(5).dual())
    assert ok and dual_rows.rows == ok_rows.rows


def test_modular_cuts_of_booleans_are_principal():
    for n in (2, 3, 4):
        lat = boolean_lattice(n)
        cuts = all_modular_cuts(lat)
        for mc in cuts:
            if not mc.members:
                continue
            minimal = [
                x
                for x in mc.members
                if not any(lat.leq(y, x) and y != x for y in mc.members)
            ]
            assert len(minimal) == 1
        # every principal up-set appears
        assert len(cuts) == lat.n + 1


def test_invalid_cut_rejected():
    b3 = boolean_lattice(3)
    # two incomparable rank-2 sets form a modular pair whose meet is missing
    bad = ModularCut(b3, frozenset({3, 5, 7}))
    assert not modular_cut_validate(bad)
    with pytest.raises(ValueError, match="invalid"):
        single_element_extension(b3, bad, 4)


def test_single_element_extension_reference_lists():
    b3 = boolean_lattice(3)
    ext1 = single_element_extension(b3, principal_cut(b3, 1), 4)
    assert set(ext1.labels) == {
        frozenset(),
        frozenset({2}),
        frozenset({3}),
        frozenset({2, 3}),
        frozenset({1, 4}),
        frozenset({1, 2, 4}),
        frozenset({1, 3, 4}),
        frozenset({1, 2, 3, 4}),
    }
    ext12 = single_element_extension(b3, principal_cut(b3, 3), 4)
    assert set(ext12.labels) == {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4}),
        frozenset({1, 3}),
        frozenset({2, 3}),
        frozenset({3, 4}),
        frozenset({1, 2, 4}),
        frozenset({1, 2, 3, 4}),
    }


def test_single_element_extension_special_cuts():
    b3 = boolean_lattice(3)
    assert is_isomorphic(
        single_element_extension(b3, ModularCut(b3, frozenset()), 4), boolean_lattice(4)
    )
    assert is_isomorphic(
        single_element_extension(b3, principal_cut(b3, 7), 4), truncated_boolean(4, 1)
    )
    # cut at an atom keeps the lattice unchanged
    assert is_isomorphic(single_element_extension(b3, principal_cut(b3, 1), 4), b3)


def test_extension_product_decomposition():
    for ground in (4, 5):
        host = boolean_lattice(ground)
        for size in range(2, ground):
            x = element_with_atoms(host, range(1, size + 1))
            ext = single_element_extension(host, principal_cut(host, x), ground + 1)
            product = truncated_boolean(size + 1, 1).direct_product(boolean_lattice(ground - size))
            assert is_isomorphic(ext, product)


def test_truncated_extension_coatoms():
    """The two displayed families are the co-atoms of the principal extension."""
    E = frozenset(range(1, 5))
    host = boolean_lattice(4)
    for size in (1, 2, 3, 4):
        X = frozenset(range(1, size + 1))
        fam = truncated_extension_coatoms(E, X, 9)
        ext = single_element_extension(host, principal_cut(host, element_with_atoms(host, X)), 9)
        direct = {ext.labels[c] for c in ext.coatoms()}
        assert fam == direct
    # X = E leaves only the first family: the co-atoms of the truncation on E + e
    fam = truncated_extension_coatoms(E, E, 9)
    t = truncated_boolean(5, 1)
    relabel = {1: 1, 2: 2, 3: 3, 4: 4, 5: 9}
    expect = {frozenset(relabel[v] for v in t.labels[c]) for c in t.coatoms()}
    assert fam == expect


def _oracle_misses(extend, dsl):
    """The modular cuts of the host along which ``extend`` raises or builds other
    labels or covers than the flat-list oracle; the new atom is named as in see:."""
    host = build_instance(dsl)
    e = next(e for e in count() if not _collides(e, _atom_names(host).values()))
    cuts = all_modular_cuts(host)
    assert len(cuts) > 2 and host.n <= 16
    missed = []
    for mc in cuts:
        oracle = extension_by_flat_lists(host, mc, e)
        try:
            ext = extend(host, mc, e)
        except Exception:
            ext = None
        if ext is None or (ext.labels, ext.covers) != (oracle.labels, oracle.covers):
            missed.append(sorted(mc.members))
    return missed


_EXTENSION_HOSTS = [
    "boolean:3",
    "boolean:4",
    "trunc-boolean:4:1",
    "trunc-boolean:4:2",
    "fano-lattice",
    "partition:4",
    "subspace:3:2",
    "affine:2:2",
    "see:boolean:3:cut=1,2",
    "see:boolean:3:cut=none",
    "see:see:boolean:2:cut=1,2:cut=1",
]


@pytest.mark.parametrize("dsl", _EXTENSION_HOSTS)
def test_extension_matches_the_flat_list_oracle(dsl):
    assert _oracle_misses(single_element_extension, dsl) == []


def test_nested_see_tests_each_lattice_for_geometricity_once():
    """Each extension is tested as it is built, and as the next cut's host
    it is not tested again."""
    sizes = []
    covering = tn._has_covering_property
    with mock.patch.object(tn, "_has_covering_property", lambda p: sizes.append(p.n) or covering(p)):
        build_instance("see:see:see:boolean:4:cut=1,2:cut=0:cut=none")
    assert sizes == [16, 20, 20, 40]


def _mutant(old: str, new: str):
    """``single_element_extension`` with one piece of its source replaced."""
    source = inspect.getsource(families.single_element_extension)
    assert source.count(old) == 1, old
    namespace = dict(vars(families))
    exec(source.replace(old, new), namespace)
    return namespace["single_element_extension"]


@pytest.mark.parametrize(
    "old, new",
    [
        # the cover from a collar flat X to X + e is dropped
        (" + ([plus[x]] if x in collar else [])", ""),
        # a collar X + e goes to Y + e for a cover Y outside the collar too
        ("plus[y] if y in collar else", "plus[y] if y not in mem else"),
        # the empty cut gets no X + e elements
        ("if x not in mem and mem.isdisjoint(up[x])", "if mem and x not in mem and mem.isdisjoint(up[x])"),
    ],
    ids=["no-collar-cover", "collar-to-non-collar", "empty-cut-unextended"],
)
def test_flat_list_oracle_catches_a_broken_cover_rule(old, new):
    mutant = _mutant(old, new)
    assert any(_oracle_misses(mutant, dsl) for dsl in ("boolean:3", "trunc-boolean:4:1"))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("host", [boolean_lattice(4), partition_lattice(4)], ids=["B4", "Pi4"])
def test_element_with_atoms_matches_the_leq_scan(host):
    names = [*_atom_names(host).values(), "not an atom"]
    found = 0
    for size in range(len(names) + 1):
        for want in combinations(names, size):
            got = _outcome(element_with_atoms, host, want)
            assert got == _outcome(element_by_leq_scan, host, want), want
            found += isinstance(got, int)
    assert found == host.n


@pytest.mark.parametrize("dsl", ["boolean:3", "boolean:4", "fano-lattice"])
def test_modular_cut_validate_matches_the_definition(dsl):
    host = build_instance(dsl)
    tried = accepted = 0
    for members in up_closed_subsets(host):
        # each up-closed subset, and each with one member taken out
        for s in [members, *(members - {x} for x in members)]:
            mc = ModularCut(host, s)
            verdict = modular_cut_validate(mc)
            assert verdict == modular_cut_by_definition(mc), sorted(s)
            tried, accepted = tried + 1, accepted + verdict
    assert 0 < accepted < tried


@pytest.mark.parametrize("e", [True, 1.0, Fraction(1), 1], ids=repr)
def test_a_new_atom_equal_to_an_existing_one_is_refused(e):
    b3 = boolean_lattice(3)
    with pytest.raises(ValueError, match=r"collides with an existing atom$"):
        single_element_extension(b3, principal_cut(b3, 7), e)


def test_extension_errors_come_in_order():
    b3, c3 = boolean_lattice(3), chain_poset(3)
    # each case also fails a later check (the new atom 1 collides), so the message shows which comes first
    cases = [
        (b3, principal_cut(boolean_lattice(3), 1), "modular cut belongs to a different host"),
        (c3, ModularCut(c3, frozenset({5})), "host is not a geometric lattice"),
        (b3, ModularCut(b3, frozenset({3, 8})), "cut member out of range"),
        (b3, ModularCut(b3, frozenset({3, 5, 7})), "invalid modular cut"),
        (b3, principal_cut(b3, 7), "new atom name 1 collides with an existing atom"),
    ]
    for host, mc, message in cases:
        with pytest.raises(ValueError) as exc:
            single_element_extension(host, mc, 1)
        assert str(exc.value) == message


def test_dsl_round_trips(tmp_path):
    assert build_instance("boolean:3").n == 8
    assert build_instance("trunc-boolean:5:1").n == 1 + 5 + 10 + 10 + 1
    assert build_instance("chain:4").n == 4
    assert build_instance("subspace:2:3").n == 6
    assert build_instance("partition:4").n == 15
    assert build_instance("vamos").n == 79
    assert build_instance("fano-design").n == 16
    assert build_instance("fano-lattice").n == 16
    assert build_rows("dowling-rows:m=3:N=4") == dowling_rows(3, 4)
    assert build_rows("boolean-rows:3") == rank_matrix(boolean_lattice(3))
    assert build_rows("chain-rows:4") == rank_matrix(chain_poset(4))
    assert build_rows("trunc-rows:5:2") == rank_matrix(truncated_boolean(5, 2))
    assert build_instance("see:boolean:4:cut=1,2").n == 20  # tau(B_3) x B_2
    assert build_instance("see:boolean:3:cut=none").n == 16
    assert build_instance("see:trunc-boolean:4:1:cut=1,2").n == 15
    with pytest.raises(ValueError, match="unknown"):
        build_instance("octonion:3")

    path = tmp_path / "blocks.txt"
    path.write_text(dpartition_to_text(vamos_dpartition()))
    assert build_instance(f"paving:file={path}").n == 79
    rt = dpartition_from_text(dpartition_to_text(vamos_dpartition()))
    assert rt.d == 3 and len(rt.blocks) == 41


@pytest.mark.parametrize(
    "text, message",
    [
        ("dpartition 2\ndpartition 3\n", "line 2: duplicate dpartition line"),
        ("dpartition 2\nground 1 2 3\n# note\nground 1 2\n", "line 4: duplicate ground line"),
        ("dpartition\n", "line 1: dpartition needs a value"),
        ("dpartition 2\nground\n", "line 2: ground needs a value"),
        ("dpartition 2\nground 1 2 3\nblock\n", "line 3: block needs a value"),
        ("dpartition 2\nline 1 2\n", "line 2: unknown directive 'line'"),
        ("dpartition 2 5\nground 1 2 3\n", "line 1: dpartition takes one value"),
        ("dpartition q\n", "line 1: not an integer: 'q'"),
        ("dpartition 2\nground 1 x 3\n", "line 2: not an integer: 'x'"),
        ("dpartition 2\nground 1 2 3\nblock 1 2.0\n", "line 3: not an integer: '2.0'"),
        ("dpartition ２\n", "line 1: not an integer: '２'"),
    ],
)
def test_dpartition_text_errors_name_the_line(text, message):
    with pytest.raises(ValueError) as err:
        dpartition_from_text(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "dsl, message",
    [
        ("boolean:3:4", "boolean takes 1 field(s), got 2"),
        ("boolean", "boolean takes 1 field(s), got 0"),
        ("uniform-design:5", "uniform-design takes 2 field(s), got 1"),
        ("fano-lattice:0", "fano-lattice takes 0 field(s), got 1"),
        ("dowling-rows:N=3:m=2:x=1", "dowling-rows takes the fields m=...:N=..."),
        ("dowling-rows:m=2", "dowling-rows takes the fields m=...:N=..."),
        ("dowling-rows:m=2:m=3:N=4", "dowling-rows takes the fields m=...:N=..."),
        ("paving:path=blocks.txt", "paving takes the fields file=..."),
        ("see:boolean:3:4:cut=1", "boolean takes 1 field(s), got 2"),
        ("see:cut=1:boolean:3", "a see: instance needs a cut=... part"),
        # integers int() takes but the grammar refuses, in fields and cut members
        ("boolean:٣", "invalid literal for int() with base 10: '٣'"),
        ("boolean: 3", "invalid literal for int() with base 10: ' 3'"),
        ("dowling-rows:m=1_0:N=2", "invalid literal for int() with base 10: '1_0'"),
        ("see:boolean:3:cut=1_0", "invalid literal for int() with base 10: '1_0'"),
        # the host's fields are read before any cut member
        ("see:boolean:3:4:cut=1_0", "boolean takes 1 field(s), got 2"),
        ("see:dowling-rows:m=1:N=2:cut=none", "dowling-rows builds rank rows, not a poset"),
    ],
)
def test_dsl_refuses_wrong_fields(dsl, message):
    reader = build_rows if dsl.startswith("dowling-rows") else build_instance
    with pytest.raises(ValueError) as err:
        reader(dsl)
    assert message in str(err.value)


@pytest.mark.parametrize(
    "reader, dsl, message",
    [
        (build_instance, "dowling-rows:m=1:N=2", "dowling-rows builds rank rows, not a poset"),
        (build_instance, "boolean-rows:3", "boolean-rows builds rank rows, not a poset"),
        (build_instance, "see:chain-rows:2:cut=none", "chain-rows builds rank rows, not a poset"),
        (build_rows, "boolean:3",
         "unknown row family 'boolean'; known: boolean-rows, chain-rows, trunc-rows, dowling-rows"),
        (build_rows, "trunc-rows:5", "trunc-rows takes 2 field(s), got 1"),
        (build_rows, "chain-rows:1_0", "invalid literal for int() with base 10: '1_0'"),
    ],
)
def test_each_reader_refuses_the_other_kind(reader, dsl, message):
    with pytest.raises(ValueError) as err:
        reader(dsl)
    assert str(err.value) == message


def test_see_nests_deeper_than_the_recursion_limit():
    """Each see: level adds a parallel copy of atom 1, so B_3 keeps its 8
    flats; the levels are peeled in a loop, not by recursion."""
    depth = sys.getrecursionlimit() + 200
    assert build_instance("see:" * depth + "boolean:3" + ":cut=1" * depth).n == 8
    # cuts apply innermost first: cut=none adds the coloop 0, which the outer cut names
    assert build_instance("see:see:boolean:3:cut=none:cut=0").n == 16
    with pytest.raises(ValueError, match=r"^no element with atom set \['0'\]$"):
        build_instance("see:see:boolean:3:cut=0:cut=none")
    # a cut names exactly one flat's atoms: after cut=1,2 the join of 1 and 2 also holds the new atom 0
    assert build_instance("see:see:boolean:3:cut=1,2:cut=0,1,2").n == 12
    with pytest.raises(ValueError, match=r"^no element with atom set \['1', '2'\]$"):
        build_instance("see:see:boolean:3:cut=1,2:cut=1,2")


def test_linear_space_validation():
    with pytest.raises(ValueError, match="lies on"):
        linear_space_lattice(4, [(1, 2, 3), (1, 2, 4), (3, 4), (1, 4)])
    lat = linear_space_lattice(4, [(1, 2, 3), (1, 4), (2, 4), (3, 4)])
    assert is_geometric(lat)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: dowling_rows(0, 2), "need m >= 1 and N >= 0"),
        (lambda: subspace_lattice(2, 1), "field order must be prime: 1"),
        (lambda: truncated_boolean(13, 1), "ground size out of range: 13"),
        (lambda: linear_space_lattice(3, [(1, 2, 3)]), "need at least two lines"),
        (lambda: linear_space_lattice(3, [(1, 2), (1, 3), (2, 3), (1,)]), r"bad line \[1\]"),
        (lambda: Design((1, 1, 2), (), s=1, k=1, lam=1).validate(), "repeated points"),
        (
            lambda: DPartition((1, 2, 3), (frozenset({1, 2}), frozenset({3})), d=2).validate(),
            r"block \[3\] smaller than d=2",
        ),
        (
            lambda: DPartition((1, 2), (frozenset({1, 2}), frozenset({2, 3})), d=2).validate(),
            "blocks leave the ground set",
        ),
    ],
)
def test_builders_refuse_parameters_out_of_range(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()
