"""One number grammar at every input boundary.

Integers are ASCII ``[+-]?[0-9]+`` in every DSL field, cut member, suite
tag, text format and integer flag; ``p/q`` appears only in coefficient
lists and rational flags. The fuzz test feeds arbitrary and near-valid
text to every reader and checks that a refusal is a ValueError (or an
OSError when a paving file is opened, or a failed check for an ordinal
sum), and that every integer an accepted text holds is ASCII and reads as
int() of its text. The refusal messages are checked beside each reader's
other errors, in the test modules of posets, families, tn, suites and cli.
"""

import argparse
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from latchain import ExactPoly, RMatrix, build_instance, build_rows, poset_from_text
from latchain.cli import _int_flag
from latchain.families import dpartition_from_text
from latchain.polynomial import _integer
from latchain.suites import CheckFailure, _check_ordinal_sum, _params

ASCII_INT = re.compile(r"[+-]?[0-9]+")
ASCII_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def spell(v: int, spaces: bool):
    """Ways to write v: most often as the grammar allows (plain, a leading zero,
    a plus sign); else as int() reads v but the grammar refuses (other digits,
    an underscore, and surrounding spaces unless ``spaces`` is off, for a line
    format splits them off), or as both refuse."""
    s = str(v)
    zero = s.replace("-", "-0") if v < 0 else "0" + s
    allowed = [s, zero, s if v < 0 else "+" + s]
    refused = [s.translate(ARABIC_INDIC), s.translate(FULLWIDTH), zero.replace("0", "0_", 1), f"{s}.0"]
    return st.sampled_from(allowed * 8 + refused + [f" {s}", f"{s}\t"] * spaces)


@st.composite
def written(draw, items, spaces=False):
    """Text from literal strings and integers, each integer written by ``spell``:
    the text, its integer tokens, and a function that writes the text again with
    each of those tokens passed through its argument."""
    tokens = [draw(spell(x, spaces)) if isinstance(x, int) else None for x in items]

    def render(c):
        return "".join(x if t is None else c(t) for x, t in zip(items, tokens))

    return render(str), [t for t in tokens if t is not None], render


def lines(*rows):
    """Items of a line format, one row of items per line."""
    return [item for row in rows for item in [*row, "\n"]]


# hosts whose atoms are named 1, 2, 3, ... come first, so that many see: cuts are accepted;
# a rank-row head is read by build_rows, and refused by build_instance under see:
HOSTS = [["boolean:", 3], ["trunc-boolean:", 4, ":", 1], ["dowling-rows:m=", 2, ":N=", 3], ["boolean:", 0],
         ["boolean:", 99], ["subspace:", 2, ":", 2], ["affine:", 2, ":", 2], ["partition:", 3], ["chain:", 4],
         ["chain:", -1], ["uniform-design:", 4, ":", 2], ["vamos"], ["fano-lattice:", 1],
         ["dowling-rows:N=", 3, ":m=", -1], ["paving:file=no-such-blocks.txt"], ["octonion:", 3],
         ["boolean-rows:", 3], ["chain-rows:", 2], ["trunc-rows:", 4, ":", 1], ["trunc-rows:", 2]]
ROW_HEADS = ("boolean-rows:", "chain-rows:", "trunc-rows:", "dowling-rows:")


@st.composite
def dsl_items(draw):
    """A DSL host, or a see: extension of one in up to two levels."""
    members = st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True)
    depth = draw(st.sampled_from([1, 2, 0]))
    cuts = draw(st.lists(st.one_of(members, st.just(["none"])), min_size=depth, max_size=depth))
    cut_items = [[":cut=", *(["none"] if c == ["none"] else [x for m in c for x in [",", m]][1:])] for c in cuts]
    return ["see:"] * len(cuts) + draw(st.sampled_from(HOSTS)) + [x for c in cut_items for x in c]


@st.composite
def poset_items(draw):
    n = draw(st.integers(0, 4))
    pairs = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda p: p[0] < p[1])
    rows = [["poset ", n]] + [["cover ", a, " ", b] for a, b in draw(st.lists(pairs, max_size=3))]
    rows += [["label ", i, " name 7"] for i in draw(st.lists(st.integers(0, 4), max_size=2))]
    return lines(*draw(st.permutations(rows)))


DPARTITIONS = [lines(["dpartition ", 2], ["ground ", 1, " ", 2, " ", 3], ["block ", 1, " ", 2], ["block ", 1, " ", 3],
                     ["block ", 2, " ", 3]),
               lines(["dpartition ", 2], ["ground ", 1, " ", 2, " ", 3, " ", 4], ["block ", 1, " ", 2, " ", 3],
                     ["block ", 1, " ", 4], ["block ", 2, " ", 4], ["block ", 3, " ", 4])]
ROWS = [lines([1], [1, " ", 1], [1, " ", 2, " ", 1]), lines([1], [1, " ", 1], [1, " ", 4, " ", 1])]
TAG_KEYS = {"rank3-random": ("seed", "i"), "product-pair": ("seed", "i"), "counterexample": ("n", "qmax"),
            "dowling-rows": ("m", "N")}
TAGS = [[head, f":{keys[0]}=", 3, f":{keys[1]}=", 5] for head, keys in TAG_KEYS.items()]
# summands are DSL strings, read as the DSL fuzzed above; a '+' that signs one
# of their integers is not the '+' that joins them
SUMMANDS = {
    "stacked-rows": [["boolean-rows:", 2], ["chain-rows:", 3], ["trunc-rows:", 3, ":", 1],
                     ["dowling-rows:m=", 1, ":N=", 2]],
    "stacked-posets": [["boolean:", 2], ["chain:", 2], ["trunc-boolean:", 3, ":", 1]],
}


@st.composite
def stacked_items(draw):
    """An ordinal-sum tag, most often with two summands of its own kind."""
    kind = draw(st.sampled_from(list(SUMMANDS)))
    pool = [s for k, summands in SUMMANDS.items() for s in summands * (2 if k == kind else 1)] + [["foo-rows:", 1]]
    count = draw(st.sampled_from([2, 2, 2, 1, 3]))
    summands = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
    return [kind, ":seed=", 1, ":i=", 2, ":", *summands[0], *(x for s in summands[1:] for x in ["+", *s])]


def shape(built):
    if isinstance(built, RMatrix):
        return built.rows
    if hasattr(built, "covers"):
        return built.n, sorted(built.covers), built.labels
    return built


def read(reader, text, allowed=(ValueError,)):
    """The reader's result, or None when it refuses the text as it should."""
    try:
        return reader(text)
    except allowed:
        return None


def check_integer_reader(reader, written_text, allowed=(ValueError,)):
    """Every integer an accepted text holds is ASCII and reads as int() of it:
    the text with each integer written plainly reads the same."""
    text, ints, render = written_text
    got = read(reader, text, allowed)
    if got is not None:
        assert all(ASCII_INT.fullmatch(t) for t in ints), (text, ints)
        assert shape(got) == shape(reader(render(lambda t: str(int(t)))))


@settings(max_examples=200, deadline=None)
@given(
    st.text(max_size=40),
    st.one_of(st.integers(-3, 120).flatmap(lambda v: spell(v, True)), st.text(max_size=4)),
    dsl_items().flatmap(lambda items: written(items, spaces=True)),
    poset_items().flatmap(written),
    st.sampled_from(DPARTITIONS).flatmap(written),
    st.sampled_from(ROWS).flatmap(written),
    st.lists(st.one_of(st.integers(-3, 3).flatmap(lambda v: spell(v, False)),
                       st.sampled_from(["1/2", "-3/4", "05/010", "+1/3", "2/0", "1/-2", "1/٣", "1_0/2"])),
             min_size=1, max_size=3),
    st.sampled_from(TAGS).flatmap(written),
    stacked_items().flatmap(written),
)
def test_every_reader_keeps_one_number_grammar(text, token, dsl, poset, dpartition, rows, coeffs, tag, stacked):
    # arbitrary text: a refusal is a ValueError, or an OSError for a paving file
    for reader in (poset_from_text, dpartition_from_text, RMatrix.from_text, ExactPoly.from_string):
        read(reader, text)
    read(build_instance, text, (ValueError, OSError) if "paving" in text else ValueError)
    read(build_rows, text)
    read(lambda t: _check_ordinal_sum(t, 0, {}), text, (ValueError, CheckFailure))

    # the integer rule itself, and the integer flags that use it
    if ASCII_INT.fullmatch(token):
        assert _integer(token) == _int_flag(token) == int(token)
    else:
        with pytest.raises(ValueError):
            _integer(token)
        with pytest.raises(argparse.ArgumentTypeError, match=re.escape(f"invalid int value: {token!r}")):
            _int_flag(token)

    # the DSL: host fields, key=value fields and see: cut members
    reader = build_rows if dsl[0].startswith(ROW_HEADS) else build_instance
    check_integer_reader(reader, dsl, (ValueError, OSError) if "paving" in dsl[0] else ValueError)

    # the text formats; a label name is free text after its index
    check_integer_reader(poset_from_text, poset)
    check_integer_reader(dpartition_from_text, dpartition)
    check_integer_reader(RMatrix.from_text, rows)

    # coefficient lists are the one place p/q is read
    poly = read(ExactPoly.from_string, " ".join(coeffs))
    if poly is not None:
        assert all(ASCII_RATIONAL.fullmatch(c) for c in coeffs)
        assert poly == ExactPoly(map(Fraction, coeffs))

    # suite tags: key=value integers, and the two summands of an ordinal sum
    head = tag[0].split(":")[0]
    check_integer_reader(lambda t: _params(t, head, TAG_KEYS[head]), tag)
    check_integer_reader(lambda t: _check_ordinal_sum(t, 0, {}), stacked, (ValueError, CheckFailure))


def test_leading_zeros_and_signs_are_integers():
    assert build_instance("boolean:003").n == 8
    assert build_instance("see:boolean:+3:cut=01,2").n == build_instance("see:boolean:3:cut=1,2").n
    assert _params("product-pair:seed=+7:i=005", "product-pair", ("seed", "i")) == {"seed": 7, "i": 5}
