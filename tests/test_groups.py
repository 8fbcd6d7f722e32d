from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import qcext
from qcext import (
    FiniteTableGroup,
    FreeGroup,
    FreeProduct,
    FreeWord,
    commutator,
    conjugate,
    cyclic_group,
    cyclic_reduce,
    exponent_vector,
    is_proper_power,
)
from qcext.errors import GroupTableError, MixedContextError, UnknownGeneratorError
from qcext.geodesics import free_ball_words
from qcext.groups import (
    FiniteElement,
    as_fraction,
    enumerate_ball,
    is_cyclically_reduced,
)


F2 = FreeGroup(["x", "y"])


def words(max_len=8):
    return st.lists(
        st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=max_len
    ).map(lambda ls: F2.word(ls))


def test_parse_and_str_roundtrip():
    w = F2.parse("x^2 y^-1 x")
    assert str(w) == "x^2 y^-1 x"
    assert F2.parse(str(w)) == w
    assert F2.parse("1").is_identity()


def test_reduction():
    assert F2.parse("x x^-1") == F2.identity()
    assert F2.parse("x y y^-1 x") == F2.parse("x^2")
    assert len(F2.parse("y x^-1 x y")) == 2


def test_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        F2.parse("z")
    with pytest.raises(UnknownGeneratorError):
        F2.word([3])


@given(words(), words())
def test_mul_is_reduced(a, b):
    c = a * b
    for i in range(len(c.letters) - 1):
        assert c.letters[i] != -c.letters[i + 1]


@given(words(), words(), words())
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(words())
def test_inverse_law(a):
    assert (a * a.inverse()).is_identity()
    assert a.inverse().inverse() == a


@given(words(), st.integers(-5, 5))
def test_powers(a, n):
    direct = F2.identity()
    for _ in range(abs(n)):
        direct = direct * (a if n >= 0 else a.inverse())
    assert a**n == direct


def test_syllables():
    w = F2.parse("x^3 y^-2 x")
    assert w.syllables() == [("x", 3), ("y", -2), ("x", 1)]
    assert F2.identity().syllables() == []


def test_exponent_vector_and_commutators():
    c = commutator(F2.gen("x"), F2.gen("y"))
    assert c == F2.parse("x^-1 y^-1 x y")
    assert exponent_vector(c) == {"x": 0, "y": 0}
    g = F2.gen("y")
    assert conjugate(F2.gen("x"), g) == F2.parse("y^-1 x y")


def test_cyclic_reduce_and_proper_power():
    w = F2.parse("y x y^-1")
    root, conj = cyclic_reduce(w)
    assert conj * root * conj.inverse() == w
    assert is_cyclically_reduced(F2.parse("x y"))
    assert not is_cyclically_reduced(w)
    assert is_proper_power(F2.parse("x^4"))
    assert is_proper_power(F2.parse("x y x y"))
    assert not is_proper_power(F2.parse("x y"))
    assert not is_proper_power(commutator(F2.gen("x"), F2.gen("y")))


def test_finite_table_group_validation():
    z3 = cyclic_group(3)
    assert len(z3) == 3
    e, g = z3.identity(), z3.element("g")
    assert g * g * g == e
    assert g.inverse() == g * g
    with pytest.raises(GroupTableError):
        FiniteTableGroup(["e", "a"], [[0, 1], [1, 1]])  # not a bijection row


def test_free_product_normal_form():
    A, B = FreeGroup(["a"]), FreeGroup(["b"])
    G = FreeProduct([A, B])
    g = G.parse("a b a^2 b^-3")
    assert len(g) == 4
    assert (g * g.inverse()).is_identity()
    # boundary merge: trailing a^2 meets leading a^-2
    h = G.parse("b a^2") * G.parse("a^-2 b")
    assert h == G.parse("b^2")
    # full collapse through a vanishing syllable
    k = G.parse("a b a") * G.parse("a^-1 b^-1 a^5")
    assert k == G.parse("a^6")


def test_flat_free_product_payload():
    A, C3 = FreeGroup(["a", "b"]), cyclic_group(3, "g")
    G = FreeProduct([A, C3])
    # products merge and cancel syllables of both kinds of factor
    assert str(G.parse("a g") * G.parse("g a")) == "a g2 a"
    assert G.parse("a g b") * G.parse("b^-1 g2 a^-1") == G.identity()
    assert G.parse("b a") * G.parse("a^-1 g") == G.parse("b g")
    assert G.parse("a g") * G.parse("g2 a^-1 b") == G.parse("b")
    assert G.parse("g a b g2") * G.parse("g b") == G.parse("g a b^2")
    # parse, syllable() and products build equal elements with equal hashes
    x = G.parse("a b^-1 g2 b")
    built = [
        G.syllable(0, A.parse("a b^-1"))
        * G.syllable(1, C3.element("g2"))
        * G.syllable(0, A.parse("b")),
        G.parse("a") * G.parse("b^-1 g") * G.parse("g b"),
        G.parse("a b^-1 g^-1 b"),
    ]
    for y in built:
        assert y == x and hash(y) == hash(x)
    assert G.syllable(1, C3.identity()) == G.identity()
    # the syllables view wraps factor elements back; printing is unchanged
    assert x.syllables == (
        (0, A.parse("a b^-1")), (1, C3.element("g2")), (0, A.parse("b"))
    )
    assert [type(h) for _, h in x.syllables] == [FreeWord, FiniteElement, FreeWord]
    assert str(x) == "a b^-1 g2 b" and str(G.identity()) == "1"
    # another free product with the same payload stays foreign
    H = FreeProduct([FreeGroup(["a", "b"]), cyclic_group(2, "g")])
    assert H.parse("a g").raw == G.parse("a g").raw
    assert H.parse("a g") != G.parse("a g")
    with pytest.raises(MixedContextError):
        G.parse("a g") * H.parse("a g")
    # the payload holds only ints and tuples of ints
    for elem in [x, x.inverse(), *built, G.parse("g b^2 a^-1 g2")]:
        for idx, raw in elem.raw:
            assert type(idx) is int
            assert type(raw) is int or (
                type(raw) is tuple and all(type(c) is int for c in raw)
            )


def _reduce_syllables(factors, syllables):
    """Normal form by a stack over factor elements, independent of raw_mul."""
    stack: list = []
    for i, h in syllables:
        if stack and stack[-1][0] == i:
            h = stack.pop()[1] * h
        if not h.is_identity():
            stack.append((i, h))
    return tuple((i, factors[i].unwrap(h)) for i, h in stack)


def test_free_product_raw_protocol_matches_elements():
    z2 = FiniteTableGroup(["1", "s"], [[0, 1], [1, 0]])
    G = FreeProduct([z2, FreeGroup(["t"])])
    s, t = G.parse("s"), G.parse("t")
    ball = enumerate_ball(G.identity(), [s, t, t.inverse()], 4)
    assert len(ball) == 46
    for f in ball:
        a = G.unwrap(f)
        assert G.wrap(a) == f and G.wrap(a).raw is a
        assert G.wrap(G.raw_inv(a)) == f.inverse()
        assert G.raw_mul(a, G.raw_inv(a)) == ()
        for g in ball:
            ab = G.raw_mul(a, G.unwrap(g))
            assert ab == (f * g).raw
            assert ab == _reduce_syllables(G.factors, f.syllables + g.syllables)


def _s3() -> FiniteTableGroup:
    """The symmetric group on three points; nonabelian, so a swapped row
    and column would show."""
    perms = list(permutations(range(3)))  # the identity first
    table = [[perms.index(tuple(p[q[k]] for k in range(3))) for q in perms] for p in perms]
    return FiniteTableGroup(["1", "p1", "p2", "p3", "p4", "p5"], table)


S3 = _s3()
Z2 = FiniteTableGroup(["1", "s"], [[0, 1], [1, 0]])
FXY_T = FreeProduct([F2, FreeGroup(["t"])])
Z2_T = FreeProduct([Z2, FreeGroup(["t"])])


def _tokens(G, symbols, max_size=6):
    """Elements of G as products of up to max_size signed tokens."""
    tokens = [f"{s}{k}" for s in symbols for k in ("", "^-1")]
    return st.lists(st.sampled_from(tokens), max_size=max_size).map(
        lambda ts: G.parse(" ".join(ts) or "1"))


def _assert_rows(G, rows, cols, reduce):
    """Every entry of G.raw_rows equals raw_mul and an independent product,
    on columns with the identity and a repeat added."""
    cols = cols + [G.identity()] + cols[:1]
    bs = [G.unwrap(g) for g in cols]
    row = G.raw_rows(bs)
    for f in rows + [G.identity()]:
        a = G.unwrap(f)
        got = row(a)
        assert got == [G.raw_mul(a, b) for b in bs]
        assert got == [reduce(f, g) for g in cols]


def _fp_reduce(f, g):
    return _reduce_syllables(f.group.factors, f.syllables + g.syllables)


@given(st.lists(words(), max_size=4), st.lists(words(), max_size=6))
def test_free_group_rows_match_raw_mul(rows, cols):
    _assert_rows(F2, rows, cols, lambda f, g: F2.word(f.letters + g.letters).codes)


@given(st.lists(st.sampled_from(S3.elements()), max_size=4),
       st.lists(st.sampled_from(S3.elements()), max_size=6))
def test_finite_table_rows_match_raw_mul(rows, cols):
    _assert_rows(S3, rows, cols, lambda f, g: (f * g).index)


@given(st.lists(_tokens(FXY_T, "xyt"), max_size=4),
       st.lists(_tokens(FXY_T, "xyt"), max_size=6))
def test_free_product_rows_match_raw_mul(rows, cols):
    _assert_rows(FXY_T, rows, cols, _fp_reduce)


@given(st.lists(_tokens(Z2_T, "st"), max_size=4),
       st.lists(_tokens(Z2_T, "st"), max_size=6))
def test_finite_factor_rows_match_raw_mul(rows, cols):
    _assert_rows(Z2_T, rows, cols, _fp_reduce)


def test_rows_follow_full_cancellation_chains():
    # (x t)(t^-1 x^-1 y) = y: the t syllables cancel, then the x ones
    parse = FXY_T.parse
    rows = [parse("x t"), parse("y x t^2"), parse("t^-1")]
    cols = [parse(w) for w in ("t^-1 x^-1 y", "t^-1", "t^-1 x^-1", "t^-2 x^-1 y^-1 t",
                               "t x", "t^-1 x^-1 y")]
    _assert_rows(FXY_T, rows, cols, _fp_reduce)
    assert FXY_T.raw_rows([parse("t^-1 x^-1 y").raw])(parse("x t").raw) == [parse("y").raw]
    # (t s)(s t^-1) = 1 in Z/2 * <t>: a finite merge to the identity
    parse = Z2_T.parse
    rows = [parse("t s"), parse("s t s"), parse("s")]
    cols = [parse(w) for w in ("s t^-1", "s t^-1 s", "s", "t", "s t^-1 s t")]
    _assert_rows(Z2_T, rows, cols, _fp_reduce)
    assert Z2_T.raw_rows([parse("s t^-1").raw])(parse("t s").raw) == [()]


def test_free_product_parse_rejects_foreign_symbols():
    A, B = FreeGroup(["a"]), FreeGroup(["b"])
    G = FreeProduct([A, B])
    with pytest.raises(UnknownGeneratorError):
        G.parse("c")


def test_enumerate_ball_count():
    gens = [F2.gen("x"), F2.gen("x").inverse(), F2.gen("y"), F2.gen("y").inverse()]
    ball = enumerate_ball(F2.identity(), gens, 2)
    assert len(ball) == 17  # 1 + 4 + 12


def test_ball_elements_free_group():
    ball = list(free_ball_words(F2, 2))
    assert len(ball) == 17
    assert len(set(map(str, ball))) == 17


def test_as_fraction():
    assert as_fraction("3/7") == Fraction(3, 7)
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(Fraction(1, 2)) == Fraction(1, 2)


@given(words())
def test_word_pow_zero(a):
    assert (a**0).is_identity()


def test_equal_groups_give_equal_elements_and_hashes():
    # each pair: one element over two equal but distinct group objects
    fa, fb = FreeGroup(["x", "y"]), FreeGroup(["x", "y"])
    ca, cb = cyclic_group(3, "g"), cyclic_group(3, "g")
    pa = FreeProduct([FreeGroup(["a"]), cyclic_group(2, "t")])
    pb = FreeProduct([FreeGroup(["a"]), cyclic_group(2, "t")])
    pairs = [
        (fa.parse("x y^-1"), fb.parse("x y^-1")),
        (ca.element("g2"), cb.element("g2")),
        (pa.parse("a t a^-2"), pb.parse("a t a^-2")),
    ]
    for u, v in pairs:
        assert u.group is not v.group and u.group == v.group
        assert u == v and hash(u) == hash(v)
        assert u * v.inverse() == u.group.identity()


def test_same_payload_over_different_groups_is_unequal():
    pairs = [
        (FreeGroup(["x", "y"]).parse("x y"), FreeGroup(["a", "b"]).parse("a b")),
        (cyclic_group(3, "g").element("g"), cyclic_group(3, "h").element("h")),
        (
            FreeProduct([FreeGroup(["a"]), cyclic_group(2, "t")]).parse("a t"),
            FreeProduct([FreeGroup(["b"]), cyclic_group(2, "s")]).parse("b s"),
        ),
    ]
    for u, v in pairs:
        assert u != v
        with pytest.raises(MixedContextError):
            u * v


def test_hash_does_not_depend_on_hash_seed():
    src = str(Path(qcext.__file__).resolve().parent.parent)
    code = (
        "from qcext import FreeGroup, FreeProduct, cyclic_group\n"
        "F = FreeGroup(['x', 'y'])\n"
        "P = FreeProduct([F, cyclic_group(2, 't')])\n"
        "print(hash(F.parse('x y^-1')), hash(P.parse('x t y')),"
        " hash(cyclic_group(3).element('g2')))\n"
    )
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        outs.append(run.stdout)
    assert outs[0] == outs[1]


def test_ball_words_have_distinct_hashes():
    # Signed letter codes would collide wherever words differ only by x^-1
    # against y^-1 (CPython hashes -1 like -2): 6,349 hashes for this ball.
    ball = list(free_ball_words(F2, 8))
    assert len(ball) == 13121
    assert len({hash(w) for w in ball}) == 13121


def test_free_product_ball_has_distinct_hashes():
    P = FreeProduct([F2, FreeGroup(["t"])])
    gens = [P.parse(s) for s in ("x", "x^-1", "y", "y^-1", "t", "t^-1")]
    ball = enumerate_ball(P.identity(), gens, 5)
    assert len(ball) == 4687
    assert len({hash(g) for g in ball}) == 4687


def test_signed_letters_round_trip():
    ball = list(free_ball_words(F2, 4))
    assert len(ball) == 161
    for w in ball:
        assert all(isinstance(c, int) and 0 < abs(c) <= 2 for c in w.letters)
        assert F2.word(w.letters) == w
    assert F2.parse("x y^-1 x^-2").letters == (1, -2, -1, -1)
