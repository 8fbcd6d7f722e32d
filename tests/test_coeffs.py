from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qcext import FreeGroup, IndexedLp, TrivialReals, delta, real_value, zero
from qcext.coeffs import ModuleVector, _scalar_sum, scalar_table, sum_vectors
from qcext.errors import MixedContextError
from qcext.geodesics import free_ball_words


F2 = FreeGroup(["x", "y"])
LP = IndexedLp(F2, p=2, tags=("e",))


def lp_vectors():
    elems = st.sampled_from([F2.identity(), F2.gen("x"), F2.parse("x y")])
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    entry = st.tuples(elems, coeff)
    return st.lists(entry, max_size=4).map(
        lambda entries: sum_vectors(
            [delta(LP, (g, "e"), c) for g, c in entries], LP
        )
    )


def test_trivial_reals_scalar():
    v = real_value(Fraction(3, 2))
    assert v.scalar() == Fraction(3, 2)
    assert v.norm_pth_power() == Fraction(3, 2)
    assert (v - v).is_zero()


def test_trivial_action_is_trivial():
    v = real_value(Fraction(5))
    assert v.act(F2.parse("x y")) == v


def test_mixed_module_arithmetic_rejected():
    with pytest.raises(MixedContextError):
        real_value(1) + delta(LP, (F2.identity(), "e"))


def test_mixed_modules_rejected_by_add_and_sub():
    other = IndexedLp(FreeGroup(["a", "b"]), p=2, tags=("e",))
    v = delta(LP, (F2.identity(), "e"))
    w = delta(other, (other.group.identity(), "e"))
    # a zero vector of a foreign module is refused too, on either side
    for left, right in ((real_value(1), v), (v, real_value(1)), (v, w),
                        (zero(other), v), (v, zero(other)),
                        (zero(TrivialReals()), v), (v, zero(TrivialReals()))):
        with pytest.raises(MixedContextError):
            left + right
        with pytest.raises(MixedContextError):
            left - right


def test_zero_operand_shares_the_other_vector():
    for v in (real_value(Fraction(3, 2)), delta(LP, (F2.gen("x"), "e"), 2)):
        z = zero(v.module)
        assert v + z is v
        assert z + v is v
        assert v - z is v
        assert z - v == -v


def test_scalar_sum():
    module = TrivialReals()
    table = scalar_table(module)
    half, third = real_value(Fraction(1, 2)), real_value(Fraction(1, 3))
    cases = [
        (half, third, {(): Fraction(5, 6)}),
        (half, half, {(): Fraction(1)}),
        (real_value(3), real_value(-3), {}),
        (real_value(Fraction(1, 4)), real_value(Fraction(1, 4)), {(): Fraction(1, 2)}),
        (real_value(Fraction(-7, 2)), real_value(2), {(): Fraction(-3, 2)}),
    ]
    for a, b, coeffs in cases:
        got = _scalar_sum(a, b, table)
        assert got.coeffs == coeffs and got == a + b
        assert all(type(c) is Fraction and c for c in got.coeffs.values())
        # the operands' modules are equal to the table's but distinct objects
        assert got.module is module and a.module is not module
        assert _scalar_sum(a, b, table) is got  # a repeated sum is one object
    z = zero(TrivialReals())
    assert _scalar_sum(half, z, table) is half
    assert _scalar_sum(z, half, table) is half
    # normalized, also where the int key is not in lowest terms (6/4)
    one = real_value(1, module)
    for a, b, want in ((one, half, (3, 2)), (half, third, (5, 6)),
                       (real_value(Fraction(5, 4)), real_value(Fraction(1, 4)), (3, 2))):
        c = _scalar_sum(a, b, table).scalar()
        assert (c.numerator, c.denominator) == want
    # one vector per exact value: 5/4 + 1/4 keys 6/4, and 1 + 1/2 keys 3/2
    assert _scalar_sum(real_value(Fraction(5, 4)), real_value(Fraction(1, 4)), table) \
        is _scalar_sum(one, half, table)
    # every sum that cancels is the table's one zero vector
    zeros = {id(_scalar_sum(real_value(r), real_value(-r), table))
             for r in (Fraction(3), Fraction(1, 2), Fraction(2, 3))}
    assert zeros == {id(table[0, 1])} and table[0, 1].is_zero()
    assert all(v.module is module for v in table.values())


def _random_vector(rng, module, indices):
    # small numerators over a few denominators, so sums cancel to 0 often
    return ModuleVector(
        module,
        {
            idx: Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
            for idx in rng.sample(indices, rng.randint(0, len(indices)))
        },
    )


def test_arithmetic_matches_public_constructor():
    rng = random.Random(20240611)
    lp_indices = [(g, "e") for g in free_ball_words(F2, 1)]
    modules = [(TrivialReals(), [()]), (LP, lp_indices)]
    for module, indices in modules:
        for _ in range(200):
            a = _random_vector(rng, module, indices)
            b = _random_vector(rng, module, indices)
            keys = set(a.coeffs) | set(b.coeffs)
            r = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            g = rng.choice(lp_indices)[0]
            expected = [
                (a + b, {i: a.coefficient(i) + b.coefficient(i) for i in keys}),
                (a - b, {i: a.coefficient(i) - b.coefficient(i) for i in keys}),
                (-a, {i: -c for i, c in a.coeffs.items()}),
                (a.scale(r), {i: r * c for i, c in a.coeffs.items()}),
                (a.scale(0), {i: 0 * c for i, c in a.coeffs.items()}),
                (a.scale(1), dict(a.coeffs)),
                (a.act(g), {module.act_index(g, i): c for i, c in a.coeffs.items()}),
                (sum_vectors([a, b, -a], module), dict(b.coeffs)),
            ]
            for got, coeffs in expected:
                assert got == ModuleVector(module, coeffs)
                assert all(type(c) is Fraction and c for c in got.coeffs.values())


def test_delta_and_norm():
    v = delta(LP, (F2.gen("x"), "e"), Fraction(3))
    assert v.norm_pth_power() == Fraction(9)
    assert v.coefficient((F2.gen("x"), "e")) == Fraction(3)
    assert v.coefficient((F2.gen("y"), "e")) == Fraction(0)


def test_action_moves_support():
    v = delta(LP, (F2.identity(), "e"))
    moved = v.act(F2.gen("x"))
    assert moved.coefficient((F2.gen("x"), "e")) == Fraction(1)
    assert moved.coefficient((F2.identity(), "e")) == Fraction(0)


@given(lp_vectors())
def test_action_is_isometric(v):
    assert v.act(F2.parse("y x^-1")).norm_pth_power() == v.norm_pth_power()


@given(lp_vectors(), lp_vectors())
def test_action_additive(a, b):
    g = F2.parse("x^2 y")
    assert (a + b).act(g) == a.act(g) + b.act(g)


@given(lp_vectors())
def test_neg_and_scale(v):
    assert -v == v.scale(-1)
    assert v.scale(Fraction(1, 2)).scale(2) == v


def test_norm_leq_exact():
    v = delta(LP, (F2.identity(), "e"), Fraction(1)) + delta(
        LP, (F2.gen("x"), "e"), Fraction(1)
    )
    # |v|_2 = sqrt(2): compare p-th powers, no floats
    assert v.norm_leq_exact(Fraction(3, 2))
    assert not v.norm_leq_exact(Fraction(7, 5))


def test_zero_vector():
    z = zero(LP)
    assert z.is_zero()


def test_invalid_index_rejected():
    with pytest.raises(Exception):
        delta(LP, (F2.identity(), "nope"))
