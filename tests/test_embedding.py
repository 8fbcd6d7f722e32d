from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from qcext import (
    FreeGroup,
    FreeProduct,
    FreeProductPairSpec,
    FreeRelCyclicSpec,
    SearchBudget,
    calibrate_c,
    seeded_rng,
    spec_from_json,
)
from qcext.embedding import FINITE, INFINITE, UNKNOWN
from qcext.errors import ConfigError, DomainError


F2 = FreeGroup(["x", "y"])


def rel_x():
    return FreeRelCyclicSpec(F2, F2.parse("x"))


def rel_xy(c=0):
    return FreeRelCyclicSpec(F2, F2.parse("x y"), c_value=c)


def test_seeded_rng_labels_are_independent_streams():
    a1 = seeded_rng(0, "a").random()
    a2 = seeded_rng(0, "a").random()
    b = seeded_rng(0, "b").random()
    assert a1 == a2
    assert a1 != b


def test_spec_validation():
    with pytest.raises(DomainError):
        FreeRelCyclicSpec(FreeGroup(["x"]), FreeGroup(["x"]).parse("x"))  # rank 1
    with pytest.raises(DomainError):
        FreeRelCyclicSpec(F2, F2.parse("x^2"))  # proper power
    with pytest.raises(DomainError):
        FreeRelCyclicSpec(F2, F2.parse("y x y^-1"))  # not cyclically reduced
    with pytest.raises(DomainError):
        FreeRelCyclicSpec(F2, F2.identity())


def test_basis_c_default():
    assert rel_x().c_value == Fraction(0)
    assert rel_xy().c_value == Fraction(0)  # supplied explicitly
    assert FreeRelCyclicSpec(F2, F2.parse("x y")).c_value is None


def test_power_of():
    spec = rel_xy()
    assert spec.power_of(F2.parse("x y x y")) == 2
    assert spec.power_of(F2.identity()) == 0
    assert spec.power_of(F2.parse("y^-1 x^-1")) == -1
    assert spec.power_of(F2.parse("x y x")) is None
    assert spec.power_of(F2.parse("y x")) is None


def test_rel_distance_basis_closed_form():
    spec = rel_x()
    lam = spec.lambdas()[0]
    one = F2.identity()
    for k in range(-8, 9):
        d = spec.rel_distance(one, F2.parse("x") ** k, lam)
        assert d.status == FINITE and d.exact
        assert d.value == abs(k)


def test_rel_distance_generic_vs_closed_form():
    # the capped search on <x> as a "generic" word must reproduce |k|;
    # run it through the BFS by building a spec whose w is a basis letter
    # but calling the search directly.
    spec = rel_x()
    budget = SearchBudget(max_vertices=200_000, max_depth=20, max_power=10)
    for k in range(-6, 7):
        if k == 0:
            continue
        d = spec._rel_bfs(spec.subgroup_element(k), budget)
        assert d.status == FINITE
        assert d.value == abs(k)


def test_rel_distance_xy_frozen_values():
    # d-hat(1, xy) = 2: one x-edge and one y-edge; the direct subgroup edge
    # is excluded, and no shorter mixed path exists.
    spec = rel_xy()
    lam = spec.lambdas()[0]
    one = F2.identity()
    d1 = spec.rel_distance(one, F2.parse("x y"), lam)
    assert d1.status == FINITE and d1.value == 2
    # d-hat(1, (xy)^2) = 4: powers cannot shortcut through the coset.
    d2 = spec.rel_distance(one, F2.parse("x y x y"), lam)
    assert d2.status == FINITE and d2.value == 4


def test_rel_distance_budget_exhaustion_is_unknown():
    # The search runs out of vertices before it can reach (xy)^2: that is
    # reported as an unknown distance, never raised and never infinite.
    spec = FreeRelCyclicSpec(F2, F2.parse("x y"), budget=SearchBudget(max_vertices=5))
    d = spec.rel_distance(F2.identity(), F2.parse("x y x y"), spec.lambdas()[0])
    assert d.status == UNKNOWN
    assert d.note == "vertex budget exhausted"


def test_rel_distance_rejects_outsiders():
    spec = rel_xy()
    with pytest.raises(DomainError):
        spec.rel_distance(F2.identity(), F2.parse("x"), spec.lambdas()[0])


def test_rel_ball_basis():
    spec = rel_x()
    ball = spec.rel_ball(spec.lambdas()[0], 3)
    assert ball.complete
    ks = sorted(spec.power_of(h) for h in ball.elements)
    assert ks == [-3, -2, -1, 0, 1, 2, 3]
    strict = spec.rel_ball(spec.lambdas()[0], 0, strict=True)
    assert strict.elements == () and strict.complete


def test_free_product_rel_distance_zero_or_infinite():
    A, B = FreeGroup(["a"]), FreeGroup(["b"])
    G = FreeProduct([A, B])
    spec = FreeProductPairSpec(G, ["A", "B"])
    one = G.identity()
    same = spec.rel_distance(one, one, "A")
    assert same.status == FINITE and same.value == 0
    far = spec.rel_distance(one, G.parse("a^3"), "A")
    assert far.status == INFINITE
    assert spec.theoretical_c() == 0


def test_coset_reps():
    A, B = FreeGroup(["a"]), FreeGroup(["b"])
    G = FreeProduct([A, B])
    spec = FreeProductPairSpec(G, ["A", "B"])
    g = G.parse("a b a^2")
    assert spec.coset_rep(g, "A") == G.parse("a b")
    assert spec.coset_rep(g, "B") == g
    relspec = rel_x()
    lam = relspec.lambdas()[0]
    assert relspec.coset_rep(F2.parse("y x^5"), lam) == F2.parse("y")
    assert relspec.coset_rep(F2.parse("x^4"), lam) == F2.identity()


def test_coset_rep_is_coset_invariant_generic():
    spec = rel_xy()
    lam = spec.lambdas()[0]
    t = F2.parse("y x")
    reps = {
        str(spec.coset_rep(t * spec.subgroup_element(k), lam)) for k in range(-3, 4)
    }
    assert len(reps) == 1


def test_budget_json_roundtrip():
    b = SearchBudget(max_vertices=100, max_depth=5, max_power=3)
    again = SearchBudget.from_json(dataclasses.asdict(b))
    assert again == b
    assert dataclasses.asdict(again) == dataclasses.asdict(b)
    with pytest.raises(ConfigError):
        SearchBudget.from_json({"max_vertices": 100, "bogus": 1})


def test_spec_from_json():
    spec = spec_from_json(
        {"family": "free_rel_cyclic", "gens": ["x", "y"], "w": "x"}
    )
    assert spec.family == "free_rel_cyclic"
    fp = spec_from_json(
        {
            "family": "free_product",
            "factors": [
                {"kind": "free", "gens": ["a"]},
                {"kind": "cyclic", "order": 4, "sym": "s"},
            ],
            "names": ["A", "S"],
        }
    )
    assert fp.family == "free_product"
    assert fp.lambdas() == ("A", "S")
    with pytest.raises(ConfigError):
        spec_from_json({"family": "nonsense"})
    with pytest.raises(ConfigError):
        spec_from_json({"family": "free_rel_cyclic", "gens": ["x", "y"]})


def test_free_product_spec_rejects_polygon_constant():
    # C = 0 is a theorem on free products, so a spec-level "C" would be
    # ignored; the run-level "c" key is where a constant goes.
    data = {
        "family": "free_product",
        "factors": [{"kind": "free", "gens": ["a"]}, {"kind": "free", "gens": ["b"]}],
        "C": "5",
    }
    with pytest.raises(ConfigError, match='"c"'):
        spec_from_json(data)
    del data["C"]
    assert spec_from_json(data).theoretical_c() == 0


def test_random_word_is_reduced_and_keeps_the_draw_sequence():
    rng, ref_rng = seeded_rng(3, "words"), seeded_rng(3, "words")
    for length in range(12):
        word = F2.random_word(rng, length)
        letters: list[int] = []
        while len(letters) < length:
            c = ref_rng.choice([1, -1]) * ref_rng.randint(1, 2)
            if not (letters and letters[-1] == -c):
                letters.append(c)
        assert word.letters == tuple(letters)
        assert word == F2.word(letters) and len(word) == length


def test_check_local_finiteness_basis():
    spec = rel_x()
    ball = spec.rel_ball(spec.lambdas()[0], 4)
    assert ball.complete
    assert len(ball.elements) == 9  # powers -4..4


def test_calibration_runs_and_reports():
    spec = rel_xy()
    report = calibrate_c(spec, samples=20, seed=1, element_size=4)
    assert report.samples == 20
    assert report.max_ratio >= 0
    assert len(report.curve) == 20
    data = report.to_json()
    assert set(data) >= {"max_ratio", "by_n", "unresolved", "curve"}


def test_calibration_rejects_free_products():
    A, B = FreeGroup(["a"]), FreeGroup(["b"])
    spec = FreeProductPairSpec(FreeProduct([A, B]), ["A", "B"])
    with pytest.raises(DomainError):
        calibrate_c(spec, samples=2)


def test_colliding_factor_symbols_are_a_config_error():
    # both cyclic factors default to "sym": "g", so "g" would name two
    # different elements
    data = {
        "family": "free_product",
        "factors": [{"kind": "cyclic", "order": 2}, {"kind": "cyclic", "order": 3}],
    }
    with pytest.raises(ConfigError):
        spec_from_json(data)
    with pytest.raises(DomainError):
        FreeProduct([FreeGroup(["a"]), FreeGroup(["a", "b"])])
