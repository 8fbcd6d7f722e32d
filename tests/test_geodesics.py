from __future__ import annotations

import types

import pytest
from hypothesis import given, strategies as st

import qcext
from qcext import (
    FreeGroup,
    FreeProduct,
    FreeProductPairSpec,
    FreeRelCyclicSpec,
    SearchBudget,
    distance,
    free_ball_words,
    geodesic_routes,
    penetration,
)
from qcext.embedding import HLetter
from qcext.errors import DomainError, MixedContextError, NotGeodesicError
from qcext.geodesics import CayleyPath, distance_map
from qcext.groups import FreeWord, cyclic_group
from qcext.suite import ball_domain

from independent_oracles import brute_force_distance_oracle


F2 = FreeGroup(["x", "y"])
REL_X = FreeRelCyclicSpec(F2, F2.parse("x"))
REL_XY = FreeRelCyclicSpec(F2, F2.parse("x y"), c_value=0)


def fp_spec():
    A, B = FreeGroup(["a"]), FreeGroup(["b"])
    return FreeProductPairSpec(FreeProduct([A, B]), ["A", "B"])


def small_words():
    return st.lists(
        st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=6
    ).map(lambda ls: F2.word(ls))


def test_free_ball_words_counts():
    assert len(list(free_ball_words(F2, 2))) == 17
    assert len(list(free_ball_words(F2, 3))) == 53


def test_basis_distances_frozen():
    one = F2.identity()
    assert distance(REL_X, one, F2.parse("x^3")) == 1
    assert distance(REL_X, one, F2.parse("y x^5 y")) == 3
    assert distance(REL_X, one, F2.parse("y x^3 y x^2")) == 4
    assert distance(REL_X, one, one) == 0


def test_geodesics_is_the_module():
    assert isinstance(qcext.geodesics, types.ModuleType)
    assert qcext.geodesics.geodesic_routes is geodesic_routes


def test_basis_geodesics_block_structure():
    geo = geodesic_routes(REL_X, F2.identity(), F2.parse("y x^3 y"))
    assert geo.distance == 3
    assert geo.exhaustive
    assert len(geo.geodesics) == 1
    dump = geo.geodesics[0].dump()
    assert dump == ["X:y", "H:x^3", "X:y"]


def test_single_letter_runs_have_both_spellings():
    # a length-1 subgroup run can be spelled by the ambient letter or by
    # the subgroup edge; the route takes the ambient letter, and the other
    # spelling is a geodesic through the same vertices.
    one = F2.identity()
    geo = geodesic_routes(REL_X, one, F2.parse("y x y"))
    (route,) = geo.geodesics
    assert route.dump() == ["X:y", "X:x", "X:y"]
    x_edge = HLetter(REL_X.lambdas()[0], F2.parse("x"), power=1)
    other = CayleyPath(one, (route.letters[0], x_edge, route.letters[2]))
    assert other.dump() == ["X:y", "H:x", "X:y"]
    assert other.vertices() == route.vertices()


def test_basis_route_is_the_first_spelling():
    ball = list(free_ball_words(F2, 3))
    blocks = distance_map(REL_X, 6)  # the block count of each f^-1 g
    for f in ball[::9]:
        for g in ball:
            routes = geodesic_routes(REL_X, f, g)
            assert routes.exhaustive and not routes.truncated
            assert len(routes.geodesics) == 1
            assert routes.distance == blocks[f.inverse() * g]
            # the vertices sliced from f and u = f^-1 g are the products
            route = routes.geodesics[0]
            assert len(route.letters) == routes.distance
            rebuilt = [f]
            for letter in route.letters:
                rebuilt.append(rebuilt[-1] * letter.elem)
            assert route.vertices() == tuple(rebuilt)
            assert rebuilt[-1] == g


def test_routes_are_the_geodesics_off_the_closed_form():
    # an ambient and a subgroup letter share an element only when |w| = 1,
    # so these paths already have pairwise distinct vertex tuples
    spec = fp_spec()
    cases = [(spec, g) for g in ball_domain(spec, 2)]
    cases += [(REL_XY, g) for g in free_ball_words(F2, 2)]
    for sp, g in cases:
        geo = geodesic_routes(sp, sp.identity(), g)
        assert geo.geodesics
        assert len({p.vertices() for p in geo.geodesics}) == len(geo.geodesics)
        for path in geo.geodesics:
            assert len(path.letters) == geo.distance
            assert path.vertices()[-1] == g


def test_max_geodesics_bounds_only_the_pruned_search():
    # x y x = (x y) x = (x y x y) y^-1: two geodesics, the cap keeps one
    one = F2.identity()
    g = F2.parse("x y x")
    assert len(geodesic_routes(REL_XY, one, g).geodesics) == 2
    capped = SearchBudget(max_geodesics=1)
    geo = geodesic_routes(REL_XY, one, g, budget=capped)
    assert len(geo.geodesics) == 1 and geo.distance == 2
    assert geo.truncated and not geo.exhaustive
    # (x y)^6 has six +-1 runs of x: one route, exhaustive whatever the cap
    geo = geodesic_routes(REL_X, one, F2.parse("x y") ** 6, budget=capped)
    assert len(geo.geodesics) == 1 and geo.distance == 12
    assert geo.exhaustive and not geo.truncated
    spec = fp_spec()
    G = spec.group
    geo = geodesic_routes(spec, G.identity(), G.parse("a b a^2 b"), budget=capped)
    assert len(geo.geodesics) == 1 and geo.distance == 4
    assert geo.exhaustive and not geo.truncated


def test_negative_basis_letter_spells_its_own_powers():
    # <x^-1> = <x>: same distances, and every subgroup letter is the power
    # of w that its edge spans
    rel_xinv = FreeRelCyclicSpec(F2, F2.parse("x^-1"))
    one = F2.identity()
    for g in free_ball_words(F2, 3):
        geo = geodesic_routes(rel_xinv, one, g)
        assert geo.distance == distance(REL_X, one, g)
        for path in geo.geodesics:
            rebuilt = [path.origin]
            for letter in path.letters:
                rebuilt.append(rebuilt[-1] * letter.elem)
                if isinstance(letter, HLetter):
                    assert letter.elem == rel_xinv.subgroup_element(letter.power)
            assert tuple(rebuilt) == path.vertices()
            assert rebuilt[-1] == g


def test_generic_distances_frozen():
    one = F2.identity()
    assert distance(REL_XY, one, F2.parse("x y")) == 1
    assert distance(REL_XY, one, F2.parse("x y x y")) == 1
    assert distance(REL_XY, one, F2.parse("y x")) == 2
    assert distance(REL_XY, one, F2.parse("x")) == 1


def test_generic_geodesics_are_flagged_pruned():
    geo = geodesic_routes(REL_XY, F2.identity(), F2.parse("y x"))
    assert not geo.exhaustive
    assert "upper bound" in geo.note


def test_vertices():
    geo = geodesic_routes(REL_X, F2.parse("y"), F2.parse("y x^2"))
    path = geo.geodesics[0]
    verts = path.vertices()
    assert verts[0] == F2.parse("y")
    assert verts[-1] == F2.parse("y x^2")


def test_path_equality_ignores_vertex_cache():
    path = geodesic_routes(REL_X, F2.parse("y"), F2.parse("y x^2 y")).geodesics[0]
    fresh = CayleyPath(path.origin, list(path.letters))
    assert type(fresh.letters) is tuple and not hasattr(fresh, "__dict__")
    assert fresh == path and hash(fresh) == hash(path)
    assert fresh.vertices() == path.vertices()
    assert fresh == path and hash(fresh) == hash(path)
    assert CayleyPath(path.origin, path.letters[:1]) != path


def test_free_product_geodesic_unique():
    spec = fp_spec()
    G = spec.group
    geo = geodesic_routes(spec, G.identity(), G.parse("a b a^2"))
    assert geo.distance == 3
    assert len(geo.geodesics) == 1
    assert geo.exhaustive
    assert geo.geodesics[0].dump() == ["H:a", "H:b", "H:a^2"]


@given(small_words(), small_words())
def test_engine_matches_oracle_rel_x(f, g):
    want, _ = brute_force_distance_oracle(REL_X, f, g)
    assert distance(REL_X, f, g) == want


@given(small_words())
def test_engine_matches_oracle_rel_xy(u):
    one = F2.identity()
    want, _ = brute_force_distance_oracle(REL_XY, one, u)
    assert distance(REL_XY, one, u) == want


def test_distance_matches_geodesics_and_oracle():
    A, B = FreeGroup(["x", "y"]), FreeGroup(["t"])
    fp = FreeProductPairSpec(FreeProduct([A, B]), ["A", "B"])
    ball = ball_domain(fp, 2)
    oracle = {}  # the oracle depends on f^-1 g only
    for f in ball:
        for g in ball:
            d = distance(fp, f, g)
            assert d == geodesic_routes(fp, f, g).distance, (str(f), str(g))
            u = f.inverse() * g
            if u not in oracle:
                oracle[u] = brute_force_distance_oracle(fp, fp.identity(), u)[0]
            assert d == oracle[u], (str(f), str(g))
    rel_xy = FreeRelCyclicSpec(
        F2, F2.parse("x y"), c_value=0,
        budget=SearchBudget(max_vertices=20_000, max_power=6),
    )
    for spec in (REL_X, rel_xy):
        for f in (F2.identity(), F2.parse("y"), F2.parse("x^-1 y")):
            for u in free_ball_words(F2, 3):
                g = f * u
                d = distance(spec, f, g)
                assert d == geodesic_routes(spec, f, g).distance, (spec, str(f), str(g))
                assert d == brute_force_distance_oracle(spec, f, g)[0], (spec, str(f), str(g))


def test_free_product_distance_reads_normal_forms():
    # Finite factors put two distinct syllables of one factor at the first
    # difference (s t against s t2), a syllable prefix (s against s t) and
    # f = g among the pairs.
    fp = FreeProductPairSpec(
        FreeProduct([cyclic_group(2, "s"), cyclic_group(3, "t")]), ["A", "B"]
    )
    ball = ball_domain(fp, 5)
    for f in ball:
        for g in ball:
            assert distance(fp, f, g) == len(f.inverse() * g), (str(f), str(g))


def test_free_product_distance_rejects_foreign_element():
    fp = fp_spec()
    with pytest.raises(MixedContextError):
        distance(fp, fp.identity(), F2.parse("x"))
    with pytest.raises(MixedContextError):
        distance(fp, F2.parse("x"), fp.identity())


def test_oracle_flags_binding_power_cap():
    # with powers capped at 1 the oracle can only spell x^5 letter by
    # letter; it must admit the result is an upper bound
    want, capped = brute_force_distance_oracle(
        REL_X, F2.identity(), F2.parse("x^5"), max_power=1
    )
    assert want == 5
    assert capped


def test_oracle_exactness_flag_free_product():
    spec = fp_spec()
    G = spec.group
    want, capped = brute_force_distance_oracle(spec, G.identity(), G.parse("a b a^2"))
    assert want == 3
    assert not capped
    # an explicit cap below the longest syllable is reported
    want2, capped2 = brute_force_distance_oracle(
        spec, G.identity(), G.parse("a^3 b"), max_s_length=2
    )
    assert want2 == 3
    assert capped2


def test_distance_map_agrees_with_engine_basis():
    dm = distance_map(REL_X, 4)
    for w, d in dm.items():
        assert distance(REL_X, F2.identity(), w) == d


def _check_keys(dm, group):
    """Keys built in bulk are ordinary words of the group."""
    for key in dm:
        assert type(key.codes) is tuple
        assert key.group is group
        parsed = group.parse(str(key))
        assert key == parsed and hash(key) == hash(parsed), str(key)
        for name, value in (("codes", ()), ("group", F2)):
            with pytest.raises(AttributeError):
                setattr(key, name, value)


F3 = FreeGroup(["x", "y", "z"])


@pytest.mark.parametrize(
    "group, w, radius",
    [(F2, "x", 6), (F2, "x^-1", 6), (F2, "y", 6), (F3, "z", 5), (F3, "y^-1", 5),
     (F2, "x", 0), (F2, "x", 1), (F2, "y^-1", 1)],
    ids=["x", "x^-1", "y", "F3-z-5", "F3-y^-1-5", "x-0", "x-1", "y^-1-1"],
)
def test_distance_map_basis_counts_blocks(group, w, radius):
    spec = FreeRelCyclicSpec(group, group.parse(w))
    gen = abs(spec.w.letters[0])
    dm = distance_map(spec, radius)
    assert list(dm) == list(free_ball_words(group, radius))
    assert list(dm) == sorted(dm, key=lambda v: (len(v), v.codes))
    n = 2 * len(group.gens)
    assert len(dm) == 1 + sum(n * (n - 1) ** (k - 1) for k in range(1, radius + 1))
    for word, d in dm.items():
        # Count blocks backward: a maximal run of the basis generator, or
        # one other letter.
        ls = word.letters
        blocks, j = 0, len(ls)
        while j:
            j -= 1
            while abs(ls[j]) == gen and j and ls[j - 1] == ls[j]:
                j -= 1
            blocks += 1
        assert d == blocks, str(word)
    _check_keys(dm, group)


def test_generic_map_keys_are_words():
    _check_keys(distance_map(REL_XY, 4, sweep_len=6, max_power=4), F2)


def test_ball_kernel_calls_no_word_init(monkeypatch):
    # The ball is built in bulk by the trusted constructor, not one
    # FreeWord(group, codes) per word.
    calls = []
    init = FreeWord.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FreeWord, "__init__", counting)
    assert len(distance_map(REL_X, 4)) == 161
    assert len(list(free_ball_words(F2, 3))) == 53
    assert calls == []


def test_distance_map_rejects_short_sweep():
    # a sweep shorter than the radius would silently drop words
    with pytest.raises(DomainError):
        distance_map(REL_XY, 4, sweep_len=2, max_power=4)
    assert len(distance_map(REL_XY, 2, sweep_len=2, max_power=4)) == 17


@pytest.mark.parametrize(
    "call",
    [
        lambda: distance_map(REL_X, -1),
        lambda: distance_map(REL_XY, -1),
        lambda: free_ball_words(F2, -2),
    ],
    ids=["basis-map", "generic-map", "ball"],
)
def test_negative_radius_is_rejected(call):
    with pytest.raises(DomainError, match="radius must be nonnegative"):
        call()


def test_distance_map_generic_small():
    dm = distance_map(REL_XY, 4, sweep_len=6, max_power=4)
    assert dm[F2.parse("x y")] == 1
    assert dm[F2.parse("y x")] == 2
    for w, d in list(dm.items())[:80]:
        assert distance(REL_XY, F2.identity(), w) == d


def test_left_invariance():
    t = F2.parse("y^-1 x")
    for text in ["x^4", "y x y", "x y^-2"]:
        u = F2.parse(text)
        assert distance(REL_X, t, t * u) == distance(REL_X, F2.identity(), u)


def test_components_and_penetration():
    geo = geodesic_routes(REL_X, F2.identity(), F2.parse("y x^3 y x^2"))
    path = geo.geodesics[0]
    lam = REL_X.lambdas()[0]
    # two components: one in each of the cosets y<x> and y x^3 y<x>
    pen = penetration(REL_X, path, lam, F2.parse("y"))
    assert pen == (F2.parse("y"), F2.parse("y x^3"))
    pen = penetration(REL_X, path, lam, F2.parse("y x^3 y"))
    assert pen == (F2.parse("y x^3 y"), F2.parse("y x^3 y x^2"))
    # a coset the path only touches in one vertex is not penetrated
    assert penetration(REL_X, path, lam, F2.identity()) is None


def test_penetration_rejects_non_geodesics():
    lam = REL_X.lambdas()[0]
    # x -> 1 -> x^2: doubles back through the <x> coset
    from qcext.embedding import HLetter

    bad = CayleyPath(
        F2.parse("x"),
        (
            HLetter(lam, F2.parse("x^-1"), power=-1),
            HLetter(lam, F2.parse("x^2"), power=2),
        ),
    )
    with pytest.raises(NotGeodesicError):
        penetration(REL_X, bad, lam, F2.identity())


def test_budget_exhaustion_raises():
    from qcext.errors import BudgetExhaustedError

    tiny = SearchBudget(max_vertices=5, max_depth=3, max_power=2)
    with pytest.raises(BudgetExhaustedError):
        geodesic_routes(REL_XY, F2.identity(), F2.parse("y^2 x^2 y x"), budget=tiny)
