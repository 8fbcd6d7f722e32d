from __future__ import annotations

from fractions import Fraction

import pytest

from qcext import (
    Coset,
    FreeGroup,
    FreeProduct,
    FreeProductPairSpec,
    FreeRelCyclicSpec,
    SearchBudget,
    distance,
    free_ball_words,
    geodesic_routes,
    separation_report,
    triangle_partition,
)
from qcext.errors import MixedContextError, NotSeparatingError
from qcext.geodesics import ball_domain


def fp_spec():
    A, B = FreeGroup(["a"]), FreeGroup(["b"])
    return FreeProductPairSpec(FreeProduct([A, B]), ["A", "B"])


F2 = FreeGroup(["x", "y"])
REL_X = FreeRelCyclicSpec(F2, F2.parse("x"))


def test_free_product_separating_both_labels():
    spec = fp_spec()
    G = spec.group
    one, g = G.identity(), G.parse("a b a^2")
    rep = separation_report(spec, one, g)

    sa = rep["A"]
    assert [str(c.rep) for c in sa.cosets] == ["1", "a b"]
    assert sa.distances == (0, 2)
    assert not sa.trivial
    assert sa.exhaustive

    sb = rep["B"]
    assert [str(c.rep) for c in sb.cosets] == ["a"]
    assert sb.distances == (1,)
    pairs = sb.entrance_exits[0]
    assert [(str(u), str(v)) for u, v in pairs] == [("a", "a b")]


def test_trivial_clause():
    spec = fp_spec()
    G = spec.group
    one, g = G.identity(), G.parse("a^5")
    rep = separation_report(spec, one, g)
    sa = rep["A"]
    assert sa.trivial
    assert len(sa) == 1
    assert sa.distances == (0,)
    assert sa.entrance_exits[0] == ((one, g),)
    # the other subgroup sees nothing
    assert len(rep["B"]) == 0


def test_equal_endpoints_yield_nothing():
    spec = fp_spec()
    g = spec.group.parse("a b")
    s = separation_report(spec, g, g)["A"]
    assert len(s) == 0
    assert s.exhaustive


def test_symmetry_and_cardinality():
    spec = fp_spec()
    G = spec.group
    one, g = G.identity(), G.parse("a b a^2 b^3 a")
    for lam in ("A", "B"):
        s_fg = separation_report(spec, one, g)[lam]
        s_gf = separation_report(spec, g, one)[lam]
        assert set(s_fg.cosets) == set(s_gf.cosets)
        assert len(s_fg) <= distance(spec, one, g)
        assert list(s_fg.distances) == sorted(set(s_fg.distances))


def test_entrance_exit_lookup_and_rejection():
    spec = fp_spec()
    G = spec.group
    one, g = G.identity(), G.parse("a b a^2")
    sep = separation_report(spec, one, g)["B"]
    pairs = sep.pairs(Coset("B", G.parse("a")))
    assert [(str(u), str(v)) for u, v in pairs] == [("a", "a b")]
    with pytest.raises(NotSeparatingError):
        sep.pairs(Coset("B", G.parse("a b a")))


def test_rel_basis_separating_cosets():
    one = F2.identity()
    g = F2.parse("y x^3 y x^2")
    s = separation_report(REL_X, one, g)["C"]
    assert [str(c.rep) for c in s.cosets] == ["y", "y x^3 y"]
    assert s.distances == (1, 3)
    pairs0 = s.entrance_exits[0]
    assert (F2.parse("y"), F2.parse("y x^3")) in pairs0


def test_band_exclusion_with_positive_c():
    # width d-hat(y, y x^3) = 3 falls in (0, 3] once C = 1, so the coset
    # is excluded but must be logged rather than dropped
    one = F2.identity()
    g = F2.parse("y x^3 y")
    s0 = separation_report(REL_X, one, g, c_value=0)["C"]
    assert [str(c.rep) for c in s0.cosets] == ["y"]
    s1 = separation_report(REL_X, one, g, c_value=1)["C"]
    assert len(s1) == 0
    assert len(s1.band_excluded) == 1
    band = s1.band_excluded[0]
    assert str(band.coset.rep) == "y"
    assert band.width.value == 3
    assert s1.c_value == Fraction(1)


def reports(spec):
    return lambda a, b: separation_report(spec, a, b)


def test_triangle_partition_free_product():
    spec = fp_spec()
    G = spec.group
    f, g, h = G.identity(), G.parse("a b a^2 b"), G.parse("a b")
    for lam in ("A", "B"):
        s_fg = separation_report(spec, f, g)[lam]
        part = triangle_partition(spec, f, g, h, lam, reports(spec))
        assert len(part.front) <= 2
        combined = list(part.from_fh) + list(part.front) + list(part.from_hg)
        assert sorted(map(str, combined)) == sorted(map(str, s_fg.cosets))


def test_triangle_partition_short_list_is_front():
    spec = fp_spec()
    G = spec.group
    f, g, h = G.identity(), G.parse("a b"), G.parse("b")
    part = triangle_partition(spec, f, g, h, "A", reports(spec))
    assert part.from_fh == () and part.from_hg == ()
    assert part.pivot == -1


# -- the per-edge reference ------------------------------------------------------


def reference_report(spec, f, g, lam, c=Fraction(0)):
    """Separating cosets by the plain per-edge definition: every edge of
    every route is tested with in_subgroup(u^-1 v) and coset_rep(u);
    cosets in first-seen order, each at its minimal prefix."""
    if f == g:
        return (), (), (), True, ()
    if spec.in_subgroup(f.inverse() * g, lam):
        return (Coset(lam, spec.coset_rep(f, lam)),), (0,), (((f, g),),), True, ()
    geo = geodesic_routes(spec, f, g)
    info = {}
    for path in geo.geodesics:
        verts = [path.origin]
        for letter in path.letters:
            verts.append(verts[-1] * letter.elem)
        for i in range(len(path.letters)):
            u, v = verts[i], verts[i + 1]
            du = u.inverse() * v
            if du.is_identity() or not spec.in_subgroup(du, lam):
                continue
            rep = spec.coset_rep(u, lam)
            entry = info.setdefault(
                rep, {"prefix": i, "pairs": [], "essential": False, "band": None}
            )
            entry["prefix"] = min(entry["prefix"], i)
            if (u, v) not in entry["pairs"]:
                entry["pairs"].append((u, v))
            if entry["essential"]:
                continue
            width = spec.rel_distance(rep.inverse() * u, rep.inverse() * v, lam)
            if not width.is_finite() or width.value > 3 * c:
                entry["essential"] = True
            elif width.value > 0:
                entry["band"] = width
    found = sorted(
        ((e["prefix"], Coset(lam, rep), tuple(e["pairs"]))
         for rep, e in info.items() if e["essential"]),
        key=lambda t: t[0],
    )
    band = tuple(
        (Coset(lam, rep), e["pairs"][0], e["band"])
        for rep, e in info.items()
        if not e["essential"] and e["band"] is not None
    )
    return (
        tuple(t[1] for t in found),
        tuple(t[0] for t in found),
        tuple(t[2] for t in found),
        geo.exhaustive,
        band,
    )


def assert_matches_reference(spec, g, c=Fraction(0), f=None):
    f = spec.identity() if f is None else f
    report = separation_report(spec, f, g, c_value=c)
    for lam in spec.lambdas():
        got = report[lam]
        where = (str(f), str(g), lam)
        cosets, dists, pairs, exhaustive, band = reference_report(spec, f, g, lam, c)
        assert got.cosets == cosets, where
        assert got.distances == dists, where
        assert got.entrance_exits == pairs, where
        assert got.exhaustive == exhaustive, where
        assert tuple(
            (b.coset, (b.entrance, b.exit), b.width) for b in got.band_excluded
        ) == band, where


def test_rel_x_ball_matches_per_edge_reference():
    for g in free_ball_words(F2, 3):
        assert_matches_reference(REL_X, g)
        assert_matches_reference(REL_X, g, c=Fraction(1))


def test_free_product_ball_matches_per_edge_reference():
    spec = fp_spec()
    for g in ball_domain(spec, 2):
        assert_matches_reference(spec, g)


def test_free_product_ball_pairs_match_per_edge_reference():
    # the suite separates arbitrary (f, g), not only (1, g)
    spec = fp_spec()
    ball = ball_domain(spec, 2)
    for f in ball:
        for g in ball:
            assert_matches_reference(spec, g, f=f)


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1)])
def test_rel_x_ball_pairs_match_per_edge_reference(c):
    ball = list(free_ball_words(F2, 2))
    for f in ball:
        for g in ball:
            assert_matches_reference(REL_X, g, c, f=f)


def test_mixed_group_pair_raises():
    other = FreeGroup(["x", "z"])
    with pytest.raises(MixedContextError):
        separation_report(REL_X, F2.parse("x y"), other.parse("x z"))
    spec = fp_spec()
    A, B = FreeGroup(["a"]), FreeGroup(["c"])
    foreign = FreeProduct([A, B])
    with pytest.raises(MixedContextError):
        separation_report(spec, spec.parse("a b"), foreign.parse("a c"))


def test_generic_rel_xy_ball_matches_per_edge_reference():
    # the pruned search returns several geodesics with their own vertices,
    # and 3C in {1, 2} puts some widths in the band
    spec = FreeRelCyclicSpec(
        F2, F2.parse("x y"), c_value=0,
        budget=SearchBudget(max_vertices=20_000, max_power=6),
    )
    for g in free_ball_words(F2, 3):
        for c in (Fraction(0), Fraction(1, 3), Fraction(2, 3)):
            assert_matches_reference(spec, g, c)


def test_long_basis_word_separation_is_exhaustive():
    # (x y)^15 has 15 runs x^1, so 2^15 spellings, all through the vertices
    # of one route: separation walks that route, whatever max_geodesics is
    g = F2.parse("x y") ** 15
    geo = geodesic_routes(REL_X, F2.identity(), g)
    assert len(geo.geodesics) == 1 and geo.distance == 30
    sep = separation_report(REL_X, F2.identity(), g)["C"]
    assert sep.exhaustive
    assert sep.distances == tuple(range(0, 30, 2))
    assert separation_report(REL_X, F2.identity(), g, geo=geo)["C"] == sep


def test_negative_basis_letter_separates_like_its_inverse():
    # <x^-1> = <x>, so both specs see the same cosets and pairs
    rel_xinv = FreeRelCyclicSpec(F2, F2.parse("x^-1"))
    for g in free_ball_words(F2, 3):
        assert_matches_reference(rel_xinv, g)
        a = separation_report(rel_xinv, F2.identity(), g)["C"]
        b = separation_report(REL_X, F2.identity(), g)["C"]
        assert (a.cosets, a.entrance_exits) == (b.cosets, b.entrance_exits), str(g)
