from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qcext import (
    CertifiedBound,
    DefectEstimate,
    FiniteTableGroup,
    FreeGroup,
    FreeProduct,
    FreeProductPairSpec,
    FreeRelCyclicSpec,
    QuasiCocycle,
    TrivialReals,
    antisymmetrize,
    brooks,
    brooks_homogenized,
    coboundary1,
    cyclic_homomorphism,
    defect,
    delta,
    embed_on_factor,
    extend,
    free_ball_words,
    real_value,
    seeded_rng,
    step_quasimorphism,
    tree_edge_cocycle,
)
from qcext.errors import CertificateError, DomainError, MixedContextError
from qcext.geodesics import ball_domain
from qcext.qc import CERTIFICATE_SOURCES, PROVENANCES, half_sign, tag

from independent_oracles import coboundary2

F2 = FreeGroup(["x", "y"])
REL_X = FreeRelCyclicSpec(F2, F2.parse("x"))


def words(max_size=8):
    return st.lists(
        st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=max_size
    ).map(lambda ls: F2.word(ls))


def test_brooks_counting_values():
    h = brooks(F2, F2.parse("x y"))
    assert h.scalar_value(F2.parse("x y x y")) == 2
    assert h.scalar_value(F2.parse("y^-1 x^-1")) == -1
    assert h.scalar_value(F2.parse("y x")) == 0
    assert h.scalar_value(F2.identity()) == 0
    # greedy scan counts disjoint copies only
    h2 = brooks(F2, F2.parse("x^2"))
    assert h2.scalar_value(F2.parse("x^5")) == 2


def test_brooks_input_validation():
    with pytest.raises(DomainError):
        brooks(F2, F2.identity())
    other = FreeGroup(["a"])
    with pytest.raises(MixedContextError):
        brooks(F2, other.parse("a"))


@given(words())
def test_brooks_antisymmetry_identity(g):
    h = brooks(F2, F2.parse("x y"))
    assert h.scalar_value(g.inverse()) == -h.scalar_value(g)


def test_brooks_defect_within_certificate():
    h = brooks(F2, F2.parse("x y"))
    ball = [F2.word(ls) for ls in _ball_letters(3)]
    est = defect(h, ball)
    assert est.leq_exact(h.certified_defect.value)
    assert est.pairs_checked == len(ball) ** 2


def _ball_letters(radius):
    out = [()]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for tup in frontier:
            for c in (1, -1, 2, -2):
                if tup and tup[-1] == -c:
                    continue
                nxt.append(tup + (c,))
        out.extend(nxt)
        frontier = nxt
    return out


def test_homogenized_brooks_values():
    psi = brooks_homogenized(F2, F2.parse("x y"))
    assert psi.homogeneous and psi.antisymmetric
    assert psi.certified_defect.value == 6
    assert psi.certified_defect.provenance == "derived"
    xy = F2.parse("x y")
    assert psi.scalar_value(xy) == 1
    assert psi.scalar_value(xy**5) == 5
    assert psi.scalar_value(xy**-1) == -1
    # conjugation invariance through cyclic reduction
    assert psi.scalar_value(F2.parse("y x")) == 1
    assert psi.scalar_value(F2.parse("x")) == 0
    assert psi.scalar_value(F2.identity()) == 0


@given(words(6), st.integers(min_value=1, max_value=4))
def test_homogenized_value_is_power_stable(g, n):
    psi = brooks_homogenized(F2, F2.parse("x y"))
    assert psi.scalar_value(g**n) == n * psi.scalar_value(g)


def test_numeric_homogenization_brackets_exact_psi():
    h = brooks(F2, F2.parse("x y"))
    psi = brooks_homogenized(F2, F2.parse("x y"))
    for text in ("x y", "x y x", "x^2 y", "y x^-1"):
        g = F2.parse(text)
        for n in (5, 30):
            # h(g^n)/n is within D/n of the homogenization, D = 3
            val = h.scalar_value(g**n) / n
            assert abs(psi.scalar_value(g) - val) <= Fraction(3, n)


def test_step_quasimorphism_and_antisymmetrization():
    q = step_quasimorphism(REL_X)
    assert q.scalar_value(F2.parse("x^4")) == 1
    assert q.scalar_value(F2.identity()) == 1
    assert q.scalar_value(F2.parse("x^-2")) == 0
    assert not q.antisymmetric
    assert q.certified_defect.value == 1
    assert q.certified_defect.provenance == "combinatorial-certificate"
    with pytest.raises(DomainError):
        q(F2.parse("y"))

    alpha = antisymmetrize(q)
    assert alpha.antisymmetric
    assert alpha.certified_defect.value == 1
    assert alpha.certified_defect.provenance == "derived"
    assert alpha.scalar_value(F2.parse("x^3")) == Fraction(1, 2)
    assert alpha.scalar_value(F2.identity()) == 0
    assert alpha.scalar_value(F2.parse("x^-3")) == Fraction(-1, 2)


def test_step_defect_scan_hits_certificate_exactly():
    q = step_quasimorphism(REL_X)
    elems = [F2.parse("x") ** k for k in range(-3, 4)]
    est = defect(q, elems)
    assert est.exact_pth_power_max == 1
    assert est.leq_exact(1)
    assert not est.leq_exact(Fraction(99, 100))


def test_cyclic_homomorphism_rel_and_fp():
    hom = cyclic_homomorphism(REL_X, slope=Fraction(3, 2))
    assert hom.scalar_value(F2.parse("x^4")) == 6
    assert hom.exact_cocycle and hom.homogeneous and hom.antisymmetric
    assert hom.certified_defect.value == 0
    assert hom.certified_defect.provenance == "homomorphism-zero"
    with pytest.raises(DomainError):
        hom(F2.parse("x y"))

    A, B = FreeGroup(["a"]), FreeGroup(["b"])
    spec = FreeProductPairSpec(FreeProduct([A, B]), ["A", "B"])
    fhom = cyclic_homomorphism(spec, "A", slope=2)
    assert fhom.scalar_value(spec.group.syllable(0, A.parse("a^-3"))) == -6
    with pytest.raises(DomainError):
        cyclic_homomorphism(spec)


def test_tree_edge_cocycle_values_and_norm():
    q = tree_edge_cocycle(F2)
    v = q(F2.parse("x y"))
    want = delta(q.module, (F2.identity(), "e:x")) + delta(
        q.module, (F2.parse("x"), "e:y")
    )
    assert v == want
    assert v.norm_pth_power() == 2
    assert q(F2.parse("x^-1")) == delta(q.module, (F2.parse("x^-1"), "e:x"), -1)
    assert q.exact_cocycle
    assert q.certified_defect.value == 0


@given(words(5), words(5))
def test_tree_edge_cocycle_identity_is_exact(f, g):
    q = tree_edge_cocycle(F2)
    assert coboundary1(q)(f, g).is_zero()


@given(words(4), words(4), words(4))
def test_d2_after_d1_vanishes(f, g, h):
    for q in (brooks(F2, F2.parse("x y")), tree_edge_cocycle(F2)):
        assert coboundary2(coboundary1(q))(f, g, h).is_zero()


def test_embed_on_factor():
    A, B = FreeGroup(["x", "y"]), FreeGroup(["t"])
    spec = FreeProductPairSpec(FreeProduct([A, B]), ["A", "B"])
    h = brooks(A, A.parse("x y"))
    amb = embed_on_factor(spec, "A", h)
    assert amb.group is spec.group
    assert amb.antisymmetric == h.antisymmetric
    assert amb.certified_defect.value == 3
    g = spec.group.syllable(0, A.parse("x y x y"))
    assert amb.scalar_value(g) == 2
    assert amb.scalar_value(spec.group.identity()) == 0
    with pytest.raises(DomainError):
        amb(spec.group.syllable(1, B.parse("t")))
    with pytest.raises(DomainError):
        embed_on_factor(spec, "A", tree_edge_cocycle(A))


def test_tree_edge_cocycle_on_free_product_factor():
    A, B = FreeGroup(["x", "y"]), FreeGroup(["t"])
    spec = FreeProductPairSpec(FreeProduct([A, B]), ["A", "B"])
    q = tree_edge_cocycle(spec, "A")
    g = spec.group.syllable(0, A.parse("x y"))
    v = q(g)
    assert v.norm_pth_power() == 2
    keys = set(v.coeffs)
    assert (spec.group.identity(), "e:x") in keys
    assert (spec.group.syllable(0, A.parse("x")), "e:y") in keys
    # ambient action relocates the index set
    t = spec.group.syllable(1, B.parse("t"))
    moved = v.act(t)
    assert (t, "e:x") in set(moved.coeffs)


def test_certified_bound_validation():
    with pytest.raises(CertificateError):
        CertifiedBound(-1, "derived")
    with pytest.raises(CertificateError):
        CertifiedBound(1, "word-of-mouth")
    b = CertifiedBound(Fraction(1, 2), "user-supplied", "given")
    assert b.to_json()["value"] == "1/2"
    # one vocabulary: a CertifiedBound names one of the six sources, never
    # one of the four report claims, and claims an upper bound
    assert len(set(PROVENANCES)) == len(PROVENANCES) == 10
    assert len(CERTIFICATE_SOURCES) == 6 and set(CERTIFICATE_SOURCES) < set(PROVENANCES)
    for provenance in PROVENANCES:
        if provenance in CERTIFICATE_SOURCES:
            assert CertifiedBound(2, provenance).to_json() == tag(2, provenance, note="")
        else:
            with pytest.raises(CertificateError):
                CertifiedBound(2, provenance)
    b = CertifiedBound(Fraction(3, 2), "derived", "why")
    assert b.to_json() == {"value": "3/2", "provenance": "derived", "note": "why"}
    assert b.claim(step="s") == {"value": "3/2", "provenance": "certified-upper-bound",
                                 "step": "s"}


def test_defect_estimate_exact_comparison():
    est = DefectEstimate(Fraction(2), 2, (), 1)
    assert est.leq_exact(Fraction(3, 2))
    assert not est.leq_exact(Fraction(7, 5))


def test_combinators_accumulate_certificates():
    q = step_quasimorphism(REL_X)
    s = q + q
    assert s.certified_defect.value == 2
    assert s.certified_defect.provenance == "derived"
    assert s.scalar_value(F2.parse("x")) == 2
    tripled = q.scale(-3)
    assert tripled.certified_defect.value == 3
    assert tripled.scalar_value(F2.parse("x")) == -3


# -- the defect kernel against a per-pair reference ---------------------------


def _reference_scan(q, elements):
    """The scan pair by pair through coboundary1: (max, first witness, pairs)."""
    d1 = coboundary1(q)
    best, witness, count = Fraction(0), (), 0
    for f in elements:
        for g in elements:
            w = d1(f, g).norm_pth_power()
            count += 1
            if w > best:
                best, witness = w, (f, g)
    return best, witness, count


def _assert_matches_reference(q, elements):
    est = defect(q, iter(elements))
    best, witness, count = _reference_scan(q, elements)
    assert est.exact_pth_power_max == best
    assert est.witness == witness
    assert est.pairs_checked == count
    assert est.p == q.module.p
    return est


def test_defect_kernel_matches_reference_on_relx_half_sign_extension():
    ext = extend(REL_X, {"C": half_sign(REL_X)})
    ball = list(free_ball_words(F2, 2))
    elements = ball + [ball[3], ball[0], ball[5], ball[3]]
    est = _assert_matches_reference(ext.iota, elements)
    assert est.pairs_checked == 21 * 21
    assert est.exact_pth_power_max > 0
    assert est.leq_exact(ext.certificate.value)


def test_defect_kernel_matches_reference_over_mixed_denominators():
    # values 3k/2 + sign(k)/6 on x^k: denominators 1, 3 and 6
    q = cyclic_homomorphism(REL_X, slope=Fraction(3, 2)) + half_sign(REL_X).scale(
        Fraction(1, 3))
    x = F2.parse("x")
    elements = [x**k for k in (0, 1, -1, 2, -3, 5, -4, 1, 3)]
    est = _assert_matches_reference(q, elements)
    assert est.exact_pth_power_max == Fraction(1, 6)
    assert est.witness == (x, x)

    # values k/4 + [k >= 0]/6: denominators 2, 3, 4 and 6 but never 12, so
    # the common denominator is larger than every single one
    q = cyclic_homomorphism(REL_X, slope=Fraction(1, 4)) + step_quasimorphism(
        REL_X).scale(Fraction(1, 6))
    elements = [x**k for k in (0, 2, -3, -5, 2)]
    est = _assert_matches_reference(q, elements)
    assert est.exact_pth_power_max == Fraction(1, 6)


def test_defect_kernel_matches_reference_on_indexed_lp():
    tree = tree_edge_cocycle(F2)
    ball = list(free_ball_words(F2, 2))
    est = _assert_matches_reference(tree, ball + [ball[1]])
    assert est.exact_pth_power_max == 0 and est.witness == ()

    # one bump 2*delta_(1, e:x) at x: the pair (x, x) sees it twice, disjointly
    x = F2.parse("x")
    bump = delta(tree.module, (F2.identity(), "e:x"), 2)
    bumped = QuasiCocycle("bumped", F2, tree.module,
                          lambda g: tree(g) + bump if g == x else tree(g))
    est = _assert_matches_reference(bumped, ball + [x])
    assert est.exact_pth_power_max == 8
    assert est.witness == (x, x)


def test_defect_kernel_on_an_empty_list():
    for q in (step_quasimorphism(REL_X), tree_edge_cocycle(F2)):
        est = _assert_matches_reference(q, [])
        assert est.exact_pth_power_max == 0
        assert est.witness == ()
        assert est.pairs_checked == 0


# -- the normal-form scan, cold and warm ----------------------------------------


def _fp_brooks():
    fp = FreeProductPairSpec(FreeProduct([F2, FreeGroup(["t"])]), ["A", "B"])
    inputs = {"A": embed_on_factor(fp, "A", brooks(F2, F2.parse("x y"))),
              "B": cyclic_homomorphism(fp, "B")}
    return fp, extend(fp, inputs)


def _z2_times_t():
    z2 = FiniteTableGroup(["1", "s"], [[0, 1], [1, 0]])
    spec = FreeProductPairSpec(FreeProduct([z2, FreeGroup(["t"])]), ["A", "B"])
    return spec, extend(spec, {"B": cyclic_homomorphism(spec, "B")})


def _relx_half_sign():
    return REL_X, extend(REL_X, {"C": half_sign(REL_X)})


def _fp_tree_edges():
    fp = FreeProductPairSpec(FreeProduct([F2, FreeGroup(["t"])]), ["A", "B"])
    return fp, extend(fp, {"A": tree_edge_cocycle(fp, "A")})


@pytest.mark.parametrize("build, radius, top", [
    (_fp_brooks, 2, 1),
    (_relx_half_sign, 2, Fraction(1, 2)),
    (_z2_times_t, 3, 0),
    (_fp_tree_edges, 2, 0),
], ids=["fp-brooks", "relx-half-sign", "z2-times-t", "tree-edges"])
def test_normal_form_scan_matches_reference_cold_and_warm(build, radius, top):
    spec, ext = build()
    ball = ball_domain(spec, radius)
    cold = defect(ext.iota, ball)  # fresh extension: every product is a miss
    best, witness, count = _reference_scan(ext.iota, ball)  # evaluates every product
    warm = defect(ext.iota, ball)
    for est in (cold, warm):
        assert est.exact_pth_power_max == best == top
        assert est.witness == witness
        assert est.pairs_checked == count == len(ball) ** 2
        assert est.p == ext.iota.module.p


def test_normal_form_scan_on_a_bumped_l2_extension():
    # the l^2 branch with a nonzero maximum: one bump at t
    spec, ext = _fp_tree_edges()
    t = spec.parse("t")
    bump = delta(ext.iota.module, (spec.identity(), "e:x"), 3)
    bumped = QuasiCocycle("bumped", spec.group, ext.iota.module,
                          lambda g: ext.iota(g) + bump if g == t else ext.iota(g))
    ball = ball_domain(spec, 2)
    cold = defect(bumped, ball)
    warm = _assert_matches_reference(bumped, ball)
    assert (cold.exact_pth_power_max, cold.witness) == (warm.exact_pth_power_max, warm.witness)
    # (t, t) sees the bump twice, disjointly: 3^2 + 3^2
    assert warm.exact_pth_power_max == 18 and warm.witness == (t, t)


def test_cold_scan_meets_a_new_denominator():
    # the elements' values are integers, their length-2 products' are 1/2,
    # so the common denominator read from the memo does not cover them
    q = QuasiCocycle("quarter-length", F2, TrivialReals(),
                     lambda g: real_value(Fraction(len(g), 4) if len(g) > 1 else 0,
                                          TrivialReals()))
    ball = list(free_ball_words(F2, 1))
    cold = defect(q, ball)
    warm = _assert_matches_reference(q, ball)
    assert cold == warm
    assert warm.exact_pth_power_max == Fraction(1, 2)
    assert type(warm.exact_pth_power_max) is Fraction


def test_defect_rejects_elements_of_two_groups():
    q = step_quasimorphism(REL_X)
    fab = FreeGroup(["a", "b"])
    with pytest.raises(MixedContextError):
        defect(q, [F2.parse("x"), fab.parse("a")])
    fp, ext = _fp_brooks()
    with pytest.raises(MixedContextError):
        defect(ext.iota, [fp.parse("t"), F2.parse("x")])


def test_calls_and_scans_refuse_an_unequal_group_and_keep_the_memo():
    # F(a,b) spells its words with the codes of F(x,y)'s, so a shared key
    # would hand them F(x,y)'s values: every kind of cocycle refuses them, in
    # a call and in a scan, before it reads or writes its memo
    fab = FreeGroup(["a", "b"])
    fp, ext = _fp_brooks()
    fp_ab = FreeProduct([fab, FreeGroup(["s"])])
    counting = brooks(F2, F2.parse("x y"))
    cases = [
        (counting, "x y", fab),
        (brooks_homogenized(F2, F2.parse("x y")), "x y", fab),
        (antisymmetrize(counting) + counting.scale(2), "x y", fab),
        (tree_edge_cocycle(F2), "x y", fab),
        (step_quasimorphism(REL_X), "x^2", fab),
        (half_sign(REL_X), "x^2", fab),
        (cyclic_homomorphism(REL_X), "x^2", fab),
        (embed_on_factor(fp, "A", brooks(F2, F2.parse("x y"))), "x y", fp_ab),
        (ext.iota, "x y t", fp_ab),
    ]
    for q, text, foreign in cases:
        own = q.group.parse(text)
        q(own)
        memo = dict(q._memo)
        other = foreign.parse(text.replace("x", "a").replace("y", "b").replace("t", "s"))
        assert foreign.unwrap(other) == q.group.unwrap(own)
        for scan in ([other], [own**2, other], [other, own**2]):
            with pytest.raises(MixedContextError):
                defect(q, scan)
        with pytest.raises(MixedContextError):
            q(other)
        assert q._memo == memo, q
    # a plain cocycle shares its memo with an equal but distinct group
    calls = _count_calls(counting)
    twin = FreeGroup(["x", "y"])
    assert twin == F2 and twin is not F2
    assert counting(twin.parse("x y")) is counting(F2.parse("x y")) and calls == []
    twin_ball, ball = list(free_ball_words(twin, 2)), list(free_ball_words(F2, 2))
    assert defect(counting, twin_ball) == _assert_matches_reference(counting, ball)


def _count_calls(q) -> list:
    """Wrap q's function; the returned list grows by one per call."""
    calls, fn = [], q._fn

    def counted(g):
        calls.append(g)
        return fn(g)

    q._fn = counted
    return calls


def test_warm_scan_calls_the_function_zero_times():
    spec, ext = _fp_brooks()
    ball = ball_domain(spec, 2)
    _reference_scan(ext.iota, ball)
    calls = _count_calls(ext.iota)
    assert defect(ext.iota, ball).exact_pth_power_max == 1
    assert calls == []
    # a cold scan evaluates, each element at most once
    spec, ext = _fp_brooks()
    calls = _count_calls(ext.iota)
    defect(ext.iota, ball_domain(spec, 2))
    assert len(calls) == len(set(calls)) > 0


def test_cold_scan_evaluates_each_missing_product_once_in_row_major_order():
    spec, ext = _fp_brooks()
    ball = ball_domain(spec, 2)
    calls = _count_calls(ext.iota)
    defect(ext.iota, ball)
    G = spec.group
    calls = [G.unwrap(g) for g in calls]  # iota's function takes elements
    raws = [G.unwrap(e) for e in ball]
    order = raws + [G.raw_mul(a, b) for a in raws for b in raws]
    first: dict = {}
    for k, r in enumerate(order):
        first.setdefault(r, k)
    positions = [first[r] for r in calls]
    assert len(calls) == len(set(calls)) > len(ball)
    assert positions == sorted(positions)
    assert all(r in ext.iota._memo for r in order)


@pytest.mark.parametrize("build", [_fp_brooks, _z2_times_t], ids=["fp-brooks", "z2-times-t"])
def test_scan_over_the_defect_commands_elements_cold_and_warm(build):
    # the `defect` command's shape: a ball, then random words, which repeat
    # elements and hold the identity; here both are forced as well
    spec, ext = build()
    rng = seeded_rng(3, "test:defect")
    elements = ball_domain(spec, 2) + [spec.random_element(rng, 4) for _ in range(30)]
    elements += [spec.identity(), elements[4], elements[-1], elements[0], spec.identity()]
    assert len(set(elements)) < len(elements)
    cold = defect(ext.iota, elements)
    warm = _assert_matches_reference(ext.iota, elements)
    assert cold == warm


def test_warm_scan_calls_raw_mul_only_where_facing_syllables_cancel(monkeypatch):
    spec, ext = _fp_brooks()
    ball = ball_domain(spec, 3)
    _reference_scan(ext.iota, ball)
    G = spec.group
    calls, raw_mul = [], FreeProduct.raw_mul

    def counted(self, a, b):
        calls.append((a, b))
        return raw_mul(self, a, b)

    monkeypatch.setattr(FreeProduct, "raw_mul", counted)
    assert defect(ext.iota, ball).exact_pth_power_max == 1
    cancelling = [(f.raw, g.raw) for f in ball for g in ball
                  if f.raw and g.raw and f.syllables[-1][0] == g.syllables[0][0]
                  and (f.syllables[-1][1] * g.syllables[0][1]).is_identity()]
    assert calls == cancelling
    assert 0 < len(calls) < len(ball) ** 2 // 10
