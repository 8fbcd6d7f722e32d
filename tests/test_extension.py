from __future__ import annotations

from fractions import Fraction

import pytest

import qcext.extension as extension_module
import qcext.geodesics as geodesics_module
from qcext import (
    FreeGroup,
    FreeProduct,
    FreeProductPairSpec,
    FreeRelCyclicSpec,
    IndexedLp,
    QuasiCocycle,
    SearchBudget,
    TrivialReals,
    asnec_demo,
    averaged_value,
    brooks,
    combed_value,
    cyclic_homomorphism,
    defect,
    elementary_bicombing,
    embed_on_factor,
    extend,
    extend_general,
    k_constant,
    restriction_check,
    root_upper,
    separation_report,
    step_quasimorphism,
    tree_edge_cocycle,
)
from qcext.coeffs import real_value, sum_vectors, zero
from qcext.embedding import spec_from_json
from qcext.errors import CertificateError, DomainError, MixedContextError
from qcext.geodesics import ball_domain
from qcext.qc import CertifiedBound, half_sign

F2 = FreeGroup(["x", "y"])
REL_X = FreeRelCyclicSpec(F2, F2.parse("x"))


def fp_spec():
    A, B = FreeGroup(["a"]), FreeGroup(["b"])
    return FreeProductPairSpec(FreeProduct([A, B]), ["A", "B"])


def test_root_upper_is_certified():
    r = root_upper(Fraction(2), 2)
    assert r**2 >= 2
    assert (r - Fraction(2, 10**9)) ** 2 < 2
    assert root_upper(Fraction(5, 7), 1) == Fraction(5, 7)
    assert root_upper(Fraction(0), 3) == 0
    with pytest.raises(DomainError):
        root_upper(Fraction(-1), 2)


def test_elementary_bicombing_values():
    spec = fp_spec()
    G = spec.group
    q = cyclic_homomorphism(spec, "A")
    r = elementary_bicombing(spec, "A", q)
    assert r(G.parse("a"), G.parse("a^4")).scalar() == 3
    assert r(G.parse("a^4"), G.parse("a")).scalar() == -3
    with pytest.raises(DomainError):
        r(G.identity(), G.parse("b"))


def test_averaged_and_combed_values():
    spec = fp_spec()
    G = spec.group
    qa = cyclic_homomorphism(spec, "A")
    qb = cyclic_homomorphism(spec, "B")
    one, g = G.identity(), G.parse("a b a^2")
    pair = (G.parse("a"), G.parse("a b"))
    assert averaged_value(qb, [pair], [G.parse("b")]).scalar() == 1
    with pytest.raises(DomainError):
        averaged_value(qb, [], [])
    # coset contributions along a b a^2: slopes 1 and 2 on the A side
    report = separation_report(spec, one, g)
    assert combed_value(qa, report["A"]).scalar() == 3
    assert combed_value(qb, report["B"]).scalar() == 1


def test_free_product_extension_values_and_certificate():
    spec = fp_spec()
    G = spec.group
    g = G.parse("a b a^2 b^-3")

    res = extend(spec, {
        "A": cyclic_homomorphism(spec, "A"),
        "B": cyclic_homomorphism(spec, "B"),
    })
    assert res.iota(g).scalar() == 1
    assert res.certificate.value == 0
    assert res.certificate.provenance == "extension-certificate"
    assert res.iota.exact_cocycle
    assert res.iota.antisymmetric
    assert not res.conditional
    for lam in ("A", "B"):
        info = res.per_lambda[lam]
        assert info["K"] == 0 and not info["K_conditional"]

    res2 = extend(spec, {
        "A": cyclic_homomorphism(spec, "A"),
        "B": cyclic_homomorphism(spec, "B", slope=2),
    })
    assert res2.iota(g).scalar() == -1


def test_extension_restriction_and_antisymmetry():
    spec = fp_spec()
    res = extend(spec, {
        "A": cyclic_homomorphism(spec, "A"),
        "B": cyclic_homomorphism(spec, "B"),
    })
    for lam in ("A", "B"):
        rep = restriction_check(res, lam, samples=15)
        assert rep["ok"] and rep["checked"] > 0
    g = spec.group.parse("a b a^-1 b^2")
    assert (res.iota(g.inverse()) + res.iota(g)).is_zero()


def test_rel_extension_frozen_values():
    res = extend(REL_X, {"C": cyclic_homomorphism(REL_X)})
    assert res.iota(F2.parse("y x^3 y x^2")).scalar() == 5
    assert res.iota(F2.parse("x^7")).scalar() == 7
    assert res.iota(F2.parse("y")).scalar() == 0
    # a basis w with 3C < 1 telescopes too; exactness is only claimed on free products
    assert not res.iota.exact_cocycle
    ball = [F2.word(ls) for ls in _letters(2)]
    est = defect(res.iota, ball)
    assert est.leq_exact(res.certificate.value)


def _letters(radius):
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


def test_k_constant_rel_ball():
    q = cyclic_homomorphism(REL_X)
    k0, cond0 = k_constant(REL_X, "C", q, Fraction(0))
    assert k0 == 0 and not cond0
    # C = 1: the strict 15-ball is {x^n : |n| <= 14}, so the slope-1
    # homomorphism peaks at 14
    k1, cond1 = k_constant(REL_X, "C", q, Fraction(1))
    assert k1 == 14 and not cond1
    k3, _ = k_constant(REL_X, "C", q, Fraction(1, 3))
    assert k3 == 4


def test_k_constant_empty_ball_runs_no_search(monkeypatch):
    # At C = 0 the strict relative 15C-ball is empty for every family, so
    # K = 0 exactly, even where the relative metric needs a capped search.
    spec = FreeRelCyclicSpec(
        F2, F2.parse("x y"), c_value=0,
        budget=SearchBudget(max_vertices=20_000, max_power=6),
    )
    calls = []
    search = FreeRelCyclicSpec._rel_bfs

    def counted(self, target, budget):
        calls.append(target)
        return search(self, target, budget)

    monkeypatch.setattr(FreeRelCyclicSpec, "_rel_bfs", counted)
    assert k_constant(spec, "C", cyclic_homomorphism(spec), Fraction(0)) == (0, False)
    assert calls == []


def test_antisymmetry_gate():
    step = step_quasimorphism(REL_X)
    with pytest.raises(CertificateError):
        extend(REL_X, {"C": step})
    # a false declaration is caught by the exact spot-check
    liar = QuasiCocycle(
        "liar", REL_X.group, step.module, step._fn, antisymmetric=True,
        certified_defect=step.certified_defect,
    )
    with pytest.raises(CertificateError):
        extend(REL_X, {"C": liar})


def test_extension_input_validation():
    spec = fp_spec()
    qa = cyclic_homomorphism(spec, "A")
    with pytest.raises(DomainError):
        extend(spec, {})
    with pytest.raises(DomainError):
        extend(spec, {"Z": qa})
    with pytest.raises(MixedContextError):
        extend(spec, {"A": qa, "B": tree_edge_cocycle(spec, "B")})
    bare = QuasiCocycle("bare", spec.group, qa.module, qa._fn, antisymmetric=True)
    with pytest.raises(CertificateError):
        extend(spec, {"A": bare, "B": cyclic_homomorphism(spec, "B")})


def test_extend_general_symmetrizes():
    res = extend_general(REL_X, {"C": step_quasimorphism(REL_X)})
    assert res.iota(F2.parse("x^3")).scalar() == Fraction(1, 2)
    assert res.iota(F2.parse("x^-3")).scalar() == Fraction(-1, 2)
    assert res.certificate.value == 66  # 66 * carried defect bound 1


def test_brooks_input_on_free_factor():
    A, B = FreeGroup(["x", "y"]), FreeGroup(["t"])
    spec = FreeProductPairSpec(FreeProduct([A, B]), ["A", "B"])
    psi = embed_on_factor(spec, "A", brooks(A, A.parse("x y")))
    res = extend(spec, {"A": psi, "B": cyclic_homomorphism(spec, "B")})
    g = spec.group.syllable(0, A.parse("x y x y")) * spec.group.syllable(1, B.parse("t^2"))
    assert res.iota(g).scalar() == 4
    assert res.certificate.value == 66 * 3


def test_asnec_demo_rows_and_rerun():
    out = asnec_demo(n=1, k_max=5)
    for row in out["rows"]:
        assert row["antisymmetry_violation"] == str(row["k"])
    assert out["violation_grows"] or out["max_violation"] == "5"
    sym = out["symmetrized"]
    assert sym["certificate"]["value"] == "33"
    assert sym["defect_within_certificate"]


def test_averaged_value_of_one_pair_is_its_bicombing():
    q = cyclic_homomorphism(REL_X)
    assert isinstance(q.module, TrivialReals)
    r = elementary_bicombing(REL_X, "C", q)
    u, v = F2.parse("y x^-2"), F2.parse("y x^3")
    assert averaged_value(q, [(u, v)], [F2.parse("x^5")]) == r(u, v)
    spec = fp_spec()
    G = spec.group
    tree = tree_edge_cocycle(spec, "A")
    r = elementary_bicombing(spec, "A", tree)
    u, v = G.parse("b a"), G.parse("b a^3")
    assert isinstance(tree.module, IndexedLp)
    h = G.parse("a^2")
    assert averaged_value(tree, [(u, v)], [h]) == r(u, v)
    assert averaged_value(tree, [(u, v), (u, v)], [h, h]) == r(u, v)


def test_long_basis_word_evaluates_unconditionally():
    res = extend(REL_X, {"C": half_sign(REL_X)})
    assert res.iota(F2.parse("x y") ** 15).scalar() == Fraction(15, 2)
    assert not res.conditional
    assert res.conditional_reasons == []


def test_carried_steps_are_the_subgroup_elements_of_their_pairs():
    # Separation carries h = u^-1 v with each entrance/exit pair, and the
    # bicombing reads q(h) without recomputing or testing it; this sweep
    # is what checks the carried steps against the group and the subgroup.
    A, B = FreeGroup(["x", "y"]), FreeGroup(["t"])
    fp = FreeProductPairSpec(FreeProduct([A, B]), ["A", "B"])
    rel_xy = FreeRelCyclicSpec(
        F2, F2.parse("x y"), budget=SearchBudget(max_vertices=20_000, max_power=6)
    )
    cases = [
        (fp, 2, Fraction(0), {"A": embed_on_factor(fp, "A", brooks(A, A.parse("x y"))),
                              "B": cyclic_homomorphism(fp, "B")}),
        (REL_X, 3, Fraction(0), {"C": half_sign(REL_X)}),
        (rel_xy, 1, Fraction(4, 3), {"C": cyclic_homomorphism(rel_xy)}),
    ]
    for spec, radius, c, inputs in cases:
        ball = ball_domain(spec, radius)
        seen = 0
        for f in ball:
            for g in ball:
                report = separation_report(spec, f, g, c_value=c)
                for lam, q in inputs.items():
                    sep = report[lam]
                    r = elementary_bicombing(spec, lam, q)
                    assert len(sep.steps) == len(sep.entrance_exits)
                    for pairs, steps in zip(sep.entrance_exits, sep.steps):
                        assert len(steps) == len(pairs)
                        for (u, v), h in zip(pairs, steps):
                            assert u * h == v, (str(f), str(g), lam)
                            assert spec.in_subgroup(h, lam), (str(f), str(g), lam)
                        mean = sum_vectors(
                            [r(u, v) for u, v in pairs], q.module
                        ).scale(Fraction(1, len(pairs)))
                        assert averaged_value(q, pairs, steps) == mean
                        seen += len(pairs)
        assert seen > 0


# -- telescoped evaluation on closed-form routes ---------------------------------

last_block = geodesics_module.last_block


def _reference(spec, inputs, c, g):
    """iota(g) from one report of (1, g): the sum over the input labels of
    the combed value, with the band exclusions that report logs."""
    one = spec.identity()
    lams = tuple(sorted(inputs))
    module = inputs[lams[0]].module
    if g == one:
        return zero(module), []
    report = separation_report(spec, one, g, c_value=c, lams=lams)
    total = sum_vectors([combed_value(inputs[lam], report[lam]) for lam in lams], module)
    return total, [b for lam in lams for b in report[lam].band_excluded]


def _z2_z3_case():
    spec = spec_from_json({
        "family": "free_product",
        "factors": [{"kind": "cyclic", "order": 2, "sym": "a"},
                    {"kind": "cyclic", "order": 3, "sym": "b"}],
    })
    b = spec.parse("b")
    table = {spec.identity(): 0, b: 1, b * b: -1}
    # an antisymmetric bounded function on Z/3; its defect is |q(b^2) - 2q(b)| = 3
    q = QuasiCocycle(
        "sign[b]", spec.group, TrivialReals(),
        lambda g: real_value(table[g]), antisymmetric=True,
        certified_defect=CertifiedBound(3, "user-supplied"),
    )
    return spec, {"B": q}


def _telescoping_cases():
    A, B = FreeGroup(["x", "y"]), FreeGroup(["t"])
    fp = FreeProductPairSpec(FreeProduct([A, B]), ["A", "B"])
    brooks_hom = {"A": embed_on_factor(fp, "A", brooks(A, A.parse("x y"))),
                  "B": cyclic_homomorphism(fp, "B")}
    z_spec, z_inputs = _z2_z3_case()
    rel_inv = FreeRelCyclicSpec(F2, F2.parse("x^-1"))
    cases = [
        ("fp-brooks", fp, 3, Fraction(0), brooks_hom),
        ("z2*z3", z_spec, 4, Fraction(0), z_inputs),
        ("tree-edges", fp, 3, Fraction(0), {"A": tree_edge_cocycle(fp, "A")}),
    ]
    for name, spec in (("rel <x>", REL_X), ("rel <x^-1>", rel_inv)):
        for c in (Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(1)):
            cases.append((f"{name} C={c}", spec, 4, c, {"C": half_sign(spec)}))
    return cases


def test_fresh_iota_matches_report_reference():
    # Longest words first, so each fresh evaluation walks down its prefixes;
    # C = 1/3 and 1 on a basis w take the report path, where a telescoped
    # value would differ (the trivial clause breaks prefix-closure there).
    for name, spec, radius, c, inputs in _telescoping_cases():
        res = extend(spec, inputs, c_value=c)
        bands = []
        for g in reversed(ball_domain(spec, radius)):
            want, logged = _reference(spec, inputs, c, g)
            bands.extend(logged)
            assert res.iota(g) == want, (name, str(g))
        assert res.band_log == bands, name
        assert not res.conditional, name
        assert bool(bands) == (c >= Fraction(1, 3)), name


def test_telescoping_depends_only_on_family_and_c(monkeypatch):
    calls = []
    report = extension_module.separation_report

    def counted(*args, **kwargs):
        calls.append(args[2])
        return report(*args, **kwargs)

    monkeypatch.setattr(extension_module, "separation_report", counted)
    words = [F2.word(ls) for ls in _letters(2)]
    for c, separates in ((Fraction(0), False), (Fraction(1, 6), False),
                         (Fraction(1, 3), True), (Fraction(1), True)):
        calls.clear()
        res = extend(REL_X, {"C": half_sign(REL_X)}, c_value=c)
        for g in words:
            res.iota(g)
        assert bool(calls) == separates, c
    rel_xy = FreeRelCyclicSpec(
        F2, F2.parse("x y"), budget=SearchBudget(max_vertices=20_000, max_power=6)
    )
    calls.clear()
    res = extend(rel_xy, {"C": cyclic_homomorphism(rel_xy)}, c_value=Fraction(4, 3))
    res.iota(F2.parse("x y x"))
    assert calls == [F2.parse("x y x")]


def test_last_block_is_the_routes_last_step():
    for name, spec, radius, _, _ in _telescoping_cases():
        one = spec.identity()
        for g in ball_domain(spec, radius):
            if g == one:
                continue
            route = geodesics_module.geodesic_routes(spec, one, g).geodesics[0]
            raw = spec.group.unwrap(g)
            k, letter = last_block(spec, raw)
            p = spec.group.wrap(raw[:k])
            assert (p, letter) == (route.vertices()[-2], route.letters[-1]), (name, str(g))
            assert p * letter.elem == g
    rel_xy = FreeRelCyclicSpec(F2, F2.parse("x y"))
    for ls in _letters(2)[1:]:
        with pytest.raises(DomainError):
            last_block(rel_xy, F2.word(ls).codes)


def test_long_word_telescopes_without_recursion():
    g = F2.parse("x y") ** 2500  # 5,000 blocks
    res = extend(REL_X, {"C": half_sign(REL_X)})
    got = res.iota(g)
    assert got.scalar() == 1250
    del res  # the memo holds every prefix
    assert got == _reference(REL_X, {"C": half_sign(REL_X)}, Fraction(0), g)[0]


def test_foreign_elements_raise_mixed_context():
    other = FreeGroup(["x", "y", "z"])
    res = extend(REL_X, {"C": half_sign(REL_X)})
    for g in (other.parse("x"), other.identity(), other.parse("y x^2")):
        with pytest.raises(MixedContextError):
            res.iota(g)
    spec = fp_spec()
    res = extend(spec, {lam: cyclic_homomorphism(spec, lam) for lam in ("A", "B")})
    foreign = FreeProduct([FreeGroup(["a"]), FreeGroup(["c"])])
    with pytest.raises(MixedContextError):
        res.iota(foreign.parse("a c"))


def test_equal_groups_share_memo_entries_unequal_groups_raise():
    # rebuilt groups equal to the spec's share its normal-form memo; groups
    # with the same normal forms but other symbols are refused
    _, fp, _, _, brooks_hom = _telescoping_cases()[0]
    cases = [
        (REL_X, {"C": half_sign(REL_X)}, FreeGroup(["x", "y"]), FreeGroup(["a", "b"]),
         "x y^2 x^-1 y", "a b^2 a^-1 b"),
        (fp, brooks_hom, FreeProduct([FreeGroup(["x", "y"]), FreeGroup(["t"])]),
         FreeProduct([FreeGroup(["a", "b"]), FreeGroup(["s"])]), "x y t^2 x", "a b s^2 a"),
    ]
    for spec, inputs, twin, foreign, text, foreign_text in cases:
        res = extend(spec, inputs)
        g = spec.parse(text)
        want = res.iota(g)
        calls, fn = [], res.iota._fn
        res.iota._fn = lambda raw: calls.append(raw) or fn(raw)
        same = twin.parse(text)
        assert twin == spec.group and twin is not spec.group
        assert res.iota(same) is want and res(same) is want
        assert calls == []
        other = foreign.parse(foreign_text)
        assert foreign.unwrap(other) == spec.group.unwrap(g)
        with pytest.raises(MixedContextError):
            res.iota(other)
        assert calls == []


def test_fresh_word_walks_its_route_once(monkeypatch):
    calls = []

    def counted(spec, raw):
        calls.append(raw)
        return last_block(spec, raw)

    monkeypatch.setattr(extension_module, "last_block", counted)
    res = extend(REL_X, {"C": half_sign(REL_X)})
    g = F2.parse("x y") ** 50  # 100 blocks
    assert not res.iota._memo
    assert res.iota(g).scalar() == 25
    assert len(calls) == 100
    # the memo is keyed by normal form: one key per block, g's codes and
    # each of their nonempty prefixes
    assert set(res.iota._memo) == {g.codes[:k] for k in range(1, 101)}
    # every prefix is memoized, so a one-block extension reads one block
    calls.clear()
    res.iota(g * F2.parse("x"))
    assert len(calls) == 1


class _ProbeCountingMemo(dict):
    """A memo that counts the probes of one key."""

    def __init__(self, watched, items):
        super().__init__(items)
        self.watched, self.probes = watched, 0

    def _seen(self, key):
        self.probes += key == self.watched

    def get(self, key, default=None):
        self._seen(key)
        return super().get(key, default)

    def __contains__(self, key):
        self._seen(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self._seen(key)
        return super().__getitem__(key)


def test_one_block_extension_probes_its_parent_once():
    _, fp, _, _, brooks_hom = _telescoping_cases()[0]
    cases = [(REL_X, {"C": half_sign(REL_X)}, F2.parse("x y") ** 5, F2.parse("x")),
             (fp, brooks_hom, fp.parse("x t") ** 5, fp.parse("y"))]
    for spec, inputs, g, tail in cases:
        res = extend(spec, inputs)
        want = res.iota(g) + inputs[spec.lambdas()[0]](tail).act(g)
        memo = _ProbeCountingMemo(spec.group.unwrap(g), res.iota._memo)
        res.iota._memo = memo
        assert res.iota(g * tail) == want
        assert memo.probes == 1, spec


def test_last_block_builds_each_syllable_letter_once():
    _, fp, _, _, _ = _telescoping_cases()[0]
    twin = FreeProductPairSpec(FreeProduct(list(fp.group.factors)), ["A", "B"])
    g, h = fp.parse("x t^2"), fp.parse("y^-1 x t^2")
    _, letter = last_block(fp, g.raw)
    _, again = last_block(fp, h.raw)
    assert again is letter and again.elem is letter.elem
    path = geodesics_module.geodesic_routes(fp, fp.identity(), g).geodesics[0]
    assert path.letters[-1] is letter
    # the letters belong to the spec: an equal spec over an equal group builds its own
    assert twin.group == fp.group and twin.group is not fp.group
    _, own = last_block(twin, g.raw)
    assert own == letter and own is not letter


def test_evaluation_notes_are_live():
    rel_xy = FreeRelCyclicSpec(
        F2, F2.parse("x y"), budget=SearchBudget(max_vertices=20_000, max_power=6)
    )
    res = extend(rel_xy, {"C": cyclic_homomorphism(rel_xy)}, c_value=Fraction(4, 3))
    res.iota(F2.parse("x y x"))
    assert "geodesic enumeration for x y x not exhaustive" in res.conditional_reasons
    assert len(res.band_log) == 1
    assert res.conditional


def test_long_tree_edge_word_matches_report_reference():
    A, B = FreeGroup(["x", "y"]), FreeGroup(["t"])
    fp = FreeProductPairSpec(FreeProduct([A, B]), ["A", "B"])
    inputs = {"A": tree_edge_cocycle(fp, "A")}
    g = fp.parse("x t") ** 100  # 200 syllables
    res = extend(fp, inputs)
    assert res.iota(g) == _reference(fp, inputs, Fraction(0), g)[0]
