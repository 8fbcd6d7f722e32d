"""End-to-end acceptance checks, one test per headline guarantee.

Each test prints a single PASS/FAIL line (visible with -v through the test
name, and in captured output) and pins its tolerances explicitly: every
comparison is exact rational unless marked FLOAT_TOL.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import cache

from qcext.coeffs import zero
from qcext.embedding import FreeProductPairSpec, FreeRelCyclicSpec
from qcext.extension import asnec_demo, extend, restriction_check
from qcext.geodesics import distance, distance_map, free_ball_words
from qcext.groups import FreeGroup, FreeProduct, commutator
from qcext.qc import (
    antisymmetrize,
    brooks,
    brooks_homogenized,
    coboundary1,
    cyclic_homomorphism,
    defect,
    embed_on_factor,
    half_sign,
    step_quasimorphism,
    tree_edge_cocycle,
)
from qcext.scl import cl_upper, free_dist_experiment, scl_upper, undistortion_pipeline
from qcext.suite import EXTENSION_CHECKS, SEP_CHECKS, ball_domain, run_full_suite

from independent_oracles import coboundary2, string_sweep, to_code

FLOAT_TOL = 1e-9

F2 = FreeGroup(["x", "y"])


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def zz_spec():
    return FreeProductPairSpec(
        FreeProduct([FreeGroup(["a"]), FreeGroup(["b"])]), ["A", "B"]
    )


def big_spec():
    return FreeProductPairSpec(FreeProduct([F2, FreeGroup(["t"])]), ["A", "B"])


def relx_spec():
    return FreeRelCyclicSpec(F2, F2.parse("x"))


def alternating_elements(spec, pools, depth):
    """All normal forms with <= depth syllables drawn from per-factor pools."""
    out = [spec.identity()]

    def rec(g, last, d):
        if d == depth:
            return
        for idx, pool in enumerate(pools):
            if idx == last:
                continue
            for w in pool:
                ng = g * spec.group.syllable(idx, w)
                out.append(ng)
                rec(ng, idx, d + 1)

    rec(spec.identity(), -1, 0)
    return out


def telescoped(spec, cocycles_by_index, g):
    """Normal-form telescope: sum of prefix-translated per-syllable values.

    Factors without an input contribute nothing but still move the prefix."""
    module = next(iter(cocycles_by_index.values())).module
    total = zero(module)
    prefix = spec.identity()
    for idx, w in g.syllables:
        syl = spec.group.syllable(idx, w)
        if idx in cocycles_by_index:
            total = total + cocycles_by_index[idx](syl).act(prefix)
        prefix = prefix * syl
    return total


def test_a01_free_product_extension_matches_telescoping():
    t0 = time.monotonic()
    zz = zz_spec()
    a = zz.group.factors[0].gen("a")
    b = zz.group.factors[1].gen("b")
    ext = extend(
        zz,
        {
            "A": cyclic_homomorphism(zz, "A", slope=1),
            "B": cyclic_homomorphism(zz, "B", slope=2),
        },
    )
    # hand oracle: slope * exponent summed over syllables, no package calls
    slopes = {0: Fraction(1), 1: Fraction(2)}
    elems = alternating_elements(zz, [[a, a**2, a**-1], [b, b**2, b**-1]], 8)
    mismatches = 0
    for g in elems:
        want = sum(
            (slopes[idx] * w.letters.count(1) - slopes[idx] * w.letters.count(-1))
            for idx, w in g.syllables
        )
        if ext.iota(g).scalar() != want:
            mismatches += 1

    big = big_spec()
    qt = tree_edge_cocycle(big, "A")
    ext2 = extend(big, {"A": qt})
    x, y = F2.gen("x"), F2.gen("y")
    t = big.group.factors[1].gen("t")
    pools2 = [[x, y, x**-1], [t, t**2, t**-1]]
    elems2 = alternating_elements(big, pools2, 6)
    mismatches2 = 0
    for g in elems2:
        if ext2.iota(g) != telescoped(big, {0: qt}, g):
            mismatches2 += 1
    elapsed = time.monotonic() - t0
    verdict(
        "A01 free-product exactness",
        mismatches == 0 and mismatches2 == 0
        and len(elems) >= 10_000 and elapsed < 60,
        f"{len(elems)} + {len(elems2)} elements, "
        f"{mismatches + mismatches2} mismatches, {elapsed:.1f}s",
    )


def test_a02_restriction_identity_both_families():
    relx = relx_spec()
    q_rel = cyclic_homomorphism(relx, "C")
    ext_rel = extend(relx, {"C": q_rel})
    x = F2.gen("x")
    checked = 0
    ok = True
    for k in range(-20, 21):
        h = x**k
        ok = ok and ext_rel.iota(h) == q_rel(h)
        checked += 1
    ok = ok and restriction_check(ext_rel, "C", samples=60)["ok"]

    zz = zz_spec()
    qs = {
        "A": cyclic_homomorphism(zz, "A", slope=1),
        "B": cyclic_homomorphism(zz, "B", slope=2),
    }
    ext_zz = extend(zz, qs)
    for lam, idx in (("A", 0), ("B", 1)):
        fac = zz.group.factors[idx]
        gen = fac.gen(fac.gens[0])
        for k in range(-12, 13):
            if k == 0:
                continue
            h = zz.group.syllable(idx, gen**k)
            ok = ok and ext_zz.iota(h) == qs[lam](h)
            checked += 1
        ok = ok and restriction_check(ext_zz, lam, samples=40)["ok"]

    big = big_spec()
    qt = tree_edge_cocycle(big, "A")
    ext_big = extend(big, {"A": qt})
    for w in free_ball_words(F2, 4):
        if w.is_identity():
            continue
        h = big.group.syllable(0, w)
        ok = ok and ext_big.iota(h) == qt(h)
        checked += 1
    verdict("A02 restriction identity", ok, f"{checked} subgroup elements, exact")


def test_a03_defect_certificates_on_exhaustive_balls():
    relx = relx_spec()
    ext_rel = extend(relx, {"C": cyclic_homomorphism(relx, "C")})
    ball_rel = list(free_ball_words(F2, 3))
    est_rel = defect(ext_rel.iota, ball_rel)
    ok = (
        ext_rel.certificate.value == 0
        and est_rel.exact_pth_power_max == 0
        and est_rel.pairs_checked == 53 * 53
    )

    zz = zz_spec()
    ext_zz = extend(
        zz,
        {
            "A": cyclic_homomorphism(zz, "A", slope=1),
            "B": cyclic_homomorphism(zz, "B", slope=2),
        },
    )
    ball_zz = ball_domain(zz, 4)
    est_zz = defect(ext_zz.iota, ball_zz)
    ok = ok and len(ball_zz) == 161 and est_zz.exact_pth_power_max == 0

    big = big_spec()
    ext_big = extend(
        big,
        {
            "A": embed_on_factor(big, "A", brooks(F2, F2.parse("x y"))),
            "B": cyclic_homomorphism(big, "B"),
        },
    )
    ball_big = ball_domain(big, 3)
    est_big = defect(ext_big.iota, ball_big)
    cert = ext_big.certificate.value
    ok = ok and len(ball_big) == 187 and cert == 198
    ok = ok and est_big.exact_pth_power_max == 1
    ok = ok and est_big.leq_exact(cert)
    ok = ok and est_big.value <= float(cert) + FLOAT_TOL
    verdict(
        "A03 defect certificates",
        ok,
        f"rel ball-3 max 0/cert 0, Z*Z ball-4 max 0/cert 0, "
        f"brooks ball-3 max {est_big.exact_pth_power_max}/cert {cert}",
    )


@cache
def _acceptance_suites():
    relx = relx_spec()
    rel_out = run_full_suite(relx, {"C": half_sign(relx)}, samples=2500, radius=3)
    zz = zz_spec()
    zz_out = run_full_suite(
        zz,
        {
            "A": cyclic_homomorphism(zz, "A", slope=1),
            "B": cyclic_homomorphism(zz, "B", slope=2),
        },
        samples=2500,
        radius=3,
    )
    return rel_out, zz_out


def test_a04_separation_law_suite():
    rel_out, zz_out = _acceptance_suites()
    ok = True
    total = 0
    for out in (rel_out, zz_out):
        for name in SEP_CHECKS:
            c = out["checks"][name]
            ok = ok and not c["skipped"] and c["violations"] == 0
            ok = ok and c["instances"] >= 500
            total += c["instances"]
    # exhaustive radius-3 ball (53 elements, 2756 ordered pairs) plus samples
    ok = ok and rel_out["checks"]["separating-symmetry"]["instances"] == 2756 + 2500
    ok = ok and zz_out["checks"]["separating-symmetry"]["instances"] == 2 * (2756 + 2500)
    verdict("A04 separation laws", ok, f"{total} instances, 0 violations")


def test_a05_area_law_suite():
    rel_out, zz_out = _acceptance_suites()
    ok = True
    total = 0
    for out in (rel_out, zz_out):
        for name in EXTENSION_CHECKS:
            c = out["checks"][name]
            ok = ok and not c["skipped"] and c["violations"] == 0
            total += c["instances"]
        ok = ok and out["all_passed"]
    verdict("A05 area and certificate laws", ok, f"{total} instances, 0 violations")


def test_a06_one_sided_extension_demo():
    demo = asnec_demo(n=1, k_max=10)
    ok = len(demo["rows"]) == 10
    for row in demo["rows"]:
        ok = ok and Fraction(row["value_plus"]) == row["k"]
        ok = ok and Fraction(row["value_minus"]) == 0
    ok = ok and Fraction(demo["max_violation"]) == 10 and demo["violation_grows"]

    # the antisymmetrized rerun passes the exhaustive-ball defect check
    relx = relx_spec()
    fixed = extend(relx, {"C": half_sign(relx)})
    est = defect(fixed.iota, list(free_ball_words(F2, 3)))
    ok = ok and fixed.certificate.value == 33
    ok = ok and est.exact_pth_power_max == Fraction(1, 2)
    ok = ok and est.leq_exact(fixed.certificate.value)
    verdict(
        "A06 one-sided demo",
        ok,
        "violation k for k=1..10; symmetrized rerun defect 1/2 <= 33",
    )


def test_a07_engine_matches_brute_force_sweep():
    t0 = time.monotonic()
    relx = relx_spec()
    emap_x = distance_map(relx, 10)
    sweep_x = string_sweep("x", cap=11, max_power=22)
    bad_x = sum(1 for w, d in emap_x.items() if sweep_x[to_code(w)] != d)

    relxy = FreeRelCyclicSpec(F2, F2.parse("x y"))
    emap_xy = distance_map(relxy, 10, sweep_len=12, max_power=12)
    sweep_xy = string_sweep("xy", cap=12, max_power=12)
    codes_xy = [to_code(w) for w in emap_xy]
    bad_xy = sum(1 for c, d in zip(codes_xy, emap_xy.values()) if sweep_xy[c] != d)

    # cap-enlargement stability: growing the oracle ball changes nothing
    sweep_big = string_sweep("xy", cap=13, max_power=13)
    drift = sum(1 for c in codes_xy if sweep_big[c] != sweep_xy[c])

    # hand-checked probes
    ok = emap_x[F2.parse("x^5 y")] == 2 and emap_x[F2.parse("y x^3 y x^2")] == 4

    # per-pair engine agrees with its own bulk map under left translation
    spot_bad = 0
    translates = [F2.identity(), F2.parse("y x"), F2.parse("x y^-1 x")]
    for spec, emap in ((relx, emap_x), (relxy, emap_xy)):
        for u in free_ball_words(F2, 3):
            for t in translates:
                if distance(spec, t, t * u) != emap[u]:
                    spot_bad += 1
    elapsed = time.monotonic() - t0
    verdict(
        "A07 oracle equivalence",
        ok and bad_x == 0 and bad_xy == 0 and drift == 0 and spot_bad == 0
        and len(emap_x) == 118_097 and len(emap_xy) == 118_097
        and elapsed < 300,
        f"118097 words per family, {bad_x}+{bad_xy} mismatches, "
        f"drift {drift}, spot {spot_bad}, {elapsed:.0f}s",
    )


def test_a08_quasicocycle_toolkit():
    relx = relx_spec()
    step = step_quasimorphism(relx)
    alpha = antisymmetrize(step)
    x = F2.gen("x")
    ok = True
    for k in range(-15, 16):
        h = x**k
        # |alpha(q) - q| <= D(q) = 1, and alpha is antisymmetric exactly
        ok = ok and (alpha(h) - step(h)).norm_pth_power() <= 1
        ok = ok and alpha(h**-1) == -alpha(h)

    phi = brooks(F2, F2.parse("x y"))
    alpha_phi = antisymmetrize(phi)
    tree = tree_edge_cocycle(F2)
    ball2 = list(free_ball_words(F2, 2))
    ball3 = list(free_ball_words(F2, 3))
    d1_tree = coboundary1(tree)
    for g in ball3:
        ok = ok and alpha_phi(g) == phi(g)  # already antisymmetric
        ok = ok and tree(g).norm_pth_power() == len(g.letters)
    for f in ball2:
        for g in ball2:
            ok = ok and d1_tree(f, g).is_zero()

    d2_brooks = coboundary2(coboundary1(phi))
    d2_tree = coboundary2(d1_tree)
    ball1 = list(free_ball_words(F2, 1))
    for f in ball1:
        for g in ball1:
            for h in ball1:
                ok = ok and d2_brooks(f, g, h).is_zero()
                ok = ok and d2_tree(f, g, h).is_zero()

    psi = brooks_homogenized(F2, F2.parse("x y"))
    d_phi = defect(phi, ball3)
    d_psi = defect(psi, ball3)
    ok = ok and d_phi.exact_pth_power_max == 1 and d_psi.exact_pth_power_max == 2
    ok = ok and d_psi.exact_pth_power_max <= 2 * d_phi.exact_pth_power_max
    ok = ok and d_psi.leq_exact(2 * phi.certified_defect.value)
    verdict(
        "A08 toolkit laws",
        ok,
        "alpha bound, tree norms, d2(d1)=0, homogenized defect 2 <= 2*1",
    )


def test_a09_lp_growth_with_fixed_certificate():
    big = big_spec()
    qt = tree_edge_cocycle(big, "A")
    ext = extend(big, {"A": qt})
    h = big.parse("x y")
    t = big.parse("t")
    ok = qt.module.p == 2 and ext.certificate.value == 0 and ext.iota.exact_cocycle
    for n in range(1, 21):
        # ||iota(h^n)||_2^2 = 2n exactly, unbounded while the defect stays 0
        ok = ok and ext.iota(h**n).norm_pth_power() == 2 * n
        ok = ok and ext.iota(t * h**n * t**-1).norm_pth_power() == 2 * n
    verdict("A09 lp growth witness", ok, "||iota(h^n)||^2 = 2n for n <= 20, cert 0")


def test_a10_scl_chain():
    G = FreeGroup(["x", "y", "t"])
    x, y, t = G.gen("x"), G.gen("y"), G.gen("t")
    ok = True
    for k in range(1, 11):
        hk = commutator(commutator(x, y) ** k, t)
        ok = ok and cl_upper(G, hk, [(commutator(x, y) ** k, t)]) == 1
        ok = ok and scl_upper(G, hk, {1: [(commutator(x, y) ** k, t)]}) == 1

    dist = free_dist_experiment(range(1, 11))
    lows = [Fraction(r["scl_H_lower"]["value"]) for r in dist["rows"]]
    ok = ok and lows == [Fraction(k, 12) for k in range(1, 11)]
    ok = ok and all(a < b for a, b in zip(lows, lows[1:]))
    ok = ok and dist["distortion_witnessed"]

    big = big_spec()
    pipe = undistortion_pipeline(
        big, "A", commutator(F2.gen("x"), F2.gen("y")),
        brooks_homogenized(F2, F2.parse("x y")),
    )
    bound = pipe["bound"]
    ok = ok and bound.lower == Fraction(1, 1584) and bound.lower > 0
    ok = ok and pipe["restriction_consistent"] and not pipe["conditional"]
    ok = ok and all("step" in c and "value" in c for c in pipe["chain"])
    tags = {c["step"]: c["provenance"] for c in pipe["chain"]}
    ok = ok and tags.pop("scl lower bound", None) == "certified-lower-bound"
    ok = ok and set(tags.values()) <= {"exact", "certified-upper-bound"}
    verdict(
        "A10 scl chain",
        ok,
        "cl(h_k)=1 for k<=10, lower bounds k/12 increasing, pipeline 1/1584",
    )
