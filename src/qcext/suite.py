"""Exhaustive-plus-sampled checks for the separation and extension laws.

Each check sweeps the full ball of a small radius and then a seeded random
sample, so a pass means "no violation on any tested instance" with the
instance count reported.  Checks come in two groups: combinatorial laws of
the separating-coset machinery (no cocycle inputs needed) and certified
inequalities for a concrete extension (inputs required, skipped otherwise).
The extension is built once; its checks read D, K and the certificate from
it, so only `extension` computes K and sums 54K + 66D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .coeffs import zero
from .embedding import seeded_rng
from .errors import PartitionNotFoundError
from .extension import averaged_value, combed_value, elementary_bicombing, extend
from .geodesics import ball_domain, coset_visits, entrance_exit, geodesic_routes
from .qc import coboundary1
from .separating import _resolve_c, separation_report, triangle_partition

SEP_CHECKS = (
    "separating-symmetry",
    "separating-equivariance",
    "separating-order",
    "cardinality-bound",
    "penetration-consistency",
    "entrance-exit-3c",
    "triangle-partition",
)
EXTENSION_CHECKS = (
    "elementary-area-bound",
    "chain-telescoping-bound",
    "averaged-value-bound",
    "combed-area-bound",
    "restriction-identity",
    "extension-defect-certificate",
)
ALL_CHECKS = SEP_CHECKS + EXTENSION_CHECKS


@dataclass
class CheckResult:
    name: str
    instances: int = 0
    violations: int = 0
    witnesses: list = field(default_factory=list)
    skipped: bool = False
    note: str = ""

    def record(self, ok: bool, witness: Callable[[], str]) -> None:
        """Count one instance; `witness()` describes it, and is called only
        for a violation that is still kept (at most five)."""
        self.instances += 1
        if not ok:
            self.violations += 1
            if len(self.witnesses) < 5:
                self.witnesses.append(witness())

    @property
    def passed(self) -> bool:
        return self.skipped or self.violations == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "violations": self.violations,
            "witnesses": self.witnesses,
            "skipped": self.skipped,
            "passed": self.passed,
            "note": self.note,
        }


# -- instance generation ---------------------------------------------------------


def _random_pairs(spec, rng, count: int, size: int = 5) -> list:
    out = []
    while len(out) < count:
        f = spec.random_element(rng, size)
        g = spec.random_element(rng, size)
        if f != g:
            out.append((f, g))
    return out


def _coset_tuple(spec, lam: str, rng, length: int) -> list:
    """Elements of one random coset t*H_lam, distinct when the subgroup is
    big enough (repeats are harmless for the telescoping laws)."""
    t = spec.random_element(rng, 3)
    seen: dict = {}  # ordered set of coset elements
    attempts = 0
    while len(seen) < length and attempts < 40 * length:
        seen[t * spec.random_subgroup_element(lam, rng, 4)] = None
        attempts += 1
    out = list(seen)
    while len(out) < length:
        out.append(out[attempts % len(out)])
    return out


# -- the suite -------------------------------------------------------------------


def run_full_suite(
    spec,
    cocycles: dict | None = None,
    c_value=None,
    budget=None,
    seed: int = 0,
    samples: int = 500,
    radius: int = 3,
    chain_max: int = 6,
) -> dict:
    """Run every check over the exhaustive ball plus seeded samples.

    `cocycles` maps subgroup labels to antisymmetric certified inputs; the
    extension-level checks are skipped when it is omitted.  An input without
    a certified defect makes `extend` raise CertificateError.
    """
    c = _resolve_c(spec, c_value)
    results = {name: CheckResult(name) for name in ALL_CHECKS}
    lams = spec.lambdas()

    ball = ball_domain(spec, radius)
    ball_pairs = [(f, g) for f in ball for g in ball if f != g]
    rng = seeded_rng(seed, "suite:pairs")
    sample_pairs = _random_pairs(spec, rng, samples)
    all_pairs = ball_pairs + sample_pairs

    # penetration and entrance-exit gaps run on the ball pairs + a sample
    # slice, a prefix of all_pairs
    pen_pairs = ball_pairs + sample_pairs[: samples // 5]
    unwrap = spec.group.unwrap
    three_c = 3 * c

    # normal forms of (f, g) -> (routes, separation report): each ordered
    # pair's routes are found once, and separation and the penetration
    # checks both walk them.  The triangle and combed-area checks read their
    # sides' reports from this cache too.
    cache: dict[tuple, tuple] = {}

    def routes_and_report(f, g):
        key = (unwrap(f), unwrap(g))
        if key not in cache:
            geo = geodesic_routes(spec, f, g, budget=budget)
            cache[key] = (
                geo,
                separation_report(spec, f, g, c_value=c, budget=budget, geo=geo),
            )
        return cache[key]

    def report_for(f, g):
        return routes_and_report(f, g)[1]

    def penetration_checks(f, g, geo, rep_fg):
        for lam in lams:
            sep = rep_fg[lam]
            if not sep.cosets:
                continue
            # each path's coset representatives, once for all of lam's cosets
            visits = [coset_visits(spec, path, lam) for path in geo.geodesics]
            for i, coset in enumerate(sep.cosets):
                pairs = sep.entrance_exits[i]
                for path, seen in zip(geo.geodesics, visits):
                    pen = entrance_exit(path, seen.get(coset.rep, ()))
                    results["penetration-consistency"].record(
                        pen is not None and pen in pairs,
                        lambda: f"geodesic misses {coset} for ({f},{g})",
                    )
                if not sep.trivial:
                    shift = coset.rep.inverse()
                    for u, v in pairs:
                        d_uv = spec.rel_distance(shift * u, shift * v, lam)
                        verdict = not d_uv.is_finite() or d_uv.value > three_c
                        results["entrance-exit-3c"].record(
                            verdict,
                            lambda: f"gap {d_uv} not above {three_c} at {coset} of ({f},{g})",
                        )

    # separation laws over every pair, penetration over its prefix
    for n, (f, g) in enumerate(all_pairs):
        geo, rep_fg = routes_and_report(f, g)
        rep_gf = report_for(g, f)
        for lam in lams:
            s_fg, s_gf = rep_fg[lam], rep_gf[lam]
            results["separating-symmetry"].record(
                set(s_fg.cosets) == set(s_gf.cosets),
                lambda: f"S({f},{g};{lam}) != S({g},{f};{lam})",
            )
            results["separating-order"].record(
                all(a < b for a, b in zip(s_fg.distances, s_fg.distances[1:])),
                lambda: f"distances not increasing for ({f},{g};{lam})",
            )
            results["cardinality-bound"].record(
                len(s_fg) <= geo.distance,
                lambda: f"|S|={len(s_fg)} exceeds d={geo.distance} for ({f},{g};{lam})",
            )
        if n < len(pen_pairs):
            penetration_checks(f, g, geo, rep_fg)

    # equivariance on the sampled pairs
    trng = seeded_rng(seed, "suite:translates")
    for f, g in sample_pairs:
        t = spec.random_element(trng, 3)
        rep_fg = report_for(f, g)
        rep_t = report_for(t * f, t * g)
        for lam in lams:
            expect = {}
            for i, coset in enumerate(rep_fg[lam].cosets):
                expect[spec.coset_rep(t * coset.rep, lam)] = {
                    (t * u, t * v) for u, v in rep_fg[lam].entrance_exits[i]
                }
            got = {
                coset.rep: set(rep_t[lam].entrance_exits[i])
                for i, coset in enumerate(rep_t[lam].cosets)
            }
            results["separating-equivariance"].record(
                expect == got, lambda: f"t*S != S(t.) for ({f},{g};{lam}), t={t}"
            )

    # triangle partitions: all small triples plus samples
    small = ball_domain(spec, 1)
    triples = [(f, g, h) for f in small for g in small for h in small]
    xrng = seeded_rng(seed, "suite:triples")
    for _ in range(samples):
        triples.append(
            (
                spec.random_element(xrng, 4),
                spec.random_element(xrng, 4),
                spec.random_element(xrng, 4),
            )
        )
    for f, g, h in triples:
        if f == g:
            continue
        for lam in lams:
            ok = True
            try:
                triangle_partition(spec, f, g, h, lam, report_for, budget=budget)
            except PartitionNotFoundError:
                ok = False
            results["triangle-partition"].record(
                ok, lambda: f"partition failed for ({f},{g},{h};{lam})"
            )
    results["triangle-partition"].note = "passes if and only if the partition is found"

    if cocycles is None:
        for name in EXTENSION_CHECKS:
            results[name].skipped = True
            results[name].note = "no cocycle inputs supplied"
        return _finish(spec, results, c)

    # the extension's certified constants per label, (D, K)
    ext = extend(spec, dict(cocycles), c_value=c, budget=budget, seed=seed)
    consts = {lam: (info["D"].value, info["K"]) for lam, info in ext.per_lambda.items()}

    crng = seeded_rng(seed, "suite:cosets")
    for lam, q in sorted(cocycles.items()):
        d_val, k_val = consts[lam]
        r = elementary_bicombing(spec, lam, q)
        for _ in range(max(60, samples // 4)):
            u, v, w = _coset_tuple(spec, lam, crng, 3)
            area = r(u, v) + r(v, w) - r(u, w)
            results["elementary-area-bound"].record(
                area.norm_leq_exact(d_val),
                lambda: f"elementary area at ({u},{v},{w};{lam}) exceeds {d_val}",
            )
        for n in range(2, chain_max + 1):
            for _ in range(max(20, samples // 10)):
                chain = _coset_tuple(spec, lam, crng, n + 1)
                total = zero(q.module)
                for a, b in zip(chain, chain[1:]):
                    total = total + r(a, b)
                gap = total - r(chain[0], chain[-1])
                results["chain-telescoping-bound"].record(
                    gap.norm_leq_exact((n - 1) * d_val),
                    lambda: f"chain of length {n} at {lam} exceeds {(n - 1) * d_val}",
                )

    # averaged-value laws over pairs with nonempty separation
    arng = seeded_rng(seed, "suite:averaged")
    av_pairs = ball_pairs[: samples] + _random_pairs(spec, arng, samples // 2)
    for f, g in av_pairs:
        rep_fg = report_for(f, g)
        rep_gf = report_for(g, f)
        for lam, q in sorted(cocycles.items()):
            d_val, k_val = consts[lam]
            sep = rep_fg[lam]
            r = elementary_bicombing(spec, lam, q)
            for i, coset in enumerate(sep.cosets):
                pairs = sep.entrance_exits[i]
                r_av = averaged_value(q, pairs, sep.steps[i])
                for u, v in pairs:
                    gap = r_av - r(u, v)
                    results["averaged-value-bound"].record(
                        gap.norm_leq_exact(2 * d_val + 2 * k_val),
                        lambda: f"averaged value at {coset} of ({f},{g}) drifts past 2D+2K",
                    )
                back_sep = rep_gf[lam]
                if q.antisymmetric and coset in back_sep.cosets:
                    j = back_sep.cosets.index(coset)
                    back = averaged_value(
                        q, back_sep.entrance_exits[j], back_sep.steps[j]
                    )
                    results["averaged-value-bound"].record(
                        back == -r_av,
                        lambda: f"averaged value not antisymmetric at {coset} of ({f},{g})",
                    )

    # combed bicombing area over sampled triangles
    brng = seeded_rng(seed, "suite:combed")
    for _ in range(max(40, samples // 6)):
        f = spec.random_element(brng, 3)
        g = spec.random_element(brng, 3)
        h = spec.random_element(brng, 3)
        for lam, q in sorted(cocycles.items()):
            d_val, k_val = consts[lam]
            area = (
                combed_value(q, report_for(f, g)[lam])
                + combed_value(q, report_for(g, h)[lam])
                - combed_value(q, report_for(f, h)[lam])
            )
            results["combed-area-bound"].record(
                area.norm_leq_exact(66 * d_val + 54 * k_val),
                lambda: f"combed area at ({f},{g},{h};{lam}) exceeds 66D+54K",
            )

    # the extension itself: restriction and certificate
    srng = seeded_rng(seed, "suite:restriction")
    for lam, q in sorted(cocycles.items()):
        for _ in range(max(40, samples // 10)):
            h = spec.random_subgroup_element(lam, srng, 6)
            if h.is_identity():
                continue
            results["restriction-identity"].record(
                ext.iota(h) == q(h), lambda: f"iota({h}) != q({h}) at {lam}"
            )

    drng = seeded_rng(seed, "suite:defect")
    cert = ext.certificate.value
    defect_pairs = ball_pairs[: samples] + _random_pairs(spec, drng, samples // 5, 4)
    for g1, g2 in defect_pairs:
        gap = coboundary1(ext.iota)(g1, g2)
        results["extension-defect-certificate"].record(
            gap.norm_leq_exact(cert),
            lambda: f"defect at ({g1},{g2}) exceeds the certificate {cert}",
        )

    return _finish(spec, results, c)


def _finish(spec, results: dict, c: Fraction) -> dict:
    ordered = [results[name] for name in ALL_CHECKS]
    return {
        "family": spec.family,
        "C": str(c),
        "checks": {r.name: r.to_json() for r in ordered},
        "all_passed": all(r.passed for r in ordered),
        "total_instances": sum(r.instances for r in ordered),
        "total_violations": sum(r.violations for r in ordered),
    }
