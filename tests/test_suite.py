from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from qcext import separating, suite
from qcext.cli import cmd_verify
from qcext.embedding import FreeProductPairSpec, FreeRelCyclicSpec, spec_from_json
from qcext.groups import FreeGroup, FreeProduct, commutator
from qcext.qc import brooks_homogenized, cyclic_homomorphism
from qcext.scl import undistortion_pipeline
from qcext.suite import ALL_CHECKS, EXTENSION_CHECKS, SEP_CHECKS, CheckResult, run_full_suite


def rel_spec():
    F = FreeGroup(["x", "y"])
    return FreeRelCyclicSpec(F, F.parse("x"))


def fp_spec():
    A, B = FreeGroup(["a"]), FreeGroup(["b"])
    return FreeProductPairSpec(FreeProduct([A, B]), ["A", "B"])


def test_rel_suite_without_inputs_skips_extension_checks():
    out = run_full_suite(rel_spec(), samples=20, radius=1, chain_max=3)
    assert out["all_passed"]
    assert out["family"] == "free_rel_cyclic"
    checks = out["checks"]
    assert set(checks) == set(ALL_CHECKS)
    for name in SEP_CHECKS:
        assert not checks[name]["skipped"]
        assert checks[name]["instances"] > 0
        assert checks[name]["violations"] == 0
    for name in EXTENSION_CHECKS:
        assert checks[name]["skipped"]
        assert checks[name]["note"] == "no cocycle inputs supplied"


def test_free_product_suite_with_inputs_runs_everything():
    spec = fp_spec()
    cocycles = {lam: cyclic_homomorphism(spec, lam) for lam in spec.lambdas()}
    out = run_full_suite(spec, cocycles, samples=16, radius=1, chain_max=3)
    assert out["all_passed"]
    assert out["total_violations"] == 0
    checks = out["checks"]
    for name in ALL_CHECKS:
        assert not checks[name]["skipped"]
        assert checks[name]["passed"]
    assert checks["extension-defect-certificate"]["instances"] > 0
    assert checks["restriction-identity"]["instances"] >= 80


def test_rel_suite_with_input_passes():
    spec = rel_spec()
    out = run_full_suite(
        spec,
        {"C": cyclic_homomorphism(spec, "C")},
        samples=10,
        radius=1,
        chain_max=2,
    )
    assert out["all_passed"]
    assert out["checks"]["combed-area-bound"]["violations"] == 0


def test_cyclic_free_product_suite_has_no_violations():
    spec = spec_from_json({
        "family": "free_product",
        "factors": [
            {"kind": "cyclic", "order": 2, "sym": "a"},
            {"kind": "cyclic", "order": 3, "sym": "b"},
        ],
    })
    out = run_full_suite(spec, samples=50, radius=2)
    assert out["total_violations"] == 0
    assert out["all_passed"]


def _suite_on_rel_x():
    spec = rel_spec()
    return spec, lambda: run_full_suite(spec, {"C": cyclic_homomorphism(spec, "C")},
                                        samples=10, radius=1, chain_max=2)


def _suite_on_fp():
    spec = fp_spec()
    cocycles = {lam: cyclic_homomorphism(spec, lam) for lam in spec.lambdas()}
    return spec, lambda: run_full_suite(spec, cocycles, samples=10, radius=1, chain_max=2)


def _pipeline_on_fp():
    F2, T = FreeGroup(["x", "y"]), FreeGroup(["t"])
    spec = FreeProductPairSpec(FreeProduct([F2, T]), ["A", "B"])
    x, y = F2.gen("x"), F2.gen("y")
    phi = brooks_homogenized(F2, F2.parse("x y"))
    return spec, lambda: undistortion_pipeline(spec, "A", commutator(x, y), phi)


@pytest.mark.parametrize("make, balls", [
    (_suite_on_rel_x, 1),  # the extension's K
    (_suite_on_fp, 2),  # the extension's K, one per label
    (_pipeline_on_fp, 1),  # the extension's K; L is the family's constant
])
def test_strict_ball_is_computed_once_per_constant(make, balls):
    # K comes from the ExtensionResult alone; wrap the instance's rel_ball
    # so the count does not depend on how the modules import it.
    spec, run = make()
    calls = []
    inner = spec.rel_ball

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    spec.rel_ball = counted
    run()
    assert len(calls) == balls


def test_suite_enumerates_each_pair_once(monkeypatch):
    # Outside triangle_partition (which re-derives its three sides), every
    # ordered pair's routes are found once per suite run.
    counts: Counter = Counter()
    inside_partition = []
    find_routes = suite.geodesic_routes
    partition = suite.triangle_partition

    def counted(spec, f, g, budget=None):
        if not inside_partition:
            counts[(f, g)] += 1
        return find_routes(spec, f, g, budget=budget)

    def uncounted_partition(*args, **kwargs):
        inside_partition.append(True)
        try:
            return partition(*args, **kwargs)
        finally:
            inside_partition.pop()

    monkeypatch.setattr(suite, "geodesic_routes", counted)
    monkeypatch.setattr(separating, "geodesic_routes", counted)
    monkeypatch.setattr(suite, "triangle_partition", uncounted_partition)
    out = run_full_suite(rel_spec(), samples=40, radius=2)
    assert out["all_passed"]
    assert counts
    assert max(counts.values()) == 1


def test_suite_reports_each_pair_once(monkeypatch):
    # Every check, the triangle partition and the combed area included,
    # reads an ordered pair's separation report from the suite's cache.  The
    # extension's own iota separates through extension.separation_report,
    # which is left unwrapped.
    counts: Counter = Counter()
    report = separating.separation_report

    def counted(spec, f, g, *args, **kwargs):
        counts[(f, g)] += 1
        return report(spec, f, g, *args, **kwargs)

    monkeypatch.setattr(suite, "separation_report", counted)
    monkeypatch.setattr(separating, "separation_report", counted)
    spec = rel_spec()
    out = run_full_suite(
        spec, {"C": cyclic_homomorphism(spec, "C")}, samples=40, radius=2
    )
    assert out["all_passed"]
    assert counts
    assert set(counts.values()) == {1}


def test_witness_is_built_only_for_a_kept_violation():
    built = []

    def witness(n):
        def text():
            built.append(n)
            return f"witness {n}"
        return text

    check = CheckResult("demo")
    check.record(True, witness(0))
    for n in range(1, 8):
        check.record(False, witness(n))
    assert (check.instances, check.violations) == (8, 7)
    assert built == [1, 2, 3, 4, 5]
    assert check.witnesses == [f"witness {n}" for n in range(1, 6)]


def test_failing_generic_suite_report_is_pinned():
    # C = 4/3 on rel <xy>: essentiality keeps every pair of a coset once one
    # pair clears 3C, and the entrance-exit check holds each pair to 3C
    spec = spec_from_json({
        "family": "free_rel_cyclic", "gens": ["x", "y"], "w": "x y",
        "budget": {"max_vertices": 20000, "max_power": 6},
    })
    out = run_full_suite(spec, c_value=Fraction(4, 3), samples=0, radius=2)
    counts = {
        "separating-symmetry": (272, 0),
        "separating-equivariance": (0, 0),
        "separating-order": (272, 0),
        "cardinality-bound": (272, 0),
        "penetration-consistency": (20, 0),
        "entrance-exit-3c": (8, 6),
        "triangle-partition": (100, 0),
    }
    gaps = [
        ("4", "(x^-1 y^-1,y x)"),
        ("2", "(x^-1 y^-1,y x)"),
        ("4", "(x^-1 y^-1,y x)"),
        ("2", "(y x,x^-1 y^-1)"),
        ("4", "(y x,x^-1 y^-1)"),
    ]
    witnesses = {
        "entrance-exit-3c": [
            f"gap {d} (upper bound) not above 4 at x^-1*H[C] of {pair}" for d, pair in gaps
        ],
    }
    notes = dict.fromkeys(EXTENSION_CHECKS, "no cocycle inputs supplied")
    notes["triangle-partition"] = "passes if and only if the partition is found"
    checks = {}
    for name in ALL_CHECKS:
        instances, violations = counts.get(name, (0, 0))
        skipped = name in EXTENSION_CHECKS
        checks[name] = {
            "name": name,
            "instances": instances,
            "violations": violations,
            "witnesses": witnesses.get(name, []),
            "skipped": skipped,
            "passed": skipped or violations == 0,
            "note": notes.get(name, ""),
        }
    assert out == {
        "family": "free_rel_cyclic",
        "C": "4/3",
        "checks": checks,
        "all_passed": False,
        "total_instances": 944,
        "total_violations": 6,
    }


BENCH_FP_SPEC = {"family": "free_product",
                 "factors": [{"kind": "free", "gens": ["x", "y"]},
                             {"kind": "free", "gens": ["t"]}],
                 "names": ["A", "B"]}
BENCH_RELX_SPEC = {"family": "free_rel_cyclic", "gens": ["x", "y"], "w": "x"}


@pytest.mark.parametrize("config, counts", [
    ({"spec": BENCH_FP_SPEC, "inputs": [{"kind": "brooks", "lambda": "A", "w": "x y"},
                                        {"kind": "cyclic-homomorphism", "lambda": "B"}]},
     {"separating-symmetry": 124, "separating-equivariance": 40, "separating-order": 124,
      "cardinality-bound": 124, "penetration-consistency": 86, "entrance-exit-3c": 60,
      "triangle-partition": 626, "elementary-area-bound": 120,
      "chain-telescoping-bound": 200, "averaged-value-bound": 116, "combed-area-bound": 80,
      "restriction-identity": 80, "extension-defect-certificate": 24}),
    ({"spec": BENCH_RELX_SPEC, "inputs": [{"kind": "step", "antisymmetrize": True}]},
     {"separating-symmetry": 40, "separating-equivariance": 20, "separating-order": 40,
      "cardinality-bound": 40, "penetration-consistency": 25, "entrance-exit-3c": 19,
      "triangle-partition": 119, "elementary-area-bound": 60,
      "chain-telescoping-bound": 100, "averaged-value-bound": 56, "combed-area-bound": 40,
      "restriction-identity": 38, "extension-defect-certificate": 24}),
], ids=["fp-brooks", "relx-half-sign"])
def test_benchmark_verify_counts_are_pinned(config, counts):
    # the benchmark's two verify configs at a small size: a change to the
    # hot path that drops or adds instances shows here
    out, code = cmd_verify({**config, "samples": 20, "radius": 1}, 0)
    assert code == 0 and out["all_passed"]
    assert {name: (c["instances"], c["violations"]) for name, c in out["checks"].items()} == {
        name: (n, 0) for name, n in counts.items()
    }
