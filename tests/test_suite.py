from __future__ import annotations

from qcext.embedding import FreeProductPairSpec, FreeRelCyclicSpec, spec_from_json
from qcext.groups import FreeGroup, FreeProduct
from qcext.qc import cyclic_homomorphism
from qcext.suite import ALL_CHECKS, EXTENSION_CHECKS, SEP_CHECKS, run_full_suite


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
