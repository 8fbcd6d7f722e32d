from __future__ import annotations

import re
from fractions import Fraction

import pytest

from qcext import (
    CertifiedBound,
    DefectEstimate,
    FreeGroup,
    FreeProduct,
    FreeProductPairSpec,
    FreeRelCyclicSpec,
    QuasiCocycle,
    SclBound,
    TrivialReals,
    adjust_quasimorphism,
    bavard_lower,
    brooks,
    brooks_homogenized,
    cl_upper,
    commutator,
    cyclic_homomorphism,
    exponent_vector,
    free_dist_experiment,
    nice_generating_set,
    real_value,
    scl_upper,
    undistortion_pipeline,
)
from qcext import qc
from qcext.errors import CertificateError, DomainError

F2 = FreeGroup(["x", "y"])
X, Y = F2.gen("x"), F2.gen("y")


def fp_spec():
    T = FreeGroup(["t"])
    return FreeProductPairSpec(FreeProduct([F2, T]), ["A", "B"])


def test_scl_bound_ordering_enforced():
    with pytest.raises(CertificateError):
        SclBound(g=X, lower=Fraction(1), upper=Fraction(1, 2))
    b = SclBound(g=commutator(X, Y), lower=Fraction(1, 12), upper=Fraction(1))
    js = b.to_json()
    assert js["lower"]["value"] == "1/12" and js["upper"]["value"] == "1"
    assert js["lower"]["provenance"] == "certified-lower-bound"
    assert js["upper"]["provenance"] == "certified-upper-bound"


def test_cl_upper_verifies_expression():
    g = commutator(X, Y)
    assert cl_upper(F2, g, [(X, Y)]) == 1
    assert cl_upper(F2, g * commutator(Y, X * Y), [(X, Y), (Y, X * Y)]) == 2
    with pytest.raises(DomainError):
        cl_upper(F2, g, [(Y, X)])


def test_scl_upper_minimizes_over_powers():
    g = commutator(X, Y)
    assert scl_upper(F2, g, {1: [(X, Y)]}) == 1
    # two commutators reach g^3, improving the bound to 2/3
    culler = [
        (F2.parse("x^-1 y x"), F2.parse("x^-2 y x y^-1")),
        (F2.parse("y x y^-1"), F2.parse("y^2")),
    ]
    assert cl_upper(F2, g**3, culler) == 2
    assert scl_upper(F2, g, {1: [(X, Y)], 3: culler}) == Fraction(2, 3)
    with pytest.raises(DomainError):
        scl_upper(F2, X, {1: [(X, Y)]})
    with pytest.raises(DomainError):
        scl_upper(F2, g, {})
    with pytest.raises(DomainError):
        scl_upper(F2, g, {0: [(X, Y)]})


def test_bavard_lower_value():
    psi = brooks_homogenized(F2, F2.parse("x y"))
    g = commutator(X, Y)
    assert psi.scalar_value(g) == 1
    bound = bavard_lower(psi, psi.certified_defect, g)
    assert bound.lower == Fraction(1, 12)
    assert bound.lower_witness["defect_upper"]["provenance"] == "derived"


def test_bavard_rejects_uncertified_denominators():
    psi = brooks_homogenized(F2, F2.parse("x y"))
    g = commutator(X, Y)
    est = DefectEstimate(Fraction(4), 1, (), 10)
    with pytest.raises(CertificateError):
        bavard_lower(psi, est, g)
    with pytest.raises(CertificateError):
        bavard_lower(psi, CertifiedBound(6, "external-reference"), g)
    with pytest.raises(DomainError):
        bavard_lower(brooks(F2, F2.parse("x y")),
                     CertifiedBound(3, "combinatorial-certificate"), g)


def test_bavard_zero_defect_cases():
    rel = FreeRelCyclicSpec(F2, F2.parse("x"))
    hom = cyclic_homomorphism(rel)
    with pytest.raises(CertificateError):
        bavard_lower(hom, hom.certified_defect, F2.parse("x^2"))
    bound = bavard_lower(hom, hom.certified_defect, F2.identity())
    assert bound.lower == 0


def test_nice_generating_set_cases():
    basis = nice_generating_set(F2, [X, Y])
    assert basis.y1 == (X, Y) and basis.y2 == ()

    mixed = nice_generating_set(F2, [X, X * commutator(Y, X)])
    assert mixed.y1 == (X,)
    assert mixed.y2 == (commutator(Y, X),)

    only_comm = nice_generating_set(F2, [commutator(X, Y)])
    assert only_comm.y1 == ()
    assert only_comm.y2 == (commutator(X, Y),)

    powers = nice_generating_set(F2, [X**2, X**3])
    assert powers.y1 == (X,)
    assert powers.y2 == ()


def test_nice_generating_set_echelon_vectors():
    out = nice_generating_set(F2, [F2.parse("x^2 y"), F2.parse("x^3 y")])
    vecs = [
        [exponent_vector(w).get(s, 0) for s in F2.gens] for w in out.y1
    ]
    assert vecs == [[1, 0], [0, 1]]
    assert out.y2 == ()


def test_adjust_quasimorphism_vanishes_on_y1():
    psi = brooks_homogenized(F2, F2.parse("x y"))
    nice = nice_generating_set(F2, [X, Y])
    adj = adjust_quasimorphism(psi, nice, F2)
    assert adj.scalar_value(X) == 0
    assert adj.scalar_value(Y) == 0
    assert adj.scalar_value(commutator(X, Y)) == psi.scalar_value(commutator(X, Y))
    assert adj.certified_defect.value == 6
    assert adj.certified_defect.provenance == "derived"
    partial = adjust_quasimorphism(psi, nice_generating_set(F2, [X]), F2)
    with pytest.raises(DomainError):
        partial.scalar_value(Y)


def test_undistortion_pipeline_frozen_bound():
    spec = fp_spec()
    psi = brooks_homogenized(F2, F2.parse("x y"))
    h = commutator(X, Y)
    out = undistortion_pipeline(spec, "A", h, psi,
                                scl_h_reference=Fraction(1, 2))
    assert out["bound"].lower == Fraction(1, 1584)
    constants = out["constants"]
    assert constants.l_value == 1
    assert constants.k_value == 0
    assert constants.d_value.value == 6
    assert constants.m_value == 66
    assert out["restriction_consistent"]
    assert not out["conditional"]
    tags = {step["step"]: step["provenance"] for step in out["chain"]}
    assert tags.pop("scl lower bound") == "certified-lower-bound"
    assert set(tags.values()) <= {"exact", "certified-upper-bound"}
    assert out["scl_h_transport"]["value"] == str(Fraction(1, 264))


def test_undistortion_pipeline_zero_defect_branch():
    spec = fp_spec()
    expsum = QuasiCocycle(
        "x-exponent", F2, TrivialReals(),
        lambda g: real_value(exponent_vector(g).get("x", 0), TrivialReals()),
        antisymmetric=True, homogeneous=True, exact_cocycle=True,
        certified_defect=CertifiedBound(0, "homomorphism-zero"),
    )
    out = undistortion_pipeline(spec, "A", commutator(X, Y), expsum)
    assert out["constants"].m_value is None
    assert out["bound"].lower == 0
    assert any("bypasses M" in n for n in out["constants"].notes)
    assert out["bound"].lower_witness["chain"] == "trivial: all constants vanish"


def test_pipeline_states_k_and_l_as_family_constants():
    psi = brooks_homogenized(F2, F2.parse("x y"))
    h = commutator(X, Y)
    for c, ball in ((Fraction(0), "empty (C = 0)"), (Fraction(1, 3), "{1}"),
                    (Fraction(2), "{1}")):
        out = undistortion_pipeline(fp_spec(), "A", h, psi, c_value=c)
        why = f"family constant: on a free product the strict 15C-ball is {ball}"
        steps = {step["step"]: step for step in out["chain"]}
        assert steps["K on the strict 15C ball"] == {
            "step": "K on the strict 15C ball", "value": "0", "provenance": "exact",
            "detail": why}
        assert steps["L with d_Y <= L*d-hat"] == {
            "step": "L with d_Y <= L*d-hat", "value": "1", "provenance": "exact",
            "detail": why}
        assert out["constants"].notes[0] == f"L: {why}"
        assert out["bound"].lower == Fraction(1, 1584)


def test_undistortion_pipeline_validation():
    spec = fp_spec()
    psi = brooks_homogenized(F2, F2.parse("x y"))
    with pytest.raises(DomainError):
        undistortion_pipeline(spec, "A", X, psi)  # not in [H,H]
    with pytest.raises(DomainError):
        undistortion_pipeline(spec, "A", commutator(X, Y), brooks(F2, F2.parse("x y")))
    rel = FreeRelCyclicSpec(F2, F2.parse("x"))
    with pytest.raises(DomainError):
        undistortion_pipeline(rel, "C", commutator(X, Y), psi)


@pytest.mark.parametrize("seed", [0, 7])
def test_undistortion_pipeline_refuses_y_gens_short_of_the_abelianization(seed):
    # [y] spans one of F2's two abelianization directions: refused up front,
    # by name, not by extend's sampled antisymmetry check
    psi = brooks_homogenized(F2, F2.parse("x y"))
    with pytest.raises(DomainError, match="y_gens must span"):
        undistortion_pipeline(fp_spec(), "A", commutator(X, Y), psi, y_gens=[Y], seed=seed)


def test_scl_reports_build_every_tag_through_the_vocabulary(monkeypatch):
    # each tag the pipeline or the experiment prints goes through qc.tag: with
    # it dropped from the vocabulary, the run refuses instead of printing it
    psi = brooks_homogenized(F2, F2.parse("x y"))
    runs = (lambda: undistortion_pipeline(fp_spec(), "A", commutator(X, Y), psi,
                                          scl_h_reference=Fraction(1, 2)),
            lambda: free_dist_experiment([1]))
    for run in runs:
        printed = set(re.findall(r"'provenance': '([a-z-]+)'", repr(run())))
        assert len(printed) >= 4
        for provenance in printed:
            monkeypatch.setattr(qc, "PROVENANCES", tuple(
                p for p in qc.PROVENANCES if p != provenance))
            with pytest.raises(ValueError, match=f"unknown report provenance '{provenance}'"):
                run()
            monkeypatch.undo()


def test_free_dist_experiment_rows():
    out = free_dist_experiment([1, 2, 3])
    assert out["subgroup_rank"] == 4
    assert out["injectivity_samples_passed"] == 50
    assert out["distortion_witnessed"]
    for row, k in zip(out["rows"], (1, 2, 3)):
        assert row["k"] == k
        assert row["scl_G_upper"]["value"] == "1"
        assert row["scl_H_lower"]["value"] == str(Fraction(k, 12))
        assert row["scl_H_reference"]["provenance"] == "external-reference"
        assert row["scl_H_reference"]["value"] == str(Fraction(2 * k + 1, 2))
        assert row["ratio_increasing"]
