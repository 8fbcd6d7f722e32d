from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from qcext import cli
from qcext.cli import (
    COMMANDS, HANDLERS, MAX_C, MAX_DEMO, MAX_ELEMENT_SIZE, MAX_K, MAX_NGON, MAX_RADIUS, MAX_SAMPLES,
    MAX_UPPER_N, main, tag,
)
from qcext.embedding import MAX_ORDER
from qcext.errors import QcextError
from qcext.qc import PROVENANCES
from qcext.scl import SclBound

FP_SPEC = {
    "family": "free_product",
    "factors": [{"kind": "free", "gens": ["a"]}, {"kind": "free", "gens": ["b"]}],
    "names": ["A", "B"],
}
REL_SPEC = {"family": "free_rel_cyclic", "gens": ["x", "y"], "w": "x"}
BIG_FP_SPEC = {
    "family": "free_product",
    "factors": [{"kind": "free", "gens": ["x", "y"]}, {"kind": "free", "gens": ["t"]}],
    "names": ["A", "B"],
}


def run_cli(tmp_path, command, config, seed=0, name="cfg"):
    cfg = tmp_path / f"{name}.json"
    out = tmp_path / f"{name}-out.json"
    cfg.write_text(json.dumps(config))
    code = main([command, "--config", str(cfg), "--seed", str(seed),
                 "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    assert _upper_tags_on_lower_bounds(report) == []
    assert _bad_tags(report) == []
    if report is not None:
        assert _floats({k: v for k, v in report.items() if k != "timings"}) == []
    return code, report


def _exact(number) -> bool:
    """A rational written as a string, as every tagged number must be."""
    try:
        Fraction(number)
    except (TypeError, ValueError, ZeroDivisionError):
        return False
    return isinstance(number, str)


def _bad_tags(node, path=()) -> list:
    """Paths of a report where a dict with a "provenance" key carries a tag
    outside qc.PROVENANCES, or a value (or norm_pth_power) that is not an
    exact rational string."""
    found = []
    if isinstance(node, dict) and "provenance" in node:
        number = node.get("value", node.get("norm_pth_power"))
        if node["provenance"] not in PROVENANCES or not _exact(number):
            found.append("/".join(map(str, path)))
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    return found + [p for k, v in items for p in _bad_tags(v, path + (k,))]


def _floats(node, path=()) -> list:
    """Paths of a report that hold a float: every number is exact."""
    if isinstance(node, float):
        return ["/".join(map(str, path))]
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    return [p for k, v in items for p in _floats(v, path + (k,))]


def _upper_tags_on_lower_bounds(node, path=()) -> list:
    """Paths of a report where a lower bound (a key or chain step naming
    "lower") carries the upper-bound tag."""
    found = []
    if isinstance(node, dict):
        lower = any("lower" in str(k) for k in path) or "lower" in str(node.get("step", ""))
        if lower and node.get("provenance") == "certified-upper-bound":
            found.append("/".join(map(str, path)))
        for k, v in node.items():
            found += _upper_tags_on_lower_bounds(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            found += _upper_tags_on_lower_bounds(v, path + (i,))
    return found


def test_extend_command(tmp_path):
    config = {
        "spec": FP_SPEC,
        "inputs": [
            {"kind": "cyclic-homomorphism", "lambda": "A"},
            {"kind": "cyclic-homomorphism", "lambda": "B", "slope": 2},
        ],
        "evaluate": ["a b a^2 b^-3", "a^4"],
    }
    code, report = run_cli(tmp_path, "extend", config)
    assert code == 0
    assert report["status"] == "ok"
    res = report["results"]
    assert res["values"][0]["iota"] == {"value": "-1", "provenance": "exact"}
    assert res["values"][1]["iota"] == {"value": "4", "provenance": "exact"}
    assert res["certificate_tagged"] == {
        "value": "0", "provenance": "certified-upper-bound"
    }
    assert all(r["ok"] for r in res["restriction"])
    # envelope bookkeeping lives outside the results section
    assert report["environment"] == {"execution": "serial"}
    assert "timings" in report and "timings" not in res
    assert report["command"] == "extend" and report["seed"] == 0


def test_results_are_rerun_stable(tmp_path):
    config = {
        "spec": REL_SPEC,
        "inputs": [{"kind": "cyclic-homomorphism"}],
        "evaluate": ["y x^3 y x^2"],
    }
    _, first = run_cli(tmp_path, "extend", config, name="one")
    _, second = run_cli(tmp_path, "extend", config, name="two")
    blob1 = json.dumps(first["results"], sort_keys=True)
    blob2 = json.dumps(second["results"], sort_keys=True)
    assert blob1 == blob2
    assert first["results"]["values"][0]["iota"]["value"] == "5"


def test_separating_command(tmp_path):
    config = {"spec": FP_SPEC, "pairs": [["1", "a b a^2"]]}
    code, report = run_cli(tmp_path, "separating", config)
    assert code == 0
    by_lam = {row["lambda"]: row for row in report["results"]["reports"]}
    assert [c["rep"] for c in by_lam["A"]["cosets"]] == ["1", "a b"]
    assert by_lam["A"]["distances"] == [
        {"value": "0", "provenance": "exact"},
        {"value": "2", "provenance": "exact"},
    ]
    assert by_lam["B"]["entrance_exits"] == [[["a", "a b"]]]


def test_defect_command(tmp_path):
    config = {
        "spec": REL_SPEC,
        "inputs": [{"kind": "step", "antisymmetrize": True}],
        "radius": 2,
        "samples": 25,
    }
    code, report = run_cli(tmp_path, "defect", config)
    assert code == 0
    res = report["results"]
    assert res["certificate"] == {
        "value": "66", "provenance": "certified-upper-bound"
    }
    assert res["empirical_defect"]["pth_power"]["provenance"] == "empirical-lower-bound"
    assert res["within_certificate"]


def test_calibrate_command(tmp_path):
    config = {
        "spec": {"family": "free_rel_cyclic", "gens": ["x", "y"], "w": "x y"},
        "samples": 12,
        "ngon_sizes": [3, 4],
        "element_size": 4,
    }
    code, report = run_cli(tmp_path, "calibrate-c", config)
    assert code == 0
    res = report["results"]
    assert res["max_ratio"]["provenance"] == "empirical-lower-bound"
    assert "supply the calibrated value" in res["note"]


def test_asnec_command(tmp_path):
    code, report = run_cli(tmp_path, "as-nec-demo", {"n": 1, "k_max": 4})
    assert code == 0
    res = report["results"]
    assert len(res["rows"]) == 4
    assert res["violation_grows"]
    assert res["symmetrized"]["defect_within_certificate"]
    # reported the way `defect` reports it: exact and tagged
    assert res["symmetrized"]["empirical_defect"] == {
        "pth_power": {"value": "1/2", "provenance": "empirical-lower-bound"},
        "p": 1,
        "witness": ["x y x", "x y x"],
        "pairs_checked": 41 * 41,
    }


def test_scl_bound_command(tmp_path):
    config = {
        "spec": BIG_FP_SPEC,
        "lambda": "A",
        "h": "x^-1 y^-1 x y",
        "phi": {"kind": "brooks-homogenized", "w": "x y"},
        "upper": {"n": 1, "commutators": [["x", "y"]]},
        "reference_scl_h": "1/2",
    }
    code, report = run_cli(tmp_path, "scl-bound", config)
    assert code == 0
    res = report["results"]
    assert res["lower"]["value"] == {
        "value": "1/1584", "provenance": "certified-lower-bound"
    }
    assert {"step": "scl lower bound", "value": "1/1584",
            "provenance": "certified-lower-bound",
            "detail": "phi(h) / (4*M*D)"} in res["chain"]
    assert res["constants"]["M"] == "66"
    assert res["upper"]["cl"] == {"value": "1", "provenance": "exact"}
    assert res["upper"]["scl_upper"]["value"] == "1"
    assert res["scl_h_transport"]["value"] == "1/264"
    assert res["scl_h_transport"]["provenance"] == "user-supplied"
    assert res["restriction_consistent"]


def test_scl_bound_rejects_homomorphism_input(tmp_path):
    config = {
        "spec": BIG_FP_SPEC,
        "lambda": "A",
        "h": "x^-1 y^-1 x y",
        "phi": {"kind": "cyclic-homomorphism"},
    }
    code, report = run_cli(tmp_path, "scl-bound", config)
    assert code == 2
    assert report is None


def test_distortion_command(tmp_path):
    code, report = run_cli(tmp_path, "distortion", {"k_list": [1, 2]})
    assert code == 0
    res = report["results"]
    assert res["distortion_witnessed"]
    assert res["rows"][0]["scl_H_lower"]["value"] == "1/12"
    assert res["rows"][0]["scl_H_lower"]["provenance"] == "certified-lower-bound"
    assert res["rows"][1]["ratio_lower_over_upper"]["value"] == "1/6"


def test_verify_command(tmp_path):
    config = {
        "spec": REL_SPEC,
        "inputs": [{"kind": "cyclic-homomorphism"}],
        "samples": 40,
        "radius": 2,
    }
    code, report = run_cli(tmp_path, "verify", config)
    assert code == 0
    res = report["results"]
    assert res["all_passed"]
    assert res["total_violations"] == 0


def _value(res, i=0):
    return res["values"][i]["iota"]


Z2_TIMES_T = {
    "family": "free_product",
    "factors": [{"kind": "table", "names": ["1", "s"], "table": [[0, 1], [1, 0]]},
                {"kind": "free", "gens": ["t"]}],
    "names": ["A", "B"],
}
STEP = {"kind": "step", "antisymmetrize": True}


@pytest.mark.parametrize("command, config, pins", [
    ("extend",
     {"spec": BIG_FP_SPEC, "inputs": [{"kind": "tree-edge", "lambda": "A"}],
      "evaluate": ["x y t x"]},
     lambda r: r["certificate"]["value"] == "0"
     and _value(r)["norm_pth_power"] == "3" and len(_value(r)["entries"]) == 3),
    ("extend",
     {"spec": BIG_FP_SPEC, "inputs": [{"kind": "brooks", "lambda": "A", "w": "x y"},
                                      {"kind": "cyclic-homomorphism", "lambda": "B"}]},
     lambda r: r["certificate"]["value"] == "198"),
    ("defect",
     {"spec": BIG_FP_SPEC, "inputs": [{"kind": "brooks-homogenized", "lambda": "A",
                                       "w": "x y"}],
      "radius": 1, "samples": 5},
     lambda r: r["certificate"]["value"] == "396" and r["within_certificate"]),
    ("extend",
     {"spec": REL_SPEC, "inputs": [{"kind": "step"}], "mode": "symmetrize",
      "evaluate": ["y x^2"]},
     lambda r: _value(r) == {"value": "1/2", "provenance": "exact"}),
    ("extend",
     {"spec": Z2_TIMES_T, "inputs": [{"kind": "cyclic-homomorphism", "lambda": "B"}],
      "evaluate": ["s t s t^2"]},
     lambda r: _value(r) == {"value": "3", "provenance": "exact"}),
    ("extend",
     {"spec": REL_SPEC, "c": "1", "inputs": [STEP], "evaluate": ["y x y"]},
     lambda r: r["certificate"]["value"] == "93"
     and r["per_lambda"]["C"]["K"] == "1/2"
     and r["band_exclusions"] == [{"coset": {"lambda": "C", "rep": "y"}, "entrance": "y",
                                   "exit": "y x", "width": "1"}]),
], ids=["tree-edge", "brooks", "brooks-homogenized", "symmetrize", "table", "band"])
def test_less_common_inputs_are_pinned_and_rerun_stable(tmp_path, command, config, pins):
    code, first = run_cli(tmp_path, command, config, name="one")
    _, second = run_cli(tmp_path, command, config, name="two")
    assert code == 0
    assert first["results"] == second["results"]
    assert pins(first["results"])


def test_config_errors_exit_2(tmp_path):
    code, report = run_cli(tmp_path, "extend", {"spec": FP_SPEC})
    assert code == 2 and report is None
    code, report = run_cli(
        tmp_path, "extend",
        {"spec": FP_SPEC, "inputs": [{"kind": "astrology", "lambda": "A"}]},
        name="kind",
    )
    assert code == 2 and report is None
    code, report = run_cli(
        tmp_path, "extend",
        {"spec": {"family": "dihedral"}, "inputs": [{"kind": "step"}]},
        name="family",
    )
    assert code == 2 and report is None


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("extend", "c", "1/0"),
        ("extend", "slope", "1/0"),
        ("defect", "radius", "two"),
        ("extend", "c", 0.5),
        ("extend", "c", True),
    ],
)
def test_malformed_numbers_exit_2(tmp_path, capsys, command, key, value):
    item = {"kind": "cyclic-homomorphism"}
    config = {"spec": REL_SPEC, "inputs": [item]}
    (item if key == "slope" else config)[key] = value
    code, report = run_cli(tmp_path, command, config)
    assert code == 2 and report is None
    assert "config error" in capsys.readouterr().err


CALIBRATE_CONFIG = {"spec": {"family": "free_rel_cyclic", "gens": ["x", "y"], "w": "x y"},
                    "samples": 4, "element_size": 3}
SCL_CONFIG = {"spec": BIG_FP_SPEC, "lambda": "A", "h": "x^-1 y^-1 x y",
              "phi": {"kind": "brooks-homogenized", "w": "x y"}}
SHAPE_BASES = {"calibrate-c": CALIBRATE_CONFIG, "scl-bound": SCL_CONFIG,
               "extend": {"spec": REL_SPEC, "inputs": [{"kind": "cyclic-homomorphism"}]}}


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("calibrate-c", "ngon_sizes", ["3"]),
        ("calibrate-c", "ngon_sizes", 3),
        ("calibrate-c", "ngon_sizes", []),
        ("calibrate-c", "ngon_sizes", [True]),
        ("scl-bound", "upper", 3),
        ("scl-bound", "y_gens", 3),
        ("scl-bound", "upper", {"commutators": [["x"]]}),
        ("scl-bound", "upper", {"n": 0, "commutators": []}),
        ("extend", "evaluate", 3),
        ("calibrate-c", "element_size", -1),
    ],
)
def test_malformed_shapes_exit_2(tmp_path, capsys, command, key, value):
    code, report = run_cli(tmp_path, command, {**SHAPE_BASES[command], key: value})
    assert code == 2 and report is None
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("names", [0, [[1], {}], ["A", 2], "AB"])
@pytest.mark.parametrize("command", ["extend", "separating"])
def test_malformed_spec_names_exit_2(tmp_path, capsys, command, names):
    config = {"spec": {**FP_SPEC, "names": names},
              "inputs": [{"kind": "cyclic-homomorphism", "lambda": "A"}],
              "pairs": [["1", "a b"]]}
    code, report = run_cli(tmp_path, command, config)
    assert code == 2 and report is None
    assert "names must be one distinct string per factor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("separating", "lambdas", ["Z"]),
        ("separating", "lambdas", 3),
        ("scl-bound", "phi", 3),
        ("scl-bound", "phi", None),
        ("scl-bound", "phi", "zz"),
        ("scl-bound", "phi", [1]),
    ],
)
def test_malformed_lambdas_and_phi_exit_2_naming_the_key(tmp_path, capsys, command, key, value):
    base = {"separating": {"spec": FP_SPEC, "pairs": [["1", "a b a^2"]]},
            "scl-bound": SCL_CONFIG}[command]
    code, report = run_cli(tmp_path, command, {**base, key: value})
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert "config error" in err and key in err


Z3_TIMES_T = {"family": "free_product",
              "factors": [{"kind": "cyclic", "order": 3}, {"kind": "free", "gens": ["t"]}],
              "names": ["A", "B"]}


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("extend", {"spec": BIG_FP_SPEC,
                    "inputs": [{"kind": "brooks", "lambda": "A", "w": "x zz"}]}, "inputs w"),
        ("extend", {"spec": REL_SPEC, "inputs": [{"kind": "cyclic-homomorphism"}],
                    "evaluate": ["zz"]}, "evaluate"),
        ("separating", {"spec": FP_SPEC, "pairs": [["1", "q"]]}, "pairs"),
        ("scl-bound", {**SCL_CONFIG, "h": "x^-1 zz"}, "h"),
        ("scl-bound", {**SCL_CONFIG, "phi": {"kind": "brooks-homogenized", "w": "x^0"}},
         "phi w"),
        ("scl-bound", {**SCL_CONFIG, "y_gens": ["x", "t"]}, "y_gens"),
        ("scl-bound", {**SCL_CONFIG, "upper": {"n": 1, "commutators": [["x", "y^"]]}},
         "upper commutators"),
    ],
    ids=["inputs-w", "evaluate", "pairs", "h", "phi-w", "y_gens", "commutators"],
)
def test_config_words_that_do_not_parse_exit_2_naming_the_key(
        tmp_path, capsys, command, config, key):
    code, report = run_cli(tmp_path, command, config)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bad {key}: "), err


@pytest.mark.parametrize("command, config", [
    ("extend", {"spec": Z3_TIMES_T, "inputs": [{"kind": "brooks", "lambda": "A", "w": "g"}]}),
    ("scl-bound", {**SCL_CONFIG, "spec": Z3_TIMES_T, "h": "g",
                   "phi": {"kind": "brooks-homogenized", "w": "g"}}),
], ids=["brooks", "scl-bound"])
def test_words_on_a_finite_factor_exit_2(tmp_path, capsys, command, config):
    code, report = run_cli(tmp_path, command, config)
    assert code == 2 and report is None
    assert "free factor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("verify", "radius", -1),
        ("verify", "radius", MAX_RADIUS + 1),
        ("verify", "samples", -5),
        ("verify", "samples", 1_000_000),
        ("defect", "radius", -1),
        ("defect", "samples", MAX_SAMPLES + 1),
        ("extend", "restriction_samples", -1),
        ("extend", "restriction_samples", 1_000_000),
        ("calibrate-c", "samples", -1),
        ("as-nec-demo", "n", MAX_DEMO + 1),
        ("as-nec-demo", "k_max", MAX_DEMO + 1),
        ("as-nec-demo", "k_max", -1),
        ("scl-bound", "upper.n", MAX_UPPER_N + 1),
        ("calibrate-c", "element_size", MAX_ELEMENT_SIZE + 1),
    ],
)
def test_radius_and_samples_out_of_range_exit_2_naming_the_key(
        tmp_path, capsys, command, key, value):
    rel = {"spec": REL_SPEC, "inputs": [{"kind": "step", "antisymmetrize": True}]}
    upper = {**SCL_CONFIG, "upper": {"n": 1, "commutators": [["x", "y"]]}}
    base = {"calibrate-c": CALIBRATE_CONFIG, "scl-bound": upper}.get(command, rel)
    # a dotted key names a key inside an object: upper.n
    outer, _, inner = key.rpartition(".")
    config = {**base, outer: {**base[outer], inner: value}} if outer else {**base, key: value}
    code, report = run_cli(tmp_path, command, config)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be an integer from 0 to "), err


def test_separating_command_reports_the_requested_labels(tmp_path):
    config = {"spec": FP_SPEC, "pairs": [["1", "a b a^2"]], "lambdas": ["B"]}
    code, report = run_cli(tmp_path, "separating", config)
    assert code == 0
    assert [row["lambda"] for row in report["results"]["reports"]] == ["B"]


def test_failed_gate_exits_1(tmp_path):
    config = {"spec": REL_SPEC, "inputs": [{"kind": "step"}], "mode": "strict"}
    code, report = run_cli(tmp_path, "extend", config)
    assert code == 1
    assert report is None


def test_budget_exhaustion_exits_3_with_partial_report(tmp_path):
    config = {
        "spec": {"family": "free_rel_cyclic", "gens": ["x", "y"], "w": "x y"},
        "c": "4/5",
        "budget": {"max_vertices": 5},
        "inputs": [{"kind": "cyclic-homomorphism"}],
        "evaluate": ["y x y x"],
    }
    code, report = run_cli(tmp_path, "extend", config)
    assert code == 3
    assert report is not None
    assert report["status"] == "budget-exhausted"
    assert "error" in report and "timings" in report


def test_tag_rejects_unknown_provenance(tmp_path, capsys, monkeypatch):
    # the code picks every tag, so an unknown one is a bug, not a config error
    with pytest.raises(ValueError) as raised:
        tag(1, "vibes")
    assert not isinstance(raised.value, QcextError)
    assert tag(1, "exact") == {"value": "1", "provenance": "exact"}
    monkeypatch.setitem(HANDLERS, "verify", lambda config, seed: ({"x": tag(1, "vibes")}, 0))
    code, report = run_cli(tmp_path, "verify", {"spec": REL_SPEC})
    assert code == 4 and report is None
    assert "ValueError: unknown report provenance 'vibes'" in capsys.readouterr().err


def test_scl_bound_lower_above_upper_exits_1(tmp_path, capsys, monkeypatch):
    # the upper bound goes through SclBound, which refuses lower > upper
    pipeline = cli.undistortion_pipeline

    def inflated(*args, **kwargs):
        report = pipeline(*args, **kwargs)
        report["bound"] = SclBound(report["bound"].g, Fraction(2))
        return report

    monkeypatch.setattr(cli, "undistortion_pipeline", inflated)
    config = {**SCL_CONFIG, "upper": {"n": 1, "commutators": [["x", "y"]]}}
    code, report = run_cli(tmp_path, "scl-bound", config)
    assert code == 1 and report is None
    assert "lower bound 2 exceeds upper bound 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, message", [
    ("extend", {"spec": BIG_FP_SPEC, "inputs": [{"kind": "tree-edge", "lambda": "A", "p": 0}]},
     "inputs[0].p must be an integer from 1"),
    ("extend", {"spec": BIG_FP_SPEC, "inputs": [{"kind": "cyclic-homomorphism", "lambda": "A"}]},
     "infinite cyclic factor"),
    ("extend", {"spec": Z3_TIMES_T, "inputs": [{"kind": "tree-edge", "lambda": "A"}]},
     "free factor"),
    ("calibrate-c", {"spec": BIG_FP_SPEC, "samples": 2}, "free_rel_cyclic"),
    ("extend", {"spec": {**Z2_TIMES_T, "factors": [
        {"kind": "table", "names": ["1", "s"], "table": [[0, 1], [1, 2]]},
        {"kind": "free", "gens": ["t"]}]}, "inputs": [{"kind": "cyclic-homomorphism", "lambda": "B"}]},
     "out of range"),
    ("extend", {"spec": {**Z3_TIMES_T, "factors": [{"kind": "cyclic", "order": 3, "sym": 5},
                                                   {"kind": "free", "gens": ["t"]}]},
                "inputs": [{"kind": "cyclic-homomorphism", "lambda": "B"}]},
     "spec.factors[0].sym must be a string"),
    ("verify", {"spec": {"family": "free_rel_cyclic", "gens": ["x", "y"], "w": "x y"},
                "samples": 2, "radius": 1}, "no polygon constant"),
    ("extend", {"spec": REL_SPEC, "c": "-1", "inputs": [{"kind": "cyclic-homomorphism"}]},
     "C must be nonnegative"),
    ("defect", {"spec": BIG_FP_SPEC, "inputs": [{"kind": "brooks", "lambda": "A", "w": "x y"},
                                                {"kind": "tree-edge", "lambda": "B"}]},
     "one coefficient module"),
    ("scl-bound", {**SCL_CONFIG, "h": "x"}, "h must lie in the commutator subgroup"),
    ("scl-bound", {**SCL_CONFIG, "y_gens": ["y"]}, "y_gens must span the factor's abelianization"),
], ids=["tree-edge-p-0", "homomorphism-on-F2", "tree-edge-on-cyclic", "calibrate-free-product",
        "bad-table", "sym-not-a-string", "no-polygon-constant", "negative-c", "mixed-modules",
        "h-outside-commutators", "y-gens-not-spanning"])
def test_config_problems_found_while_building_exit_2(tmp_path, capsys, command, config, message):
    # each of these exited 1, "check failed", or raised, before any check ran
    code, report = run_cli(tmp_path, command, config)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err


@pytest.mark.parametrize("command, config, message", [
    ("verify", {"spec": REL_SPEC, "sampels": 3}, "unknown keys: sampels"),
    ("extend", {"spec": REL_SPEC, "inputs": [{"kind": "step", "slope": 2}]},
     "unknown keys: inputs[0].slope"),
    ("extend", {"spec": {**FP_SPEC, "budget": {"max_vertices": 10, "bogus": 1}},
                "inputs": [{"kind": "cyclic-homomorphism", "lambda": "A"}]},
     "unknown keys: spec.budget.bogus"),
    ("defect", {"spec": REL_SPEC, "inputs": [{"kind": "step", "antisymmetrize": "no"}]},
     "inputs[0].antisymmetrize must be true or false"),
    ("extend", {"spec": {**Z3_TIMES_T, "factors": [{"kind": "cyclic", "order": MAX_ORDER + 1},
                                                   {"kind": "free", "gens": ["t"]}]},
                "inputs": [{"kind": "cyclic-homomorphism", "lambda": "B"}]},
     f"spec.factors[0].order must be an integer from 1 to {MAX_ORDER}"),
    ("extend", {"spec": {**Z2_TIMES_T, "factors": [
        {"kind": "table", "names": ["1"] * (MAX_ORDER + 1), "table": []},
        {"kind": "free", "gens": ["t"]}]}, "inputs": [{"kind": "cyclic-homomorphism", "lambda": "B"}]},
     f"spec.factors[0].names must be a list of 1 to {MAX_ORDER} entries"),
    ("distortion", {"k_list": [1, MAX_K + 1]}, f"k_list[1] must be an integer from 1 to {MAX_K}"),
    ("calibrate-c", {**CALIBRATE_CONFIG, "ngon_sizes": [MAX_NGON + 1]},
     f"ngon_sizes[0] must be an integer from 1 to {MAX_NGON}"),
    ("verify", {"spec": {**REL_SPEC, "C": str(MAX_C + 1)}, "samples": 2, "radius": 1},
     f"must be at most {MAX_C}"),
], ids=["unknown-key", "unknown-input-key", "unknown-budget-key", "antisymmetrize-string",
        "cyclic-order", "table-size", "distortion-k", "ngon-size", "polygon-constant"])
def test_misread_and_unbounded_keys_exit_2_naming_the_key(tmp_path, capsys, command, config,
                                                          message):
    # before the config tables these ran: a misspelt key silently took its
    # default, "no" switched antisymmetrization on, and nothing bounded these sizes
    code, report = run_cli(tmp_path, command, config)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err


def test_an_internal_error_exits_4_with_its_traceback(tmp_path, capsys, monkeypatch):
    def broken(config, seed):
        raise RuntimeError("a bug")

    monkeypatch.setitem(HANDLERS, "verify", broken)
    code, report = run_cli(tmp_path, "verify", {"spec": REL_SPEC})
    assert code == 4 and report is None
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "Traceback" in err and "RuntimeError: a bug" in err


FUZZ_BASES = [
    ("extend", {"spec": {"family": "free_product",
                        "factors": [{"kind": "free", "gens": ["a"]},
                                    {"kind": "cyclic", "order": 2, "sym": "s"},
                                    {"kind": "table", "names": ["1", "u"], "table": [[0, 1], [1, 0]]}],
                        "names": ["A", "S", "U"], "budget": {"max_depth": 8}},
               "inputs": [{"kind": "cyclic-homomorphism", "lambda": "A", "slope": "1/2",
                           "antisymmetrize": False}],
               "evaluate": ["a s u a"], "mode": "strict", "c": "0", "restriction_samples": 2}),
    ("extend", {"spec": BIG_FP_SPEC, "inputs": [{"kind": "tree-edge", "lambda": "A", "p": 2}],
                "evaluate": ["x t"], "mode": "symmetrize"}),
    ("separating", {"spec": FP_SPEC, "pairs": [["1", "a b"]], "lambdas": ["A"], "c": "0"}),
    ("defect", {"spec": BIG_FP_SPEC, "inputs": [{"kind": "brooks", "lambda": "A", "w": "x y"},
                                                {"kind": "cyclic-homomorphism", "lambda": "B"}],
                "radius": 1, "samples": 2}),
    ("calibrate-c", {"spec": {**REL_SPEC, "C": "0", "budget": {"max_vertices": 2000}},
                     "samples": 2, "ngon_sizes": [3], "element_size": 2}),
    ("as-nec-demo", {"n": 1, "k_max": 2}),
    ("scl-bound", {**SCL_CONFIG, "y_gens": ["x", "y"], "reference_scl_h": "1/2",
                   "upper": {"n": 1, "commutators": [["x", "y"]]}}),
    ("distortion", {"k_list": [1, 2]}),
    ("verify", {"spec": {**REL_SPEC, "C": "0", "budget": {"max_vertices": 2000}},
                "inputs": [{"kind": "step", "antisymmetrize": True}], "samples": 2, "radius": 1}),
]
FUZZ_VALUES = [None, 0, -1, 2.5, True, "zz", "", [], {}, [1], {"a": 1}, "1/0", 10**6]


def _key_paths(node, path=()):
    """Every key path into a config: object keys and list indices."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _key_paths(value, path + (key,))


def test_fuzzed_configs_exit_with_a_documented_code(tmp_path, capsys):
    # every key path of small working configs, one or two per command, deleted
    # or set to each value above: the 2,408 configs run in about 6 s, so none
    # is sampled out
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
    for command, base in FUZZ_BASES:
        cfg.write_text(json.dumps(base))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, command
        for path in _key_paths(base):
            for value in ("<delete>", *FUZZ_VALUES):
                config = json.loads(json.dumps(base))
                node = config
                for key in path[:-1]:
                    node = node[key]
                if value == "<delete>":
                    del node[path[-1]]
                else:
                    node[path[-1]] = value
                cfg.write_text(json.dumps(config))
                code = main([command, "--config", str(cfg), "--out", str(out)])
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 3) and "Traceback" not in err, (command, path, value, err)


def test_readme_lists_each_commands_keys():
    # README's per-command tables mirror COMMANDS, key for key
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed, command = {}, None
    for line in readme.splitlines():
        if line.startswith("#"):
            heading = re.fullmatch(r"#### `([a-z-]+)`", line)
            command = heading.group(1) if heading else None
            if command:
                listed[command] = set()
        elif command and (row := re.match(r"\| `(\w+)` \|", line)):
            listed[command].add(row.group(1))
    assert listed == {name: set(table) for name, table in COMMANDS.items()}


def test_readme_lists_each_provenance_tag():
    # README's provenance table mirrors qc.PROVENANCES, tag for tag and in order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Provenance tags\n", 1)[1].split("\n#", 1)[0]
    assert re.findall(r"^\| `([a-z-]+)` \|", section, re.M) == list(PROVENANCES)
