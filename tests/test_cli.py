from __future__ import annotations

import json

import pytest

from qcext.cli import MAX_RADIUS, MAX_SAMPLES, main, tag
from qcext.errors import ConfigError

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
    if report is not None:
        assert _floats({k: v for k, v in report.items() if k != "timings"}) == []
    return code, report


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
    ],
)
def test_radius_and_samples_out_of_range_exit_2_naming_the_key(
        tmp_path, capsys, command, key, value):
    base = CALIBRATE_CONFIG if command == "calibrate-c" else {
        "spec": REL_SPEC, "inputs": [{"kind": "step", "antisymmetrize": True}]}
    code, report = run_cli(tmp_path, command, {**base, key: value})
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


def test_tag_rejects_unknown_provenance():
    with pytest.raises(ConfigError):
        tag(1, "vibes")
    assert tag(1, "exact") == {"value": "1", "provenance": "exact"}
