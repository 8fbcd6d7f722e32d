"""Command line front end.

Every subcommand reads a JSON config through its table in `COMMANDS`, runs
deterministically for a fixed (config, seed) pair, and emits one JSON report
whose `results` are byte-identical across reruns.  Exit codes: 0 success, 1
a check failed, 2 a config error (no report), 3 a search budget ran out (a
partial report), 4 an internal error (a bug; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from fractions import Fraction

from . import __version__
from .coeffs import ModuleVector, TrivialReals
from .embedding import (
    SearchBudget,
    boolean,
    calibrate_c,
    checked,
    config_boundary,
    integer,
    list_of,
    obj,
    one_of,
    optional,
    rational,
    seeded_rng,
    spec_from_json,
    string,
)
from .errors import BudgetExhaustedError, ConfigError, QcextError, UnknownGeneratorError
from .extension import asnec_demo, extend, extend_general, restriction_check
from .geodesics import ball_domain
from .groups import FreeGroup, exponent_vector
from .qc import (
    QuasiCocycle,
    antisymmetrize,
    brooks,
    brooks_homogenized,
    cyclic_homomorphism,
    defect,
    embed_on_factor,
    step_quasimorphism,
    tree_edge_cocycle,
)
from .scl import (
    SclBound,
    cl_upper,
    free_dist_experiment,
    nice_generating_set,
    undistortion_pipeline,
)
from .separating import _resolve_c, separation_report
from .suite import run_full_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

MAX_RADIUS = 4  # the largest ball radius a config may ask for
MAX_SAMPLES = 10_000  # the largest sample count a config may ask for
MAX_DEMO = 100  # the largest as-nec-demo n and k_max
MAX_UPPER_N = 1_000  # the largest power of h an scl-bound upper checks
MAX_ELEMENT_SIZE = 16  # the longest element calibrate-c samples
MAX_NGON = 16  # the most sides of a calibrate-c polygon, one geodesic search each
MAX_K = 1_000  # the largest distortion k (k = 1,000 takes 0.15 s, 3,000 1.6 s)
MAX_C = 100  # the largest polygon constant: a run lists relative balls of radius 15C


def tag(value, provenance: str) -> dict:
    """Report numerics always travel with a provenance label.  The label is
    chosen by the code, never by a config, so an unknown one is a bug: a
    ValueError, which exits 4."""
    if provenance not in (
        "exact",
        "empirical-lower-bound",
        "certified-lower-bound",
        "certified-upper-bound",
        "external-reference",
    ):
        raise ValueError(f"unknown report provenance {provenance!r}")
    return {"value": str(value), "provenance": provenance}


def vector_json(vec: ModuleVector) -> dict:
    if isinstance(vec.module, TrivialReals):
        return tag(vec.scalar(), "exact")
    entries = {str(idx): str(vec.coefficient(idx)) for idx in vec.support()}
    out = tag(vec.norm_pth_power(), "exact")
    out["norm_pth_power"] = out.pop("value")
    out["entries"] = dict(sorted(entries.items()))
    return out


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e


def _word(parser, text, key: str):
    """parser.parse(text), a ConfigError naming the key if it fails."""
    try:
        return parser.parse(text)
    except UnknownGeneratorError as e:
        raise ConfigError(f"bad {key}: {e}") from None


def build_input(spec, item: dict) -> tuple[str, QuasiCocycle]:
    """One cocycle input from its stanza, read through INPUTS."""
    kind, lam, labels = item["kind"], item["lambda"], spec.lambdas()
    if lam is None and len(labels) == 1:
        lam = labels[0]
    one_of(*labels)(lam, "inputs lambda")
    factor = spec.factor(lam) if spec.family == "free_product" else None
    if kind in ("brooks", "brooks-homogenized", "tree-edge") and not isinstance(factor, FreeGroup):
        raise ConfigError(f"{kind} inputs target a free factor")

    if kind == "cyclic-homomorphism":
        q = cyclic_homomorphism(spec, lam, slope=item["slope"])
    elif kind == "step":
        q = step_quasimorphism(spec)
    elif kind == "tree-edge":
        q = tree_edge_cocycle(spec, lam, p=item["p"])
    else:
        make = brooks if kind == "brooks" else brooks_homogenized
        q = embed_on_factor(spec, lam, make(factor, _word(factor, item["w"], "inputs w")))
    if item["antisymmetrize"]:
        q = antisymmetrize(q)
    return lam, q


# -- config tables -----------------------------------------------------------------

_INPUT_KEYS = {"lambda": (optional(string), None), "antisymmetrize": (optional(boolean), False)}
INPUTS = {
    "cyclic-homomorphism": {**_INPUT_KEYS, "slope": (rational, 1)},
    "step": _INPUT_KEYS,
    "brooks": {**_INPUT_KEYS, "w": (string, ...)},
    "brooks-homogenized": {**_INPUT_KEYS, "w": (string, ...)},
    "tree-edge": {**_INPUT_KEYS, "p": (integer(1), 2)},
}
_C = (optional(rational), None)
_RUN = {"spec": (spec_from_json, ...), "c": _C, "budget": (SearchBudget.from_json, None)}
_INPUTS = list_of(obj(INPUTS, "kind"), 1)
_PAIRS = list_of(list_of(string, 2, 2))

# Each command's keys (README mirrors these tables).
COMMANDS = {
    "extend": {**_RUN, "inputs": (_INPUTS, ...), "evaluate": (list_of(string), []),
               "mode": (one_of("strict", "symmetrize"), "strict"),
               "restriction_samples": (integer(0, MAX_SAMPLES), 20)},
    "separating": {**_RUN, "pairs": (_PAIRS, ...), "lambdas": (optional(list_of(string)), None)},
    "defect": {**_RUN, "inputs": (_INPUTS, ...),
               "radius": (integer(0, MAX_RADIUS), 2), "samples": (integer(0, MAX_SAMPLES), 120)},
    "calibrate-c": {"spec": _RUN["spec"], "budget": _RUN["budget"],
                    "samples": (integer(0, MAX_SAMPLES), 200),
                    "ngon_sizes": (list_of(integer(1, MAX_NGON, text=False), 1), [3, 4, 5, 6]),
                    "element_size": (integer(0, MAX_ELEMENT_SIZE), 6)},
    "as-nec-demo": {"n": (integer(0, MAX_DEMO), 1), "k_max": (integer(0, MAX_DEMO), 6)},
    "scl-bound": {
        **_RUN, "lambda": (string, ...), "h": (string, ...),
        "phi": (obj({"brooks-homogenized": {"w": (string, ...)}}, "kind"), ...),
        "y_gens": (optional(list_of(string)), None), "reference_scl_h": _C,
        # upper.n reads from 0 here; cmd_scl_bound refuses 0 (h^0 bounds nothing)
        "upper": (optional(obj({"n": (integer(0, MAX_UPPER_N), 1),
                                "commutators": (_PAIRS, ...)})), None)},
    "distortion": {"k_list": (list_of(integer(1, MAX_K, text=False)), list(range(1, 7)))},
    "verify": {**_RUN, "inputs": (_INPUTS, None),
               "samples": (integer(0, MAX_SAMPLES), 500), "radius": (integer(0, MAX_RADIUS), 3)},
}


def _read(config: dict, command: str) -> dict:
    """The config read through COMMANDS[command], inputs built and c checked."""
    with config_boundary():
        cfg = checked(config, COMMANDS[command])
        if cfg.get("inputs") is not None:
            items, cfg["inputs"] = cfg["inputs"], {}
            for lam, q in (build_input(cfg["spec"], item) for item in items):
                if lam in cfg["inputs"]:
                    raise ConfigError(f"duplicate input for label {lam!r}")
                cfg["inputs"][lam] = q
            if len({q.module for q in cfg["inputs"].values()}) > 1:
                raise ConfigError("all inputs must share one coefficient module")
        if "c" in cfg and _resolve_c(cfg["spec"], cfg["c"]) > MAX_C:
            raise ConfigError(f"c (or else the spec's C) must be at most {MAX_C}")
    return cfg


# -- subcommand handlers ---------------------------------------------------------


def cmd_extend(config: dict, seed: int) -> tuple[dict, int]:
    cfg = _read(config, "extend")
    spec, inputs = cfg["spec"], cfg["inputs"]
    points = [_word(spec, text, "evaluate") for text in cfg["evaluate"]]
    if cfg["mode"] == "strict":
        result = extend(spec, inputs, c_value=cfg["c"], budget=cfg["budget"], seed=seed)
    else:
        result = extend_general(spec, inputs, c_value=cfg["c"], budget=cfg["budget"])

    values = [{"g": str(g), "iota": vector_json(result.iota(g))} for g in points]
    restrictions = [restriction_check(result, lam, samples=cfg["restriction_samples"], seed=seed)
                    for lam in sorted(inputs)]
    payload = result.to_json()
    payload["certificate_tagged"] = tag(result.certificate.value,
                                        "certified-upper-bound")
    payload["values"] = values
    payload["restriction"] = restrictions
    return payload, EXIT_OK


def cmd_separating(config: dict, seed: int) -> tuple[dict, int]:
    cfg = _read(config, "separating")
    spec, lams = cfg["spec"], cfg["lambdas"]
    if lams is not None and not set(lams) <= set(spec.lambdas()):
        raise ConfigError("lambdas must be a list of subgroup labels")
    pairs = [(_word(spec, f, "pairs"), _word(spec, g, "pairs")) for f, g in cfg["pairs"]]
    rows = []
    for f, g in pairs:
        report = separation_report(spec, f, g, c_value=cfg["c"], budget=cfg["budget"], lams=lams)
        for lam in sorted(report):
            sep = report[lam]
            data = sep.to_json()
            data["distances"] = [tag(d, "exact") for d in sep.distances]
            rows.append(data)
    return {"reports": rows}, EXIT_OK


def cmd_defect(config: dict, seed: int) -> tuple[dict, int]:
    cfg = _read(config, "defect")
    spec = cfg["spec"]
    result = extend(spec, cfg["inputs"], c_value=cfg["c"], budget=cfg["budget"], seed=seed)

    elements = ball_domain(spec, cfg["radius"])
    rng = seeded_rng(seed, "cli:defect")
    for _ in range(cfg["samples"]):
        elements.append(spec.random_element(rng, 4))
    est = defect(result.iota, elements)
    ok = est.leq_exact(result.certificate.value)
    payload = {
        "certificate": tag(result.certificate.value, "certified-upper-bound"),
        "certificate_detail": result.certificate.to_json(),
        "empirical_defect": est.to_json(),
        "within_certificate": ok,
        "conditional": result.conditional,
        "conditional_reasons": sorted(set(map(str, result.conditional_reasons))),
    }
    return payload, EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_calibrate(config: dict, seed: int) -> tuple[dict, int]:
    cfg = _read(config, "calibrate-c")  # its keys are calibrate_c's parameters
    if cfg["spec"].family != "free_rel_cyclic":
        raise ConfigError("calibrate-c samples the free_rel_cyclic family")
    report = calibrate_c(seed=seed, **cfg)
    payload = report.to_json()
    payload["max_ratio"] = tag(report.max_ratio, "empirical-lower-bound")
    payload["note"] = (
        "empirical lower estimate of the polygon constant; "
        "supply the calibrated value as \"c\" to downstream commands"
    )
    return payload, EXIT_OK


def cmd_asnec(config: dict, seed: int) -> tuple[dict, int]:
    payload = asnec_demo(seed=seed, **_read(config, "as-nec-demo"))
    ok = payload["violation_grows"] and payload["symmetrized"]["defect_within_certificate"]
    return payload, EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_scl_bound(config: dict, seed: int) -> tuple[dict, int]:
    cfg = _read(config, "scl-bound")
    with config_boundary():
        spec, upper = cfg["spec"], cfg["upper"]
        lam = one_of(*spec.lambdas())(cfg["lambda"], "lambda")
        factor = spec.factor(lam) if spec.family == "free_product" else None
        if not isinstance(factor, FreeGroup):
            raise ConfigError("scl-bound transports from a free factor of a free product")
        h = _word(factor, cfg["h"], "h")
        if any(exponent_vector(h).values()):
            raise ConfigError("h must lie in the commutator subgroup of the factor")
        phi = brooks_homogenized(factor, _word(factor, cfg["phi"]["w"], "phi w"))
        y_gens = None if cfg["y_gens"] is None else [
            _word(factor, t, "y_gens") for t in cfg["y_gens"]]
        # the adjusted phi subtracts a homomorphism fixed on y_gens' span
        if y_gens is not None and len(nice_generating_set(factor, y_gens).y1) < len(factor.gens):
            raise ConfigError("y_gens must span the factor's abelianization")
        if upper is not None:
            if upper["n"] < 1:
                raise ConfigError("upper.n must be a positive integer")
            comms = [(_word(spec, u, "upper commutators"), _word(spec, v, "upper commutators"))
                     for u, v in upper["commutators"]]

    report = undistortion_pipeline(
        spec, lam, h, phi,
        y_gens=y_gens,
        c_value=cfg["c"],
        budget=cfg["budget"],
        scl_h_reference=cfg["reference_scl_h"],
        seed=seed,
    )
    bound = report["bound"]
    payload = {
        "g": report["g"],
        "lower": {
            "value": tag(bound.lower, "certified-lower-bound"),
            "witness": bound.lower_witness,
        },
        "constants": report["constants"].to_json(),
        "chain": report["chain"],
        "restriction_consistent": report["restriction_consistent"],
        "conditional": report["conditional"],
    }
    if upper is not None:
        n = upper["n"]
        count = cl_upper(spec.group, bound.g**n, comms)
        # SclBound refuses a lower bound above the upper: a CertificateError
        bound = SclBound(bound.g, bound.lower, bound.lower_witness, Fraction(count, n))
        payload["upper"] = {
            "cl": tag(count, "exact"),
            "scl_upper": tag(bound.upper, "certified-upper-bound"),
        }
    if "scl_h_transport" in report:
        payload["scl_h_transport"] = report["scl_h_transport"]
    ok = report["restriction_consistent"]
    return payload, EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_distortion(config: dict, seed: int) -> tuple[dict, int]:
    payload = free_dist_experiment(seed=seed, **_read(config, "distortion"))
    ok = payload["distortion_witnessed"]
    return payload, EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify(config: dict, seed: int) -> tuple[dict, int]:
    cfg = _read(config, "verify")
    payload = run_full_suite(
        cfg["spec"],
        cocycles=cfg["inputs"],
        c_value=cfg["c"],
        budget=cfg["budget"],
        seed=seed,
        samples=cfg["samples"],
        radius=cfg["radius"],
    )
    return payload, EXIT_OK if payload["all_passed"] else EXIT_CHECK_FAILED


HANDLERS = {
    "extend": cmd_extend,
    "separating": cmd_separating,
    "defect": cmd_defect,
    "calibrate-c": cmd_calibrate,
    "as-nec-demo": cmd_asnec,
    "scl-bound": cmd_scl_bound,
    "distortion": cmd_distortion,
    "verify": cmd_verify,
}


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcext",
        description="extend quasi-cocycles from embedded subgroups with "
        "certified defect bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the report here")
    args = parser.parse_args(argv)

    started = time.monotonic()
    envelope = {
        "command": args.command,
        "seed": args.seed,
        "version": __version__,
        "environment": {"execution": "serial"},
    }

    try:
        config = _load_config(args.config)
        envelope["config"] = config
        results, code = HANDLERS[args.command](config, args.seed)
        envelope["results"] = results
        envelope["status"] = "ok" if code == EXIT_OK else "check-failed"
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return EXIT_CONFIG
    except BudgetExhaustedError as e:
        envelope["status"] = "budget-exhausted"
        envelope["error"] = str(e)
        envelope["results"] = envelope.get("results", {})
        envelope["timings"] = {"total_s": round(time.monotonic() - started, 3)}
        _emit(envelope, args.out)
        sys.stderr.write(f"budget exhausted: {e}\n")
        return EXIT_BUDGET
    except QcextError as e:
        sys.stderr.write(f"check failed: {e}\n")
        return EXIT_CHECK_FAILED
    except Exception:
        sys.stderr.write(f"internal error:\n{traceback.format_exc()}")
        return EXIT_INTERNAL

    envelope["timings"] = {"total_s": round(time.monotonic() - started, 3)}
    _emit(envelope, args.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
