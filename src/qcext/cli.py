"""Command line front end.

Every subcommand reads a JSON config, runs deterministically for a fixed
(config, seed) pair, and emits one JSON report.  The `results` section is
byte-identical across reruns; wall-clock timings live outside it.  Exit
codes: 0 success, 1 a check or verification failed, 2 config/schema
problems, 3 a search budget ran out (a partial report is still written).
A config word that does not parse, a `radius` outside 0..MAX_RADIUS, a
`samples` or `restriction_samples` outside 0..MAX_SAMPLES, an as-nec-demo
`n` or `k_max` outside 0..MAX_DEMO, an scl-bound `upper.n` above
MAX_UPPER_N and an `element_size` above MAX_ELEMENT_SIZE exit 2 and name
the key; the bounds keep every run finite.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .coeffs import ModuleVector, TrivialReals
from .embedding import SearchBudget, calibrate_c, config_rational, seeded_rng, spec_from_json
from .errors import BudgetExhaustedError, ConfigError, QcextError, UnknownGeneratorError
from .extension import asnec_demo, extend, extend_general, restriction_check
from .groups import FreeGroup
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
from .scl import cl_upper, undistortion_pipeline, free_dist_experiment
from .separating import separation_report
from .suite import ball_domain, run_full_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

MAX_RADIUS = 4  # the largest ball radius a config may ask for
MAX_SAMPLES = 10_000  # the largest sample count a config may ask for
MAX_DEMO = 100  # the largest as-nec-demo n and k_max
MAX_UPPER_N = 1_000  # the largest power of h an scl-bound upper checks
MAX_ELEMENT_SIZE = 16  # the longest element calibrate-c samples


def tag(value, provenance: str) -> dict:
    """Report numerics always travel with a provenance label."""
    if provenance not in (
        "exact",
        "empirical-lower-bound",
        "certified-lower-bound",
        "certified-upper-bound",
        "external-reference",
    ):
        raise ConfigError(f"unknown report provenance {provenance!r}")
    return {"value": str(value), "provenance": provenance}


def vector_json(vec: ModuleVector) -> dict:
    if isinstance(vec.module, TrivialReals):
        return tag(vec.scalar(), "exact")
    entries = {str(idx): str(vec.coefficient(idx)) for idx in vec.support()}
    out = tag(vec.norm_pth_power(), "exact")
    out["norm_pth_power"] = out.pop("value")
    out["entries"] = dict(sorted(entries.items()))
    return out


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config is missing the required key {key!r}")
    return config[key]


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _budget(config: dict) -> SearchBudget | None:
    if "budget" not in config:
        return None
    return SearchBudget.from_json(config["budget"])


def _int(data: dict, key: str, default: int, top: int | None = None,
         where: str = "") -> int:
    """data[key], or default, as an integer: an int or a decimal string,
    from 0 to `top` when that is given.  Errors name the key after the
    prefix `where` of its enclosing keys."""
    raw = data.get(key, default)
    if not isinstance(raw, bool) and isinstance(raw, (int, str)):
        try:
            n = int(raw)
        except ValueError:
            pass
        else:
            if top is None or 0 <= n <= top:
                return n
            raise ConfigError(f"{where}{key} must be an integer from 0 to {top}, not {n}")
    raise ConfigError(f"{where}{key} must be an integer, not {raw!r}")


def _word(parser, text, key: str):
    """parser.parse(str(text)), a ConfigError naming the key if it fails."""
    try:
        return parser.parse(str(text))
    except UnknownGeneratorError as e:
        raise ConfigError(f"bad {key}: {e}") from None


def _list(data: dict, key: str, what: str, item=lambda x: True, default=None) -> list:
    """data[key], or default, as a list whose every entry passes `item`."""
    value = data.get(key, default)
    if not isinstance(value, list) or not all(map(item, value)):
        raise ConfigError(f"{key} must be a list of {what}")
    return value


def _positive_int(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) and n >= 1


def _pair(p) -> bool:
    return isinstance(p, list) and len(p) == 2


def _spec(config: dict):
    return spec_from_json(_require(config, "spec"))


def build_input(spec, item: dict) -> tuple[str, QuasiCocycle]:
    """One cocycle input from its config stanza."""
    if not isinstance(item, dict):
        raise ConfigError("each input must be an object")
    kind = _require(item, "kind")
    lam = item.get("lambda")
    if lam is None:
        if len(spec.lambdas()) != 1:
            raise ConfigError("input needs a lambda label")
        lam = spec.lambdas()[0]
    if lam not in spec.lambdas():
        raise ConfigError(f"unknown subgroup label {lam!r}")

    if kind == "cyclic-homomorphism":
        slope = config_rational(item, "slope", 1)
        if spec.family == "free_product":
            q = cyclic_homomorphism(spec, lam=lam, slope=slope)
        else:
            q = cyclic_homomorphism(spec, slope=slope)
    elif kind == "step":
        if spec.family != "free_rel_cyclic":
            raise ConfigError("the step function lives on a relative cyclic subgroup")
        q = step_quasimorphism(spec)
    elif kind in ("brooks", "brooks-homogenized"):
        factor = spec.factor(lam) if spec.family == "free_product" else None
        if not isinstance(factor, FreeGroup):
            raise ConfigError(f"{kind} inputs target a free factor")
        w = _word(factor, _require(item, "w"), "inputs w")
        make = brooks if kind == "brooks" else brooks_homogenized
        q = embed_on_factor(spec, lam, make(factor, w))
    elif kind == "tree-edge":
        if spec.family != "free_product":
            raise ConfigError("tree-edge inputs target a free factor")
        q = tree_edge_cocycle(spec, lam, p=_int(item, "p", 2))
    else:
        raise ConfigError(f"unknown input kind {kind!r}")

    if item.get("antisymmetrize"):
        q = antisymmetrize(q)
    return lam, q


def build_inputs(spec, config: dict) -> dict:
    items = _require(config, "inputs")
    if not isinstance(items, list) or not items:
        raise ConfigError("inputs must be a non-empty list")
    out: dict[str, QuasiCocycle] = {}
    for item in items:
        lam, q = build_input(spec, item)
        if lam in out:
            raise ConfigError(f"duplicate input for label {lam!r}")
        out[lam] = q
    return out


# -- subcommand handlers ---------------------------------------------------------


def cmd_extend(config: dict, seed: int) -> tuple[dict, int]:
    spec = _spec(config)
    inputs = build_inputs(spec, config)
    budget = _budget(config)
    c = config_rational(config, "c")
    mode = config.get("mode", "strict")
    if mode == "strict":
        result = extend(spec, inputs, c_value=c, budget=budget, seed=seed)
    elif mode == "symmetrize":
        result = extend_general(spec, inputs, c_value=c, budget=budget)
    else:
        raise ConfigError(f"unknown extend mode {mode!r}")

    values = []
    for text in _list(config, "evaluate", "words", default=[]):
        g = _word(spec, text, "evaluate")
        values.append({"g": str(g), "iota": vector_json(result.iota(g))})
    samples = _int(config, "restriction_samples", 20, MAX_SAMPLES)
    restrictions = [restriction_check(result, lam, samples=samples, seed=seed)
                    for lam in sorted(inputs)]
    payload = result.to_json()
    payload["certificate_tagged"] = tag(result.certificate.value,
                                        "certified-upper-bound")
    payload["values"] = values
    payload["restriction"] = restrictions
    return payload, EXIT_OK


def cmd_separating(config: dict, seed: int) -> tuple[dict, int]:
    spec = _spec(config)
    budget = _budget(config)
    c = config_rational(config, "c")
    lams = config.get("lambdas")
    if lams is not None:
        lams = _list(config, "lambdas", "subgroup labels", lambda lam: lam in spec.lambdas())
    rows = []
    for pair in _list(config, "pairs", "[f, g] pairs", _pair):
        f, g = _word(spec, pair[0], "pairs"), _word(spec, pair[1], "pairs")
        report = separation_report(spec, f, g, c_value=c, budget=budget, lams=lams)
        for lam in sorted(report):
            sep = report[lam]
            data = sep.to_json()
            data["distances"] = [tag(d, "exact") for d in sep.distances]
            rows.append(data)
    return {"reports": rows}, EXIT_OK


def cmd_defect(config: dict, seed: int) -> tuple[dict, int]:
    spec = _spec(config)
    inputs = build_inputs(spec, config)
    budget = _budget(config)
    result = extend(spec, inputs, c_value=config_rational(config, "c"), budget=budget, seed=seed)

    radius = _int(config, "radius", 2, MAX_RADIUS)
    samples = _int(config, "samples", 120, MAX_SAMPLES)
    elements = ball_domain(spec, radius)
    rng = seeded_rng(seed, "cli:defect")
    for _ in range(samples):
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
    spec = _spec(config)
    sizes = _list(config, "ngon_sizes", "positive integers", _positive_int, [3, 4, 5, 6])
    if not sizes:
        raise ConfigError("ngon_sizes must be non-empty")
    report = calibrate_c(
        spec,
        samples=_int(config, "samples", 200, MAX_SAMPLES),
        ngon_sizes=tuple(sizes),
        seed=seed,
        element_size=_int(config, "element_size", 6, MAX_ELEMENT_SIZE),
        budget=_budget(config),
    )
    payload = report.to_json()
    payload["max_ratio"] = tag(report.max_ratio, "empirical-lower-bound")
    payload["note"] = (
        "empirical lower estimate of the polygon constant; "
        "supply the calibrated value as \"c\" to downstream commands"
    )
    return payload, EXIT_OK


def cmd_asnec(config: dict, seed: int) -> tuple[dict, int]:
    payload = asnec_demo(
        n=_int(config, "n", 1, MAX_DEMO),
        k_max=_int(config, "k_max", 6, MAX_DEMO),
        seed=seed,
    )
    ok = payload["violation_grows"] and payload["symmetrized"]["defect_within_certificate"]
    return payload, EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_scl_bound(config: dict, seed: int) -> tuple[dict, int]:
    spec = _spec(config)
    if spec.family != "free_product":
        raise ConfigError("scl-bound transports along a free-product embedding")
    lam = _require(config, "lambda")
    if lam not in spec.lambdas():
        raise ConfigError(f"unknown subgroup label {lam!r}")
    factor = spec.factor(lam)
    if not isinstance(factor, FreeGroup):
        raise ConfigError("scl-bound transports from a free factor")
    h = _word(factor, _require(config, "h"), "h")
    phi_cfg = _require(config, "phi")
    if not isinstance(phi_cfg, dict):
        raise ConfigError("phi must be an object")
    kind = _require(phi_cfg, "kind")
    if kind == "brooks-homogenized":
        phi = brooks_homogenized(factor, _word(factor, _require(phi_cfg, "w"), "phi w"))
    elif kind == "cyclic-homomorphism":
        raise ConfigError("a homomorphism vanishes on [H,H]; nothing to transport")
    else:
        raise ConfigError(f"unsupported phi kind {kind!r}")
    y_gens = config.get("y_gens")
    if y_gens is not None:
        y_gens = [_word(factor, t, "y_gens") for t in _list(config, "y_gens", "words")]
    upper_cfg = config.get("upper")
    if upper_cfg is not None:
        if not isinstance(upper_cfg, dict):
            raise ConfigError("upper must be an object")
        n = _int(upper_cfg, "n", 1, MAX_UPPER_N, "upper.")
        if n < 1:
            raise ConfigError("upper n must be a positive integer")
        pairs = _list(upper_cfg, "commutators", "[u, v] pairs", _pair)
    reference = config_rational(config, "reference_scl_h")

    report = undistortion_pipeline(
        spec, lam, h, phi,
        y_gens=y_gens,
        c_value=config_rational(config, "c"),
        budget=_budget(config),
        scl_h_reference=reference,
        seed=seed,
    )
    bound = report["bound"]
    if upper_cfg is not None:
        comms = [(_word(spec, u, "upper commutators"), _word(spec, v, "upper commutators"))
                 for u, v in pairs]
        target = spec.group.syllable(spec.names.index(lam), h)
        count = cl_upper(spec.group, target**n, comms)
        report["upper"] = {
            "cl": tag(count, "exact"),
            "scl_upper": tag(Fraction(count, n), "certified-upper-bound"),
        }
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
    if "upper" in report:
        payload["upper"] = report["upper"]
    if "scl_h_transport" in report:
        payload["scl_h_transport"] = report["scl_h_transport"]
    ok = report["restriction_consistent"]
    return payload, EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_distortion(config: dict, seed: int) -> tuple[dict, int]:
    k_list = _list(config, "k_list", "positive integers", _positive_int, list(range(1, 7)))
    payload = free_dist_experiment(k_list, seed=seed)
    ok = payload["distortion_witnessed"]
    return payload, EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify(config: dict, seed: int) -> tuple[dict, int]:
    spec = _spec(config)
    inputs = None
    if "inputs" in config:
        inputs = build_inputs(spec, config)
    payload = run_full_suite(
        spec,
        cocycles=inputs,
        c_value=config_rational(config, "c"),
        budget=_budget(config),
        seed=seed,
        samples=_int(config, "samples", 500, MAX_SAMPLES),
        radius=_int(config, "radius", 3, MAX_RADIUS),
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

    envelope["timings"] = {"total_s": round(time.monotonic() - started, 3)}
    _emit(envelope, args.out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
