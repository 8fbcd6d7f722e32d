"""One workload in one fresh process: set up, run rounds of the measured
stages, check every output against oracles.py, print one JSON line.

run.py starts this script once per setup sample and once for the measured
run; the workloads and their stages are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

CODE = {1: "x", -1: "X", 2: "y", -2: "Y"}
FP_SPEC = {"family": "free_product",
           "factors": [{"kind": "free", "gens": ["x", "y"]}, {"kind": "free", "gens": ["t"]}],
           "names": ["A", "B"]}
RELX_SPEC = {"family": "free_rel_cyclic", "gens": ["x", "y"], "w": "x"}
RELXY_SPEC = {"family": "free_rel_cyclic", "gens": ["x", "y"], "w": "x y",
              "budget": {"max_vertices": 20000, "max_power": 6}}
RELXY_C = "4/3"  # calibrate-c at 60 samples, seed 0; an empirical lower bound
# relxy-generic's distance map: words of length <= 8 from one pruned sweep
# over words of length <= 10 with powers up to 10 (about two seconds).
DMAP_RADIUS, DMAP_SWEEP = 8, 10

# Every stage is timed in the process's CPU time.  The work is
# single-threaded and does no I/O to speak of, so on an idle machine this
# equals wall time; on a shared host it leaves out the time the process
# waited for a CPU, which otherwise shows up as spikes of tens of
# milliseconds in the latencies.
clock = time.process_time


def cpu_since_start() -> float:
    """CPU seconds this process has used since it started."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def load_program(trace: bool):
    """Import qcext from this checkout's src/ (never from anywhere else),
    installing the tracer first when asked so every layer is wrapped."""
    if not (SRC / "qcext" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import qcext

    if Path(qcext.__file__).resolve().parent != (SRC / "qcext").resolve():
        raise SystemExit(f"qcext imported from {qcext.__file__}, not {SRC}")
    return tracer


def word_string(word) -> str:
    return "".join(CODE[c] for c in word.letters)


def tokens(word: str) -> str:
    """Parser input for a reduced letter string: 'xY' -> 'x y^-1'."""
    return " ".join(c if c.islower() else f"{c.lower()}^-1" for c in word) or "1"


def sweep_distances(cap: int, max_power: int, radius: int) -> dict[str, int]:
    """The string sweep's distances on the words of length <= radius.

    The sweep takes seconds and depends on nothing but its arguments, so
    the first run in a checkout keeps its answer under .bench_build/ and
    later runs read it back, after checking that it covers the ball."""
    path = WORK / f"sweep-xy-cap{cap}-power{max_power}-radius{radius}.json"
    want = oracles.ball("xXyY", radius)
    try:
        kept = json.loads(path.read_text())
        if isinstance(kept, dict) and kept.keys() == set(want):
            return kept
    except (OSError, ValueError):
        pass
    sweep = oracles.string_sweep("xy", cap=cap, max_power=max_power)
    kept = {u: sweep[u] for u in want if u in sweep}
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(kept))
    os.replace(tmp, path)
    return kept


def percentile(values: list, q: int) -> float:
    """The q-th percentile, interpolated between neighbouring samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tally:
    """Operations attempted and failed, by kind.  A wrong output is a failed
    operation and also makes the run incorrect; an error the program raises
    is a failed operation only."""

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.wrong = Counter()

    def add(self, kind: str, attempted: int, errors: int = 0, wrong: int = 0) -> None:
        self.attempted[kind] += attempted
        self.failed[kind] += errors + wrong
        self.wrong[kind] += wrong


class Workload:
    """Shared stages and checks; subclasses name the group, the inputs, the
    sizes and the schedule.

    A round runs `schedule` in order on one fresh extension.  The evaluation
    set is evaluated once, split evenly over the "eval" entries; the other
    entries repeat their stage.  A run repeats short rounds, and the
    machine's speed drifts over seconds, so every metric takes samples
    spread over the whole run."""

    name = ""
    schedule: tuple = ()
    defect_repeats = 1
    verify_repeats = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.cert = None
        self.deferred: list = []
        self.passed: dict = {}  # kind -> (an output that passed, its attempted count)
        self.recomputed = None  # (values, their defect recomputation)

    # -- stages ------------------------------------------------------------------

    def eval_chunks(self) -> list[list[str]]:
        """The evaluation set in a seed-shuffled order, split evenly over
        the round's "eval" entries."""
        parts = self.schedule.count("eval")
        order = list(self.words)
        self.rng.shuffle(order)
        return [order[i::parts] for i in range(parts)]

    def evaluate(self, ext, words: list[str]):
        """Fresh iota(g) on every word, each call timed on its own."""
        from qcext.errors import BudgetExhaustedError

        latencies, values, errors = [], {}, 0
        for w in words:
            g = self.elements[w]
            start = clock()
            try:
                v = ext.iota(g)
            except BudgetExhaustedError:
                latencies.append(clock() - start)
                errors += 1
                continue
            latencies.append(clock() - start)
            values[w] = v.scalar()
        return latencies, values, errors

    def defect_scans(self, ext):
        from qcext.qc import defect

        elems = [self.elements[w] for w in self.domain]
        times, estimates = [], []
        for _ in range(self.defect_repeats):
            start = clock()
            estimates.append(defect(ext.iota, elems))
            times.append(clock() - start)
        return times, estimates

    def cli(self, command: str, config: dict) -> tuple[float, int, dict | None]:
        """`qcext <command>` in-process, from the config file to the report."""
        from qcext import cli

        path = self.workdir / f"{command}.json"
        out = self.workdir / f"{command}.out.json"
        path.write_text(json.dumps(config))
        if out.exists():
            out.unlink()
        start = clock()
        code = cli.main([command, "--config", str(path), "--seed", str(self.seed),
                         "--out", str(out)])
        seconds = clock() - start
        report = json.loads(out.read_text()) if out.exists() else None
        return seconds, code, report

    # -- checks ------------------------------------------------------------------

    def check_once(self, kind: str, output, check, tally: Tally) -> None:
        """check(output, tally), unless `output` equals an earlier output of
        this kind that passed: that one counts as attempted, with no failure.

        Later rounds repeat the first round's outputs, and checking each in
        full would take seconds of every round.  A check that is deferred
        passes nothing here, so its outputs are checked every time."""
        seen = self.passed.get(kind)
        if seen is not None and seen[0] == output:
            tally.add(kind, seen[1])
            return
        attempted, failed, deferred = tally.attempted[kind], tally.failed[kind], len(self.deferred)
        check(output, tally)
        if tally.failed[kind] == failed and len(self.deferred) == deferred:
            self.passed[kind] = (output, tally.attempted[kind] - attempted)

    def check_values(self, values: dict, errors: int, tally: Tally) -> None:
        wrong = sum(1 for w, v in values.items() if v != self.expected_value(w))
        tally.add("evaluations", len(values) + errors, errors=errors, wrong=wrong)

    def check_defects(self, values: dict, estimates, tally: Tally) -> None:
        """Recompute every pair's defect |v(fg) - v(f) - v(g)| from the values
        (scalar inputs, trivial action) and hold it to the certificate."""
        domain = self.domain
        if self.recomputed is not None and self.recomputed[0] == values:
            worst, over, missing = self.recomputed[1]
        else:
            worst = Fraction(0)
            over = 0
            missing = 0
            for f in domain:
                for g in domain:
                    fg = oracles.mul(f, g)
                    if fg not in values or f not in values or g not in values:
                        missing += 1
                        continue
                    gap = abs(values[fg] - values[f] - values[g])
                    worst = max(worst, gap)
                    over += gap > self.cert
            self.recomputed = (values, (worst, over, missing))
        pairs = len(domain) ** 2
        for est in estimates:
            # A scan that disagrees with the recomputation puts every pair
            # it checked in doubt.
            agrees = est.pairs_checked == pairs and (missing or est.exact_pth_power_max == worst)
            tally.add("defect-pairs", pairs, errors=missing,
                      wrong=over if agrees else pairs - missing)

    def check_suite(self, code: int, report: dict | None, tally: Tally) -> None:
        if report is None or "total_instances" not in report.get("results", {}):
            tally.add("suite-instances", 1, errors=1)
            return
        res = report["results"]
        violations = res["total_violations"]
        consistent = res["all_passed"] == (violations == 0) and (code == 0) == res["all_passed"]
        tally.add("suite-instances", res["total_instances"], errors=violations,
                  wrong=0 if consistent else 1)

    def check_distance_words(self, dmap: dict, expected, tally: Tally, radius: int) -> None:
        """Each word's distance against the oracle, and the Lipschitz
        property |d(u) - d(us)| <= 1 across every ambient edge."""
        want = oracles.ball("xXyY", radius)
        bad = set()
        for u in want:
            d = dmap.get(u)
            if d is None or d != expected(u):
                bad.add(u)
                continue
            for s in "xXyY":
                us = oracles.mul(u, s)
                if len(us) <= radius and us in dmap and abs(dmap[us] - d) > 1:
                    bad.add(u)
        extra = len(set(dmap) - set(want))
        tally.add("distance-words", len(want), wrong=len(bad) + extra)


class FreeProductBrooks(Workload):
    name = "fp-brooks"
    schedule = ("eval", "distance", "verify", "eval", "distance", "eval", "verify", "distance",
                "eval", "defect", "scl-bound", "distance")

    def setup(self):
        from qcext.embedding import FreeProductPairSpec
        from qcext.extension import extend
        from qcext.groups import FreeGroup, FreeProduct
        from qcext.qc import brooks, cyclic_homomorphism, embed_on_factor

        fxy, ft = FreeGroup(["x", "y"]), FreeGroup(["t"])
        self.spec = FreeProductPairSpec(FreeProduct([fxy, ft]), ["A", "B"])
        inputs = {"A": embed_on_factor(self.spec, "A", brooks(fxy, fxy.parse("x y"))),
                  "B": cyclic_homomorphism(self.spec, "B")}
        return extend(self.spec, inputs, seed=self.seed)

    def prepare(self, ext):
        self.cert = ext.certificate.value
        self.domain = oracles.ball("xXyYtT", 3)
        self.words = oracles.distinct_products(self.domain)
        self.elements = {w: self.spec.parse(tokens(w)) for w in self.words}

    def expected_value(self, w):
        return oracles.telescope_brooks_t(w)

    def distances(self):
        """Coned distances d(1, g) over the evaluation set; distance_map has
        no free-product form, so this is one `distance` query per element."""
        from qcext.geodesics import distance

        one = self.spec.identity()
        start = clock()
        out = {w: distance(self.spec, one, self.elements[w]) for w in self.words}
        return clock() - start, out

    def check_distances(self, dmap, tally):
        wrong = sum(1 for w, d in dmap.items() if d != oracles.syllable_count(w))
        tally.add("distance-words", len(dmap), wrong=wrong)

    verify_config = {"spec": FP_SPEC, "samples": 100, "radius": 2,
                     "inputs": [{"kind": "brooks", "lambda": "A", "w": "x y"},
                                {"kind": "cyclic-homomorphism", "lambda": "B"}]}
    scl_config = {"spec": FP_SPEC, "lambda": "A", "h": "x^-1 y^-1 x y",
                  "phi": {"kind": "brooks-homogenized", "w": "x y"},
                  "upper": {"n": 1, "commutators": [["x", "y"]]},
                  "reference_scl_h": "1/2"}

    def check_scl(self, code: int, report: dict | None, tally: Tally) -> None:
        """lower <= upper, and lower = phi(h) / (4 M D) from the reported
        constants, with phi(h) recomputed from the commutator's cyclic word."""
        if report is None or "lower" not in report.get("results", {}):
            tally.add("scl-bounds", 1, errors=1)
            return
        res = report["results"]
        lower = Fraction(res["lower"]["value"]["value"])
        upper = Fraction(res["upper"]["scl_upper"]["value"])
        m = Fraction(res["constants"]["M"])
        d = Fraction(res["constants"]["D"]["value"])
        phi_h = oracles.homogenized_brooks("XYxy", "xy")
        ok = code == 0 and lower <= upper and lower == phi_h / (4 * m * d)
        tally.add("scl-bounds", 1, wrong=0 if ok else 1)


class RelXHalfSign(Workload):
    name = "relx-half-sign"
    schedule = ("eval", "distance", "verify", "eval", "distance", "verify", "eval", "distance",
                "verify", "eval", "defect", "distance", "defect")

    def setup(self):
        from qcext.embedding import FreeRelCyclicSpec
        from qcext.extension import extend
        from qcext.groups import FreeGroup
        from qcext.qc import CertifiedBound, QuasiCocycle, antisymmetrize, step_quasimorphism

        group = FreeGroup(["x", "y"])
        self.spec = FreeRelCyclicSpec(group, group.parse("x"))
        step = step_quasimorphism(self.spec)
        # alpha(step)(x^m) = sign(m)/2; defect 1/2 by sign-pattern exhaustion.
        half_sign = QuasiCocycle(
            "half-sign", group, step.module, antisymmetrize(step),
            antisymmetric=True, homogeneous=True,
            certified_defect=CertifiedBound(Fraction(1, 2), "combinatorial-certificate",
                                            "sign-pattern exhaustion"))
        return extend(self.spec, {"C": half_sign}, seed=self.seed)

    def prepare(self, ext):
        self.cert = ext.certificate.value
        self.domain = oracles.ball("xXyY", 4)
        self.words = oracles.distinct_products(self.domain)
        self.elements = {w: self.spec.parse(tokens(w)) for w in self.words}

    def expected_value(self, w):
        return oracles.half_sign_sum(w)

    def distances(self):
        from qcext.geodesics import distance_map

        start = clock()
        dmap = distance_map(self.spec, 9)
        return clock() - start, dmap

    def check_distances(self, dmap, tally):
        strings = {word_string(k): v for k, v in dmap.items()}
        self.check_distance_words(strings, oracles.basis_distance, tally, 9)

    verify_config = {"spec": RELX_SPEC, "samples": 250, "radius": 2,
                     "inputs": [{"kind": "step", "antisymmetrize": True}]}


class RelXYGeneric(Workload):
    name = "relxy-generic"
    # The short stages repeat within their entry, so each takes tens of
    # samples per round.
    schedule = ("eval", "verify", "eval", "distance", "eval", "verify", "eval", "defect",
                "distance", "defect", "verify")
    defect_repeats = 30
    verify_repeats = 12

    def setup(self):
        from qcext.embedding import SearchBudget, spec_from_json
        from qcext.extension import extend
        from qcext.qc import cyclic_homomorphism

        self.spec = spec_from_json(RELXY_SPEC)
        budget = SearchBudget(**RELXY_SPEC["budget"])
        return extend(self.spec, {"C": cyclic_homomorphism(self.spec)},
                      c_value=Fraction(RELXY_C), budget=budget, seed=self.seed)

    def prepare(self, ext):
        self.cert = ext.certificate.value
        self.domain = oracles.ball("xXyY", 2)
        self.words = oracles.ball("xXyY", 4)
        self.elements = {w: self.spec.parse(tokens(w)) for w in self.words}

    def check_values(self, values: dict, errors: int, tally: Tally) -> None:
        """iota(w^k) = k on the powers of w, iota(g^-1) = -iota(g) on all."""
        wrong = 0
        for w, v in values.items():
            k = oracles.power_of(w, "xy")
            inv = values.get(oracles.inverse(w))
            if (k is not None and v != k) or (inv is not None and inv != -v):
                wrong += 1
        tally.add("evaluations", len(values) + errors, errors=errors, wrong=wrong)

    def distances(self):
        from qcext.geodesics import distance_map

        start = clock()
        dmap = distance_map(self.spec, DMAP_RADIUS, sweep_len=DMAP_SWEEP, max_power=DMAP_SWEEP)
        return clock() - start, dmap

    def check_distances(self, dmap, tally):
        """Against a plain string sweep with the same caps, run after the
        round's peak memory is read (the sweep holds a million strings)."""
        strings = {word_string(k): v for k, v in dmap.items()}

        def against_sweep():
            sweep = sweep_distances(cap=DMAP_SWEEP, max_power=DMAP_SWEEP, radius=DMAP_RADIUS)
            self.check_distance_words(strings, sweep.get, tally, DMAP_RADIUS)

        self.deferred.append(against_sweep)

    verify_config = {"spec": RELXY_SPEC, "c": RELXY_C, "samples": 0, "radius": 1}


WORKLOADS = {w.name: w for w in (FreeProductBrooks, RelXHalfSign, RelXYGeneric)}


def run_round(work: Workload, ext, tally: Tally, samples: dict, first: bool) -> None:
    """One round of the schedule on `ext`; the round's measured seconds go
    to "solve".  Checks run outside the timed regions, after the round."""
    chunks = iter(work.eval_chunks())
    products = {oracles.mul(f, g) for f in work.domain for g in work.domain}
    values, errors, estimates = {}, 0, []
    solve = 0.0
    for stage in work.schedule:
        if stage == "eval":
            latencies, got, err = work.evaluate(ext, next(chunks))
            values.update(got)
            errors += err
            samples["eval"].extend(t * 1e3 for t in latencies)
            solve += sum(latencies)
        elif stage == "defect":
            if not products <= values.keys():
                raise RuntimeError(f"{work.name}: defect scan before its products are evaluated")
            times, est = work.defect_scans(ext)
            estimates.extend(est)
            samples["defect"].extend(times)
            solve += sum(times)
        elif stage == "distance":
            seconds, dmap = work.distances()
            samples["distance"].append(seconds)
            solve += seconds
            work.check_once("distance-words", dmap, work.check_distances, tally)
            # Drop the map now: its words would stay in every later
            # garbage collection and slow the stages that follow.
            del dmap
        else:
            config = work.verify_config if stage == "verify" else work.scl_config
            repeats = work.verify_repeats if stage == "verify" else 1
            for _ in range(repeats):
                seconds, code, report = work.cli(stage, config)
                samples[stage].append(seconds)
                solve += seconds
                if stage == "verify":
                    work.check_suite(code, report, tally)
                else:
                    work.check_scl(code, report, tally)
    if first:
        samples["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    work.check_once("evaluations", values,
                    lambda got, t: work.check_values(got, errors, t), tally)
    work.check_defects(values, estimates, tally)
    while work.deferred:
        work.deferred.pop(0)()
    samples["solve"].append(solve)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = load_program(bool(args.trace))
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix="perfbench-") as tmp:
        work = WORKLOADS[args.workload](args.seed, Path(tmp))
        # A setup sample is the CPU time from process start until qcext is
        # imported, plus one setup (spec, inputs, extend): for the first
        # setup, the CPU time from process start until extend returns.
        imported = cpu_since_start()
        setup_start = time.monotonic()
        ext = work.setup()
        setups = [cpu_since_start()]
        setup_wall = time.monotonic() - setup_start
        if args.setup_only:
            print(json.dumps({"setup_s": setups}))
            return 0
        work.prepare(ext)

        tally = Tally()
        samples = {k: [] for k in ("eval", "defect", "distance", "verify", "scl-bound", "solve")}
        start = time.monotonic()
        rounds = 0
        while True:
            round_start = time.monotonic()
            if rounds:
                begin = clock()
                ext = work.setup()  # a fresh extension: no memo carried over
                setups.append(imported + clock() - begin)
            run_round(work, ext, tally, samples, rounds == 0)
            rounds += 1
            # Whole rounds only; stop where the next one would end further
            # past --seconds than stopping now falls short of it.  A traced
            # run is one round, so its counts repeat exactly.
            now = time.monotonic()
            cost = now - round_start + (setup_wall if rounds == 1 else 0)
            if tracer is not None or now + cost / 2 >= start + args.seconds:
                break

    lat_ms = samples["eval"]
    if tracer is not None:
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in tracer.metrics().items()}
        metrics["trace.solve_s"] = {"value": statistics.median(samples["solve"]), "unit": "s"}
        tracer.dump_spans(sys.stderr)
    else:
        metrics = {
            "eval_ms_p50": {"value": percentile(lat_ms, 50), "unit": "ms"},
            "eval_ms_p90": {"value": percentile(lat_ms, 90), "unit": "ms"},
            "defect_scan_s": {"value": statistics.fmean(samples["defect"]), "unit": "s"},
            "verify_s": {"value": statistics.fmean(samples["verify"]), "unit": "s"},
            "distance_map_s": {"value": statistics.fmean(samples["distance"]), "unit": "s"},
            "solve_s": {"value": statistics.fmean(samples["solve"]), "unit": "s"},
            "peak_rss_mb": {"value": samples["peak_rss_mb"], "unit": "MB"},
        }
    sys.stderr.write(json.dumps({"workload": args.workload, "rounds": rounds,
                                 "eval_samples": len(lat_ms),
                                 "attempted": dict(tally.attempted),
                                 "failed": dict(tally.failed)}) + "\n")
    print(json.dumps({
        "setup_s": setups,
        "correct": sum(tally.wrong.values()) == 0,
        "attempted": sum(tally.attempted.values()),
        "failed": sum(tally.failed.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
