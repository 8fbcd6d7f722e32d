"""Self-test of the benchmark's checks: for each checker, correct outputs
count no failure and one perturbed output counts as failed.

    python3 perfbench/selftest.py

The outputs are built from oracles.py, so the program is not needed.
"""

from __future__ import annotations

import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import oracles
from bench import FreeProductBrooks, RelXHalfSign, RelXYGeneric, Tally


def estimate(values: dict, domain: list[str]) -> SimpleNamespace:
    worst = max(abs(values[oracles.mul(f, g)] - values[f] - values[g])
                for f in domain for g in domain)
    return SimpleNamespace(pairs_checked=len(domain) ** 2, exact_pth_power_max=worst)


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        work = Path(self._tmp.name)
        self.fp = FreeProductBrooks(0, work)
        self.relx = RelXHalfSign(0, work)
        self.relxy = RelXYGeneric(0, work)

    def counted(self, check, *args) -> Tally:
        tally = Tally()
        check(*args, tally)
        return tally

    def assert_flags(self, check, good: tuple, bad: tuple, kind: str) -> None:
        clean = self.counted(check, *good)
        self.assertGreater(clean.attempted[kind], 0)
        self.assertEqual(clean.failed[kind], 0)
        broken = self.counted(check, *bad)
        self.assertGreater(broken.failed[kind], 0)
        self.assertEqual(broken.attempted[kind], clean.attempted[kind])

    def test_free_product_values(self):
        words = oracles.distinct_products(oracles.ball("xXyYtT", 2))
        good = {w: oracles.telescope_brooks_t(w) for w in words}
        bad = dict(good, xyt=good["xyt"] + Fraction(1, 2))
        self.assert_flags(self.fp.check_values, (good, 0), (bad, 0), "evaluations")

    def test_half_sign_values(self):
        words = oracles.distinct_products(oracles.ball("xXyY", 2))
        good = {w: oracles.half_sign_sum(w) for w in words}
        bad = dict(good, yXXy=good["yXXy"] + Fraction(1, 2))
        self.assert_flags(self.relx.check_values, (good, 0), (bad, 0), "evaluations")

    def test_generic_values(self):
        good = {w: Fraction(oracles.brooks_count(w, "xy")) for w in oracles.ball("xXyY", 4)}
        power = dict(good, xyxy=Fraction(3))
        odd = dict(good, xYx=good["xYx"] + Fraction(1, 2))
        self.assert_flags(self.relxy.check_values, (good, 0), (power, 0), "evaluations")
        self.assert_flags(self.relxy.check_values, (good, 0), (odd, 0), "evaluations")

    def test_raised_evaluation_counts_as_failed(self):
        good = {w: oracles.half_sign_sum(w) for w in oracles.ball("xXyY", 1)}
        tally = self.counted(self.relx.check_values, good, 1)
        self.assertEqual(tally.failed["evaluations"], 1)
        self.assertEqual(tally.wrong["evaluations"], 0)

    def test_defect_scan(self):
        domain = oracles.ball("xXyYtT", 1)
        values = {w: oracles.telescope_brooks_t(w)
                  for w in oracles.distinct_products(domain)}
        self.fp.cert = Fraction(198)
        self.fp.domain = domain
        bad = dict(values, x=values["x"] + 200)
        self.assert_flags(self.fp.check_defects,
                          (values, [estimate(values, domain)]),
                          (bad, [estimate(bad, domain)]), "defect-pairs")
        # A scan whose reported maximum disagrees with the recomputation.
        off = SimpleNamespace(pairs_checked=len(domain) ** 2,
                              exact_pth_power_max=estimate(values, domain).exact_pth_power_max + 1)
        tally = self.counted(self.fp.check_defects, values, [off])
        self.assertGreater(tally.failed["defect-pairs"], 0)

    def test_repeated_output_is_checked_once(self):
        words = oracles.distinct_products(oracles.ball("xXyYtT", 2))
        good = {w: oracles.syllable_count(w) for w in words}
        bad = dict(good, xT=good["xT"] + 1)
        tally = Tally()
        for dmap in (good, dict(good), bad):
            self.fp.check_once("distance-words", dmap, self.fp.check_distances, tally)
        self.assertEqual(tally.attempted["distance-words"], 3 * len(good))
        self.assertEqual(tally.failed["distance-words"], 1)

    def test_free_product_distances(self):
        words = oracles.distinct_products(oracles.ball("xXyYtT", 2))
        good = {w: oracles.syllable_count(w) for w in words}
        bad = dict(good, xT=good["xT"] + 1)
        self.assert_flags(self.fp.check_distances, (good,), (bad,), "distance-words")

    def test_distance_words_against_sweep(self):
        sweep = oracles.string_sweep("xy", cap=6, max_power=6)
        good = {w: sweep[w] for w in oracles.ball("xXyY", 4)}
        bad = dict(good, xyx=good["xyx"] + 1)
        check = self.relxy.check_distance_words
        self.assert_flags(lambda dmap, tally: check(dmap, sweep.get, tally, 4),
                          (good,), (bad,), "distance-words")

    def test_distance_words_lipschitz(self):
        good = {w: oracles.basis_distance(w) for w in oracles.ball("xXyY", 4)}
        # An oracle that agrees with the perturbed map everywhere: only the
        # edge property can catch the jump.
        bad = dict(good, yy=good["yy"] + 2)
        check = self.relx.check_distance_words
        tally = self.counted(lambda dmap, t: check(dmap, bad.get, t, 4), bad)
        self.assertGreater(tally.failed["distance-words"], 0)
        clean = self.counted(lambda dmap, t: check(dmap, good.get, t, 4), good)
        self.assertEqual(clean.failed["distance-words"], 0)

    def test_suite_report(self):
        good = {"results": {"total_instances": 100, "total_violations": 0, "all_passed": True}}
        bad = {"results": {"total_instances": 100, "total_violations": 1, "all_passed": False}}
        self.assert_flags(self.fp.check_suite, (0, good), (1, bad), "suite-instances")
        liar = {"results": {"total_instances": 100, "total_violations": 1, "all_passed": True}}
        self.assertGreater(self.counted(self.fp.check_suite, 0, liar).wrong["suite-instances"], 0)
        self.assertEqual(self.counted(self.fp.check_suite, 3, None).failed["suite-instances"], 1)

    def test_scl_report(self):
        def report(lower: str) -> dict:
            return {"results": {"lower": {"value": {"value": lower}},
                                "upper": {"scl_upper": {"value": "1"}},
                                "constants": {"M": "66", "D": {"value": "6"}}}}

        self.assert_flags(self.fp.check_scl, (0, report("1/1584")), (0, report("1/1583")),
                          "scl-bounds")


if __name__ == "__main__":
    unittest.main()
