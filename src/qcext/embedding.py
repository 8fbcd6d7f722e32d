"""Concrete hyperbolically embedded instances and the relative metric.

Two decidable families are provided:

* FreeProductPairSpec: G = H_1 * ... * H_n (pairs are the main case), with
  the empty extra generating set.  The coned graph metric is the syllable
  count and the relative metric on each factor is 0 on the diagonal and
  infinite off it.
* FreeRelCyclicSpec: G = F(S) with the cyclic subgroup generated by a
  cyclically reduced non-proper-power word w, extra generating set S.

The relative distance between subgroup elements is the shortest path length
in the coned graph avoiding subgroup-labeled edges whose BOTH endpoints lie
in the subgroup; parallel edges labeled by ambient generators stay allowed,
which is why d-hat(1, x) = 1 when w = x.

Exactness bookkeeping: closed forms are marked exact; capped searches return
upper bounds and say so; budget exhaustion is distinct from proven infinity.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Sequence

from .errors import (
    BudgetExhaustedError,
    ConfigError,
    DomainError,
    MixedContextError,
    QcextError,
)
from .groups import (
    FiniteTableGroup,
    FreeGroup,
    FreeProduct,
    FreeProductElement,
    FreeWord,
    _slot_init,
    as_fraction,
    cyclic_group,
    is_cyclically_reduced,
    is_proper_power,
)


def seeded_rng(seed: int, label: str) -> random.Random:
    """Deterministic substream; never uses Python's salted hash()."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- alphabet letters ---------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class XLetter:
    """Edge label from the extra generating set X: one generator or its
    inverse, by letter code (`FreeWord.codes`).

    `lam` names the subgroup the generator lies in (a basis letter w), or
    is None; an HLetter always lies in the subgroup of its own `lam`.
    """

    sym: str
    code: int
    elem: FreeWord
    lam: str | None

    def __init__(self, group: FreeGroup, code: int, lam: str | None = None):
        sym = group.letter_symbol(code)
        object.__setattr__(self, "sym", sym + "^-1" if code & 1 else sym)
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "elem", FreeWord(group, (code,)))
        object.__setattr__(self, "lam", lam)

    def __eq__(self, other):
        return isinstance(other, XLetter) and self.elem == other.elem

    def __hash__(self):
        return hash(("X", self.code))

    def sort_key(self):
        return (0, self.code, 0)

    def __str__(self):
        return f"X:{self.sym}"

    def __repr__(self):
        return str(self)


@dataclass(frozen=True, slots=True, eq=False)
class HLetter:
    """Edge label from one subgroup alphabet: a nontrivial subgroup element.

    `elem` is the element in ambient form; `power` is set for cyclic
    subgroups (elem = w^power) and used for deterministic ordering.
    """

    lam: str
    elem: object
    power: int | None = None

    def __eq__(self, other):
        return (
            isinstance(other, HLetter)
            and self.lam == other.lam
            and self.elem == other.elem
        )

    def __hash__(self):
        return hash(("H", self.lam, self.elem))

    def sort_key(self):
        if self.power is not None:
            rank = 2 * abs(self.power) - (2 if self.power > 0 else 1)
        else:
            rank = str(self.elem)
        return (1, self.lam, rank)

    def __str__(self):
        return f"H:{self.elem}"

    def __repr__(self):
        return str(self)


# -- search budgets and relative distances ------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the lazily generated graph searches."""

    max_vertices: int = 400_000
    max_depth: int = 48
    max_power: int = 24
    max_geodesics: int = 20_000
    slack: int = 2

    @staticmethod
    def from_json(data: dict, where: str = "budget") -> SearchBudget:
        """A budget from its JSON form, read through BUDGET."""
        return SearchBudget(**checked(data, BUDGET, where))


INFINITE = "infinite"
FINITE = "finite"
UNKNOWN = "unknown"


@_slot_init
@dataclass(frozen=True, slots=True)
class RelativeDistance:
    """Relative metric value with its epistemic status.

    status: finite | infinite | unknown.  `exact` is True when the value is
    a proved distance (closed form or proven-infinite family fact); a capped
    search that found a path reports finite but exact=False (upper bound).
    Budget exhaustion without a path is `unknown`, never a fake infinity.
    """

    status: str
    value: int | None = None
    exact: bool = True
    note: str = ""

    def is_finite(self) -> bool:
        return self.status == FINITE

    def __str__(self):
        if self.status == FINITE:
            tag = "" if self.exact else " (upper bound)"
            return f"{self.value}{tag}"
        return self.status


def _dist_gt(d: RelativeDistance, bound: Fraction) -> tuple[bool, bool]:
    """(verdict, certain) for the test d > bound."""
    if d.status == INFINITE:
        return True, True
    if d.status == UNKNOWN:
        return True, False
    if Fraction(d.value) > bound:
        return True, d.exact
    return False, True


@dataclass(frozen=True)
class RelBall:
    """Listing of {h in H : d-hat(1,h) op radius} with completeness flag."""

    elements: tuple
    complete: bool
    note: str = ""


# -- family specs --------------------------------------------------------------

_DEFAULT_NAMES = ("A", "B", "C", "D", "E", "F")


class FreeProductPairSpec:
    """Factors of a free product, hyperbolically embedded with X = empty."""

    family = "free_product"

    def __init__(
        self,
        group: FreeProduct,
        names: Sequence[str] | None = None,
        budget: SearchBudget | None = None,
    ):
        names = _DEFAULT_NAMES[: len(group.factors)] if names is None else names
        if not (isinstance(names, (list, tuple)) and all(isinstance(n, str) for n in names)
                and len(names) == len(group.factors) == len(set(names))):
            raise DomainError("names must be one distinct string per factor")
        self.group = group
        self.names = names = tuple(names)
        self.budget = budget or SearchBudget()
        self._index = {nm: i for i, nm in enumerate(names)}
        self._syllable_letters: dict[tuple, HLetter] = {}

    def __repr__(self):
        return f"FreeProductPairSpec({', '.join(self.names)})"

    def lambdas(self) -> tuple[str, ...]:
        return self.names

    def factor(self, lam: str):
        return self.group.factors[self._index[lam]]

    def identity(self) -> FreeProductElement:
        return self.group.identity()

    def parse(self, text: str) -> FreeProductElement:
        return self.group.parse(text)

    def in_subgroup(self, g: FreeProductElement, lam: str) -> bool:
        if g.group != self.group:
            raise MixedContextError("element from a different group")
        raw = g.raw
        return not raw or (len(raw) == 1 and raw[0][0] == self._index[lam])

    def syllable_letter(self, syl: tuple) -> HLetter:
        """The subgroup letter of one raw syllable (i, a), built once."""
        letter = self._syllable_letters.get(syl)
        if letter is None:
            letter = self._syllable_letters[syl] = HLetter(
                self.names[syl[0]], FreeProductElement(self.group, (syl,)))
        return letter

    def coset_rep(self, g: FreeProductElement, lam: str) -> FreeProductElement:
        """Canonical representative of g H_lam: drop a trailing lam-syllable."""
        raw = g.raw
        if raw and raw[-1][0] == self._index[lam]:
            return FreeProductElement(self.group, raw[:-1])
        return g

    def rel_distance(self, h1, h2, lam: str, budget=None) -> RelativeDistance:
        if not (self.in_subgroup(h1, lam) and self.in_subgroup(h2, lam)):
            raise DomainError("both arguments must lie in the subgroup")
        if h1 == h2:
            return RelativeDistance(FINITE, 0, exact=True)
        return RelativeDistance(INFINITE, note="distinct factor elements")

    def rel_ball(self, lam: str, radius, strict: bool = False, budget=None) -> RelBall:
        radius = as_fraction(radius)
        inside = radius > 0 if strict else radius >= 0
        elems = (self.identity(),) if inside else ()
        return RelBall(elems, complete=True)

    def theoretical_c(self) -> Fraction:
        # Off-diagonal relative distances are infinite, so no geodesic
        # polygon has an isolated component with distinct endpoints.
        return Fraction(0)

    def random_element(self, rng: random.Random, max_syllables: int = 4):
        n = rng.randint(0, max_syllables)
        raw = ()  # the normal form, one nontrivial syllable at a time
        prev = -1
        for _ in range(n):
            i = rng.choice([j for j in range(len(self.group.factors)) if j != prev])
            syllable = self.random_subgroup_element(self.names[i], rng).raw
            if syllable:
                raw = self.group.raw_mul(raw, syllable)
                prev = i
        return self.group.wrap(raw)

    def random_subgroup_element(self, lam: str, rng: random.Random, size: int = 3):
        """A nontrivial element of the factor lam, or 1 if the factor is trivial."""
        idx = self._index[lam]
        factor = self.group.factors[idx]
        if isinstance(factor, FreeGroup):
            return self.group.syllable(idx, factor.random_word(rng, rng.randint(1, size)))
        n = len(factor.names)
        if n < 2:
            return self.identity()
        return self.group.syllable(idx, factor.elements()[rng.randrange(1, n)])


class FreeRelCyclicSpec:
    """F(S) with the cyclic subgroup generated by w, X = S."""

    family = "free_rel_cyclic"

    def __init__(
        self,
        group: FreeGroup,
        w: FreeWord,
        lam: str = "C",
        c_value=None,
        budget: SearchBudget | None = None,
    ):
        if len(group.gens) < 2:
            raise DomainError("ambient free group needs rank at least 2")
        if w.group != group:
            raise MixedContextError("w must be a word of the ambient group")
        if w.is_identity():
            raise DomainError("w must be nontrivial")
        if not is_cyclically_reduced(w):
            raise DomainError("w must be cyclically reduced")
        if is_proper_power(w):
            raise DomainError("w must not be a proper power")
        self.group = group
        self.w = w
        self.lam_name = lam
        self.is_basis = len(w) == 1
        if c_value is None and self.is_basis:
            c_value = Fraction(0)
        self.c_value = None if c_value is None else as_fraction(c_value)
        if self.c_value is not None and self.c_value < 0:
            raise DomainError("C must be nonnegative")
        self.budget = budget or SearchBudget()
        self._w_inv = w.inverse()
        # Edge letters are built once per spec: the ambient letters by code
        # (x, x^-1, y, y^-1, ...), marked as subgroup members when w is that
        # basis letter, and the subgroup letters by power, on demand.
        basis = w.codes[0] >> 1 if self.is_basis else None
        self.ambient_letters = {
            code: XLetter(group, code, lam if code >> 1 == basis else None)
            for code in range(2 * len(group.gens))
        }
        self._power_letters: dict[int, HLetter] = {}

    def __repr__(self):
        return f"FreeRelCyclicSpec(F({', '.join(self.group.gens)}) rel <{self.w}>)"

    def lambdas(self) -> tuple[str, ...]:
        return (self.lam_name,)

    def identity(self) -> FreeWord:
        return self.group.identity()

    def parse(self, text: str) -> FreeWord:
        return self.group.parse(text)

    def power_of(self, g: FreeWord) -> int | None:
        """k with g = w^k, or None.  Powers of a cyclically reduced w
        concatenate without cancellation, so this is a length check."""
        if g.group != self.group:
            raise MixedContextError("element from a different group")
        cs = g.codes
        k, r = divmod(len(cs), len(self.w))
        if r:
            return None
        if cs == self.w.codes * k:
            return k
        if cs == self._w_inv.codes * k:
            return -k
        return None

    def in_subgroup(self, g: FreeWord, lam: str | None = None) -> bool:
        return self.power_of(g) is not None

    def subgroup_element(self, k: int) -> FreeWord:
        # w is cyclically reduced, so w^k is |k| copies of w or w^-1.
        base = self.w if k >= 0 else self._w_inv
        return FreeWord(self.group, base.codes * abs(k))

    def power_letter(self, k: int) -> HLetter:
        """The subgroup letter of w^k (k != 0), built once per power."""
        letter = self._power_letters.get(k)
        if letter is None:
            letter = HLetter(self.lam_name, self.subgroup_element(k), power=k)
            self._power_letters[k] = letter
        return letter

    def coset_rep(self, g: FreeWord, lam: str | None = None) -> FreeWord:
        """Representative of g<w> minimizing (length, signed letters)."""
        if self.is_basis:
            # Strip the trailing run of w-letters.
            wgen = self.w.codes[0] >> 1
            cs = g.codes
            n = len(cs)
            while n and cs[n - 1] >> 1 == wgen:
                n -= 1
            return FreeWord(self.group, cs[:n])
        best = None
        span = 2 * len(g) // len(self.w) + 2
        for n in range(-span, span + 1):
            cand = g * self.subgroup_element(n)
            key = (len(cand), cand.letters)
            if best is None or key < best[0]:
                best = (key, cand)
        return best[1]

    def rel_distance(self, h1: FreeWord, h2: FreeWord, lam=None, budget=None) -> RelativeDistance:
        k1, k2 = self.power_of(h1), self.power_of(h2)
        if k1 is None or k2 is None:
            raise DomainError("both arguments must be powers of w")
        m = k2 - k1
        if m == 0:
            return RelativeDistance(FINITE, 0, exact=True)
        if self.is_basis:
            # A subgroup-edge-free path must spell the power one ambient
            # letter at a time; crossing each branch point of the tree
            # costs one edge, giving exactly |m|.
            return RelativeDistance(FINITE, abs(m), exact=True)
        return self._rel_bfs(self.subgroup_element(m), budget or self.budget)

    def _rel_bfs(self, target: FreeWord, budget: SearchBudget) -> RelativeDistance:
        """Capped breadth-first search for d-hat(1, target).

        Edges labeled by subgroup letters are usable only from vertices
        outside <w> (from inside, both endpoints would lie in <w>).  The
        search restricts word length and subgroup powers, so a found value
        is an upper bound; missing it within caps proves nothing.
        """
        from .geodesics import _bfs, _search_moves  # local: avoids an import cycle

        w_bytes, w_inv_bytes = bytes(self.w.codes), bytes(self._w_inv.codes)
        wl = len(w_bytes)

        def in_w(v: bytes) -> bool:
            k, r = divmod(len(v), wl)
            return r == 0 and (v == w_bytes * k or v == w_inv_bytes * k)

        goal = bytes(target.codes)
        try:
            dist = _bfs(
                _search_moves(self, budget.max_power),
                len(goal) + budget.slack * wl + 2,
                budget.max_depth,
                budget.max_vertices,
                target=goal,
                barred=in_w,
            )
        except BudgetExhaustedError:
            return RelativeDistance(UNKNOWN, note="vertex budget exhausted")
        if goal in dist:
            return RelativeDistance(FINITE, dist[goal], exact=False, note="capped search")
        return RelativeDistance(UNKNOWN, note="search space exhausted under caps")

    def rel_ball(self, lam, radius, strict: bool = False, budget=None) -> RelBall:
        radius = as_fraction(radius)
        budget = budget or self.budget

        def inside(v: Fraction) -> bool:
            return v < radius if strict else v <= radius

        if (radius <= 0 and strict) or radius < 0:
            # d-hat >= 0, so no element is inside
            return RelBall((), complete=True)
        if self.is_basis:
            # d-hat(1, w^k) = |k|; collect k with inside(|k|)
            ks = [k for k in range(-int(radius) - 1, int(radius) + 2) if inside(Fraction(abs(k)))]
            ks.sort(key=lambda k: (abs(k), -k))
            return RelBall(tuple(self.subgroup_element(k) for k in ks), complete=True)
        elems = []
        for k in range(-budget.max_power, budget.max_power + 1):
            h = self.subgroup_element(k)
            d = self.rel_distance(self.identity(), h, budget=budget)
            if d.status == FINITE and inside(Fraction(d.value)):
                elems.append(h)
        # The scan is power-capped and capped searches only give upper
        # bounds, so completeness cannot be claimed for the generic family.
        return RelBall(tuple(elems), complete=False,
                       note="power-capped scan; upper-bound distances")

    def theoretical_c(self) -> Fraction | None:
        return self.c_value

    def random_element(self, rng: random.Random, max_len: int = 8) -> FreeWord:
        return self.group.random_word(rng, rng.randint(0, max_len))

    def random_subgroup_element(self, lam, rng: random.Random, size: int = 5) -> FreeWord:
        return self.subgroup_element(rng.randint(-size, size))


# -- config schema --------------------------------------------------------------
#
# A table maps each key of a JSON object to (rule, default).  rule(value, path)
# reads a value or raises a ConfigError naming `path`, its place in the config
# ("upper.n", "inputs[0].w").  An absent key reads as its default, and a
# default of ... (Ellipsis) marks a key that must be given.

MAX_ORDER = 100  # the most elements of a finite factor: its axiom check is cubic


def checked(data, table: dict, where: str = "") -> dict:
    """data read through `table`.  Undeclared keys are refused after the
    declared ones are read, so a declared key's own message comes first."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where or 'config'} must be an object, not {data!r}")
    out = {}
    for key, (rule, default) in table.items():
        path = f"{where}.{key}" if where else key
        if key in data:
            out[key] = rule(data[key], path)
        elif default is ...:
            raise ConfigError(f"missing the required key {path}")
        else:
            out[key] = default
    unknown = sorted(f"{where}.{key}" if where else key for key in data if key not in table)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    return out


@contextmanager
def config_boundary():
    """Building objects from a config is part of checking it: a QcextError
    raised here (a bad group table, an input on the wrong factor) is a ConfigError."""
    try:
        yield
    except QcextError as e:  # a ConfigError passes through with its message
        raise ConfigError(str(e)) from e


def _rule(what: str, read):
    """The rule read(value), refusing a value as not `what` where it raises."""
    def rule(value, path):
        try:
            return read(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{path} must be {what}, not {value!r}") from None
    return rule


def _valid(ok: bool, value):
    if not ok:
        raise ValueError(value)
    return value


string = _rule("a string", lambda v: _valid(isinstance(v, str), v))
boolean = _rule("true or false", lambda v: _valid(isinstance(v, bool), v))
# an int or a string like "4/3" or "0.25", read exactly: never a float or a bool
rational = _rule('an integer or a string like "4/3"',
                 lambda v: Fraction(_valid(type(v) in (int, str), v)))


def one_of(*choices: str):
    return _rule(f"one of {', '.join(choices)}", lambda v: _valid(v in choices, v))


def optional(rule):
    """rule, with null read as absent (None)."""
    return lambda value, path: None if value is None else rule(value, path)


def integer(lo: int = 0, hi: int | None = None, text: bool = True):
    """An integer from lo to hi (None: no top), or with `text` a decimal string."""
    def read(value):
        n = int(value) if text and isinstance(value, str) else value
        return _valid(type(n) is int and lo <= n and (hi is None or n <= hi), n)
    return _rule(f"an integer from {lo}" + ("" if hi is None else f" to {hi}"), read)


def list_of(item, least: int = 0, most: int | None = None):
    """A list of `least` to `most` entries, each read by the rule `item`."""
    what = f"a list of {least} to {most}" if most else f"a list of at least {least}"
    whole = _rule(what + " entries", lambda v: _valid(
        type(v) is list and least <= len(v) and (most is None or len(v) <= most), v))
    return lambda value, path: [item(v, f"{path}[{i}]") for i, v in enumerate(whole(value, path))]


def obj(tables: dict, tag: str | None = None):
    """A nested object read through its table; with a `tag`, that key names
    its kind, and `tables` maps each kind to the table of its other keys."""
    if tag is None:
        return lambda value, path: checked(value, tables, path)
    kinds = one_of(*tables)

    def rule(value, path):
        kind = value.get(tag) if isinstance(value, dict) else None
        table = tables.get(kind, {}) if isinstance(kind, str) else {}
        return checked(value, {tag: (kinds, ...), **table}, path)
    return rule


BUDGET = {f.name: (integer(text=False), f.default) for f in fields(SearchBudget)}
FACTORS = {
    "free": {"gens": (list_of(string), ...)},
    "cyclic": {"order": (integer(1, MAX_ORDER, text=False), ...), "sym": (string, "g")},
    "table": {"names": (list_of(string, 1, MAX_ORDER), ...),
              "table": (list_of(list_of(integer(text=False))), ...)},
}
_GROUPS = {"free": FreeGroup, "cyclic": cyclic_group, "table": FiniteTableGroup}
_NO_C = 'null: a free product\'s polygon constant is 0 (set the run-level "c" key instead)'
SPECS = {
    "free_product": {
        "factors": (list_of(obj(FACTORS, "kind"), 1), ...),
        # FreeProductPairSpec checks them: one distinct string per factor
        "names": (lambda value, path: value, None),
        "C": (_rule(_NO_C, lambda v: _valid(v is None, v)), None),
        "budget": (SearchBudget.from_json, None),
    },
    "free_rel_cyclic": {"gens": (list_of(string), ...), "w": (string, ...),
                        "C": (optional(rational), None), "budget": (SearchBudget.from_json, None)},
}


def spec_from_json(data: dict, where: str = "spec"):
    """Build an embedding spec from its JSON form (CLI configs), read through SPECS."""
    with config_boundary():
        spec = obj(SPECS, "family")(data, where)
        if spec["family"] == "free_product":
            factors = [_GROUPS[f.pop("kind")](**f) for f in spec["factors"]]
            return FreeProductPairSpec(FreeProduct(factors), names=spec["names"],
                                       budget=spec["budget"])
        group = FreeGroup(spec["gens"])
        return FreeRelCyclicSpec(group, group.parse(spec["w"]), c_value=spec["C"],
                                 budget=spec["budget"])


# -- empirical calibration of the polygon constant -----------------------------


@dataclass
class CalibrationReport:
    family: str
    samples: int
    max_ratio: Fraction
    by_n: dict
    curve: list
    unresolved: int
    isolated_seen: int
    warnings: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "samples": self.samples,
            "max_ratio": str(self.max_ratio),
            "by_n": {str(k): str(v) for k, v in sorted(self.by_n.items())},
            "curve": [[i, str(v)] for i, v in self.curve],
            "unresolved": self.unresolved,
            "isolated_seen": self.isolated_seen,
            "warnings": list(self.warnings),
        }


def calibrate_c(
    spec,
    samples: int = 200,
    ngon_sizes: Sequence[int] = (3, 4, 5, 6),
    seed: int = 0,
    element_size: int = 6,
    budget: SearchBudget | None = None,
) -> CalibrationReport:
    """Empirical polygon constant: max over sampled geodesic n-gons with an
    isolated component a of d-hat(a_-, a_+)/n.

    A component counts as isolated only when no other edge of the loop has
    both endpoints in its coset; edges labeled by ambient generators count
    as de-isolating (they are parallel to subgroup edges).
    """
    from .geodesics import geodesic_routes  # local: avoids an import cycle

    if spec.family != "free_rel_cyclic":
        raise DomainError("calibration applies to the free_rel_cyclic family")
    rng = seeded_rng(seed, "calibrate-c")
    budget = budget or spec.budget
    lam = spec.lambdas()[0]
    max_ratio = Fraction(0)
    by_n: dict[int, Fraction] = {n: Fraction(0) for n in ngon_sizes}
    curve: list[tuple[int, Fraction]] = []
    unresolved = 0
    isolated_seen = 0
    warnings: list[str] = []
    if samples <= 0:
        warnings.append("empty sample: calibrated value is vacuous")

    for s in range(samples):
        n = ngon_sizes[s % len(ngon_sizes)]
        corners = [spec.identity()] + [
            spec.random_element(rng, element_size) for _ in range(n - 1)
        ]
        letters = []
        ok = True
        try:
            for i in range(n):
                side = geodesic_routes(
                    spec, corners[i], corners[(i + 1) % n], budget=budget
                )
                if not side.geodesics:
                    if side.distance != 0:
                        ok = False
                        break
                    continue
                letters.extend(side.geodesics[0].letters)
        except BudgetExhaustedError:
            # One oversized polygon must not abort the whole calibration.
            unresolved += 1
            curve.append((s + 1, max_ratio))
            continue
        if not ok or not letters:
            curve.append((s + 1, max_ratio))
            continue
        verts = [spec.identity()]
        for letter in letters:
            verts.append(verts[-1] * letter.elem)
        m = len(letters)  # loop: verts[m] == verts[0]

        # Cyclic maximal runs of subgroup letters staying in one coset.
        is_h = [isinstance(letter, HLetter) for letter in letters]
        if all(is_h):
            runs = [(0, m - 1)]
        else:
            runs = []
            i = 0
            while i < m:
                if not is_h[i]:
                    i += 1
                    continue
                j = i
                while j + 1 < m and is_h[j + 1]:
                    j += 1
                runs.append((i, j))
                i = j + 1
            # Merge a run touching the seam (cyclic maximality).
            if len(runs) >= 2 and runs[0][0] == 0 and runs[-1][1] == m - 1:
                a, b = runs.pop(), runs.pop(0)
                runs.insert(0, (a[0], b[1] + m))
        for start, end in runs:
            a_minus = verts[start % m]
            a_plus = verts[(end + 1) % m]
            rep = spec.coset_rep(a_minus, lam)
            members = {idx % m for idx in range(start, end + 1)}
            isolated = True
            for e in range(m):
                if e in members:
                    continue
                # letters[e] steps verts[e] to verts[e + 1]; it is a
                # nontrivial subgroup element exactly when it carries a label.
                if letters[e].lam is not None:
                    if spec.coset_rep(verts[e], lam) == rep:
                        isolated = False
                        break
            if not isolated:
                continue
            isolated_seen += 1
            d = spec.rel_distance(
                rep.inverse() * a_minus, rep.inverse() * a_plus, lam, budget=budget
            )
            if d.status == FINITE:
                ratio = Fraction(d.value, n)
                max_ratio = max(max_ratio, ratio)
                by_n[n] = max(by_n[n], ratio)
            else:
                unresolved += 1
        curve.append((s + 1, max_ratio))

    return CalibrationReport(
        family=spec.family,
        samples=samples,
        max_ratio=max_ratio,
        by_n=by_n,
        curve=curve,
        unresolved=unresolved,
        isolated_seen=isolated_seen,
        warnings=warnings,
    )
