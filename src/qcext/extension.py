"""Extending quasi-cocycles from the embedded subgroups to the whole group.

The elementary bicombing r(u, v) = u.q(u^-1 v) is defined on pairs in a
common coset; averaging it over the entrance/exit pairs of a separating
coset and summing over all separating cosets of (f, g) gives the combed
bicombing, and evaluating at (1, g) gives the extension.  Each pair of a
separation report carries its step h = u^-1 v, so the average reads
u.q(h) directly: no product and no membership test on the evaluation path
(the public `elementary_bicombing` keeps its common-coset check).  The
defect of the extension is certified by sum over subgroups of 54*K + 66*D,
where D is the certified defect of the input and K bounds the input's norms
on the strict 15C-ball of the relative metric.

Telescoping on closed-form routes.  On free products and on a basis w the
route from 1 to g is the route from 1 to p followed by one edge (p, g) with
letter l and step h = l.elem, where p is g without its last syllable or
block (`geodesics.last_block`).  Every subgroup edge of such a route
enters its own coset: its first vertex ends outside the subgroup (or is 1),
so it is its own coset representative, and the cosets of distinct edges
differ.  The edge's relative width is infinite on free products (distinct
factor elements) and |k| >= 1 for a block w^k of a basis w.  So when
3C < 1 on a basis w, and always on free products, every penetration is
essential, none is excluded or uncertain, and

    S_lam(1, g) = S_lam(1, p) + {p H_lam}   (disjoint; only for lam = l.lam)

with the new coset's one pair (p, g) and step h; the trivial clause
(g in H_lam, so p = 1) gives the same coset and pair.  Summing the averaged
values, iota(g) = iota(p) + q_lam(h).act(p) when l.lam is an input label,
and iota(g) = iota(p) otherwise.  iota's function is the evaluator: it
unwraps g once to its normal form, which keys iota's memo, walks down it
once to the deepest prefix slice in the memo (or to 1), one probe and one
block split per slice (`geodesics.block_split`, bound once per spec), then
sums upward once and writes each slice's value into the memo without
re-entering iota.

A step reads q_lam(h) from the extension's step table: a block's key (its
syllable on free products, its code and run length on a basis w) maps to
the input's value at the block's letter, or to None when the letter's label
has no input.  The table fills on first use, so each input is asked once
per distinct block, and a letter is built only then.  Over TrivialReals the
action is trivial and a step is an int-keyed probe (`coeffs._scalar_sum`):
the exact sum, as numerator and denominator, keys the extension's table of
one vector per exact value on iota's own module, and the step table holds
each input value as its vector there.  So iota's memo values are shared
per exact value, each on iota's module, and a zero step shares its vector
(v + 0 is v).  Only an indexed module's act gets the prefix built as an
element.  The writes skip iota's module check at no cost: every term is a
value of an input q, each input checks its own module, and all inputs
share one.

iota's function holds the spec, the inputs, the trail's lists and a weak
reference to iota (it reads iota's memo through it once per fresh call),
never the result, so a dropped extension is freed by reference counting.

A generic w separates (1, g) afresh, and so does a basis w with 3C >= 1:
there the trivial clause separates x at width 1 while the block x of y x is
excluded, so S_lam(1, .) is not prefix-closed.  The choice depends only on
the family and on C.

Inputs must be antisymmetric (declared and spot-checked).  `asnec_demo`
runs the raw pipeline on a deliberately one-sided input to exhibit the
unbounded antisymmetry violation, then reruns the symmetrized input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coeffs import (
    ModuleVector,
    TrivialReals,
    _interned,
    _scalar_sum,
    scalar_table,
    sum_vectors,
    zero,
)
from .embedding import FreeRelCyclicSpec, seeded_rng
from .errors import CertificateError, DomainError, MixedContextError
from .geodesics import block_split
from .groups import FreeGroup
from .qc import (
    CertifiedBound,
    QuasiCocycle,
    antisymmetrize,
    defect,
    half_sign,
    step_quasimorphism,
)
from .separating import _resolve_c, separation_report


def root_upper(x: Fraction, p: int, scale: int = 10**9) -> Fraction:
    """Smallest n/scale with (n/scale)^p >= x: a certified rational p-th root
    upper bound for certificate arithmetic."""
    x = Fraction(x)
    if x < 0:
        raise DomainError("negative radicand")
    if x == 0:
        return Fraction(0)
    if p == 1:
        return x
    n = int((float(x) ** (1.0 / p)) * scale)
    while Fraction(n, scale) ** p < x:
        n += 1
    while n > 0 and Fraction(n - 1, scale) ** p >= x:
        n -= 1
    return Fraction(n, scale)


def elementary_bicombing(spec, lam: str, q: QuasiCocycle):
    """r(u, v) = u.q(u^-1 v) for u, v in one coset of the subgroup."""

    def r(u, v) -> ModuleVector:
        du = u.inverse() * v
        if not spec.in_subgroup(du, lam):
            raise DomainError("elementary bicombing needs a common coset")
        return q(du).act(u)

    return r


def k_constant(spec, lam: str, q: QuasiCocycle, c_value: Fraction,
               budget=None) -> tuple[Fraction, bool]:
    """K = max ||q(h)|| over the strict relative 15C-ball around 1.

    Returns (K, conditional); the empty ball gives 0.  K is reported as a
    certified rational upper bound on the norm."""
    radius = 15 * Fraction(c_value)
    ball = spec.rel_ball(lam, radius, strict=True, budget=budget)
    # For C = 0 the strict ball is empty (even d-hat(1,1) = 0 fails < 0).
    best = max((q(h).norm_pth_power() for h in ball.elements), default=Fraction(0))
    return root_upper(best, q.module.p), not ball.complete


def averaged_value(q: QuasiCocycle, pairs, steps) -> ModuleVector:
    """Mean of the elementary bicombing over entrance/exit pairs (u, v),
    each given with its step h = u^-1 v in the subgroup: r(u, v) = u.q(h)."""
    vecs = [q(h).act(u) for (u, _), h in zip(pairs, steps)]
    if not vecs:
        raise DomainError("no entrance/exit pairs to average")
    if len(vecs) == 1:
        return vecs[0]  # the mean of one vector, without a scale by 1
    return sum_vectors(vecs, q.module).scale(Fraction(1, len(vecs)))


def combed_value(q: QuasiCocycle, sep) -> ModuleVector:
    """The combed bicombing at (f, g): averaged values summed over the
    separating cosets of one report `sep` = S_lam(f, g)."""
    return sum_vectors(
        (averaged_value(q, pairs, steps)
         for pairs, steps in zip(sep.entrance_exits, sep.steps)),
        q.module,
    )


@dataclass
class ExtensionResult:
    """The extension with its certificate and conditionality trail; the
    trail's views read it live, as evaluations of iota extend it."""

    spec: object
    inputs: dict
    c_value: Fraction
    iota: QuasiCocycle
    certificate: CertifiedBound
    per_lambda: dict
    _reasons: list = field(default_factory=list, repr=False)
    _bands: list = field(default_factory=list, repr=False)

    def __call__(self, g) -> ModuleVector:
        return self.iota(g)

    @property
    def conditional(self) -> bool:
        return bool(self._reasons)

    @property
    def conditional_reasons(self) -> list:
        """The distinct reasons, sorted: the form every report prints."""
        return sorted(set(self._reasons))

    @property
    def band_log(self) -> list:
        return list(self._bands)

    def to_json(self) -> dict:
        return {
            "family": self.spec.family,
            "C": str(self.c_value),
            "certificate": self.certificate.to_json(),
            "per_lambda": {
                lam: {
                    "K": str(info["K"]),
                    "K_conditional": info["K_conditional"],
                    "D": info["D"].to_json(),
                }
                for lam, info in sorted(self.per_lambda.items())
            },
            "conditional": self.conditional,
            "conditional_reasons": self.conditional_reasons,
            "band_exclusions": [b.to_json() for b in self.band_log],
        }


def _combed_evaluator(result: ExtensionResult, budget):
    """iota's function: evaluate(g) sums the combed bicombing at (1, g) over
    subgroups, for a g whose normal form is not in result.iota's memo.

    On free products, and on a basis w with 3C < 1, it telescopes along the
    route (the module docstring): one walk down the normal form, then one
    sum up that memoizes every prefix, so no word recurses.  Otherwise it
    separates (1, g) and writes the report's notes straight into `result`'s
    trail.  It never holds `result` (the module docstring)."""
    from weakref import ref

    spec, cocycles, c_value = result.spec, result.inputs, result.c_value
    reasons, bands = result._reasons, result._bands
    module = result.iota.module
    identity = spec.identity()
    unwrap, wrap = spec.group.unwrap, spec.group.wrap
    lams = tuple(sorted(cocycles))

    if not (spec.family == "free_product" or (spec.is_basis and 3 * c_value < 1)):
        origin = zero(module)

        def separated(g) -> ModuleVector:
            raw = unwrap(g)
            if not raw:
                return origin
            g = wrap(raw)
            report = separation_report(spec, identity, g, c_value=c_value, budget=budget,
                                       lams=lams)
            total = origin
            for lam in lams:
                sep = report[lam]
                if not sep.exhaustive:
                    reasons.append(f"geodesic enumeration for {g} not exhaustive")
                if sep.conditional:
                    reasons.append(f"essentiality for {g} used upper-bound distances")
                bands.extend(sep.band_excluded)
                total = total + combed_value(cocycles[lam], sep)
            return total

        return separated

    iota = ref(result.iota)
    split, letter_of = block_split(spec)
    values: dict = {}  # block key -> the input's value at its letter, or None
    # Over TrivialReals the action is trivial, so the prefix is never built:
    # a step is a probe of `sums`, which holds one vector per exact value on
    # iota's module, and the step table holds each value as its vector there.
    scalar = isinstance(module, TrivialReals)
    sums = scalar_table(module) if scalar else None
    origin = sums[0, 1] if scalar else zero(module)

    def value_at(key):
        letter = letter_of(key)
        q = cocycles.get(letter.lam)
        value = None if q is None else q(letter.elem)
        if scalar and value is not None:
            c = value.scalar()
            value = _interned(sums, (c.numerator, c.denominator))
        values[key] = value
        return value

    def step(total: ModuleVector, u, key) -> ModuleVector:
        try:
            value = values[key]
        except KeyError:
            value = value_at(key)
        if value is None:
            return total
        return _scalar_sum(total, value, sums) if scalar else total + value.act(wrap(u))

    def telescoped(g) -> ModuleVector:
        raw = unwrap(g)
        if not raw:
            return origin
        memo = iota()._memo
        k, key = split(raw, len(raw))
        p = raw[:k]  # normal forms all the way down; no prefix element is built
        below = []  # (v, u, e): the route's edge from u into v, keyed e, for v under raw
        v, total = p, None
        while v and (total := memo.get(v)) is None:
            j, e = split(v, k)  # k == len(v)
            u = v[:j]
            below.append((v, u, e))
            v, k = u, j
        total = origin if total is None else total  # None: the walk reached 1
        for v, u, e in reversed(below):
            total = memo[v] = step(total, u, e)
        return step(total, p, key)

    return telescoped


def _extend_raw(spec, cocycles: dict, c_value=None, budget=None,
                name: str = "iota") -> ExtensionResult:
    """Extension pipeline without the antisymmetry gate (demo use only)."""
    if not cocycles:
        raise DomainError("need at least one input cocycle")
    lams = set(cocycles)
    if not lams <= set(spec.lambdas()):
        raise DomainError(f"unknown subgroup labels {sorted(lams - set(spec.lambdas()))}")
    mods = [q.module for q in cocycles.values()]
    if any(m != mods[0] for m in mods[1:]):
        raise MixedContextError("all inputs must share one coefficient module")
    c = _resolve_c(spec, c_value)
    per_lambda = {}
    reasons: list[str] = []
    total_cert = Fraction(0)
    for lam, q in sorted(cocycles.items()):
        if q.certified_defect is None:
            raise CertificateError(
                f"input for {lam} has no certified defect bound"
            )
        kval, kcond = k_constant(spec, lam, q, c, budget=budget)
        if kcond:
            reasons.append(f"K for {lam} computed from an incomplete ball")
        per_lambda[lam] = {
            "K": kval,
            "K_conditional": kcond,
            "D": q.certified_defect,
        }
        total_cert += 54 * kval + 66 * q.certified_defect.value

    certificate = CertifiedBound(
        total_cert,
        "extension-certificate",
        "sum over subgroups of 54*K + 66*D",
    )
    result = ExtensionResult(
        spec=spec,
        inputs=dict(cocycles),
        c_value=c,
        iota=None,  # bound below
        certificate=certificate,
        per_lambda=per_lambda,
        _reasons=reasons,
    )
    all_exact = all(q.exact_cocycle for q in cocycles.values())
    result.iota = QuasiCocycle(
        name,
        spec.group,
        mods[0],
        None,  # bound below: iota's function reads iota
        antisymmetric=all(q.antisymmetric for q in cocycles.values()),
        homogeneous=False,
        # On free products the combing follows the syllable normal form, so
        # the extension telescopes and exact inputs stay exact.
        exact_cocycle=spec.family == "free_product" and all_exact,
        certified_defect=certificate,
    )
    result.iota._fn = _combed_evaluator(result, budget)
    return result


def check_antisymmetry(spec, lam: str, q: QuasiCocycle, seed: int = 0,
                       samples: int = 12) -> None:
    """Exact spot-check q(h^-1) = -h^-1 . q(h) on sampled subgroup elements."""
    if not q.antisymmetric:
        raise CertificateError(f"input for {lam} is not declared antisymmetric")
    rng = seeded_rng(seed, f"antisym:{lam}")
    for _ in range(samples):
        h = spec.random_subgroup_element(lam, rng)
        lhs = q(h.inverse())
        rhs = q(h).act(h.inverse()).scale(-1)
        if not (lhs - rhs).is_zero():
            raise CertificateError(
                f"declared antisymmetry fails at {h}: {lhs} vs {rhs}"
            )


def extend(spec, cocycles: dict, c_value=None, budget=None, seed: int = 0) -> ExtensionResult:
    """Certified extension of antisymmetric quasi-cocycles on the embedded
    subgroups to the ambient group."""
    unknown = set(cocycles) - set(spec.lambdas())
    if unknown:
        raise DomainError(f"unknown subgroup labels {sorted(unknown)}")
    for lam, q in sorted(cocycles.items()):
        check_antisymmetry(spec, lam, q, seed=seed)
    return _extend_raw(spec, cocycles, c_value=c_value, budget=budget)


def extend_general(spec, cocycles: dict, c_value=None, budget=None) -> ExtensionResult:
    """Extension of arbitrary quasi-cocycles: antisymmetrize first, then
    extend.  On the subgroup the result agrees with the symmetrization of
    the input rather than the input itself."""
    sym = {lam: antisymmetrize(q) for lam, q in sorted(cocycles.items())}
    return _extend_raw(spec, sym, c_value=c_value, budget=budget, name="kappa")


def restriction_check(result: ExtensionResult, lam: str, samples: int = 20,
                      seed: int = 0, size: int = 5) -> dict:
    """Verify iota(q)(h) = q_lam(h) exactly on sampled subgroup elements.

    Distinct free factors meet trivially and a single subgroup shares with
    nothing, so in both families the restriction property is checked on all
    of the subgroup.
    """
    spec = result.spec
    q = result.inputs[lam]
    rng = seeded_rng(seed, f"restriction:{lam}")
    checked = 0
    failures = []
    for _ in range(samples):
        h = spec.random_subgroup_element(lam, rng, size)
        got = result.iota(h)
        want = q(h)
        checked += 1
        if not (got - want).is_zero():
            failures.append(str(h))
    return {"lambda": lam, "checked": checked, "failures": failures,
            "ok": not failures}


def asnec_demo(n: int = 1, k_max: int = 6, seed: int = 0) -> dict:
    """Antisymmetry is necessary: extend the step function raw, watch the
    violation grow linearly, then rerun with the symmetrized input.

    The witness is g = y x^n: the combing meets k cosets of <x> along g^k,
    each contributing step(x^n) = 1, while g^-k crosses them with exponent
    -n, each contributing 0.
    """
    group = FreeGroup(["x", "y"])
    spec = FreeRelCyclicSpec(group, group.parse("x"))
    lam = spec.lambdas()[0]
    step = step_quasimorphism(spec)
    raw = _extend_raw(spec, {lam: step}, name="iota(step)")
    g = group.parse("y") * group.parse("x") ** n

    rows = []
    worst = Fraction(0)
    for k in range(1, k_max + 1):
        plus = raw.iota(g**k).scalar()
        minus = raw.iota(g**-k).scalar()
        violation = abs(plus + minus)
        worst = max(worst, violation)
        rows.append(
            {"k": k, "value_plus": str(plus), "value_minus": str(minus),
             "antisymmetry_violation": str(violation)}
        )

    # Symmetrized rerun: alpha(step)(x^m) = sign(m)/2, defect 1/2.
    fixed = extend(spec, {lam: half_sign(spec)}, seed=seed)
    ball = [group.identity()]
    rng = seeded_rng(seed, "asnec-ball")
    for _ in range(40):
        ball.append(spec.random_element(rng, 4))
    est = defect(fixed.iota, ball)
    cert_ok = est.leq_exact(fixed.certificate.value)
    return {
        "witness": str(g),
        "rows": rows,
        "max_violation": str(worst),
        "violation_grows": worst == k_max,
        "symmetrized": {
            "certificate": fixed.certificate.to_json(),
            "empirical_defect": est.to_json(),
            "defect_within_certificate": cert_ok,
        },
    }
