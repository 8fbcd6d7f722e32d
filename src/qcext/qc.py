"""Quasi-cocycles with certified defect bounds.

A quasi-cocycle assigns to each group element a vector in an isometric
module; its defect is sup ||q(fg) - q(f) - f.q(g)||.  Empirical defect
scans (DefectEstimate) keep the exact p-th power of the largest violation
and a witness pair; certificates (CertifiedBound) are exact rationals with
a provenance tag and never come from empirical sups.  Every tag a report
may carry is declared here, in PROVENANCES, and `tag` builds every tagged
dict of every report.  A scan takes its
products row by row from the group's `raw_rows` and reads known values from
q's memo by normal form; over scalar (TrivialReals) values it is exact
integer arithmetic over one common denominator, and over IndexedLp it sums
exact vectors pair by pair.

Constructors provided here with their certificates:

* cyclic_homomorphism, tree_edge_cocycle: defect 0;
* step_quasimorphism: defect 1 by sign-pattern exhaustion;
* half_sign: the antisymmetrized step function, defect 1/2 likewise;
* brooks: defect 3, a cut-crossing argument (comment at the definition);
* brooks_homogenized: exact limit evaluator, defect 6 = 2 * 3;
* antisymmetrize, embed_on_factor: carry the input certificate through.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .coeffs import IndexedLp, ModuleVector, TrivialReals, real_value
from .errors import CertificateError, DomainError, MixedContextError
from .groups import FreeGroup, FreeWord, as_fraction, cyclic_reduce, exponent_vector

# Every tag a report may carry, declared here only.  A certificate source
# says what a CertifiedBound rests on; the four claims say how a printed
# number stands.  `tag` builds every tagged dict and refuses any other tag.
CERTIFICATE_SOURCES = (
    "homomorphism-zero",
    "combinatorial-certificate",
    "extension-certificate",
    "derived",
    "user-supplied",
    "external-reference",
)
PROVENANCES = (
    "exact",
    "certified-upper-bound",
    "certified-lower-bound",
    "empirical-lower-bound",
) + CERTIFICATE_SOURCES


def tag(value, provenance: str, **extra) -> dict:
    """{"value": str(value), "provenance": provenance} with `extra` merged on.
    The tag is chosen by the code, never by a config, so an unknown one is a
    bug: a ValueError (the CLI exits 4)."""
    if provenance not in PROVENANCES:
        raise ValueError(f"unknown report provenance {provenance!r}")
    return {"value": str(value), "provenance": provenance, **extra}


@dataclass(frozen=True)
class CertifiedBound:
    """Exact upper bound tagged with the certificate source it rests on."""

    value: Fraction
    provenance: str
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "value", as_fraction(self.value))
        if self.provenance not in CERTIFICATE_SOURCES:
            raise CertificateError(
                f"unknown provenance {self.provenance!r}; expected one of {CERTIFICATE_SOURCES}"
            )
        if self.value < 0:
            raise CertificateError("a defect bound cannot be negative")

    def to_json(self) -> dict:
        return tag(self.value, self.provenance, note=self.note)

    def claim(self, **extra) -> dict:
        """The bound as a report claims it: its value tagged
        certified-upper-bound, `extra` merged on.  Every report that prints
        a CertifiedBound as a claim reads the tag here."""
        return tag(self.value, "certified-upper-bound", **extra)


@dataclass(frozen=True)
class DefectEstimate:
    """Largest defect violation seen over a finite scan, kept exactly."""

    exact_pth_power_max: Fraction
    p: int
    witness: tuple
    pairs_checked: int

    @property
    def value(self) -> float:
        return float(self.exact_pth_power_max) ** (1.0 / self.p)

    def leq_exact(self, bound) -> bool:
        """Exact comparison (max ||.||)^p <= bound^p, no floats involved."""
        b = as_fraction(bound)
        return self.exact_pth_power_max <= b**self.p

    def to_json(self) -> dict:
        """The report form: the exact p-th power, tagged as an empirical
        lower bound on the defect's p-th power; no float."""
        return {
            "pth_power": tag(self.exact_pth_power_max, "empirical-lower-bound"),
            "p": self.p,
            "witness": [str(x) for x in self.witness] if self.witness else None,
            "pairs_checked": self.pairs_checked,
        }


class QuasiCocycle:
    """Evaluator plus flags, certificate, and memo table.

    Flags are promises made by the constructor (antisymmetric, homogeneous,
    exact_cocycle); downstream code may spot-check them but never infers
    them from samples.

    The memo is keyed by normal form (`group.unwrap`), so a probe runs no
    Python frame.  q takes elements of its group or of an equal one (a spec
    built twice), which share the memo; an element of any other group
    raises MixedContextError before the memo is read.  fn takes the element.
    """

    def __init__(
        self,
        name: str,
        group,
        module,
        fn,
        antisymmetric: bool = False,
        homogeneous: bool = False,
        exact_cocycle: bool = False,
        certified_defect: CertifiedBound | None = None,
    ):
        self.name = name
        self.group = group
        self.module = module
        self._fn = fn
        self.antisymmetric = antisymmetric
        self.homogeneous = homogeneous
        self.exact_cocycle = exact_cocycle
        self.certified_defect = certified_defect
        self._twin = group  # the last group found equal to q's
        self._memo: dict = {}  # normal form -> value

    def __call__(self, g) -> ModuleVector:
        group = g.group
        if group is not self.group and group is not self._twin:
            if group != self.group:
                raise MixedContextError(f"{self.name} takes elements of its own group")
            self._twin = group  # groups are immutable: the next test is `is`
        key = group.unwrap(g)
        v = self._memo.get(key)  # values are ModuleVectors, never None
        if v is None:
            v = self._fn(g)
            if v.module is not self.module and v.module != self.module:
                raise MixedContextError(f"{self.name} produced a vector in a foreign module")
            self._memo[key] = v
        return v

    def scalar_value(self, g) -> Fraction:
        return self(g).scalar()

    def __repr__(self):
        return f"QuasiCocycle({self.name})"

    # Linear combinations keep antisymmetry and homogeneity; certificates add.

    def _combine(self, other, op, opname):
        if other.module != self.module:
            raise MixedContextError("cannot combine over different modules")
        cert = None
        if self.certified_defect and other.certified_defect:
            cert = CertifiedBound(
                self.certified_defect.value + other.certified_defect.value,
                "derived",
                f"triangle inequality over {opname}",
            )
        return QuasiCocycle(
            f"({self.name} {opname} {other.name})",
            self.group,
            self.module,
            lambda g: op(self(g), other(g)),
            antisymmetric=self.antisymmetric and other.antisymmetric,
            homogeneous=self.homogeneous and other.homogeneous,
            exact_cocycle=self.exact_cocycle and other.exact_cocycle,
            certified_defect=cert,
        )

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b, "+")

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b, "-")

    def __neg__(self):
        return self.scale(-1)

    def scale(self, r):
        r = as_fraction(r)
        cert = None
        if self.certified_defect:
            cert = CertifiedBound(
                abs(r) * self.certified_defect.value, "derived", "scaled bound"
            )
        return QuasiCocycle(
            f"({r}*{self.name})",
            self.group,
            self.module,
            lambda g: self(g).scale(r),
            antisymmetric=self.antisymmetric,
            homogeneous=self.homogeneous,
            exact_cocycle=self.exact_cocycle,
            certified_defect=cert,
        )


def coboundary1(q: QuasiCocycle):
    """d1 q (g1, g2) = g1.q(g2) - q(g1 g2) + q(g1)."""

    def d1(g1, g2) -> ModuleVector:
        return q(g2).act(g1) - q(g1 * g2) + q(g1)

    return d1


def defect(q: QuasiCocycle, elements) -> DefectEstimate:
    """Scan ||q(fg) - q(f) - f.q(g)|| over elements x elements and keep the
    exact maximum p-th power with its first witness in row-major order.

    The scan runs on normal forms.  Every element must lie in q's group or
    an equal one (MixedContextError otherwise, before q's memo is touched)
    and is unwrapped once; the group's `raw_rows` gives each row's
    products, so no product element is built or hashed and only a product
    that reduces costs a Python call.  Products are looked up in a table
    from normal form to value, seeded from q's memo (keyed by normal form
    already) once every element is evaluated.  A product missing from the
    table is wrapped once and evaluated through q (and so memoized), in
    row-major order.

    Over TrivialReals (p = 1) the pass is integer arithmetic: the seed reads
    each value once and scales it to an integer over the common denominator
    (a new denominator rescales the entries so far), and the maximum is
    divided back at the end.  A value first evaluated during the scan whose
    denominator is new stays a Fraction, so the pass stays exact.  Over
    IndexedLp each pair sums exact vectors.
    """
    elements = list(elements)
    n = len(elements)
    group = elements[0].group if elements else q.group
    for e in elements:
        if e.group is not group and e.group != group:
            raise MixedContextError("defect scan over elements of different groups")
    if group is not q.group and group != q.group:
        raise MixedContextError(f"{q.name} takes elements of its own group")
    for e in elements:
        q(e)
    scalar = isinstance(q.module, TrivialReals)
    raws = list(map(group.unwrap, elements))
    # normal form -> value: over TrivialReals, denom * value, an int
    table, denom = {} if scalar else dict(q._memo), 1
    if scalar:
        for r, v in q._memo.items():
            num, d = v.scalar().as_integer_ratio()
            if denom % d:
                k = lcm(denom, d) // denom
                for key in table:
                    table[key] *= k
                denom *= k
            table[r] = num * (denom // d)

    def evaluate(ab):
        v = q(group.wrap(ab))
        if not scalar:
            return v
        x = v.scalar() * denom  # a new denominator leaves a Fraction: still exact
        return x.numerator if x.denominator == 1 else x

    vals = [table[r] for r in raws]
    get, rows = table.get, group.raw_rows(raws)
    best, witness = 0, ()
    for f, a, vf in zip(elements, raws, vals):
        products = rows(a)  # the normal forms of f e_j
        row = list(map(get, products))
        if None in row:
            for j, v in enumerate(row):
                if v is None:
                    ab = products[j]
                    v = get(ab)  # an earlier miss of this row may have filled it
                    if v is None:
                        v = table[ab] = evaluate(ab)
                    row[j] = v
        if scalar:
            gaps = [abs(vf + vg - c) for vg, c in zip(vals, row)]
            m = max(gaps)
            if m > best:
                best, witness = m, (f, elements[gaps.index(m)])
        else:
            for g, vg, c in zip(elements, vals, row):
                w = (vg.act(f) - c + vf).norm_pth_power()
                if w > best:
                    best, witness = w, (f, g)
    return DefectEstimate(
        exact_pth_power_max=Fraction(best, denom),
        p=q.module.p,
        witness=witness,
        pairs_checked=n * n,
    )


def antisymmetrize(q: QuasiCocycle) -> QuasiCocycle:
    """alpha(q)(g) = (q(g) - g.q(g^-1)) / 2; the defect bound carries over
    since the reflected map has the same defect and alpha is their mean."""
    cert = None
    if q.certified_defect:
        cert = CertifiedBound(
            q.certified_defect.value,
            "derived",
            "antisymmetrization preserves the defect bound",
        )

    def fn(g):
        return (q(g) - q(g.inverse()).act(g)).scale(Fraction(1, 2))

    return QuasiCocycle(
        f"alpha({q.name})",
        q.group,
        q.module,
        fn,
        antisymmetric=True,
        homogeneous=q.homogeneous,
        exact_cocycle=q.exact_cocycle,
        certified_defect=cert,
    )


def _fp_factor_word(spec, lam, g) -> FreeWord:
    """Unwrap a one-syllable free-product element to its factor word."""
    if not spec.in_subgroup(g, lam):
        raise DomainError(f"{g} is not in the factor {lam}")
    factor = spec.factor(lam)
    return factor.wrap(g.raw[0][1]) if g.raw else factor.identity()


def embed_on_factor(spec, lam: str, q: QuasiCocycle) -> QuasiCocycle:
    """View a cocycle on a free factor as one on the matching subgroup of
    the free product, certificates and flags carried over unchanged.

    Scalar coefficients only: an indexed module would need its index set
    pushed forward along the embedding as well."""
    if not isinstance(q.module, TrivialReals):
        raise DomainError("only trivial coefficients embed along a factor")

    def fn(g):
        return q(_fp_factor_word(spec, lam, g))

    return QuasiCocycle(
        f"embedded({q.name})",
        spec.group,
        q.module,
        fn,
        antisymmetric=q.antisymmetric,
        homogeneous=q.homogeneous,
        exact_cocycle=q.exact_cocycle,
        certified_defect=q.certified_defect,
    )


def cyclic_homomorphism(spec, lam: str | None = None, slope=1, module=None) -> QuasiCocycle:
    """Homomorphism on an infinite cyclic subgroup: w^k maps to slope * k.

    Works on the cyclic subgroup of a relative spec or on a rank-one free
    factor of a free product.  Defect is identically zero.
    """
    slope = as_fraction(slope)
    module = module or TrivialReals()
    if spec.family == "free_rel_cyclic":
        def fn(g):
            k = spec.power_of(g)
            if k is None:
                raise DomainError(f"{g} is not a power of {spec.w}")
            return real_value(slope * k, module)

        group = spec.group
        name = f"hom[{spec.w}]"
    else:
        if lam is None:
            raise DomainError("free products need the factor label lam")
        idx = spec.names.index(lam)
        factor = spec.group.factors[idx]
        if not isinstance(factor, FreeGroup) or len(factor.gens) != 1:
            raise DomainError("slope homomorphisms need an infinite cyclic factor")

        def fn(g):
            word = _fp_factor_word(spec, lam, g)
            return real_value(slope * exponent_vector(word)[factor.gens[0]], module)

        group = spec.group
        name = f"hom[{lam}]"
    return QuasiCocycle(
        name,
        group,
        module,
        fn,
        antisymmetric=True,
        homogeneous=True,
        exact_cocycle=True,
        certified_defect=CertifiedBound(0, "homomorphism-zero"),
    )


def step_quasimorphism(spec, module=None) -> QuasiCocycle:
    """On the cyclic subgroup: q(w^n) = 1 for n >= 0, else 0.

    Defect 1 by exhausting sign patterns of (m, n, m+n): the only nonzero
    violations are m,n >= 0 (value -1) and m >= 0 > n with m+n < 0 or the
    mirror (value +-1).  Deliberately not antisymmetric.
    """
    if spec.family != "free_rel_cyclic":
        raise DomainError("the step quasimorphism lives on the cyclic subgroup")
    module = module or TrivialReals()

    def fn(g):
        k = spec.power_of(g)
        if k is None:
            raise DomainError(f"{g} is not a power of {spec.w}")
        return real_value(1 if k >= 0 else 0, module)

    return QuasiCocycle(
        f"step[{spec.w}]",
        spec.group,
        module,
        fn,
        antisymmetric=False,
        homogeneous=False,
        exact_cocycle=False,
        certified_defect=CertifiedBound(1, "combinatorial-certificate",
                                        "sign-pattern exhaustion"),
    )


def half_sign(spec) -> QuasiCocycle:
    """The antisymmetrized step function: q(w^n) = sign(n)/2.

    Defect 1/2 by the sign-pattern exhaustion that certifies the step
    function: |s(m) + s(n) - s(m+n)| / 2 <= 1/2 for the sign s.
    """
    step = step_quasimorphism(spec)
    return QuasiCocycle(
        "half-sign",
        spec.group,
        step.module,
        antisymmetrize(step)._fn,
        antisymmetric=True,
        homogeneous=True,
        exact_cocycle=False,
        certified_defect=CertifiedBound(Fraction(1, 2), "combinatorial-certificate",
                                        "sign-pattern exhaustion"),
    )


# -- Brooks counting quasimorphisms ---------------------------------------------


def _greedy_count(host: tuple, pattern: tuple) -> int:
    """Maximal number of disjoint occurrences of pattern in host (greedy
    left-to-right scan is optimal for intervals by earliest finish)."""
    n, m = len(host), len(pattern)
    if m == 0 or m > n:
        return 0
    count = 0
    i = 0
    while i + m <= n:
        if host[i : i + m] == pattern:
            count += 1
            i += m
        else:
            i += 1
    return count


def brooks(group: FreeGroup, w: FreeWord, module=None) -> QuasiCocycle:
    """Counting quasimorphism h_w = (disjoint copies of w) - (copies of w^-1).

    Defect bound 3: splitting a reduced product u'c * c^-1 v' at its three
    cuts changes each disjoint count by at most one per cut, and the counts
    inside the cancelled segment c appear once with each sign, so they
    telescope out of h_w(uv) - h_w(u) - h_w(v).
    """
    if w.group != group:
        raise MixedContextError("pattern from a different group")
    if w.is_identity():
        raise DomainError("pattern must be nontrivial")
    module = module or TrivialReals()
    wt = w.codes
    wit = w.inverse().codes

    def fn(g: FreeWord):
        return real_value(
            _greedy_count(g.codes, wt) - _greedy_count(g.codes, wit), module
        )

    return QuasiCocycle(
        f"brooks[{w}]",
        group,
        module,
        fn,
        antisymmetric=True,  # counts swap under inversion: c_w(g^-1) = c_{w^-1}(g)
        homogeneous=False,
        exact_cocycle=False,
        certified_defect=CertifiedBound(3, "combinatorial-certificate",
                                        "three cut crossings; cancelled segment telescopes"),
    )


def _periodic_rate(root: tuple, pattern: tuple) -> Fraction:
    """Exact density of greedy pattern matches along root^infinity.

    The greedy scan's future depends only on the position modulo |root|,
    so the decision points repeat a residue within |root|+1 steps; the
    density is (hits per cycle) / (letters per cycle), scaled to one copy
    of root.
    """
    rl, m = len(root), len(pattern)
    if rl == 0 or m == 0:
        return Fraction(0)

    def matches_at(p: int) -> bool:
        return all(root[(p + i) % rl] == pattern[i] for i in range(m))

    seen: dict[int, tuple[int, int]] = {}
    p = 0
    hits = 0
    while True:
        s = p % rl
        if s in seen:
            p0, h0 = seen[s]
            return Fraction(hits - h0, p - p0) * rl
        seen[s] = (p, hits)
        if matches_at(p):
            hits += 1
            p += m
        else:
            p += 1


def brooks_homogenized(group: FreeGroup, w: FreeWord, module=None) -> QuasiCocycle:
    """Exact homogenization of the counting quasimorphism.

    psi(g) depends only on the cyclic root r of g and equals the density of
    greedy matches along the periodic word r^infinity (pattern w minus
    pattern w^-1), an exact rational computed by cycle detection on the
    scan offset.  Defect bound 6 = 2 * 3 (homogenization at most doubles).
    """
    base = brooks(group, w, module=module)
    module = base.module
    wt, wit = w.codes, w.inverse().codes

    def fn(g: FreeWord):
        root, _ = cyclic_reduce(g)
        if not root.codes:
            return real_value(0, module)
        r = _periodic_rate(root.codes, wt) - _periodic_rate(root.codes, wit)
        return real_value(r, module)

    return QuasiCocycle(
        f"psi[{w}]",
        group,
        module,
        fn,
        antisymmetric=True,
        homogeneous=True,
        exact_cocycle=False,
        certified_defect=CertifiedBound(6, "derived",
                                        "twice the counting bound under homogenization"),
    )


def tree_edge_cocycle(spec_or_group, lam: str | None = None, p: int = 2) -> QuasiCocycle:
    """Exact cocycle into l^p of the edges of the standard tree.

    q(h) sums one signed delta per edge of the geodesic from the identity
    to h; backtracking cancels exactly, so the cocycle identity holds on
    the nose and ||q(h)||_p^p equals the word length of h.

    With a free-product spec and a free factor label, prefixes embed into
    the ambient group so that the ambient action shifts indices.
    """
    if isinstance(spec_or_group, FreeGroup):
        factor = spec_or_group
        group = factor
        embed = lambda word: word
        unwrap = lambda g: g
        name = "tree-edges"
    else:
        spec = spec_or_group
        if spec.family != "free_product" or lam is None:
            raise DomainError("pass a free group, or a free-product spec with lam")
        idx = spec.names.index(lam)
        factor = spec.group.factors[idx]
        if not isinstance(factor, FreeGroup):
            raise DomainError("tree edges need a free factor")
        group = spec.group
        embed = lambda word: spec.group.syllable(idx, word)
        unwrap = lambda g: _fp_factor_word(spec, lam, g)
        name = f"tree-edges[{lam}]"
    tags = tuple(f"e:{sym}" for sym in factor.gens)
    module = IndexedLp(group, p=p, tags=tags)

    def fn(g):
        # Letter i of the reduced codes crosses the edge labelled by its
        # generator from the prefix before it (+1), or, for an inverse
        # letter, from the prefix after it (-1); a reduced word crosses
        # each edge once.
        cs = unwrap(g).codes
        return ModuleVector(module, {
            (embed(FreeWord(factor, cs[: i + (c & 1)])), f"e:{factor.letter_symbol(c)}"):
                -1 if c & 1 else 1
            for i, c in enumerate(cs)
        })

    return QuasiCocycle(
        name,
        group,
        module,
        fn,
        antisymmetric=True,
        homogeneous=False,
        exact_cocycle=True,
        certified_defect=CertifiedBound(0, "homomorphism-zero",
                                        "tree geodesics concatenate with exact cancellation"),
    )
