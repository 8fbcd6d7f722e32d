"""Stable commutator length bounds.

Upper bounds come from verified commutator expressions: cl(g) <= n whenever
a formal product of n commutators freely reduces to g, and scl(g) <= cl(g^n)/n.
Lower bounds come from Bavard duality: scl(g) >= phi(g) / (2 D(phi)) for any
homogeneous quasimorphism phi, where the denominator must be a certified
bound, never an empirical sup.

The undistortion pipeline transports a Bavard bound on an embedded subgroup
to the ambient group: adjust phi to vanish on the abelianization-independent
generators (defect unchanged), extend with certificate 54K + 66D, homogenize
(at most doubling the defect), and divide.  K and the certificate are read
off the `ExtensionResult`; M = certificate / D and D(psi) = 2 * certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coeffs import real_value
from .embedding import seeded_rng
from .errors import CertificateError, DomainError, InvariantError
from .extension import extend
from .groups import (
    FreeGroup,
    FreeWord,
    as_fraction,
    commutator,
    conjugate,
    exponent_vector,
)
from .qc import (
    CertifiedBound,
    QuasiCocycle,
    brooks_homogenized,
    embed_on_factor,
    tag,
)
from .separating import _resolve_c


@dataclass(frozen=True)
class SclBound:
    """One-sided or two-sided scl bound with witnesses."""

    g: object
    lower: Fraction | None = None
    lower_witness: dict = field(default_factory=dict)
    upper: Fraction | None = None
    upper_witness: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lower is not None and self.upper is not None:
            if self.lower > self.upper:
                raise CertificateError(
                    f"lower bound {self.lower} exceeds upper bound {self.upper}"
                )

    def to_json(self) -> dict:
        out: dict = {"g": str(self.g)}
        if self.lower is not None:
            out["lower"] = {"value": str(self.lower), "witness": self.lower_witness}
        if self.upper is not None:
            out["upper"] = {"value": str(self.upper), "witness": self.upper_witness}
        return out


def cl_upper(group, g, commutators) -> int:
    """Count of a verified commutator expression for g.

    `commutators` is a sequence of (u, v) pairs; the product of [u, v] must
    reduce to g.  Works for free groups and free products alike."""
    prod = group.identity()
    for u, v in commutators:
        prod = prod * commutator(u, v)
    if prod != g:
        raise DomainError(f"commutator expression reduces to {prod}, not {g}")
    return len(list(commutators))


def scl_upper(group: FreeGroup, g: FreeWord, expressions: dict) -> Fraction:
    """min over n of cl(g^n)/n from verified expressions {n: [(u,v), ...]}.

    scl(g) <= cl(g^n)/n for every single n by subadditivity of cl on powers."""
    if any(v != 0 for v in exponent_vector(g).values()):
        raise DomainError(
            "nonzero exponent vector: no power lies in the commutator subgroup"
        )
    if not expressions:
        raise DomainError("need at least one verified expression")
    best = None
    for n, pairs in sorted(expressions.items()):
        if n < 1:
            raise DomainError("powers must be positive")
        c = cl_upper(group, g**n, pairs)
        val = Fraction(c, n)
        best = val if best is None or val < best else best
    return best


def bavard_lower(phi: QuasiCocycle, d_upper: CertifiedBound, g) -> SclBound:
    """scl(g) >= phi(g) / (2 * d_upper) for homogeneous phi.

    The denominator must be a CertifiedBound that rests on more than an
    external reference; empirical defect estimates are rejected by type."""
    if not isinstance(d_upper, CertifiedBound):
        raise CertificateError("Bavard denominators need a certified bound")
    if d_upper.provenance == "external-reference":
        raise CertificateError(
            f"provenance {d_upper.provenance!r} not accepted for denominators"
        )
    if not phi.homogeneous:
        raise DomainError("Bavard duality needs a homogeneous quasimorphism")
    value = phi.scalar_value(g)
    if d_upper.value == 0:
        if value != 0:
            raise CertificateError(
                "defect bound 0 with nonzero value: inconsistent certificate"
            )
        lower = Fraction(0)
    else:
        lower = value / (2 * d_upper.value)
    return SclBound(
        g=g,
        lower=lower,
        lower_witness={
            "quasimorphism": phi.name,
            "value": str(value),
            "defect_upper": d_upper.to_json(),
        },
    )


# -- nice generating sets --------------------------------------------------------


@dataclass(frozen=True)
class NiceGeneratingSet:
    """Generators split into an abelianization-independent part Y1 and an
    abelianization-trivial part Y2, generating the same subgroup."""

    y1: tuple
    y2: tuple


def _exp_vector(group: FreeGroup, w: FreeWord) -> list[int]:
    sums = exponent_vector(w)
    return [sums.get(sym, 0) for sym in group.gens]


def _pivot(vec: list[int]) -> int:
    for i, x in enumerate(vec):
        if x:
            return i
    return -1


def nice_generating_set(group: FreeGroup, gens) -> NiceGeneratingSet:
    """Split generators by integer lattice elimination on exponent vectors.

    Row operations use integer quotients so that word preimages stay words:
    clearing a column left-multiplies by an integer power of a pivot word.
    (Rational elimination would demand fractional exponents.)  Every step
    is an invertible Nielsen move, so Y1 and Y2 together generate the same
    subgroup as the input.
    """
    rows: list[tuple[list[int], FreeWord]] = []  # echelon, sorted by pivot
    y2: list[FreeWord] = []
    for g in gens:
        v = _exp_vector(group, g)
        wd = g
        while True:
            p = _pivot(v)
            if p < 0:
                break
            hit = None
            for ridx, (rv, _) in enumerate(rows):
                if _pivot(rv) == p:
                    hit = ridx
                    break
            if hit is None:
                if v[p] < 0:
                    v = [-x for x in v]
                    wd = wd.inverse()
                rows.append((v, wd))
                rows.sort(key=lambda r: _pivot(r[0]))
                v, wd = None, None
                break
            rv, rw = rows[hit]
            while v[p] != 0:
                q = v[p] // rv[p]
                if q != 0:
                    v = [a - q * b for a, b in zip(v, rv)]
                    wd = rw**-q * wd
                if v[p] == 0:
                    break
                (rv, rw), (v, wd) = (v, wd), (rv, rw)
                rows[hit] = (rv, rw)
            rows[hit] = (rv, rw)
        if wd is not None and _pivot(v or [0]) < 0:
            if not wd.is_identity():
                y2.append(wd)
    pivots = [_pivot(rv) for rv, _ in rows]
    if len(set(pivots)) != len(pivots):
        raise InvariantError("echelon pivots must be distinct")
    return NiceGeneratingSet(y1=tuple(rw for _, rw in rows), y2=tuple(y2))


def adjust_quasimorphism(phi: QuasiCocycle, nice: NiceGeneratingSet,
                         group: FreeGroup) -> QuasiCocycle:
    """phi' = phi - beta with beta the homomorphism matching phi on Y1.

    Subtracting a homomorphism changes no defect and no value on the
    commutator subgroup; phi'(y) = 0 exactly for y in Y1."""
    basis = list(nice.y1)
    vecs = [_exp_vector(group, y) for y in basis]
    vals = [phi.scalar_value(y) for y in basis]

    def beta(h: FreeWord) -> Fraction:
        if not basis:
            return Fraction(0)
        target = [Fraction(x) for x in _exp_vector(group, h)]
        # Solve sum c_i * vecs[i] = target by elimination on the echelon rows.
        coeffs = [Fraction(0)] * len(basis)
        rem = target[:]
        for i, rv in enumerate(vecs):
            p = _pivot(rv)
            c = rem[p] / rv[p]
            coeffs[i] = c
            rem = [a - c * b for a, b in zip(rem, rv)]
        if any(rem):
            raise DomainError(f"{h} is outside the abelianized span of Y1")
        return sum(c * v for c, v in zip(coeffs, vals))

    cert = None
    if phi.certified_defect is not None:
        cert = CertifiedBound(
            phi.certified_defect.value,
            "derived",
            "subtracting a homomorphism preserves the defect",
        )

    def fn(h):
        return real_value(phi.scalar_value(h) - beta(h), phi.module)

    return QuasiCocycle(
        f"adjusted({phi.name})",
        phi.group,
        phi.module,
        fn,
        antisymmetric=phi.antisymmetric,
        homogeneous=phi.homogeneous,
        exact_cocycle=False,
        certified_defect=cert,
    )


# -- the undistortion pipeline ---------------------------------------------------


@dataclass(frozen=True)
class PipelineConstants:
    """Constants of the transported Bavard bound, all certified rationals."""

    l_value: Fraction
    k_value: Fraction
    d_value: CertifiedBound
    m_value: Fraction | None
    notes: tuple = ()

    def __post_init__(self):
        if self.m_value is not None and self.m_value < 66:
            raise CertificateError("M must be at least 66")

    def to_json(self) -> dict:
        return {
            "L": str(self.l_value),
            "K": str(self.k_value),
            "D": self.d_value.to_json(),
            "M": None if self.m_value is None else str(self.m_value),
            "notes": list(self.notes),
        }


def undistortion_pipeline(
    spec,
    lam: str,
    h: FreeWord,
    phi: QuasiCocycle,
    y_gens=None,
    c_value=None,
    budget=None,
    scl_h_reference: Fraction | None = None,
    seed: int = 0,
) -> dict:
    """Transport a Bavard bound from the embedded free factor to the group.

    phi is a homogeneous quasimorphism on the factor (as an abstract free
    group) with a certified defect; h must lie in the factor's commutator
    subgroup.  Emits the full constant chain with provenance and a certified
    lower bound for scl of the embedded image of h.
    """
    if spec.family != "free_product":
        raise DomainError("the pipeline targets a free factor of a free product")
    idx = spec.names.index(lam)
    factor = spec.group.factors[idx]
    if not isinstance(factor, FreeGroup):
        raise DomainError("the pipeline needs a free factor")
    if phi.certified_defect is None:
        raise CertificateError("phi needs a certified defect bound")
    if not phi.homogeneous:
        raise DomainError("phi must be homogeneous")
    if any(v != 0 for v in exponent_vector(h).values()):
        raise DomainError("h must lie in the commutator subgroup of the factor")

    c = _resolve_c(spec, c_value)
    chain: list[dict] = []
    notes: list[str] = []

    y_input = list(y_gens) if y_gens is not None else [
        factor.gen(sym) for sym in factor.gens
    ]
    nice = nice_generating_set(factor, y_input)
    if len(nice.y1) < len(factor.gens):
        raise DomainError("y_gens must span the factor's abelianization")
    phi_adj = adjust_quasimorphism(phi, nice, factor)
    for y in nice.y1:
        if phi_adj.scalar_value(y) != 0:
            raise InvariantError(f"adjusted value must vanish on Y1, not at {y}")

    # d-hat is infinite off the diagonal, so no element constrains L and K is
    # ||phi'(1)|| = 0 (C > 0) or the max over nothing (C = 0).
    ball = "empty (C = 0)" if c == 0 else "{1}"
    why = f"family constant: on a free product the strict 15C-ball is {ball}"
    l_value = Fraction(1)
    notes.append(f"L: {why}")

    amb = embed_on_factor(spec, lam, phi_adj)
    extension = extend(spec, {lam: amb}, c_value=c, budget=budget, seed=seed)
    k_value = extension.per_lambda[lam]["K"]
    if k_value != 0:
        raise InvariantError(f"K on a free product must be 0, not {k_value}")

    d_cert = phi_adj.certified_defect
    ext_cert = extension.certificate
    phi_h = phi.scalar_value(h)
    adj_h = phi_adj.scalar_value(h)
    if adj_h != phi_h:
        raise InvariantError("adjustment must not move values on [H,H]")
    chain.append(tag(phi_h, "exact", step="phi(h)"))
    chain.append(d_cert.claim(step="D(phi') = D(phi)", detail=d_cert.to_json()))
    chain.append(tag(k_value, "exact", step="K on the strict 15C ball", detail=why))
    chain.append(tag(l_value, "exact", step="L with d_Y <= L*d-hat", detail=why))
    chain.append(ext_cert.claim(step="D(iota(phi')) <= 54K + 66D",
                                detail=ext_cert.to_json()))

    # One label, so the certificate is 54K + 66D and M = certificate / D.
    psi_cert = 2 * ext_cert.value
    lower = Fraction(0) if psi_cert == 0 else phi_h / (2 * psi_cert)
    if d_cert.value > 0:
        m_value = ext_cert.value / d_cert.value
        chain.append(tag(m_value, "exact", step="M with 54K + 66D <= M*D"))
        denom_note = "phi(h) / (4*M*D)"
    else:
        m_value = None
        notes.append("D(phi') = 0: chain bypasses M and uses D(psi) <= 2*54K")
        denom_note = "trivial: all constants vanish"  # K = 0, so psi_cert = 0
    chain.append(tag(psi_cert, "certified-upper-bound", step="D(psi) <= 2*D(iota(phi'))"))

    # psi(h) = phi'(h): restriction identity plus homogeneity, no limits needed.
    chain.append(tag(adj_h, "exact", step="psi(h) = phi'(h)"))
    chain.append(tag(lower, "certified-lower-bound", step="scl lower bound",
                     detail=denom_note))

    h_embedded = spec.group.syllable(idx, h)
    consistency = (extension.iota(h_embedded).scalar() == adj_h)

    result = {
        "g": str(h_embedded),
        "bound": SclBound(
            g=h_embedded,
            lower=lower,
            lower_witness={"chain": denom_note, "quasimorphism": phi.name},
        ),
        "constants": PipelineConstants(
            l_value=l_value,
            k_value=k_value,
            d_value=d_cert,
            m_value=m_value,
            notes=tuple(notes),
        ),
        "chain": chain,
        "restriction_consistent": consistency,
        "conditional": extension.conditional,
    }
    if scl_h_reference is not None and m_value is not None:
        result["scl_h_transport"] = tag(
            as_fraction(scl_h_reference) / (2 * m_value), "user-supplied",
            note="valid only if the supplied scl_H value is realized by phi")
    return result


def free_dist_experiment(k_list, seed: int = 0) -> dict:
    """Distortion of scl under embedding: h_k has scl at most 1 in the big
    group but Bavard lower bounds growing linearly inside the subgroup.

    Fixed instance: F(x,y,t) with the subgroup generated by x, y and their
    t-conjugates (free of rank 4; sampled injectivity check included).
    """
    g_group = FreeGroup(["x", "y", "t"])
    h_group = FreeGroup(["a", "b", "c", "d"])
    x, y, t = (g_group.gen(s) for s in ("x", "y", "t"))
    images = {
        "a": x,
        "b": y,
        "c": conjugate(x, t),
        "d": conjugate(y, t),
    }

    def push(word: FreeWord) -> FreeWord:
        out = g_group.identity()
        for code in word.codes:
            img = images[h_group.letter_symbol(code)]
            out = out * (img.inverse() if code & 1 else img)
        return out

    rng = seeded_rng(seed, "free-dist-injectivity")
    injective_sample = 0
    for _ in range(50):
        wd = h_group.random_word(rng, rng.randint(1, 8))
        if push(wd).is_identity():
            raise DomainError(f"injectivity sample failed at {wd}")
        injective_sample += 1

    a, b, c, d = (h_group.gen(s) for s in ("a", "b", "c", "d"))
    phi = brooks_homogenized(h_group, commutator(c, d))
    rows = []
    prev_ratio = None
    for k in sorted(k_list):
        hk_sub = commutator(a, b) ** -k * commutator(c, d) ** k
        hk_amb = push(hk_sub)
        expr = [(commutator(x, y) ** k, t)]
        if hk_amb != commutator(commutator(x, y) ** k, t):
            raise InvariantError("the bracket identity must reduce literally")
        upper = scl_upper(g_group, hk_amb, {1: expr})
        lower_h = bavard_lower(phi, phi.certified_defect, hk_sub)
        ratio = lower_h.lower / upper
        increasing = prev_ratio is None or ratio > prev_ratio
        prev_ratio = ratio
        rows.append(
            {
                "k": k,
                "h_k": str(hk_sub),
                "ambient": str(hk_amb),
                "scl_G_upper": tag(upper, "exact", witness=f"[[x,y]^{k}, t]"),
                "scl_H_lower": tag(lower_h.lower, "certified-lower-bound",
                                   witness=lower_h.lower_witness),
                "scl_H_reference": tag(Fraction(2 * k + 1, 2), "external-reference"),
                "ratio_lower_over_upper": tag(ratio, "exact"),
                "ratio_increasing": increasing,
            }
        )
    return {
        "subgroup_rank": 4,
        "injectivity_samples_passed": injective_sample,
        "rows": rows,
        "distortion_witnessed": all(r["ratio_increasing"] for r in rows),
    }
