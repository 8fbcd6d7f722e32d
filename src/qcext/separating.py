"""Separating cosets, entrance/exit pairs, and the triangle partition.

A coset separates an ordered pair (f, g) when either f != g and f^-1 g lies
in the subgroup (then the coset of f is the unique separating coset), or
some enumerated geodesic from f to g penetrates the coset essentially: its
entrance u and exit v satisfy d-hat(u, v) > 3C strictly.  Penetrations with
relative distance in (0, 3C] are excluded but logged, never silently lost.

Separating cosets are ordered by the distance from f, read off as the
geodesic prefix length at the entrance; distances are checked to be strictly
increasing and the count never exceeds d(f, g) (InvariantError otherwise).

Subgroup membership of an edge is read off its letter: along a path,
verts[i]^-1 verts[i+1] is the letter's element, and a letter's `lam` names
the subgroup it lies in (an HLetter its own label's, an ambient letter the
basis w's when it is w), so separation makes no membership test.  Each
entrance/exit pair (u, v) carries its step h = u^-1 v: the edge letter's
element, or f^-1 g in the trivial clause.  The bicombing reads q(h) off the
step, so nothing downstream multiplies or tests membership again.  Cosets
are keyed by their representative element and entrance/exit pairs by (u, v)
elements, never by printed strings, and each distinct edge asks for its
coset representative once per query.

`separation_report` builds the one object every later stage reads: per
subgroup label, the separating cosets S(f, g) with their entrance/exit
pairs.  The combed bicombing sums over one such report, and the triangle
partition reads S(f, g), S(f, h) and S(h, g) from a caller's report
function, so a caller that caches reports separates each pair once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .embedding import FINITE, RelativeDistance, _dist_gt
from .errors import (
    DomainError,
    InvariantError,
    NotSeparatingError,
    PartitionNotFoundError,
)
from .geodesics import CayleyPath, GeodesicSet, _routes, geodesic_routes, penetration
from .groups import as_fraction


@dataclass(frozen=True)
class Coset:
    """Left coset rep * H_lam with a canonical representative."""

    lam: str
    rep: object

    def __str__(self):
        return f"{self.rep}*H[{self.lam}]"

    def to_json(self) -> dict:
        return {"lambda": self.lam, "rep": str(self.rep)}


@dataclass(frozen=True)
class BandExclusion:
    """Penetration whose relative width landed in the (0, 3C] band."""

    coset: Coset
    entrance: object
    exit: object
    width: RelativeDistance

    def to_json(self) -> dict:
        return {
            "coset": self.coset.to_json(),
            "entrance": str(self.entrance),
            "exit": str(self.exit),
            "width": str(self.width),
        }


@dataclass(frozen=True)
class SeparatingCosets:
    """Ordered separating cosets for one pair and one subgroup label."""

    f: object
    g: object
    lam: str
    cosets: tuple
    distances: tuple
    entrance_exits: tuple  # per coset: tuple of (entrance, exit) pairs
    steps: tuple  # per coset, parallel to its pairs: u^-1 v, in the subgroup
    trivial: bool
    exhaustive: bool
    conditional: bool = False
    band_excluded: tuple = ()
    c_value: Fraction = Fraction(0)

    def __len__(self):
        return len(self.cosets)

    def pairs(self, coset: Coset) -> tuple:
        """The (entrance, exit) pairs of one separating coset; {(f, g)} in
        the trivial clause."""
        try:
            return self.entrance_exits[self.cosets.index(coset)]
        except ValueError:
            raise NotSeparatingError(
                f"{coset} does not separate ({self.f}, {self.g})"
            ) from None

    def to_json(self) -> dict:
        return {
            "f": str(self.f),
            "g": str(self.g),
            "lambda": self.lam,
            "cosets": [c.to_json() for c in self.cosets],
            "distances": list(self.distances),
            "entrance_exits": [
                [[str(u), str(v)] for u, v in pairs] for pairs in self.entrance_exits
            ],
            "trivial": self.trivial,
            "exhaustive": self.exhaustive,
            "conditional": self.conditional,
            "band_excluded": [b.to_json() for b in self.band_excluded],
            "C": str(self.c_value),
        }


def _resolve_c(spec, c_value) -> Fraction:
    c = spec.theoretical_c() if c_value is None else as_fraction(c_value)
    if c is None:
        raise DomainError(
            "no polygon constant available: supply c_value (calibrate first)"
        )
    if c < 0:
        raise DomainError("C must be nonnegative")
    return c


def separation_report(
    spec, f, g, c_value=None, budget=None, lams=None, geo: GeodesicSet | None = None
) -> dict:
    """Separating cosets for every requested subgroup label in one pass.

    Returns {lam: SeparatingCosets}.  Separation reads only the vertices of
    the geodesics, so by default it walks `geodesic_routes`, one path per
    distinct vertex tuple, shared across labels; pass `geo` to reuse a
    listing computed elsewhere (routes or all geodesics give one report).
    """
    c = _resolve_c(spec, c_value)
    lams = tuple(lams) if lams is not None else spec.lambdas()
    out: dict[str, SeparatingCosets] = {}
    u = f.inverse() * g
    trivial_lams = []
    for lam in lams:
        if f != g and spec.in_subgroup(u, lam):
            trivial_lams.append(lam)
    geo_needed = [lam for lam in lams if lam not in trivial_lams]
    if geo is None and geo_needed and f != g:
        geo = _routes(spec, f, u, budget)  # the routes of geodesic_routes, from u
    three_c = 3 * c if geo_needed and f != g else None  # once per report that walks geo

    for lam in lams:
        if lam in trivial_lams:
            rep = spec.coset_rep(f, lam)
            out[lam] = SeparatingCosets(
                f=f,
                g=g,
                lam=lam,
                cosets=(Coset(lam, rep),),
                distances=(0,),
                entrance_exits=(((f, g),),),
                steps=((u,),),
                trivial=True,
                exhaustive=True,
                c_value=c,
            )
            continue
        if f == g:
            out[lam] = SeparatingCosets(
                f=f, g=g, lam=lam, cosets=(), distances=(), entrance_exits=(),
                steps=(), trivial=False, exhaustive=True, c_value=c,
            )
            continue
        out[lam] = _essential_cosets(spec, f, g, lam, c, three_c, geo, budget)
    return out


@dataclass(slots=True)
class _CosetTally:
    """What the walk over the geodesics learned about one coset."""

    prefix: int  # least edge index at which a geodesic enters the coset
    pairs: dict = field(default_factory=dict)  # (u, v) -> u^-1 v, first-seen order
    essential: bool = False
    conditional: bool = False
    band: RelativeDistance | None = None


def _essential_cosets(spec, f, g, lam, c, three_c, geo: GeodesicSet, budget) -> SeparatingCosets:
    # Along a path verts[i]^-1 verts[i+1] is the letter's element, and the
    # letter says which subgroup holds it.  Everything below depends on the
    # vertices alone, so a path with the same vertex tuple as the path
    # before it would replay the same updates and is skipped (all spellings
    # of a closed-form geodesic share one tuple).
    prev = None
    # per distinct edge (u, v): its coset rep, and its width once measured
    rep_of: dict = {}
    width_of: dict = {}
    info: dict = {}  # coset rep -> _CosetTally, in first-seen order
    for path in geo.geodesics:
        verts = path.vertices()
        if verts is prev:
            continue
        prev = verts
        for i, letter in enumerate(path.letters):
            if letter.lam != lam:
                continue
            pair = (verts[i], verts[i + 1])
            rep = rep_of.get(pair)
            if rep is None:
                rep = rep_of[pair] = spec.coset_rep(pair[0], lam)
            tally = info.get(rep)
            if tally is None:
                tally = info[rep] = _CosetTally(i)
            elif i < tally.prefix:
                tally.prefix = i
            tally.pairs[pair] = letter.elem
            if tally.essential:
                continue
            if three_c == 0:
                # positivity of the relative metric: distinct endpoints
                tally.essential = True
                continue
            width = width_of.get(pair)
            if width is None:
                shift = rep.inverse()
                width = width_of[pair] = spec.rel_distance(
                    shift * pair[0], shift * pair[1], lam, budget=budget
                )
            verdict, certain = _dist_gt(width, three_c)
            if verdict:
                tally.essential = True
                tally.conditional = not certain
            elif width.status == FINITE and width.value > 0:
                tally.band = width

    cosets = []
    band: list[BandExclusion] = []
    conditional = False
    for rep, tally in info.items():
        coset = Coset(lam, rep)
        if tally.essential:
            cosets.append((tally.prefix, coset, tally.pairs))
            conditional = conditional or tally.conditional
        elif tally.band is not None:
            first = next(iter(tally.pairs))
            band.append(BandExclusion(coset, first[0], first[1], tally.band))
    cosets.sort(key=lambda t: t[0])
    dists = tuple(t[0] for t in cosets)
    if any(a >= b for a, b in zip(dists, dists[1:])):
        raise InvariantError(
            f"separating cosets of ({f}, {g}) must sit at strictly increasing distances"
        )
    if len(cosets) > geo.distance:
        raise InvariantError(
            f"more separating cosets of ({f}, {g}) than the distance {geo.distance}"
        )
    return SeparatingCosets(
        f=f,
        g=g,
        lam=lam,
        cosets=tuple(t[1] for t in cosets),
        distances=dists,
        entrance_exits=tuple(tuple(t[2]) for t in cosets),
        steps=tuple(tuple(t[2].values()) for t in cosets),
        trivial=False,
        exhaustive=geo.exhaustive,
        conditional=conditional,
        band_excluded=tuple(band),
        c_value=c,
    )


@dataclass(frozen=True)
class TrianglePartition:
    """Split of S(f, g) into pieces controlled by the other triangle sides.

    `front` has at most two cosets; `from_fh` consists of cosets that also
    separate (f, h) with identical entrance/exit data; `from_hg` likewise
    for (h, g).  `pivot` is the index used for the split (0-based; -1 when
    no coset of S(f, g) is penetrated by the f-h side).
    """

    front: tuple
    from_fh: tuple
    from_hg: tuple
    pivot: int


def triangle_partition(
    spec, f, g, h, lam, report, budget=None
) -> TrianglePartition:
    """Partition S_lam(f, g) = from_fh | front | from_hg along a geodesic
    triangle with apex h, verifying the defining properties of each piece.

    `report(a, b)` returns the separation report {lam: SeparatingCosets} of
    the pair (a, b); the sides (f, h) and (h, g) are asked for only when
    S(f, g) has more than two cosets.

    Raises PartitionNotFoundError when the verification fails; that would
    falsify the surrounding theory, not merely this routine.
    """
    s_fg = report(f, g)[lam]
    n = len(s_fg)
    if n <= 2:
        return TrianglePartition(front=s_fg.cosets, from_fh=(), from_hg=(), pivot=-1)
    geo_fh = geodesic_routes(spec, f, h, budget=budget)
    side = geo_fh.geodesics[0] if geo_fh.geodesics else CayleyPath(f)
    pivot = -1
    for j, coset in enumerate(s_fg.cosets):
        if penetration(spec, side, lam, coset.rep, geodesic=False) is not None:
            pivot = j
    # pieces: indices < pivot from the f-h side, > pivot+1 from the h-g side;
    # the front is [0] or [pivot, pivot + 1], so at most two cosets
    if pivot < 0:
        front_idx = [0]
        fh_idx: list[int] = []
        hg_idx = list(range(1, n))
    else:
        fh_idx = list(range(pivot))
        front_idx = [j for j in (pivot, pivot + 1) if j < n]
        hg_idx = list(range(pivot + 2, n))

    s_fh = report(f, h)[lam]
    s_hg = report(h, g)[lam]

    def check(idx: list[int], inside: SeparatingCosets, outside: SeparatingCosets):
        for j in idx:
            coset = s_fg.cosets[j]
            if coset not in inside.cosets:
                raise PartitionNotFoundError(
                    f"{coset} missing from S({inside.f}, {inside.g})"
                )
            if coset in outside.cosets:
                raise PartitionNotFoundError(
                    f"{coset} separates both remaining sides"
                )
            if set(inside.pairs(coset)) != set(s_fg.pairs(coset)):
                raise PartitionNotFoundError(
                    f"entrance/exit data changed for {coset}"
                )

    check(fh_idx, s_fh, s_hg)
    check(hg_idx, s_hg, s_fh)
    return TrianglePartition(
        front=tuple(s_fg.cosets[j] for j in front_idx),
        from_fh=tuple(s_fg.cosets[j] for j in fh_idx),
        from_hg=tuple(s_fg.cosets[j] for j in hg_idx),
        pivot=pivot,
    )
