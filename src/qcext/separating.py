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
step, so nothing downstream multiplies or tests membership again.  The walk
keys cosets and entrance/exit pairs by the normal forms of their
representative and of (u, v), never by printed strings, so every probe
hashes in C, and each distinct entrance u asks for its coset representative
once per query.

`separation_report` builds the one object every later stage reads: per
subgroup label, the separating cosets S(f, g) with their entrance/exit
pairs, built in one pass over the walk's tallies.  The combed bicombing
sums over one such report, and the triangle partition reads S(f, g),
S(f, h) and S(h, g) from a caller's report function, so a caller that
caches reports separates each pair once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .embedding import FINITE, RelativeDistance, _dist_gt
from .errors import (
    DomainError,
    InvariantError,
    NotSeparatingError,
    PartitionNotFoundError,
)
from .geodesics import CayleyPath, GeodesicSet, _routes, geodesic_routes, penetration
from .groups import _left_quotient, _slot_init, as_fraction


@_slot_init
@dataclass(frozen=True, slots=True)
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


@_slot_init
@dataclass(frozen=True, slots=True)
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
    f^-1 g is one product of normal forms; f and g of different groups
    raise MixedContextError.
    """
    c = _resolve_c(spec, c_value)
    lams = tuple(lams) if lams is not None else spec.lambdas()
    u = _left_quotient(f, g)
    if u.is_identity():  # f == g: nothing separates
        return {lam: SeparatingCosets(f, g, lam, (), (), (), (), False, True, False, (), c)
                for lam in lams}
    trivial = [spec.in_subgroup(u, lam) for lam in lams]
    if geo is None and not all(trivial):
        geo = _routes(spec, f, u, budget)  # the routes of geodesic_routes, from u
    # None when C = 0: every penetration with distinct endpoints is essential
    three_c = 3 * c if c else None
    out: dict[str, SeparatingCosets] = {}
    for lam, in_h in zip(lams, trivial):
        if in_h:
            out[lam] = SeparatingCosets(
                f, g, lam, (Coset(lam, spec.coset_rep(f, lam)),), (0,), (((f, g),),),
                ((u,),), True, True, False, (), c,
            )
        else:
            out[lam] = _essential_cosets(spec, f, g, lam, c, three_c, geo, budget)
    return out


@dataclass(slots=True)
class _CosetTally:
    """What the walk over the geodesics learned about one coset."""

    rep: object
    prefix: int  # least edge index at which a geodesic enters the coset
    # per edge (u, v), keyed by its normal forms, in first-seen order:
    pairs: dict = field(default_factory=dict)  # the pair (u, v)
    steps: dict = field(default_factory=dict)  # its step u^-1 v
    essential: bool = False
    conditional: bool = False
    band: RelativeDistance | None = None


def _essential_cosets(spec, f, g, lam, c, three_c, geo: GeodesicSet, budget) -> SeparatingCosets:
    # Along a path verts[i]^-1 verts[i+1] is the letter's element, and the
    # letter says which subgroup holds it.  Everything below depends on the
    # vertices alone, so a path with the same vertex tuple as the path
    # before it would replay the same updates and is skipped (all spellings
    # of a closed-form geodesic share one tuple).  The dicts are keyed by
    # normal forms, so that every probe hashes in C.
    unwrap = spec.group.unwrap
    prev = None
    tally_of: dict = {}  # u of an edge (u, v) -> its coset's tally
    width_of: dict = {}  # edge (u, v) -> its width, once measured
    info: dict = {}  # coset rep -> _CosetTally, in first-seen order
    for path in geo.geodesics:
        verts = path.vertices()
        if verts is prev:
            continue
        prev = verts
        for i, letter in enumerate(path.letters):
            if letter.lam != lam:
                continue
            u, v = verts[i], verts[i + 1]
            edge = (unwrap(u), unwrap(v))
            tally = tally_of.get(edge[0])
            if tally is None:
                rep = spec.coset_rep(u, lam)
                tally = info.get(unwrap(rep))
                if tally is None:
                    tally = info[unwrap(rep)] = _CosetTally(rep, i)
                tally_of[edge[0]] = tally
            if i < tally.prefix:
                tally.prefix = i
            tally.pairs[edge] = (u, v)
            tally.steps[edge] = letter.elem
            if tally.essential:
                continue
            if three_c is None:
                # positivity of the relative metric: distinct endpoints
                tally.essential = True
                continue
            width = width_of.get(edge)
            if width is None:
                shift = tally.rep.inverse()
                width = width_of[edge] = spec.rel_distance(
                    shift * u, shift * v, lam, budget=budget
                )
            verdict, certain = _dist_gt(width, three_c)
            if verdict:
                tally.essential = True
                tally.conditional = not certain
            elif width.status == FINITE and width.value > 0:
                tally.band = width

    rows = []  # per essential coset: (prefix, coset, its pairs, their steps)
    band: list[BandExclusion] = []
    conditional = False
    for tally in info.values():
        if tally.essential:
            rows.append((tally.prefix, Coset(lam, tally.rep), tuple(tally.pairs.values()),
                         tuple(tally.steps.values())))
            conditional = conditional or tally.conditional
        elif tally.band is not None:
            first = next(iter(tally.pairs.values()))
            band.append(BandExclusion(Coset(lam, tally.rep), first[0], first[1], tally.band))
    rows.sort(key=itemgetter(0))
    dists, cosets, entrance_exits, steps = zip(*rows) if rows else ((),) * 4
    if len(set(dists)) < len(dists):  # sorted, so distinct means strictly increasing
        raise InvariantError(
            f"separating cosets of ({f}, {g}) must sit at strictly increasing distances"
        )
    if len(rows) > geo.distance:
        raise InvariantError(
            f"more separating cosets of ({f}, {g}) than the distance {geo.distance}"
        )
    return SeparatingCosets(
        f, g, lam, cosets, dists, entrance_exits, steps, False, geo.exhaustive,
        conditional, tuple(band), c,
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
