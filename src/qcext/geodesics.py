"""Paths and geodesics in the coned graph.

Vertices are ambient group elements; edges are labeled by XLetter or HLetter
and multiply on the right.  `geodesic_routes` is the one geodesic listing.
A route is a geodesic standing for every geodesic with its vertex tuple:
entrance and exit points, hence separation, read only vertices, and the
triangle partition's f-h side and calibration read one path.  Three
engines back it:

* free products: the syllable normal form is the unique geodesic spelling;
* a cyclic subgroup generated by a basis letter: closed form, one path
  with one edge per block (a maximal run of that letter, or one other
  letter).  A run of exponent +-1 also admits the parallel subgroup edge,
  but both edges join the same two vertices, so the route stands for
  every spelling;
* generic cyclic word: pruned breadth-first search with a predecessor DAG
  and ordered enumeration of the geodesics found under the caps.  These
  have pairwise distinct vertex tuples (an ambient letter and a subgroup
  letter share an element only when |w| = 1), so they are the routes.

The closed forms report exhaustive=True; the pruned search never does.
`max_geodesics` bounds only the pruned search's listing, which is flagged
truncated when it stops there.

`distance` lists no path where a closed form exists.  On free products it
reads the normal forms alone: past their common syllable prefix, f^-1 g
is the rest of f inverted, then the rest of g, the two facing syllables
merged into one (a^-1 b != 1) when they lie in one factor.  Elsewhere it
is the length of the route; `distance_map` counts the blocks of a ball's
words, one block opened per letter unless it extends a run of the basis
letter.  The engines work on u = f^-1 g, which `separation_report`
computes once and hands to the route dispatch, `_routes`.  u and a path's
vertices are products of normal forms (`raw_mul`, then `wrap`): no
element `*` runs along a path.

The closed-form routes are prefix-closed.  The route from 1 to g spells g
block by block: on free products a block is a syllable, on a basis w a
maximal run of the basis letter or one other letter.  Dropping the last
block leaves a prefix p whose blocks are the first blocks of g, so the
route from 1 to g is the route from 1 to p followed by one edge (p, g),
labelled by the last block's letter.  `block_split` is the one rule that
reads a block off a normal form, with one backward scan, bound to the
spec once and kept on it: `last_block` reads g's last block with it, and
`_basis_route` reads every block.  The extension telescopes along it, one
split per prefix.
Edge letters are built once per spec on both closed-form families
(`syllable_letter` on free products, `ambient_letters` and `power_letter`
on a basis w), so equal blocks share one letter and its element.

One breadth-first search kernel, `_bfs`, runs every coned-graph search of
the relative family: the generic engine (with predecessors), the
`distance_map` sweep (no target, bounded by word length only) and the
relative metric's `_rel_bfs` (subgroup moves barred inside the subgroup).
Its vertices are reduced words held as the bytes of their letter codes
(`FreeWord.codes`), which hash and compare faster than tuples as dict keys;
`FreeGroup.raw_mul` multiplies them.  Running out of `max_vertices` raises
BudgetExhaustedError there; that is the engines' only vertex-budget rule.

Balls of words are built in bulk.  `_block_counts` (behind `free_ball_words`
and a basis `distance_map`) builds a layer of code tuples at a time, each
with its block count, and the generic `distance_map` keeps the sweep's
vertices that fit its radius; both turn code tuples into words with
`groups._trusted_words`, a whole list per call, rather than one
`FreeWord(group, codes)` per word.  `ball_domain` is the one ball of a
spec: `free_ball_words` on a free group, and on a free product a
breadth-first sweep over normal forms.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .embedding import SearchBudget
from .errors import BudgetExhaustedError, DomainError, MixedContextError, NotGeodesicError
from .groups import FreeGroup, FreeWord, _left_quotient, _slot_init, _trusted_words


@dataclass(slots=True, unsafe_hash=True)
class CayleyPath:
    """Edge path: origin vertex plus a tuple of letters, applied rightward.

    `_verts`, when given, must be the vertex tuple the letters trace from
    the origin; the basis route builds its vertices beside its letters and
    passes them.  Equality and the hash read (origin, letters) only:
    `_verts` is a cache, filled on first use, and the only field that ever
    changes.
    """

    origin: object
    letters: Sequence = ()
    _verts: tuple | None = field(default=None, compare=False)

    def __post_init__(self):
        self.letters = tuple(self.letters)

    def vertices(self) -> tuple:
        """The vertices traced from the origin (letters of its group only)."""
        if self._verts is None:
            group = self.origin.group
            mul, unwrap, wrap = group.raw_mul, group.unwrap, group.wrap
            raw = unwrap(self.origin)
            out = [self.origin]
            for letter in self.letters:
                elem = letter.elem
                if elem.group is not group and elem.group != group:
                    raise MixedContextError("a letter from a different group")
                raw = mul(raw, unwrap(elem))
                out.append(wrap(raw))
            self._verts = tuple(out)
        return self._verts

    def dump(self) -> list[str]:
        return [str(letter) for letter in self.letters]

    def __repr__(self):
        return f"CayleyPath({self.origin}, {self.dump()})"


@_slot_init
@dataclass(frozen=True, slots=True)
class GeodesicSet:
    """Result of a geodesic query between two fixed vertices: one geodesic
    per distinct vertex tuple.  Exhaustive means every geodesic's vertex
    tuple is listed; truncated, that the pruned search stopped at
    `max_geodesics`.
    """

    distance: int
    geodesics: tuple
    exhaustive: bool
    truncated: bool = False
    note: str = ""


def geodesic_routes(spec, f, g, budget: SearchBudget | None = None) -> GeodesicSet:
    """One geodesic from f to g per distinct vertex tuple, in the
    deterministic letter order (ambient letters before subgroup letters)."""
    return _routes(spec, f, _left_quotient(f, g), budget)


def _routes(spec, f, u, budget: SearchBudget | None) -> GeodesicSet:
    """`geodesic_routes` from f to f*u, for a caller that already holds
    u = f^-1 g."""
    if spec.family == "free_product":
        return _free_product_geodesics(spec, f, u)
    if spec.is_basis:
        letters, verts = _basis_route(spec, f, u)
        return GeodesicSet(len(letters), (CayleyPath(f, letters, verts),), True)
    return _generic_geodesics(spec, f, u, budget or spec.budget)


def distance(spec, f, g, budget: SearchBudget | None = None) -> int:
    """d(f, g) in the coned graph: on free products the syllable count of
    f^-1 g, read off the normal forms (MixedContextError for two groups),
    else the length of a route."""
    if spec.family == "free_product":
        if f.group is not g.group and f.group != g.group:
            raise MixedContextError("elements from different groups")
        a, b = f.raw, g.raw
        n = min(len(a), len(b))
        k = 0
        while k < n and a[k] == b[k]:
            k += 1
        d = len(a) + len(b) - 2 * k
        # Distinct syllables of one factor meet in a single syllable a^-1 b.
        return d - 1 if k < n and a[k][0] == b[k][0] else d
    return geodesic_routes(spec, f, g, budget=budget).distance


def block_split(spec) -> tuple:
    """The one block split of closed-form routes, bound to the spec's family
    once, as (split, letter).

    split(raw, j) reads the last block of the nonempty normal form raw[:j]
    as (i, key): raw[:i] is the normal form of the route's last edge's first
    vertex, and key, which hashes in C, names the block.  On free products a
    block is the last syllable, and its key is that syllable.  On a basis w
    it is a maximal run of the basis letter (all one sign, as raw is
    reduced) or one other letter; its key is c + 2n(m - 1) for a run of m
    letters of code c over n generators, so a single letter's key is its
    ambient code.  letter(key) is the block's edge letter: the subgroup
    letter of a syllable; on a basis w the ambient letter of a single letter
    (for the basis letter, it stands for the run of exponent +-1), else the
    subgroup letter of the run, w^m or w^-m whatever the sign of w.  The
    pair is bound on first use and kept on the spec, so every route and
    every extension of one spec reads the same pair.  A generic w has no
    closed-form route: DomainError."""
    try:
        return spec._block_split
    except AttributeError:
        pass
    spec._block_split = pair = _bind_block_split(spec)
    return pair


def _bind_block_split(spec) -> tuple:
    if spec.family == "free_product":
        def split(raw, j):
            return j - 1, raw[j - 1]

        return split, spec.syllable_letter
    if not spec.is_basis:
        raise DomainError("only closed-form routes split into blocks")
    wcode = spec.w.codes[0]
    wgen = wcode >> 1
    ncodes = 2 * len(spec.group.gens)
    ambient, power_letter = spec.ambient_letters, spec.power_letter

    def split(cs, j):
        i = j - 1
        c = cs[i]
        if c >> 1 == wgen:
            while i and cs[i - 1] == c:
                i -= 1
        return i, c + ncodes * (j - 1 - i)

    def letter(key):
        m, c = divmod(key, ncodes)
        if not m:
            return ambient[c]
        return power_letter(m + 1 if c == wcode else -m - 1)

    return split, letter


def last_block(spec, raw) -> tuple:
    """The last edge of the closed-form route from 1 to the element with
    nonempty normal form `raw`, as (k, letter): raw[:k] is the normal form
    of the edge's first vertex, and the letter labels the last syllable on
    free products or the last block on a basis w (`block_split`).  A
    generic w has no closed-form route: DomainError."""
    split, letter = block_split(spec)
    k, key = split(raw, len(raw))
    return k, letter(key)


def _free_product_geodesics(spec, f, u) -> GeodesicSet:
    letters = [spec.syllable_letter(syl) for syl in u.raw]
    # Syllable normal form is the unique geodesic spelling: every edge moves
    # within one factor, and merging or splitting syllables only lengthens.
    return GeodesicSet(len(letters), (CayleyPath(f, letters),), True)


def _basis_route(spec, f, u) -> tuple[tuple, tuple]:
    """The closed-form route from f to f*u: one letter per block of u, and
    the vertex tuple that every geodesic shares."""
    group = spec.group
    cs = u.codes
    fc = f.codes
    n = len(fc)
    # f * u[:p] cancels min(p, cut) letters, where cut letters of u cancel
    # against the tail of f; so each vertex is a slice of f plus one of u.
    cut = 0
    while cut < len(cs) and cut < n and fc[n - 1 - cut] == cs[cut] ^ 1:
        cut += 1
    split, letter = block_split(spec)
    blocks = []  # (end, key), last block first
    j = len(cs)
    while j:
        i, key = split(cs, j)
        blocks.append((j, key))
        j = i
    letters = []
    verts = [f]
    for j, key in reversed(blocks):
        letters.append(letter(key))
        m = min(j, cut)
        verts.append(FreeWord(group, fc[: n - m] + cs[m:j]))
    return tuple(letters), tuple(verts)


# -- the pruned search ----------------------------------------------------------


def _search_moves(spec, max_power: int) -> list:
    """(letter, byte-word, is-subgroup-move) triples in the deterministic
    letter order: each ambient generator and its inverse, then w^k and w^-k
    for k = 1 .. max_power."""
    moves = [
        (letter, bytes(letter.elem.codes), False)
        for letter in spec.ambient_letters.values()
    ]
    for a in range(1, max_power + 1):
        for k in (a, -a):
            letter = spec.power_letter(k)
            moves.append((letter, bytes(letter.elem.codes), True))
    return moves


def _bfs(moves, cap_len: int, max_depth: float = math.inf,
         max_vertices: float = math.inf, target: bytes | None = None,
         barred=None, pred: dict | None = None) -> dict[bytes, int]:
    """Breadth-first search of the coned graph from the identity, over
    reduced byte words; returns {vertex: depth}.

    No vertex longer than cap_len is entered, no vertex at depth max_depth
    is expanded, and no subgroup move is taken from a vertex v with
    barred(v).  Once the target turns up at depth D nothing at depth D or
    deeper is expanded, so every shortest path to it is still found.  When
    `pred` is a dict it receives, per vertex, the (predecessor, letter)
    edges of all its shortest paths.  Raises BudgetExhaustedError rather
    than hold more than max_vertices vertices.
    """
    start = b""
    dist = {start: 0}
    if pred is not None:
        pred[start] = []
    # A move cancels against v only when v ends in the inverse of its first
    # letter; every other product is a plain concatenation.
    full = [(letter, mb, mb[0] ^ 1) for letter, mb, _ in moves]
    ambient = [m for m, (_, _, sub) in zip(full, moves) if not sub]
    mul = FreeGroup.raw_mul
    stop = 0 if target == start else math.inf
    queue = deque([start])
    while queue:
        v = queue.popleft()
        d = dist[v]
        if d >= stop or d >= max_depth:
            break  # the queue holds depths in nondecreasing order
        last = v[-1] if v else -1
        for letter, mb, cancels in ambient if barred is not None and barred(v) else full:
            nv = mul(v, mb) if last == cancels else v + mb
            if len(nv) > cap_len:
                continue
            if nv not in dist:
                if len(dist) >= max_vertices:
                    raise BudgetExhaustedError(
                        "coned-graph search exceeded the vertex budget"
                    )
                dist[nv] = d + 1
                queue.append(nv)
                if pred is not None:
                    pred[nv] = [(v, letter)]
                if nv == target:
                    stop = d + 1
            elif pred is not None and dist[nv] == d + 1:
                pred[nv].append((v, letter))
    return dist


def _generic_geodesics(spec, f, u, budget: SearchBudget) -> GeodesicSet:
    target = bytes(u.codes)
    wl = len(spec.w)
    pcap = min(-(-(len(target) + budget.slack) // wl) + 1, budget.max_power)
    pred: dict[bytes, list] = {}
    dist = _bfs(
        _search_moves(spec, pcap),
        len(target) + budget.slack * wl,
        budget.max_depth,
        budget.max_vertices,
        target=target,
        pred=pred,
    )
    if target not in dist:
        raise BudgetExhaustedError("no path found within the search caps")

    # Restrict the DAG to vertices on some geodesic, then enumerate forward.
    on_geo: set[bytes] = {target}
    stack = [target]
    succ: dict[bytes, list] = {}
    while stack:
        v = stack.pop()
        for uvtx, letter in pred[v]:
            succ.setdefault(uvtx, []).append((letter, v))
            if uvtx not in on_geo:
                on_geo.add(uvtx)
                stack.append(uvtx)
    for v in succ:
        succ[v].sort(key=lambda e: e[0].sort_key())

    paths: list[CayleyPath] = []
    truncated = False

    def walk(v: bytes, acc: list) -> bool:
        nonlocal truncated
        if v == target:
            paths.append(CayleyPath(f, tuple(acc)))
            if len(paths) >= budget.max_geodesics:
                truncated = True
                return False
            return True
        for letter, nv in succ.get(v, ()):
            acc.append(letter)
            keep = walk(nv, acc)
            acc.pop()
            if not keep:
                return False
        return True

    walk(b"", [])
    return GeodesicSet(
        distance=dist[target],
        geodesics=tuple(paths),
        exhaustive=False,
        truncated=truncated,
        note="pruned search: distance is an upper bound, list may be partial",
    )


# -- bulk distances -------------------------------------------------------------


def free_ball_words(group: FreeGroup, radius: int) -> Iterable[FreeWord]:
    """All reduced words of length <= radius, shortest first, letter order."""
    if radius < 0:
        raise DomainError("radius must be nonnegative")
    return iter(_block_counts(group, radius, -1))


def ball_domain(spec, radius: int) -> list:
    """The full ball of the given radius in the standard word metric of the
    spec's group, breadth-first: `free_ball_words` on a free group; on a
    free product, the products of at most `radius` moves, each a free
    factor's generator or its inverse or a finite factor's nontrivial
    element, built on normal forms."""
    group = spec.group
    if spec.family == "free_rel_cyclic":
        return list(free_ball_words(group, radius))
    if radius < 0:
        raise DomainError("radius must be nonnegative")
    moves = []
    for idx, factor in enumerate(group.factors):
        if isinstance(factor, FreeGroup):
            elems = [w for g in factor.generators() for w in (g, g.inverse())]
        else:  # a finite factor: element 0 is the identity
            elems = factor.elements()[1:]
        moves += [((idx, factor.unwrap(e)),) for e in elems]
    mul = group.raw_mul
    ball, frontier = {(): None}, [()]  # normal forms, an ordered set
    for _ in range(radius):
        nxt = []
        for a in frontier:
            for s in moves:
                h = mul(a, s)
                if h not in ball:
                    ball[h] = None
                    nxt.append(h)
        frontier = nxt
    return list(map(group.wrap, ball))


def _block_counts(group: FreeGroup, radius: int, wgen: int) -> dict:
    """{word: block count} over the ball, in `free_ball_words` order.  A
    letter opens a block unless it repeats the last letter and that is the
    basis generator wgen (`block_split`'s rule, read forward); wgen = -1
    counts letters.

    The ball is built one layer at a time: the layer's code tuples and its
    counts, parallel to them, come from the parent layer through a table
    from the last code (-1 for the empty word) to the letters that may
    follow it and what each adds to the count; the layer's words are built
    in bulk and inserted with one update.
    """
    ncodes = 2 * len(group.gens)
    tails, adds = {}, {}
    for last in range(-1, ncodes):
        nxt = [c for c in range(ncodes) if c != last ^ 1]
        tails[last] = [(c,) for c in nxt]
        adds[last] = [0 if c == last and c >> 1 == wgen else 1 for c in nxt]
    layer, counts = [()], [0]
    out = dict(zip(_trusted_words(group, layer), counts))
    for _ in range(radius):
        layer, counts = (
            [t + s for t in layer for s in tails[t[-1] if t else -1]],
            [n + a for t, n in zip(layer, counts) for a in adds[t[-1] if t else -1]],
        )
        out.update(zip(_trusted_words(group, layer), counts))
    return out


def distance_map(spec, max_len: int, sweep_len: int | None = None,
                 max_power: int | None = None) -> dict:
    """Coned-graph distances from the identity to every reduced word of
    length <= max_len, as {FreeWord: int}.

    For a basis w the distance is the block count, carried from each word's
    parent (`_block_counts`), in `free_ball_words` order.  For the generic
    family this is one pruned breadth-first sweep over words of length <=
    sweep_len (default max_len + 2); reported values are upper bounds
    wherever a true geodesic would have to leave that ball.  Raises
    DomainError for a negative max_len, and for a sweep_len below max_len,
    which would drop words of the ball.
    """
    if spec.family != "free_rel_cyclic":
        raise DomainError("bulk distance maps target the free_rel_cyclic family")
    if max_len < 0:
        raise DomainError("radius must be nonnegative")
    group = spec.group
    if spec.is_basis:
        return _block_counts(group, max_len, spec.w.codes[0] >> 1)
    sweep_len = sweep_len if sweep_len is not None else max_len + 2
    if sweep_len < max_len:
        raise DomainError("sweep_len must be at least max_len")
    max_power = max_power if max_power is not None else spec.budget.max_power
    dist = _bfs(_search_moves(spec, max_power), sweep_len)
    keys = [vb for vb in dist if len(vb) <= max_len]
    return dict(zip(
        _trusted_words(group, [tuple(vb) for vb in keys]),
        [dist[vb] for vb in keys],
    ))


# -- coset visits and penetration -----------------------------------------------


def coset_visits(spec, path: CayleyPath, lam: str) -> dict:
    """{rep: runs} over the cosets rep*H_lam that the path's vertices lie
    in: each coset's maximal vertex-index runs, in path order, from one
    `coset_rep` per vertex."""
    visits: dict = {}
    for i, v in enumerate(path.vertices()):
        runs = visits.setdefault(spec.coset_rep(v, lam), [])
        if runs and runs[-1][1] == i - 1:
            runs[-1] = (runs[-1][0], i)
        else:
            runs.append((i, i))
    return visits


def penetration(spec, path: CayleyPath, lam: str, rep, geodesic: bool = True):
    """Entrance and exit of the path in the coset, or None.

    A path penetrates the coset when some edge has both endpoints inside it;
    edges labeled by ambient generators count, since they run parallel to
    subgroup-letter edges between the same vertices.  On geodesic input the
    visit is a single run of at most two vertices (a longer or repeated
    visit admits a one-edge shortcut), enforced via NotGeodesicError.
    """
    return entrance_exit(path, coset_visits(spec, path, lam).get(rep, ()), geodesic)


def entrance_exit(path: CayleyPath, runs, geodesic: bool = True):
    """`penetration` of the path in one coset, from the path's runs in it
    (`coset_visits`): a caller asking about several cosets of one label
    reads every coset's runs from one pass."""
    if geodesic:
        if len(runs) > 1 or any(j - i > 1 for i, j in runs):
            raise NotGeodesicError(
                "path visits a coset twice or lingers: not a geodesic"
            )
        if not runs or runs[0][0] == runs[0][1]:
            return None
        i, j = runs[0]
        verts = path.vertices()
        return verts[i], verts[j]
    # Non-geodesic paths: report the first run containing an edge.
    verts = path.vertices()
    for i, j in runs:
        if j > i:
            return verts[i], verts[j]
    return None

