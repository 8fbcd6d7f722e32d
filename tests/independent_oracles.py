"""Independent oracles for the tests.

They re-derive what the library computes from scratch, with no shared
code with its engines:

* `brute_force_distance_oracle`: coned-graph distances by plain
  breadth-first search over group elements, for either family;
* `string_sweep`: relative distances on F(x, y) by breadth-first search
  over reduced words held as ints;
* `coboundary2`: the coboundary of a 2-cochain, to check d2 d1 = 0.
"""

from __future__ import annotations

from qcext.errors import BudgetExhaustedError
from qcext.groups import FreeGroup


def brute_force_distance_oracle(
    spec,
    f,
    g,
    max_power: int = 12,
    max_s_length: int | None = None,
    max_vertices: int = 2_000_000,
) -> tuple[int, bool]:
    """Independent distance check by plain breadth-first search.

    Works on u = f^-1 g: moves act by right multiplication, so left
    translation is a graph automorphism and the distance depends on u only.
    Returns (distance, cap_touched).  The search is restricted to vertices
    with word length at most max_s_length (default: |u| + 4) and to
    subgroup edges with |power| <= max_power, so the value is in general
    only an upper bound on the uncapped distance; cap_touched reports
    whether a cap could actually have hidden a shorter path.  Pruning
    events that provably cannot matter are not reported:

    * free products: multiplying by one factor element changes the
      normal-form syllable length by at most one, so the distance is
      exact whenever every syllable of u fits the cap;
    * relative family: a vertex pruned while producing breadth layer j
      lies at depth j, so any path through it has length >= j + 1 and
      can undercut a found distance d only when j <= d - 2; subgroup
      powers are reported as binding only when a within-cap jump could
      exceed max_power (|k| |w| <= |v| + |v w^k| <= 2 max_s_length).

    Intentionally shares no machinery with the engines.
    """
    u = f.inverse() * g
    moves = []
    cap_touched = False
    power_bind = False
    if spec.family == "free_product":
        free_syllables = [
            len(w)
            for idx, w in u.syllables
            if isinstance(spec.group.factors[idx], FreeGroup)
        ]
        cap = max_s_length if max_s_length is not None else max(free_syllables, default=1)
        cap_touched = any(n > cap for n in free_syllables)
        for idx, factor in enumerate(spec.group.factors):
            if isinstance(factor, FreeGroup):
                seen = set()
                stack = [()]
                while stack:
                    tup = stack.pop()
                    if tup:
                        moves.append(spec.group.syllable(idx, factor.word(tup)))
                    if len(tup) >= cap:
                        continue
                    for i in range(1, len(factor.gens) + 1):
                        for c in (i, -i):
                            if tup and tup[-1] == -c:
                                continue
                            if tup + (c,) not in seen:
                                seen.add(tup + (c,))
                                stack.append(tup + (c,))
            else:
                for h in factor.elements()[1:]:
                    moves.append(spec.group.syllable(idx, h))
        len_cap = None
    else:
        for i in range(1, len(spec.group.gens) + 1):
            for c in (i, -i):
                moves.append(spec.group.word((c,)))
        for k in range(-max_power, max_power + 1):
            if k:
                moves.append(spec.subgroup_element(k))
        len_cap = max_s_length if max_s_length is not None else len(u) + 4
        wlen = len(spec.w)
        power_bind = (max_power + 1) * wlen <= 2 * len_cap

    one = spec.group.identity()
    seen = {one: 0}
    frontier = [one]
    d = 0
    relevant = False  # length prunes while producing layers 1 .. d-2
    recent = [False, False]  # same, for layers d-1 and d
    while frontier:
        if any(v == u for v in frontier):
            return d, cap_touched or relevant or (power_bind and d >= 1)
        d += 1
        pruned = False
        nxt = []
        for v in frontier:
            for mv in moves:
                nv = v * mv
                if len_cap is not None and len(nv) > len_cap:
                    pruned = True
                    continue
                if nv not in seen:
                    if len(seen) > max_vertices:
                        raise BudgetExhaustedError("oracle vertex budget exceeded")
                    seen[nv] = d
                    nxt.append(nv)
        relevant = relevant or recent[0]
        recent = [recent[1], pruned]
        frontier = nxt
    raise BudgetExhaustedError("oracle found no path under its caps")


CODE = {"x": 0, "X": 1, "y": 2, "Y": 3}  # a letter's inverse is its code ^ 1
LETTER_CODE = {1: 0, -1: 1, 2: 2, -2: 3}  # FreeWord.letters: +-(generator index + 1)


def word_code(codes) -> int:
    """A word as one int: a leading 1, then two bits per letter code."""
    out = 1
    for c in codes:
        out = out << 2 | c
    return out


def string_sweep(wstr: str, cap: int, max_power: int) -> dict[int, int]:
    """Independent oracle: breadth-first search over reduced words, each held
    as its `word_code`.

    Moves are the four generators and w^k for |k| <= max_power; the power
    cap is implied by the length cap since |v.w^k| >= |k||w| - |v|.  Moves
    are grouped by first letter, shortest first: only the group that starts
    with the inverse of v's last letter can cancel, every other move is a
    plain concatenation and stops once it would pass the cap.  The moves of
    one group are prefixes of its longest (w is cyclically reduced, so w and
    w^-1 start with different letters), so v is cancelled against the
    longest once, j letters, and a move of length n cancels min(n, j); past
    j the product grows with n, so that group too stops at the cap.
    """
    w = [CODE[c] for c in wstr]
    winv = [c ^ 1 for c in reversed(w)]
    moves = [[c] for c in range(4)]
    for k in range(1, max_power + 1):
        moves += [w * k, winv * k]
    # per first letter: its moves as (length, letter bits), and the inverses
    # of its longest move's letters, which v's last letters match to cancel
    groups = []
    for first in range(4):
        group = sorted((m for m in moves if m[0] == first), key=len)
        longest = group[-1]
        assert all(m == longest[: len(m)] for m in group)
        groups.append(([(len(m), word_code(m) ^ 1 << 2 * len(m)) for m in group],
                       [c ^ 1 for c in longest]))
    dist = {1: 0}
    frontier = [1]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            n = (v.bit_length() - 1) >> 1
            room = cap - n
            cancels = (v & 3) ^ 1 if n else None
            for first, (group, undo) in enumerate(groups):
                if first == cancels:
                    j, u, top = 0, v, min(n, len(undo))
                    while j < top and u & 3 == undo[j]:
                        j += 1
                        u >>= 2
                    for size, bits in group:
                        if size <= j:
                            nv = v >> 2 * size
                        elif size - 2 * j > room:
                            break
                        else:
                            rest = 2 * (size - j)
                            nv = u << rest | bits & ((1 << rest) - 1)
                        if nv not in dist:
                            dist[nv] = d
                            nxt.append(nv)
                elif room > 0:
                    for size, bits in group:
                        if size > room:
                            break
                        nv = v << 2 * size | bits
                        if nv not in dist:
                            dist[nv] = d
                            nxt.append(nv)
        frontier = nxt
    return dist


def to_code(word) -> int:
    return word_code(LETTER_CODE[c] for c in word.letters)


def coboundary2(c):
    """d2 c (g1, g2, g3) = g1.c(g2,g3) - c(g1g2,g3) + c(g1,g2g3) - c(g1,g2)."""

    def d2(g1, g2, g3):
        return c(g2, g3).act(g1) - c(g1 * g2, g3) + c(g1, g2 * g3) - c(g1, g2)

    return d2
