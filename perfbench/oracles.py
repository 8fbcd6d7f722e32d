"""Independent answers for the benchmark's checks.

Everything here works on plain letter strings ("x", "X" = x^-1, "y", "Y",
"t", "T") and Python integers and Fractions.  Nothing imports qcext: the
point is that a fault in the engines cannot also hide in the checks.
"""

from __future__ import annotations

import re
from fractions import Fraction

INVERSE = {"x": "X", "X": "x", "y": "Y", "Y": "y", "t": "T", "T": "t"}


def inverse(word: str) -> str:
    return "".join(INVERSE[c] for c in reversed(word))


def mul(u: str, v: str) -> str:
    """Free reduction of the concatenation u v."""
    j = 0
    while j < len(u) and j < len(v) and u[len(u) - 1 - j] == INVERSE[v[j]]:
        j += 1
    return u[: len(u) - j] + v[j:]


def ball(alphabet: str, radius: int) -> list[str]:
    """Reduced words of length <= radius, shortest first, in alphabet order."""
    out = [""]
    layer = [""]
    for _ in range(radius):
        layer = [w + c for w in layer for c in alphabet if not w or w[-1] != INVERSE[c]]
        out.extend(layer)
    return out


def distinct_products(words: list[str]) -> list[str]:
    """Every distinct reduced product u v, in first-seen order."""
    seen: dict[str, None] = {}
    for u in words:
        for v in words:
            seen.setdefault(mul(u, v), None)
    return list(seen)


def brooks_count(word: str, pattern: str) -> int:
    """Disjoint copies of pattern minus disjoint copies of its inverse.

    str.count scans left to right without overlap, which is the greedy
    maximal disjoint count."""
    return word.count(pattern) - word.count(inverse(pattern))


def telescope_brooks_t(word: str) -> Fraction:
    """Normal-form telescope on F(x,y) * <t>: the Brooks count of xy on each
    F(x,y) syllable plus the t-exponent of each <t> syllable.  Both inputs
    are scalar with trivial action, so the prefix translates drop out."""
    total = 0
    for syllable in re.findall(r"[xXyY]+|[tT]+", word):
        if syllable[0] in "tT":
            total += syllable.count("t") - syllable.count("T")
        else:
            total += brooks_count(syllable, "xy")
    return Fraction(total)


def half_sign_sum(word: str) -> Fraction:
    """Sum of sign(run)/2 over the maximal x-runs of a word of F(x,y)."""
    return sum((Fraction(1 if r[0] == "x" else -1, 2) for r in re.findall(r"x+|X+", word)),
               Fraction(0))


def syllable_count(word: str) -> int:
    """Coned distance on F(x,y) * <t>: one edge per normal-form syllable."""
    return len(re.findall(r"[xXyY]+|[tT]+", word))


def basis_distance(word: str) -> int:
    """Coned distance on F(x,y) rel <x>: one edge per maximal x-run and one
    per y-letter."""
    return len(re.findall(r"x+|X+|[yY]", word))


def power_of(word: str, w: str) -> int | None:
    """k with word = w^k as strings (w cyclically reduced), else None."""
    if not word:
        return 0
    k, rem = divmod(len(word), len(w))
    if rem:
        return None
    if word == w * k:
        return k
    if word == inverse(w) * k:
        return -k
    return None


def string_sweep(w: str, cap: int, max_power: int) -> dict[str, int]:
    """Breadth-first distances from the empty word in the coned graph of
    F(x,y) rel <w>, over reduced strings of length <= cap, with moves the
    four letters and w^k for 1 <= |k| <= max_power.

    The product v * base^k cancels min(J, k|base|) letters, where J is how
    far v's tail cancels against base repeated forever; J is found once per
    vertex and base."""
    dist = {"": 0}
    frontier = [""]
    bases = [(b * (max(cap, max_power) + 1), len(b)) for b in (w, inverse(w))]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            n = len(v)
            for c in "xXyY":
                nv = v[:-1] if n and v[-1] == INVERSE[c] else v + c
                if len(nv) <= cap and nv not in dist:
                    dist[nv] = d
                    nxt.append(nv)
            for forever, step in bases:
                j = 0
                while j < n and v[n - 1 - j] == INVERSE[forever[j]]:
                    j += 1
                for k in range(1, max_power + 1):
                    length = k * step
                    cut = min(j, length)
                    if n - 2 * cut + length > cap:
                        break  # past the cancelling tail, longer k only grow
                    nv = v[: n - cut] + forever[cut:length]
                    if nv not in dist:
                        dist[nv] = d
                        nxt.append(nv)
        frontier = nxt
    return dist


def cyclic_occurrences(word: str, pattern: str) -> int:
    """Occurrences of pattern in the cyclic word.

    For a pattern no proper prefix of which is also a suffix, copies never
    overlap, so this is the greedy count per period of the periodic word."""
    if any(pattern[:i] == pattern[-i:] for i in range(1, len(pattern))):
        raise ValueError(f"pattern {pattern!r} can overlap itself")
    if len(pattern) > len(word):
        raise ValueError("pattern longer than the cyclic word")
    wrapped = word + word[: len(pattern) - 1]
    return sum(1 for i in range(len(word)) if wrapped.startswith(pattern, i))


def homogenized_brooks(word: str, pattern: str) -> Fraction:
    """Homogenized Brooks count of pattern on a cyclically reduced word."""
    return Fraction(cyclic_occurrences(word, pattern)
                    - cyclic_occurrences(word, inverse(pattern)))
