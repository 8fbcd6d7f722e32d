"""Group arithmetic: free groups, finite table groups, and free products.

Groups and elements are frozen slotted dataclasses: setting a field raises
FrozenInstanceError (an AttributeError) and instances have no __dict__.
Elements are immutable value objects tied to their group.

A free-group word stores `codes`, a freely reduced tuple of letter codes:
generator i is 2i and its inverse 2i+1, so `c ^ 1` inverts a letter and
`c >> 1` names its generator.  The search kernel in `geodesics` runs on the
same codes held as bytes, and `FreeGroup.raw_mul` reduces both.  The signed
code (generator i is i+1, its inverse -(i+1)) lives only at the API
boundary: `FreeGroup.word` reads it and `FreeWord.letters` is a read-only
view in it.  A finite-group element is stored as its table index.

Bulk producers of words (a ball, layer by layer, in `geodesics`) build them
with `_trusted_words`, which skips the dataclass `__init__`: it makes the
instances with `object.__new__` and sets FreeWord's two slots through their
descriptors in C-level `map` loops, so no word gets a Python frame.  The
caller vouches that every code tuple is reduced; the words are the ones
`FreeWord(group, codes)` would build, with the same equality and hash.

Free-product elements are stored flat, in normal form: `raw` is a tuple of
(factor index, raw factor value) syllables with adjacent factor indices
distinct, the raw value being the codes of a free factor or the table index
of a finite one, never the raw identity (both raw identities, () and 0, are
falsy).  `FreeProduct.raw_mul` and `raw_inv` multiply and invert normal
forms through the factors' `raw_mul` and `raw_inv`, and element `*` and
`inverse` call them, so an element holds only ints and tuples of ints and
its hash and equality stay in C.  Factor elements are built only at the
API boundary: `FreeProduct.syllable` reads a factor element's raw value, and
the `syllables` view and `str` wrap raw values back.

Each group's `unwrap`, an `operator.attrgetter` class attribute, reads an
element's normal form (codes, raw syllables or table index) in C, and
`wrap` builds the element back; `qc.QuasiCocycle` keys its memo by it.
`raw_rows(bs)` returns `row` with row(a) == [raw_mul(a, b) for b in bs], which
makes a Python call only for the pairs that reduce (a finite group reads its
table row); `qc.defect` takes its products from these rows.

Element equality compares the payload (codes, raw syllables or table index)
first and the group second, by identity before value.  Element hashes are
payload-only: equal elements have equal payloads, and since no symbol string
enters the hash, an element's hash does not depend on PYTHONHASHSEED.  The
codes are nonnegative because CPython hashes -1 like -2: in signed letters,
any two words that differ only by x^-1 against y^-1 hash alike.  Groups
compare and hash through the dataclass, by their defining fields (gens;
names and table; factors) and not by the lookup tables derived from them.

Parsing uses one token grammar everywhere: tokens separated by whitespace or
'*', each token either '1' (identity) or 'sym' or 'sym^k' with k a nonzero
integer.  Symbols must be unique across a group (and across the factors of a
free product).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, repeat
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import (
    DomainError,
    GroupTableError,
    MixedContextError,
    UnknownGeneratorError,
)

_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def _split_tokens(text: str) -> list[str]:
    return [t for t in text.replace("*", " ").split() if t]


def _parse_token(token: str) -> tuple[str, int]:
    """Split 'sym^k' into (sym, k); bare 'sym' means k = 1."""
    m = _TOKEN_RE.match(token)
    if m is None:
        raise UnknownGeneratorError(f"cannot parse token {token!r}")
    sym, exp = m.group(1), m.group(2)
    k = 1 if exp is None else int(exp)
    if k == 0:
        raise UnknownGeneratorError(f"zero exponent in token {token!r}")
    return sym, k


def _power(x, n: int):
    """x^n for an element x and any integer n, by repeated multiplication."""
    out, base = x.group.identity(), x if n >= 0 else x.inverse()
    for _ in range(abs(n)):
        out = out * base
    return out


@dataclass(frozen=True, slots=True)
class FreeGroup:
    """Finitely generated free group on named generators."""

    gens: tuple[str, ...]
    _code: dict = field(compare=False)  # symbol -> code of the generator

    def __init__(self, gens: Sequence[str]):
        gens = tuple(gens)
        if len(set(gens)) != len(gens):
            raise UnknownGeneratorError(f"duplicate generators in {gens}")
        for g in gens:
            if g == "1" or _TOKEN_RE.match(g) is None or "^" in g:
                raise UnknownGeneratorError(f"bad generator symbol {g!r}")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "_code", {g: 2 * i for i, g in enumerate(gens)})

    def __repr__(self):
        return f"FreeGroup({', '.join(self.gens)})"

    # -- element constructors ------------------------------------------------

    def identity(self) -> FreeWord:
        return FreeWord(self, ())

    def gen(self, sym: str) -> FreeWord:
        return FreeWord(self, self.raw_token(sym, 1))

    def word(self, letters: Iterable[int]) -> FreeWord:
        """Build a word from signed letters (generator i is i+1, its inverse
        -(i+1)), reducing freely."""
        out: list[int] = []
        for c in letters:
            if not isinstance(c, int) or c == 0 or abs(c) > len(self.gens):
                raise UnknownGeneratorError(f"bad letter code {c!r}")
            code = 2 * c - 2 if c > 0 else -2 * c - 1
            if out and out[-1] == code ^ 1:
                out.pop()
            else:
                out.append(code)
        return FreeWord(self, tuple(out))

    def parse(self, text: str) -> FreeWord:
        codes: tuple = ()
        for token in _split_tokens(text):
            if token != "1":
                codes = self.raw_mul(codes, self.raw_token(*_parse_token(token)))
        return FreeWord(self, codes)

    def generators(self) -> list[FreeWord]:
        return [self.gen(g) for g in self.gens]

    def random_word(self, rng, length: int) -> FreeWord:
        """A reduced word of the given length, drawn letter by letter with
        rng (a sign, then a generator), redrawing any letter that would
        cancel."""
        codes: list[int] = []
        while len(codes) < length:
            c = rng.choice((0, 1)) + 2 * rng.randint(0, len(self.gens) - 1)
            if codes and codes[-1] == c ^ 1:
                continue
            codes.append(c)
        return FreeWord(self, tuple(codes))

    # -- protocol used by FreeProduct ----------------------------------------

    @staticmethod
    def raw_mul(a, b):
        """Reduced concatenation of two reduced code sequences of one type:
        tuples, or the search kernel's bytes."""
        i, j = len(a), 0
        while i and j < len(b) and a[i - 1] == b[j] ^ 1:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    @staticmethod
    def raw_inv(a: tuple) -> tuple:
        return tuple([c ^ 1 for c in reversed(a)])

    @staticmethod
    def raw_rows(bs: Sequence[tuple]):
        """row(a) == [raw_mul(a, b) for b in bs]: concatenation, except on
        the columns that open with the inverse of a's last code."""
        opening: dict = {}  # first code, as a 1-tuple -> the columns opening with it
        for j, b in enumerate(bs):
            opening.setdefault(b[:1], []).append(j)

        def row(a: tuple) -> list:
            out = list(map(a.__add__, bs))
            for j in opening.get((a[-1] ^ 1,), ()) if a else ():
                out[j] = FreeGroup.raw_mul(a, bs[j])
            return out

        return row

    unwrap = attrgetter("codes")  # the normal form of a word

    def wrap(self, raw: tuple) -> FreeWord:
        return FreeWord(self, raw)

    def symbols(self) -> tuple[str, ...]:
        return self.gens

    def raw_token(self, sym: str, k: int) -> tuple:
        """The codes of sym^k (k != 0)."""
        if sym not in self._code:
            raise UnknownGeneratorError(f"{sym!r} not a generator of {self!r}")
        return (self._code[sym] + (k < 0),) * abs(k)

    def letter_symbol(self, code: int) -> str:
        return self.gens[code >> 1]


@dataclass(frozen=True, slots=True, eq=False)
class FreeWord:
    """Freely reduced word in a FreeGroup.  Immutable and hashable."""

    group: FreeGroup
    codes: tuple[int, ...]  # trusted to be reduced; FreeGroup.word reduces

    @property
    def letters(self) -> tuple[int, ...]:
        """The signed letters: generator i is i+1, its inverse -(i+1)."""
        return tuple([-(c >> 1) - 1 if c & 1 else (c >> 1) + 1 for c in self.codes])

    def __eq__(self, other):
        if not isinstance(other, FreeWord):
            return NotImplemented
        return self.codes == other.codes and (
            self.group is other.group or self.group == other.group
        )

    def __hash__(self):
        return hash(self.codes)

    def __len__(self):
        return len(self.codes)

    def is_identity(self) -> bool:
        return not self.codes

    def __mul__(self, other: FreeWord) -> FreeWord:
        if not isinstance(other, FreeWord):
            return NotImplemented
        if self.group is not other.group and self.group != other.group:
            raise MixedContextError("words from different free groups")
        a, b = self.codes, other.codes
        if a and b and a[-1] == b[0] ^ 1:
            return FreeWord(self.group, FreeGroup.raw_mul(a, b))
        return FreeWord(self.group, a + b)

    def inverse(self) -> FreeWord:
        return FreeWord(self.group, FreeGroup.raw_inv(self.codes))

    __pow__ = _power

    def syllables(self) -> list[tuple[str, int]]:
        """Run-length form [(symbol, exponent), ...]."""
        out: list[tuple[str, int]] = []
        for c, run in groupby(self.codes):
            k = sum(1 for _ in run)
            out.append((self.group.letter_symbol(c), -k if c & 1 else k))
        return out

    def __str__(self):
        return " ".join([sym if k == 1 else f"{sym}^{k}" for sym, k in self.syllables()]) or "1"

    def __repr__(self):
        return f"<{self}>"


def _trusted_words(group: FreeGroup, codes: list) -> list[FreeWord]:
    """[FreeWord(group, c) for c in codes], for reduced code tuples, with no
    Python frame per word."""
    words = list(map(object.__new__, repeat(FreeWord, len(codes))))
    drain = deque(maxlen=0).extend
    drain(map(FreeWord.group.__set__, words, repeat(group)))
    drain(map(FreeWord.codes.__set__, words, codes))
    return words


@dataclass(frozen=True, slots=True, eq=False)
class FiniteElement:
    """Element of a FiniteTableGroup, identified by its table index."""

    group: FiniteTableGroup
    index: int

    @property
    def name(self) -> str:
        return self.group.names[self.index]

    def __eq__(self, other):
        if not isinstance(other, FiniteElement):
            return NotImplemented
        return self.index == other.index and (
            self.group is other.group or self.group == other.group
        )

    def __hash__(self):
        return hash(self.index)

    def __mul__(self, other: FiniteElement) -> FiniteElement:
        if not isinstance(other, FiniteElement):
            return NotImplemented
        if self.group is not other.group and self.group != other.group:
            raise MixedContextError("elements from different finite groups")
        return FiniteElement(self.group, self.group.table[self.index][other.index])

    def inverse(self) -> FiniteElement:
        return FiniteElement(self.group, self.group._inverse[self.index])

    __pow__ = _power

    def is_identity(self) -> bool:
        return self.index == 0

    def __str__(self):
        return self.name

    def __repr__(self):
        return f"<{self.name}>"


@dataclass(frozen=True, slots=True)
class FiniteTableGroup:
    """Finite group given by a multiplication table.

    names[0] must be the identity.  table[i][j] is the index of names[i] *
    names[j].  The constructor checks closure, identity, inverses, and full
    associativity, so anything that survives construction is a group.
    """

    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]
    _inverse: tuple[int, ...] = field(compare=False)
    _name_index: dict = field(compare=False)

    def __init__(self, names: Sequence[str], table: Sequence[Sequence[int]]):
        names = tuple(names)
        table = tuple(tuple(row) for row in table)
        n = len(names)
        if n == 0:
            raise GroupTableError("empty group table")
        if len(set(names)) != n:
            raise GroupTableError("duplicate element names")
        for nm in names:
            if nm == "1" and names.index(nm) != 0:
                raise GroupTableError("'1' may only name the identity")
            if _TOKEN_RE.match(nm) is None and nm != "1":
                raise GroupTableError(f"bad element name {nm!r}")
        if len(table) != n or any(len(row) != n for row in table):
            raise GroupTableError("table is not square")
        for row in table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise GroupTableError(f"table entry {v!r} out of range")
        for i in range(n):
            if table[0][i] != i or table[i][0] != i:
                raise GroupTableError("names[0] is not a two-sided identity")
        inverse = [-1] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == 0 and table[j][i] == 0:
                    inverse[i] = j
                    break
            if inverse[i] < 0:
                raise GroupTableError(f"no inverse for {names[i]!r}")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if table[table[i][j]][k] != table[i][table[j][k]]:
                        raise GroupTableError(
                            f"associativity fails at ({names[i]}, {names[j]}, {names[k]})"
                        )
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_inverse", tuple(inverse))
        object.__setattr__(self, "_name_index", {nm: i for i, nm in enumerate(names)})

    def __repr__(self):
        return f"FiniteTableGroup({', '.join(self.names)})"

    def __len__(self):
        return len(self.names)

    def identity(self) -> FiniteElement:
        return FiniteElement(self, 0)

    def element(self, name: str) -> FiniteElement:
        if name not in self._name_index:
            raise UnknownGeneratorError(f"{name!r} not an element of {self!r}")
        return FiniteElement(self, self._name_index[name])

    def elements(self) -> list[FiniteElement]:
        return [FiniteElement(self, i) for i in range(len(self.names))]

    def raw_mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def raw_inv(self, a: int) -> int:
        return self._inverse[a]

    def raw_rows(self, bs: Sequence[int]):
        """row(a) == [raw_mul(a, b) for b in bs], read off the table."""
        table = self.table
        return lambda a: list(map(table[a].__getitem__, bs))

    unwrap = attrgetter("index")

    def wrap(self, raw: int) -> FiniteElement:
        return FiniteElement(self, raw)

    def symbols(self) -> tuple[str, ...]:
        return self.names[1:]

    def raw_token(self, sym: str, k: int) -> int:
        """The table index of sym^k."""
        return (self.element(sym) ** k).index


def cyclic_group(order: int, sym: str = "g") -> FiniteTableGroup:
    """Z/order with elements 1, sym, sym^2, ..."""
    if order < 1:
        raise GroupTableError("order must be positive")
    names = ["1"] + [sym if k == 1 else f"{sym}{k}" for k in range(1, order)]
    table = [[(i + j) % order for j in range(order)] for i in range(order)]
    return FiniteTableGroup(names, table)


@dataclass(frozen=True, slots=True)
class FreeProduct:
    """Free product of a sequence of factor groups.

    Factors may be FreeGroup or FiniteTableGroup instances (anything with the
    raw_mul/raw_rows/raw_inv/wrap/unwrap/symbols/raw_token protocol, whose
    raw identity is falsy).  The product speaks raw_mul/raw_rows/raw_inv/
    wrap/unwrap too, on normal forms (syllable tuples), so code that runs on
    raw values, such as `qc.defect`, covers every group here.
    Symbols must not collide across factors, so parsing and printing are
    unambiguous; a collision raises DomainError.
    """

    factors: tuple
    _owner: dict = field(compare=False)

    def __init__(self, factors: Sequence):
        factors = tuple(factors)
        if len(factors) < 1:
            raise DomainError("free product needs at least one factor")
        owner: dict[str, int] = {}
        for i, factor in enumerate(factors):
            for sym in factor.symbols():
                if owner.setdefault(sym, i) != i:
                    raise DomainError(
                        f"symbol {sym!r} is owned by factors {owner[sym]} and {i}"
                    )
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_owner", owner)

    def __repr__(self):
        return "FreeProduct(" + " * ".join(repr(f) for f in self.factors) + ")"

    def identity(self) -> FreeProductElement:
        return FreeProductElement(self, ())

    def syllable(self, factor_index: int, elem) -> FreeProductElement:
        raw = self.factors[factor_index].unwrap(elem)
        return FreeProductElement(self, ((factor_index, raw),) if raw else ())

    def parse(self, text: str) -> FreeProductElement:
        out = self.identity()
        for token in _split_tokens(text):
            if token == "1":
                continue
            sym, k = _parse_token(token)
            i = self._owner.get(sym)
            if i is None:
                raise UnknownGeneratorError(f"{sym!r} not in any factor")
            raw = self.factors[i].raw_token(sym, k)
            out = out * FreeProductElement(self, ((i, raw),) if raw else ())
        return out

    # -- raw protocol: normal forms as syllable tuples -------------------------

    def raw_mul(self, left: tuple, right: tuple) -> tuple:
        """Normal form of the product of two normal forms."""
        if not left or not right or left[-1][0] != right[0][0]:
            return left + right
        # Merge facing syllables of one factor, dropping raw identities and
        # re-checking the new boundary.
        factors = self.factors
        i, j = len(left), 0
        while i and j < len(right) and left[i - 1][0] == right[j][0]:
            fi = right[j][0]
            c = factors[fi].raw_mul(left[i - 1][1], right[j][1])
            i -= 1
            j += 1
            if c:
                return left[:i] + ((fi, c),) + right[j:]
        return left[:i] + right[j:]

    def raw_inv(self, a: tuple) -> tuple:
        factors = self.factors
        return tuple([(i, factors[i].raw_inv(x)) for i, x in a[::-1]])

    def raw_rows(self, bs: Sequence[tuple]):
        """row(a) == [raw_mul(a, b) for b in bs]: concatenation, but a column
        that opens in a's last factor merges the facing syllables through
        that factor's rows, and calls raw_mul only when they cancel."""
        opening: dict = {}  # factor index -> the columns that open in it
        for j, b in enumerate(bs):
            opening.setdefault(b[0][0] if b else -1, []).append(j)
        facing = {  # factor index -> (its columns, their merges, their tails)
            i: (cols, self.factors[i].raw_rows([bs[j][0][1] for j in cols]),
                [bs[j][1:] for j in cols])
            for i, cols in opening.items() if i >= 0
        }

        def row(a: tuple) -> list:
            out = list(map(a.__add__, bs))
            if a and a[-1][0] in facing:
                (i, x), head = a[-1], a[:-1]
                cols, merges, tails = facing[i]
                for j, c, tail in zip(cols, merges(x), tails):
                    out[j] = head + ((i, c),) + tail if c else self.raw_mul(a, bs[j])
            return out

        return row

    unwrap = attrgetter("raw")

    def wrap(self, raw: tuple) -> FreeProductElement:
        return FreeProductElement(self, raw)


@dataclass(frozen=True, slots=True, eq=False)
class FreeProductElement:
    """Normal-form element of a FreeProduct, stored as raw syllables."""

    group: FreeProduct
    raw: tuple

    @property
    def syllables(self) -> tuple:
        """(factor index, factor element) pairs of the normal form."""
        factors = self.group.factors
        return tuple((i, factors[i].wrap(a)) for i, a in self.raw)

    def __eq__(self, other):
        if not isinstance(other, FreeProductElement):
            return NotImplemented
        return self.raw == other.raw and (
            self.group is other.group or self.group == other.group
        )

    def __hash__(self):
        return hash(self.raw)

    def __len__(self):
        return len(self.raw)

    def is_identity(self) -> bool:
        return not self.raw

    def __mul__(self, other: FreeProductElement) -> FreeProductElement:
        if not isinstance(other, FreeProductElement):
            return NotImplemented
        group = self.group
        if group is not other.group and group != other.group:
            raise MixedContextError("elements from different free products")
        return FreeProductElement(group, group.raw_mul(self.raw, other.raw))

    def inverse(self) -> FreeProductElement:
        return FreeProductElement(self.group, self.group.raw_inv(self.raw))

    __pow__ = _power

    def __str__(self):
        if not self.raw:
            return "1"
        return " ".join(str(a) for _, a in self.syllables)

    def __repr__(self):
        return f"<{self}>"


# -- generic helpers ----------------------------------------------------------


def conjugate(a, g):
    """a^g = g^-1 a g."""
    return g.inverse() * a * g


def commutator(a, b):
    """[a, b] = a^-1 b^-1 a b.  With this convention [a^g, b^g] = [a, b]^g
    and [x,y]^-k [x^t, y^t]^k reduces to [[x,y]^k, t]."""
    return a.inverse() * b.inverse() * a * b


def enumerate_ball(identity, generators: Sequence, radius: int):
    """All products of at most `radius` of the given generators, BFS order.

    The generator list is used as given; pass inverses explicitly if a
    symmetric ball is wanted.
    """
    if radius < 0:
        raise DomainError("radius must be nonnegative")
    seen = {identity}
    order = [identity]
    frontier = [identity]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for s in generators:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    order.append(h)
                    nxt.append(h)
        frontier = nxt
    return order


def exponent_vector(word: FreeWord) -> dict[str, int]:
    """Abelianization of a free-group word."""
    out = {g: 0 for g in word.group.gens}
    for c in word.codes:
        out[word.group.letter_symbol(c)] += -1 if c & 1 else 1
    return out


def cyclic_reduce(word: FreeWord) -> tuple[FreeWord, FreeWord]:
    """Return (root, conj) with word == conj * root * conj^-1 and root
    cyclically reduced."""
    codes = word.codes
    pre: list[int] = []
    while len(codes) >= 2 and codes[0] == codes[-1] ^ 1:
        pre.append(codes[0])
        codes = codes[1:-1]
    return FreeWord(word.group, codes), FreeWord(word.group, tuple(pre))


def is_cyclically_reduced(word: FreeWord) -> bool:
    cs = word.codes
    return len(cs) < 2 or cs[0] != cs[-1] ^ 1


def is_proper_power(word: FreeWord) -> bool:
    """True when the word is conjugate to u^k with k >= 2."""
    root, _ = cyclic_reduce(word)
    n = len(root.codes)
    if n == 0:
        return False
    for d in range(1, n):
        if n % d:
            continue
        if root.codes == root.codes[:d] * (n // d):
            return True
    return False


def as_fraction(x) -> Fraction:
    """Exact conversion accepting int, Fraction, and decimal strings."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise DomainError(f"cannot convert {x!r} to an exact rational")

