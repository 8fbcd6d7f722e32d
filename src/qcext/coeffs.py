"""Coefficient modules for quasi-cocycles.

Two module shapes cover everything here:

* TrivialReals: the reals with trivial group action.  Vectors have a single
  index () and one Fraction coefficient.
* IndexedLp: finitely supported functions on (group element, tag) pairs with
  the left translation action on the first coordinate, normed as little
  l^p with integer p >= 1.

Coefficients are exact Fractions throughout; norms come in a float flavor
for reporting and an exact p-th-power flavor for certified comparisons.

Modules and vectors are frozen slotted dataclasses: setting a field raises
FrozenInstanceError (an AttributeError), instances have no __dict__, and
equality compares the fields.  The guard stops at a vector's coefficient
dict; no code here writes to that dict once a vector holds it.

The public ModuleVector constructor converts every coefficient, checks every
index and drops zeros.  Arithmetic on vectors that already passed it (+, -,
unary -, scale and act) returns an operand (v + 0, v - 0, 0 + v) or builds
its result through the module-private _trusted constructor, which skips
those checks: the indices are the operands' own (act translates them
injectively) and every stored coefficient is a nonzero Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable

from .errors import DomainError, MixedContextError
from .groups import as_fraction

_ZERO = Fraction(0)  # the coefficient off the support; Fractions are immutable


@dataclass(frozen=True, slots=True)
class TrivialReals:
    """R with the trivial action.  The only index is the empty tuple."""

    p: ClassVar[int] = 1

    def valid_index(self, idx) -> bool:
        return idx == ()

    def act_index(self, g, idx):
        return idx


@dataclass(frozen=True, slots=True)
class IndexedLp:
    """l^p on (element, tag) indices with g . (h, t) = (g h, t)."""

    group: object
    p: int = 2
    tags: tuple[str, ...] = ("e",)

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 1:
            raise DomainError("p must be an integer >= 1 for exact norms")
        tags = tuple(self.tags)
        if len(set(tags)) != len(tags) or not tags:
            raise DomainError("tags must be nonempty and distinct")
        object.__setattr__(self, "tags", tags)

    def __repr__(self):
        return f"IndexedLp(p={self.p}, tags={self.tags})"

    def valid_index(self, idx) -> bool:
        if not (isinstance(idx, tuple) and len(idx) == 2):
            return False
        elem, tag = idx
        return tag in self.tags and getattr(elem, "group", None) == self.group

    def act_index(self, g, idx):
        elem, tag = idx
        return (g * elem, tag)


@dataclass(frozen=True, slots=True)
class ModuleVector:
    """Finitely supported vector in a coefficient module.

    Stores index -> Fraction with zeros dropped.  All arithmetic stays exact.
    """

    module: object
    coeffs: dict

    def __init__(self, module, coeffs: dict | None = None):
        clean = {}
        for idx, c in (coeffs or {}).items():
            c = as_fraction(c)
            if c == 0:
                continue
            if not module.valid_index(idx):
                raise DomainError(f"index {idx!r} not valid for {module!r}")
            clean[idx] = c
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "coeffs", clean)

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()),))

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> list:
        return sorted(self.coeffs, key=str)

    def coefficient(self, idx) -> Fraction:
        return self.coeffs.get(idx, _ZERO)

    def scalar(self) -> Fraction:
        """The lone coefficient of a TrivialReals vector."""
        if not isinstance(self.module, TrivialReals):
            raise DomainError("scalar() is only for TrivialReals vectors")
        return self.coeffs.get((), _ZERO)

    def _check(self, other: ModuleVector):
        if not isinstance(other, ModuleVector) or (
            self.module is not other.module and self.module != other.module
        ):
            raise MixedContextError("vectors from different modules")

    def _plus(self, other: ModuleVector, subtract: bool) -> ModuleVector:
        self._check(other)
        if not other.coeffs:
            return self  # vectors are immutable, so v + 0 and v - 0 share v
        if not (self.coeffs or subtract):
            return other  # 0 + v is v; 0 - v negates below
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            if subtract:
                c = -c
            if idx in out:
                c += out[idx]
                if not c:
                    del out[idx]
                    continue
            out[idx] = c
        return _trusted(self.module, out)

    def __add__(self, other: ModuleVector) -> ModuleVector:
        return self._plus(other, False)

    def __sub__(self, other: ModuleVector) -> ModuleVector:
        return self._plus(other, True)

    def __neg__(self) -> ModuleVector:
        return _trusted(self.module, {i: -c for i, c in self.coeffs.items()})

    def scale(self, r) -> ModuleVector:
        r = as_fraction(r)
        if not r:
            return _trusted(self.module, {})
        return _trusted(self.module, {i: r * c for i, c in self.coeffs.items()})

    def __rmul__(self, r) -> ModuleVector:
        return self.scale(r)

    def act(self, g) -> ModuleVector:
        module = self.module
        if isinstance(module, TrivialReals):
            return self  # immutable, and the trivial action ignores g
        # Left translation is injective on indices, so no two coefficients
        # land on one index and none becomes zero.
        act_index = module.act_index
        return _trusted(module, {act_index(g, i): c for i, c in self.coeffs.items()})

    def norm_pth_power(self) -> Fraction:
        """Exact sum of |coeff|^p."""
        p = self.module.p
        return sum((abs(c) ** p for c in self.coeffs.values()), Fraction(0))

    def norm_leq_exact(self, bound) -> bool:
        """Exact test ||v||_p <= bound, done on p-th powers."""
        bound = as_fraction(bound)
        if bound < 0:
            return False
        return self.norm_pth_power() <= bound**self.module.p

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for idx in self.support():
            c = self.coeffs[idx]
            label = "1" if idx == () else str(idx)
            parts.append(f"{c}*d[{label}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self}>"


def _trusted(module, coeffs: dict) -> ModuleVector:
    """Wrap a dict of valid indices to nonzero Fractions without checks."""
    vec = object.__new__(ModuleVector)
    object.__setattr__(vec, "module", module)
    object.__setattr__(vec, "coeffs", coeffs)
    return vec


def zero(module) -> ModuleVector:
    return ModuleVector(module, {})

def delta(module, idx, coeff=Fraction(1)) -> ModuleVector:
    return ModuleVector(module, {idx: coeff})

def real_value(r, module: TrivialReals | None = None) -> ModuleVector:
    """Wrap an exact rational as a TrivialReals vector."""
    return ModuleVector(module or TrivialReals(), {(): as_fraction(r)})


def sum_vectors(vectors: Iterable[ModuleVector], module=None) -> ModuleVector:
    vectors = list(vectors)
    if not vectors:
        if module is None:
            raise DomainError("empty sum needs an explicit module")
        return zero(module)
    out = vectors[0]
    for v in vectors[1:]:
        out = out + v
    return out
