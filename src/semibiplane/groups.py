"""Finite abelian groups as direct products of cyclic factors.

Elements are canonical integer indices in ``0..order-1`` under a mixed-radix
encoding where the first factor is least significant. Keeping elements as
plain ints keeps every table in the package flat and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod
from typing import Iterable, Sequence

from .errors import SearchBudgetError

#: Most candidate generator images times group order that ``automorphisms``
#: takes on: Z2x2x4 has 1,024 x 16, Z2^4 65,536 x 16. Candidates >= order,
#: so this also bounds the order^2 addition table it builds.
AUT_WORK_BUDGET = 1 << 14


@dataclass(frozen=True)
class GroupSpec:
    """Direct product of cyclic groups, written additively."""

    factors: tuple[int, ...]
    order: int

    @property
    def name(self) -> str:
        """Compact serialization, e.g. ``Z6`` or ``Z2xZ2``."""
        return "Z" + "xZ".join(str(n) for n in self.factors)

    @property
    def zero(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def check(self, x: int) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.order:
            raise ValueError(f"invalid element {x!r} for {self.name} (expected 0..{self.order - 1})")
        return x

    def decode(self, x: int) -> tuple[int, ...]:
        """Mixed-radix digits of ``x``, first factor least significant."""
        self.check(x)
        digits = []
        for n in self.factors:
            x, d = divmod(x, n)
            digits.append(d)
        return tuple(digits)

    def encode(self, digits: Sequence[int]) -> int:
        if len(digits) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} digits, got {len(digits)}")
        x = 0
        for n, d in zip(reversed(self.factors), reversed(list(digits))):
            if not 0 <= d < n:
                raise ValueError(f"digit {d} out of range for modulus {n}")
            x = x * n + d
        return x

    def add(self, x: int, y: int) -> int:
        dx, dy = self.decode(x), self.decode(y)
        return self.encode([(a + b) % n for a, b, n in zip(dx, dy, self.factors)])

    def neg(self, x: int) -> int:
        return self.encode([(-d) % n for d, n in zip(self.decode(x), self.factors)])


def make_group(factors: Iterable[int]) -> GroupSpec:
    """Build a group spec from cyclic moduli; every modulus must be >= 2."""
    fs = tuple(int(n) for n in factors)
    if not fs:
        raise ValueError("invalid group: factor list is empty")
    for n in fs:
        if n < 2:
            raise ValueError(f"invalid group: modulus {n} < 2")
    return GroupSpec(fs, prod(fs))


@lru_cache(maxsize=None)
def add_table(G: GroupSpec) -> tuple[int, ...]:
    """Flat addition table: entry ``x * order + y`` is ``x + y``."""
    k = G.order
    return tuple(G.add(x, y) for x in range(k) for y in range(k))


@lru_cache(maxsize=None)
def sub_table(G: GroupSpec) -> tuple[int, ...]:
    """Flat subtraction table: entry ``x * order + y`` is ``x - y``."""
    k = G.order
    neg = [G.neg(y) for y in range(k)]
    add = add_table(G)
    return tuple(add[x * k + neg[y]] for x in range(k) for y in range(k))


def is_subgroup(G: GroupSpec, S: Iterable[int]) -> bool:
    """True iff ``S`` contains zero and is closed under addition and negation."""
    members = frozenset(S)
    if not members:
        raise ValueError("invalid subgroup candidate: empty set")
    for x in members:
        G.check(x)
    return G.zero in members and all(
        G.neg(x) in members and all(G.add(x, y) in members for y in members)
        for x in members
    )


def coset(G: GroupSpec, S: Iterable[int], rep: int) -> frozenset[int]:
    G.check(rep)
    return frozenset(G.add(s, rep) for s in S)


def automorphisms(G: GroupSpec) -> list[tuple[int, ...]]:
    """Automorphisms of G as index permutations, in lexicographic order:
    the bijective homomorphisms, each fixed by its images y_i of the factor
    generators, where any y_i with n_i * y_i = 0 gives one. Raises
    ``SearchBudgetError`` first when the candidate images times the order
    exceed ``AUT_WORK_BUDGET``."""
    k = G.order
    # |{y : n * y = 0}| is the product of gcd(n, m) over the factors m
    candidates = prod(gcd(n, m) for n in G.factors for m in G.factors)
    if candidates * k > AUT_WORK_BUDGET:
        raise SearchBudgetError(
            f"automorphisms of {G.name} would try {candidates} generator images "
            f"on {k} elements, over the budget of {AUT_WORK_BUDGET}"
        )
    add = add_table(G)
    maps = [(0,)]
    for n in G.factors:
        # x = low + stride * d with low < stride, so phi(x) = phi(low) + d * y
        maps = [
            tuple(add[v * k + m] for m in mult for v in phi)
            for mult in torsion_multiples(G, n) for phi in maps
        ]
    return sorted(phi for phi in maps if len(set(phi)) == k)


def automorphism_generators(G: GroupSpec) -> list[tuple[int, ...]]:
    """A generating set of Aut(G), picked greedily: each automorphism, in
    ``automorphisms`` order, that the ones picked before do not generate."""
    span, gens = {tuple(G.elements())}, []
    for a in automorphisms(G):
        if a not in span:
            gens.append(a)
            new = span  # compose until the span is closed under every generator
            while new := {tuple(g[x] for x in s) for s in new for g in gens} - span:
                span |= new
    return gens


def torsion_multiples(G: GroupSpec, n: int) -> list[list[int]]:
    """[0, y, 2y, ..., (n-1)y] for each y in G with n * y = 0, in order of y."""
    k = G.order
    add = add_table(G)
    out = []
    for y in G.elements():
        mult = [0]
        for _ in range(n):
            mult.append(add[mult[-1] * k + y])
        if mult[n] == 0:
            out.append(mult[:n])
    return out
