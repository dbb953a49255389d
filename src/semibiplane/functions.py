"""Function tables f: G -> H and the analysis around them.

Covers the difference tables f(x+a) - f(x), the 0-or-2 semi-planarity test,
the solution sets S(a, b) of f(t-a) = f(t) + b, fiber counting with the
"more than k/2 preimages" exclusion, and composition with automorphisms and
translations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from . import kernels
from .errors import InvalidTransformError, TableParseError
from .groups import GroupSpec, add_table, sub_table

@dataclass(frozen=True)
class FuncTable:
    """A function G -> H as a flat value table indexed by G-element."""

    domain: GroupSpec
    codomain: GroupSpec
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.domain.order:
            raise ValueError(
                f"table has {len(self.values)} entries, domain {self.domain.name} "
                f"has order {self.domain.order}"
            )
        for i, v in enumerate(self.values):
            if not 0 <= v < self.codomain.order:
                raise ValueError(f"entry {i} = {v} is not a valid {self.codomain.name} index")

    def __getitem__(self, x: int) -> int:
        return self.values[x]


@dataclass(frozen=True)
class SemiPlanarityVerdict:
    is_semiplanar: bool
    #: (a, y, count) for the first difference equation with count not in
    #: {0, 2}; smallest a, then smallest y. None iff semi-planar.
    witness: tuple[int, int, int] | None


def make_table(domain: GroupSpec, codomain: GroupSpec, values: Iterable[int]) -> FuncTable:
    return FuncTable(domain, codomain, tuple(values))


def delta(f: FuncTable, a: int) -> FuncTable:
    """The difference table x -> f(x + a) - f(x), with values in H."""
    G, H = f.domain, f.codomain
    G.check(a)
    k = G.order
    gadd = add_table(G)
    hsub = sub_table(H)
    nh = H.order
    vals = tuple(hsub[f.values[gadd[x * k + a]] * nh + f.values[x]] for x in range(k))
    return FuncTable(G, H, vals)


def _require_equal_orders(f: FuncTable) -> int:
    if f.domain.order != f.codomain.order:
        raise ValueError(
            f"domain {f.domain.name} and codomain {f.codomain.name} must have equal order"
        )
    return f.domain.order


def is_semiplanar(f: FuncTable) -> SemiPlanarityVerdict:
    """Test that every nonzero difference equation has 0 or 2 solutions."""
    k = _require_equal_orders(f)
    witness = kernels.semiplanar_witness(
        f.values, add_table(f.domain), sub_table(f.codomain), k
    )
    return SemiPlanarityVerdict(witness is None, witness)


def s_set(f: FuncTable, a: int, b: int) -> frozenset[int]:
    """The set of t in G with f(t - a) = f(t) + b."""
    G, H = f.domain, f.codomain
    G.check(a)
    H.check(b)
    gsub = sub_table(G)
    hadd = add_table(H)
    k, nh = G.order, H.order
    return frozenset(
        t for t in range(k)
        if f.values[gsub[t * k + a]] == hadd[f.values[t] * nh + b]
    )


def fiber_sizes(f: FuncTable) -> dict[int, int]:
    """Preimage count per attained codomain value."""
    _require_equal_orders(f)
    out: dict[int, int] = {}
    for v in f.values:
        out[v] = out.get(v, 0) + 1
    return out


def limit_check(f: FuncTable) -> bool:
    """False when some fiber exceeds k/2 with k > 4 (such f is never
    semi-planar); True means "not excluded by this criterion"."""
    k = _require_equal_orders(f)
    if k <= 4:
        return True
    return max(fiber_sizes(f).values()) <= k // 2


def is_bijection(f: FuncTable) -> bool:
    k = _require_equal_orders(f)
    return len(set(f.values)) == k


def is_automorphism(G: GroupSpec, perm: Sequence[int]) -> bool:
    """Check that ``perm`` is a bijective additive map of G's element indices.

    It suffices that perm(x + g) = perm(x) + perm(g) for every x and every
    factor generator g: the generators span G, so additivity extends to all
    pairs by induction, and x = 0 forces perm(0) = 0.
    """
    return _is_automorphism_cached(G, tuple(perm))


@lru_cache(maxsize=1024)
def _is_automorphism_cached(G: GroupSpec, perm: tuple[int, ...]) -> bool:
    k = G.order
    if len(perm) != k or set(perm) != set(range(k)):
        return False
    g = 1  # the generator of each factor, first factor least significant
    for n in G.factors:
        # G.add, not add_table: the k*k table would cost more than the check
        if any(perm[G.add(x, g)] != G.add(perm[x], perm[g]) for x in range(k)):
            return False
        g *= n
    return True


def equivalence_transform(
    f: FuncTable, phi: Sequence[int], psi: Sequence[int], c: int, d: int
) -> FuncTable:
    """The table g(x) = psi(f(phi(x) + c)) + d.

    ``phi`` must be an automorphism of the domain and ``psi`` of the codomain;
    semi-planarity is invariant under this composition.
    """
    G, H = f.domain, f.codomain
    G.check(c)
    H.check(d)
    if not is_automorphism(G, phi):
        raise InvalidTransformError(f"phi is not an automorphism of {G.name}")
    if not is_automorphism(H, psi):
        raise InvalidTransformError(f"psi is not an automorphism of {H.name}")
    gadd = add_table(G)
    hadd = add_table(H)
    k, nh = G.order, H.order
    vals = tuple(
        hadd[psi[f.values[gadd[phi[x] * k + c]]] * nh + d] for x in range(k)
    )
    return FuncTable(G, H, vals)


def parse_table(text: str, domain: GroupSpec, codomain: GroupSpec) -> FuncTable:
    """Parse comma-separated codomain indices; whitespace is insignificant."""
    entries = [p.strip() for p in text.strip().split(",")]
    if len(entries) != domain.order:
        raise TableParseError(
            f"expected {domain.order} entries for {domain.name}, got {len(entries)}"
        )
    values = []
    for i, entry in enumerate(entries):
        try:
            v = int(entry)
        except ValueError:
            raise TableParseError(f"entry {i} ({entry!r}) is not an integer", position=i) from None
        if not 0 <= v < codomain.order:
            raise TableParseError(
                f"entry {i} = {v} out of range for {codomain.name}", position=i
            )
        values.append(v)
    return FuncTable(domain, codomain, tuple(values))


def format_table(f: FuncTable) -> str:
    """Inverse of ``parse_table``: comma-separated values, no spaces."""
    return ",".join(str(v) for v in f.values)
