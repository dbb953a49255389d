"""Exhaustive search for semi-planar tables over a pair of equal-order groups.

Tables are assigned value by value in index order. The pruned route keeps
incremental difference-pair counts and backtracks the moment any count
exceeds 2; the unpruned route enumerates every table and applies the direct
checker, which makes the two routes independent implementations that must
agree. The pruning also enforces the fiber bound: a fiber of size s puts
s(s-1) finished pairs into the k-1 cells (a, 0), so s = k//2 + 1 forces a
count of 3 for every k > 4 except 5 and 7, odd orders with no semi-planar
table. Each searched value of f(1) is one shard. The pruned route searches
one f(1) per coset of H[n1] and rebuilds the other shards by homomorphism
shifts (``_shifts``) in the ``kernels.shift_tables`` kernel, which also sorts
the found tables. The result keeps them as value tuples and builds
``FuncTable`` objects only when ``found`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

from . import kernels
from .errors import SearchBudgetError
from .functions import FuncTable, format_tables, transform_values
from .groups import GroupSpec, add_table, automorphisms, neg_table, sub_table, torsion_multiples
from .incidence import Structure, components
from .splitting import classify_split

#: Full search is k^k or k^(k-1) tables; above this order an explicit
#: ``max_order`` override is required.
DEFAULT_MAX_ORDER = 8


@dataclass(frozen=True)
class SearchOptions:
    fix_zero_at_zero: bool = True
    use_pruning: bool = True
    max_results: int | None = None
    max_order: int = DEFAULT_MAX_ORDER


@dataclass(frozen=True)
class SearchResult:
    """What ``exhaustive_search`` returns.

    ``values`` holds the stored semi-planar tables as value tuples over
    ``domain`` -> ``codomain``, in lexicographic order. ``found`` is the same
    list as ``FuncTable`` objects; it is built on first read and then kept.
    Construction checks every stored table's length and range, as
    ``FuncTable`` would.
    """

    visited: int
    count: int
    values: tuple[tuple[int, ...], ...]
    elapsed: float
    domain: GroupSpec
    codomain: GroupSpec

    def __post_init__(self):
        if self.count < len(self.values):
            raise ValueError("count cannot be smaller than the stored table list")
        if not self.values:
            return
        k, n = self.domain.order, self.codomain.order
        lengths = set(map(len, self.values))
        if lengths != {k}:
            bad = min(lengths - {k})
            raise ValueError(
                f"a stored table has {bad} entries, domain {self.domain.name} has order {k}"
            )
        bad = set().union(*self.values).difference(range(n))
        if bad:
            raise ValueError(
                f"a stored table has entry {min(bad, key=repr)!r}, "
                f"not a valid {self.codomain.name} index"
            )

    @cached_property
    def found(self) -> tuple[FuncTable, ...]:
        return tuple(FuncTable(self.domain, self.codomain, v) for v in self.values)


def exhaustive_search(
    G: GroupSpec,
    H: GroupSpec,
    opts: SearchOptions | None = None,
) -> SearchResult:
    """Search all tables f: G -> H (f(0) pinned to 0 when normalizing).

    ``values`` (and ``found``) list the semi-planar tables in lexicographic
    order, truncated at ``max_results`` (a negative cap is a ValueError);
    ``count`` is always the full number found. ``visited`` counts complete
    assignments examined, so with pruning disabled it equals the whole
    enumeration size.
    """
    opts = opts or SearchOptions()
    if G.order != H.order:
        raise ValueError(f"groups must have equal order, got {G.order} and {H.order}")
    if opts.max_results is not None and opts.max_results < 0:
        raise ValueError(f"max_results must be >= 0, got {opts.max_results}")
    k = G.order
    if k > opts.max_order:
        raise SearchBudgetError(
            f"order {k} exceeds the search budget ({opts.max_order}); "
            "raise SearchOptions.max_order to override"
        )
    gadd = add_table(G)
    gsub = sub_table(G)
    hadd = add_table(H)
    hsub = sub_table(H)
    t0 = perf_counter()
    # Shifts keep the difference counts, so they map the pruned search onto
    # itself; the unpruned route stays the plain enumeration.
    chis = _shifts(G, H) if opts.use_pruning else [(0,) * k]
    reps = sorted({min(hadd[s * k + chi[1]] for chi in chis) for s in range(k)})

    shards = [
        kernels.search_tables(
            k, gadd, gsub, hsub, opts.fix_zero_at_zero, shard_val, opts.use_pruning
        )
        for shard_val in reps
    ]

    visited = sum(s[0] for s in shards) * len(chis)
    count = sum(s[1] for s in shards) * len(chis)
    values = kernels.shift_tables(k, hadd, chis, [t for s in shards for t in s[2]])
    if opts.max_results is not None:
        values = values[: opts.max_results]
    return SearchResult(visited, count, tuple(values), perf_counter() - t0, G, H)


def _shifts(G: GroupSpec, H: GroupSpec) -> list[tuple[int, ...]]:
    """Value tables of chi_r(x) = x1 * r for r in H[n1] = {r : n1 * r = 0},
    x1 the first digit of x and n1 = G.factors[0].

    chi_r is a homomorphism, so f -> f + chi_r keeps f(0), shifts row a of
    the difference table by chi_r(a), and maps the pruned search's leaves
    and semi-planar tables onto themselves; it moves f(1) by r.
    """
    n1 = G.factors[0]
    return [tuple(mult[x % n1] for x in G.elements()) for mult in torsion_multiples(H, n1)]


def search_and_classify(
    G: GroupSpec,
    H: GroupSpec,
    opts: SearchOptions | None = None,
) -> list[tuple[FuncTable, str]]:
    """Search, then classify each found table's structure (connected /
    case-i / case-ii)."""
    result = exhaustive_search(G, H, opts)
    out = []
    for f in result.found:
        S = Structure(f)
        report = classify_split(S, components(S))
        out.append((f, report.kind))
    return out


def orbit_reduce(
    results: list[FuncTable], G: GroupSpec, H: GroupSpec
) -> list[FuncTable]:
    """One representative per class under the transforms psi(f(phi(x) + c)) + d,
    phi and psi automorphisms of G and H: the class's least table. It has
    f(0) = 0, so for each phi, psi and c only d = -psi(f(c)) is tried."""
    aut_g = automorphisms(G)
    aut_h = automorphisms(H)
    hneg = neg_table(H)
    reps = set()
    for f in results:
        if f.domain != G or f.codomain != H:
            raise ValueError(f"table over {f.domain.name}->{f.codomain.name} does not match the given groups")
        reps.add(min(
            transform_values(f.values, G, H, phi, psi, c, hneg[psi[f.values[c]]])
            for phi in aut_g for psi in aut_h for c in G.elements()
        ))
    return [FuncTable(G, H, v) for v in sorted(reps)]


def search_result_dict(result: SearchResult, normalized: bool) -> dict:
    """JSON-ready dict of the report that ``search --json`` prints; the
    group is the result's domain."""
    return {
        "group": result.domain.name,
        "normalized": normalized,
        "visited": result.visited,
        "count": result.count,
        "found": format_tables(result.values, result.domain.order),
        "elapsed_ms": int(result.elapsed * 1000),
    }
