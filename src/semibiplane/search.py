"""Exhaustive search for semi-planar tables over a pair of equal-order groups.

Tables are assigned value by value in index order. The pruned route keeps
incremental difference-pair counts and backtracks the moment any count
exceeds 2; the unpruned route enumerates every table and applies the direct
checker, which makes the two routes independent implementations that must
agree. The pruning also enforces the fiber bound: a fiber of size s puts
s(s-1) finished pairs into the k-1 cells (a, 0), so s = k//2 + 1 forces a
count of 3 for every k > 4 except 5 and 7, odd orders with no semi-planar
table. The pruned route is reduced by the shifts f -> f + chi, chi in
Hom(G, H), and in full mode f -> f + chi + d, d constant. It pins f(0) = 0
and f(g_i) at each factor generator g_i to the least element of one coset of
H[n_i]; each tuple of pins is one shard. ``kernels.shift_tables`` rebuilds
the rest and sorts the found tables, which the result keeps as value tuples,
building ``FuncTable`` objects only when ``found`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

from . import kernels
from .errors import SearchBudgetError
from .functions import FuncTable, format_tables
from .groups import GroupSpec, add_table, homomorphisms, sub_table

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
    # the pruned route pins f(0) = 0 in full mode too: the constants rebuild the rest
    pins = [0 if opts.fix_zero_at_zero or opts.use_pruning else -1] + [-1] * (k - 1)
    chis, shard_pins = [(0,) * k], [pins]
    if opts.use_pruning:
        # The shifts keep every difference count and act freely, and chi(g_i)
        # runs over H[n_i] = {h : n_i * h = 0}, so each orbit of pruned leaves
        # has exactly one member that matches the pins of one shard.
        chis = homomorphisms(G, H)
        g = 1
        for n in G.factors:
            torsion = {chi[g] for chi in chis}
            reps = sorted({min(hadd[s * k + t] for t in torsion) for s in range(k)})
            shard_pins = [p[:g] + [r] + p[g + 1:] for p in shard_pins for r in reps]
            g *= n
        if not opts.fix_zero_at_zero:
            chis = [tuple(hadd[c * k + d] for c in chi) for d in range(k) for chi in chis]
    shards = [
        kernels.search_tables(k, gadd, gsub, hsub, False, -1, opts.use_pruning, pins=p)
        for p in shard_pins
    ]

    visited = sum(s[0] for s in shards) * len(chis)
    count = sum(s[1] for s in shards) * len(chis)
    values = kernels.shift_tables(k, hadd, chis, [t for s in shards for t in s[2]])
    if opts.max_results is not None:
        values = values[: opts.max_results]
    return SearchResult(visited, count, tuple(values), perf_counter() - t0, G, H)


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
