"""Exhaustive search for semi-planar tables over a pair of equal-order groups.

Tables are assigned value by value in index order. The pruned route keeps
incremental difference-pair counts and backtracks the moment any count
exceeds 2 (optionally also when a partial fiber exceeds k/2); the unpruned
route enumerates every table and applies the direct checker, which makes the
two routes independent implementations that must agree. Parallel runs shard
on the value of f(1) and merge in canonical order, so reports are identical
for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter

from . import kernels
from .errors import SearchBudgetError
from .functions import FuncTable, format_table
from .groups import GroupSpec, add_table, automorphisms, sub_table
from .incidence import Structure, components
from .splitting import classify_split

#: Full search is k^k or k^(k-1) tables; above this order an explicit
#: ``max_order`` override is required.
DEFAULT_MAX_ORDER = 8


@dataclass(frozen=True)
class SearchOptions:
    fix_zero_at_zero: bool = True
    use_pruning: bool = True
    use_fiber_limit: bool = True
    max_results: int | None = None
    max_order: int = DEFAULT_MAX_ORDER


@dataclass(frozen=True)
class SearchResult:
    visited: int
    count: int
    found: tuple[FuncTable, ...]
    elapsed: float

    def __post_init__(self):
        if self.count < len(self.found):
            raise ValueError("count cannot be smaller than the stored table list")


def exhaustive_search(
    G: GroupSpec,
    H: GroupSpec,
    opts: SearchOptions | None = None,
    workers: int = 1,
) -> SearchResult:
    """Search all tables f: G -> H (f(0) pinned to 0 when normalizing).

    ``found`` lists the semi-planar tables in lexicographic order, truncated
    at ``max_results``; ``count`` is always the full number found. ``visited``
    counts complete assignments examined, so with pruning disabled it equals
    the whole enumeration size.
    """
    opts = opts or SearchOptions()
    if G.order != H.order:
        raise ValueError(f"groups must have equal order, got {G.order} and {H.order}")
    k = G.order
    if k > opts.max_order:
        raise SearchBudgetError(
            f"order {k} exceeds the search budget ({opts.max_order}); "
            "raise SearchOptions.max_order to override"
        )
    gadd = add_table(G)
    gsub = sub_table(G)
    hsub = sub_table(H)
    t0 = perf_counter()

    def run_shard(shard_val: int):
        return kernels.search_tables(
            k, gadd, gsub, hsub,
            opts.fix_zero_at_zero, shard_val,
            opts.use_pruning, opts.use_fiber_limit,
        )

    if workers <= 1:
        shards = [run_shard(-1)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(run_shard, range(k)))

    visited = sum(s[0] for s in shards)
    count = sum(s[1] for s in shards)
    values = sorted(v for s in shards for v in s[2])
    if opts.max_results is not None:
        values = values[: opts.max_results]
    found = tuple(FuncTable(G, H, tuple(v)) for v in values)
    return SearchResult(visited, count, found, perf_counter() - t0)


def search_and_classify(
    G: GroupSpec,
    H: GroupSpec,
    opts: SearchOptions | None = None,
    workers: int = 1,
) -> list[tuple[FuncTable, str]]:
    """Search, then classify each found table's structure (connected /
    case-i / case-ii)."""
    result = exhaustive_search(G, H, opts, workers)
    out = []
    for f in result.found:
        S = Structure(f)
        report = classify_split(S, components(S))
        out.append((f, report.kind))
    return out


def orbit_reduce(
    results: list[FuncTable], G: GroupSpec, H: GroupSpec
) -> list[FuncTable]:
    """One representative per equivalence class under every transform
    psi(f(phi(x) + c)) + d, phi and psi ranging over the automorphisms.

    The representative is the lexicographically least table of the class.
    Requires cyclic G and H (automorphism enumeration is only supported
    there)."""
    aut_g = automorphisms(G)  # raises UnsupportedGroupError on product groups
    aut_h = automorphisms(H)
    gadd = add_table(G)
    hadd = add_table(H)
    k, nh = G.order, H.order
    reps = set()
    for f in results:
        if f.domain != G or f.codomain != H:
            raise ValueError(f"table over {f.domain.name}->{f.codomain.name} does not match the given groups")
        best = None
        for phi in aut_g:
            for psi in aut_h:
                for c in range(k):
                    base = tuple(f.values[gadd[phi[x] * k + c]] for x in range(k))
                    for d in range(nh):
                        cand = tuple(hadd[psi[v] * nh + d] for v in base)
                        if best is None or cand < best:
                            best = cand
        reps.add(best)
    return [FuncTable(G, H, v) for v in sorted(reps)]


def search_result_dict(
    result: SearchResult, G: GroupSpec, normalized: bool, timing: bool = True
) -> dict:
    """JSON-ready dict; ``timing=False`` zeroes the elapsed field so reports
    can be compared byte for byte across runs and worker counts."""
    return {
        "group": G.name,
        "normalized": normalized,
        "visited": result.visited,
        "count": result.count,
        "found": [format_table(f) for f in result.found],
        "elapsed_ms": int(result.elapsed * 1000) if timing else 0,
    }
