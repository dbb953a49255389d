"""Exhaustive search for semi-planar tables over a pair of equal-order groups.

Tables are assigned value by value in index order. The pruned route keeps
incremental difference-pair counts and backtracks the moment any count
exceeds 2 (optionally also when a partial fiber exceeds k/2); the unpruned
route enumerates every table and applies the direct checker, which makes the
two routes independent implementations that must agree. Each searched value
of f(1) is one shard, and the found tables of all shards are sorted into
lexicographic order. The pruned route searches one f(1) per coset of H[n1]
and rebuilds the other shards by homomorphism shifts (``_shifts``).
"""

from __future__ import annotations

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
    hadd = add_table(H)
    hsub = sub_table(H)
    t0 = perf_counter()
    # Shifts keep the difference counts but not the fibers. With pruning on,
    # a fiber of size s has s(s-1) <= 2(k-1), which implies the fiber limit
    # k//2 except at k = 5 and 7.
    reduce = opts.use_pruning and not (opts.use_fiber_limit and k in (5, 7))
    chis = _shifts(G, H) if reduce else [(0,) * k]
    reps = sorted({min(hadd[s * k + chi[1]] for chi in chis) for s in range(k)})

    shards = [
        kernels.search_tables(
            k, gadd, gsub, hsub,
            opts.fix_zero_at_zero, shard_val,
            opts.use_pruning, opts.use_fiber_limit,
        )
        for shard_val in reps
    ]

    visited = sum(s[0] for s in shards) * len(chis)
    count = sum(s[1] for s in shards) * len(chis)
    values = [
        tuple([hadd[v * k + c] for v, c in zip(t, chi)]) if chi[1] else t
        for s in shards for t in s[2] for chi in chis
    ]
    values.sort()
    if opts.max_results is not None:
        values = values[: opts.max_results]
    found = tuple(FuncTable(G, H, tuple(v)) for v in values)
    return SearchResult(visited, count, found, perf_counter() - t0)


def _shifts(G: GroupSpec, H: GroupSpec) -> list[tuple[int, ...]]:
    """Value tables of chi_r(x) = x1 * r for r in H[n1] = {r : n1 * r = 0},
    x1 the first digit of x and n1 = G.factors[0].

    chi_r is a homomorphism, so f -> f + chi_r keeps f(0), shifts row a of
    the difference table by chi_r(a), and maps the pruned search's leaves
    and semi-planar tables onto themselves; it moves f(1) by r.
    """
    k, n1 = H.order, G.factors[0]
    hadd = add_table(H)
    out = []
    for r in H.elements():
        mult = [0]
        for _ in range(n1):
            mult.append(hadd[mult[-1] * k + r])
        if mult[n1] == 0:
            out.append(tuple(mult[x % n1] for x in range(k)))
    return out


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


def search_result_dict(result: SearchResult, G: GroupSpec, normalized: bool) -> dict:
    """JSON-ready dict of the report that ``search --json`` prints."""
    return {
        "group": G.name,
        "normalized": normalized,
        "visited": result.visited,
        "count": result.count,
        "found": [format_table(f) for f in result.found],
        "elapsed_ms": int(result.elapsed * 1000),
    }
