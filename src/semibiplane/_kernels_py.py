"""Pure-Python kernels for the hot loops.

Interface-identical to the C module ``_speedups``, which returns the same
results and raises ValueError on tables of the wrong length or with entries
out of range; the dispatcher in ``kernels`` picks whichever is available.
This twin is the reference the compiled kernels are tested against. All
tables are flat row-major sequences: ``gadd[x * k + a]`` is ``x + a`` in G,
``hsub[u * n + w]`` is ``u - w`` in H, where n is the order of H (n = k
except in ``semiplanar_witness`` and ``coset_labels``, which take n).

The five kernels are the semi-planarity witness, the search,
``shift_tables``, which rebuilds and sorts the shards that the shift-reduced
search does not run, ``format_tables``, which writes the found tables'
report lines, and ``coset_labels``, the component labelling.
"""


def semiplanar_witness(values, gadd, hsub, k, n):
    """First (a, y, count) with count not in {0, 2}, smallest a then smallest
    y; None when the table is semi-planar.

    ``values`` is a table G -> H with k = |G| entries in [0, n), n = |H|, and
    ``hsub`` is H's n x n subtraction table. In the incidence structure,
    points (0, 0) and (a, y) share as many lines as the count of (a, y).
    """
    for a in range(1, k):
        cnt = [0] * n
        for x in range(k):
            cnt[hsub[values[gadd[x * k + a]] * n + values[x]]] += 1
        for y in range(n):
            c = cnt[y]
            if c and c != 2:
                return (a, y, c)
    return None


def search_tables(k, gadd, gsub, hsub, fix_zero, shard_val, use_pruning, use_fiber_limit):
    """Enumerate value tables of length k in lexicographic order.

    Returns ``(visited, count, found)`` where ``visited`` is the number of
    complete assignments examined, ``count`` the number of semi-planar tables
    among them, and ``found`` those tables as tuples (lexicographic order).

    ``fix_zero`` pins f(0) = 0; ``shard_val >= 0`` pins f(1), the axis
    ``exhaustive_search`` shards on. With ``use_pruning`` the enumeration
    keeps incremental per-(a, y) counts of finished difference pairs and
    backtracks once any count exceeds 2; with ``use_fiber_limit`` (active only
    for k > 4) it backtracks once a partial fiber exceeds k/2. Flags change
    the work done, never the result: without pruning every leaf is checked
    by ``semiplanar_witness``, so with both rules off this is the plain
    enumeration the pruned route is verified against.
    """
    fiber_on = bool(use_fiber_limit) and k > 4
    f = [0] * k
    cnt = [0] * (k * k)  # cnt[a*k + y], a = 0 row unused
    fib = [0] * k
    cap = k // 2
    visited = 0
    count = 0
    found = []
    viol = 0  # number of (a, y) cells currently above 2

    def dfs(x):
        nonlocal visited, count, viol
        if x == k:
            visited += 1
            if use_pruning:
                ok = viol == 0
                if ok:
                    for i in range(k, k * k):
                        if cnt[i] == 1:
                            ok = False
                            break
            else:
                ok = semiplanar_witness(f, gadd, hsub, k, k) is None
            if ok:
                count += 1
                found.append(tuple(f))
            return
        if x == 0 and fix_zero:
            candidates = (0,)
        elif x == 1 and shard_val >= 0:
            candidates = (shard_val,)
        else:
            candidates = range(k)
        for v in candidates:
            f[x] = v
            fib[v] += 1
            if use_pruning:
                for u in range(x):
                    fu = f[u]
                    i = gsub[x * k + u] * k + hsub[v * k + fu]
                    c = cnt[i] + 1
                    cnt[i] = c
                    if c == 3:
                        viol += 1
                    i = gsub[u * k + x] * k + hsub[fu * k + v]
                    c = cnt[i] + 1
                    cnt[i] = c
                    if c == 3:
                        viol += 1
            prune = (fiber_on and fib[v] > cap) or (use_pruning and viol > 0)
            if not prune:
                dfs(x + 1)
            if use_pruning:
                for u in range(x):
                    fu = f[u]
                    i = gsub[x * k + u] * k + hsub[v * k + fu]
                    c = cnt[i] - 1
                    cnt[i] = c
                    if c == 2:
                        viol -= 1
                    i = gsub[u * k + x] * k + hsub[fu * k + v]
                    c = cnt[i] - 1
                    cnt[i] = c
                    if c == 2:
                        viol -= 1
            fib[v] -= 1

    dfs(0)
    # dfs holds itself through its closure cell; without this del the cycle
    # keeps found, f and cnt alive until the next full garbage collection.
    del dfs
    return visited, count, found


def shift_tables(k, hadd, shifts, tables):
    """Every ``t + chi`` for each table t and each shift chi, added valuewise
    in H (``hadd[u * k + w]`` is ``u + w``), as tuples in lexicographic
    order."""
    pairs = [(chi, any(chi)) for chi in shifts]
    out = [
        tuple([hadd[v * k + c] for v, c in zip(t, chi)]) if moved else tuple(t)
        for t in tables for chi, moved in pairs
    ]
    out.sort()
    return out


def format_tables(tables, k):
    """The comma-separated decimal line of each value table of length k, as
    ``functions.format_table`` writes it."""
    line = ",".join(["%d"] * k)
    return [line % t for t in tables]


def coset_labels(values, gadd, hadd, hsub, k, n):
    """(point labels, line labels, count) of the components of the
    incidence structure of f: G -> H, |G| = k, |H| = n.

    Translations keep incidence, so the lines of L(0, 0)'s component are the
    subgroup K of G x H generated by the offsets (a, f(u+a) - f(u)) of the
    lines meeting L(0, 0), and each component's lines are a coset of K.
    Cosets are labelled in line-id order (id a * n + b); point (x, y) lies on
    L(x, y - f(0)) and takes its label."""
    v = k * n

    def shifted(i, pairs):
        a, b = divmod(i, n)
        ra, rb = a * k, b * n
        return [gadd[ra + c] * n + hadd[rb + d] for c, d in pairs]

    # Each generator not yet in K at least doubles K: under 2v additions.
    subgroup = [0]
    in_subgroup = [False] * v
    in_subgroup[0] = True
    for a in range(1, k):
        if len(subgroup) == v:
            break
        for u in range(k):
            gen = a * n + hsub[values[gadd[u * k + a]] * n + values[u]]
            if in_subgroup[gen]:
                continue
            base = [divmod(e, n) for e in subgroup]
            step, gen_pair = gen, [divmod(gen, n)]
            while not in_subgroup[step]:
                coset = shifted(step, base)
                for t in coset:
                    in_subgroup[t] = True
                subgroup += coset
                (step,) = shifted(step, gen_pair)
    if len(subgroup) == v:
        return (0,) * v, (0,) * v, 1
    pairs = [divmod(e, n) for e in subgroup]
    line_labels = [-1] * v
    label = 0
    for seed in range(v):
        if line_labels[seed] < 0:
            for t in shifted(seed, pairs):
                line_labels[t] = label
            label += 1
    f0 = values[0]
    point_labels = [line_labels[x * n + hsub[y * n + f0]] for x in range(k) for y in range(n)]
    return tuple(point_labels), tuple(line_labels), label
