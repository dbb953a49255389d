"""Naive reference implementations, written straight from the definitions.

Everything here works on digit lists and dictionaries with no shared code
with the package, so the tests can use these as independent oracles.
"""

from collections import Counter, deque
from itertools import product


#: (domain factors, codomain factors) for the oracle cross-checks
ORACLE_GROUPS = [
    ([6], [6]), ([2, 2], [2, 2]), ([8], [8]), ([2, 4], [2, 4]),
    ([2, 2, 2], [2, 2, 2]), ([4, 4], [4, 4]), ([2], [4]), ([4], [2]),
    ([4], [2, 2]), ([2, 2], [4]), ([2, 4], [2, 2, 2]),
]


def digits_of(index, factors):
    out = []
    for n in factors:
        out.append(index % n)
        index //= n
    return out


def index_of(digits, factors):
    index = 0
    for n, d in zip(reversed(factors), reversed(digits)):
        index = index * n + d
    return index


def add(factors, x, y):
    return index_of(
        [(a + b) % n for a, b, n in zip(digits_of(x, factors), digits_of(y, factors), factors)],
        factors,
    )


def neg(factors, x):
    return index_of([(-d) % n for d, n in zip(digits_of(x, factors), factors)], factors)


def sub(factors, x, y):
    return add(factors, x, neg(factors, y))


def transform(values, gfac, hfac, phi, psi, c, d):
    """x -> psi(f(phi(x) + c)) + d, entry by entry."""
    return tuple(
        add(hfac, psi[values[add(gfac, phi[x], c)]], d) for x in range(group_order(gfac))
    )


def group_order(factors):
    k = 1
    for n in factors:
        k *= n
    return k


def delta_counts(values, gfac, hfac, a):
    """Counter of y over x of f(x + a) - f(x)."""
    cnt = Counter()
    for x in range(group_order(gfac)):
        cnt[sub(hfac, values[add(gfac, x, a)], values[x])] += 1
    return cnt


def is_semiplanar(values, gfac, hfac):
    k = group_order(gfac)
    for a in range(1, k):
        for count in delta_counts(values, gfac, hfac, a).values():
            if count not in (0, 2):
                return False
    return True


def first_witness(values, gfac, hfac):
    """First (a, y, count) with count not in {0, 2}, smallest a then smallest
    y; None when the table is semi-planar."""
    for a in range(1, group_order(gfac)):
        counts = delta_counts(values, gfac, hfac, a)
        for y in sorted(counts):
            if counts[y] != 2:
                return (a, y, counts[y])
    return None


def solution_set(values, gfac, hfac, a, b):
    """All t with f(t - a) = f(t) + b."""
    return {
        t
        for t in range(group_order(gfac))
        if values[sub(gfac, t, a)] == add(hfac, values[t], b)
    }


def all_tables(k, fix_zero):
    if fix_zero:
        for rest in product(range(k), repeat=k - 1):
            yield (0,) + rest
    else:
        yield from product(range(k), repeat=k)


def brute_search(gfac, hfac, fix_zero):
    """All semi-planar tables in lexicographic order."""
    k = group_order(gfac)
    return [t for t in all_tables(k, fix_zero) if is_semiplanar(t, gfac, hfac)]


def shifted_tables(hfac, shifts, tables):
    """Every t + chi for each table t and each shift chi, added entry by
    entry in H, in lexicographic order."""
    return sorted(
        tuple(add(hfac, v, c) for v, c in zip(t, chi)) for t in tables for chi in shifts
    )


def incident(values, gfac, hfac, point, line):
    nh = group_order(hfac)
    x, y = divmod(point, nh)
    a, b = divmod(line, nh)
    return y == add(hfac, values[sub(gfac, x, a)], b)


def incidence_pairs(values, gfac, hfac):
    """Every incident (point, line) pair."""
    v = group_order(gfac) * group_order(hfac)
    return {
        (p, l) for p in range(v) for l in range(v) if incident(values, gfac, hfac, p, l)
    }


def blocks_of(values, gfac, hfac):
    """(lines through each point, points on each line) as lists of sets."""
    k, nh = group_order(gfac), group_order(hfac)
    v = k * nh
    lines_through = [set() for _ in range(v)]
    points_on = [set() for _ in range(v)]
    for a in range(k):
        for b in range(nh):
            for x in range(k):
                point = x * nh + add(hfac, values[sub(gfac, x, a)], b)
                lines_through[point].add(a * nh + b)
                points_on[a * nh + b].add(point)
    return lines_through, points_on


def first_axiom_failure(values, gfac, hfac):
    """The full pair scan: the first (kind, i, j, count) with i < j whose
    points (kind "points") or lines (kind "lines") share a number of blocks
    other than 0 or 2. Points are scanned before lines, pairs in
    lexicographic order; None when both axioms hold."""
    lines_through, points_on = blocks_of(values, gfac, hfac)
    v = len(lines_through)
    for kind, blocks in (("points", lines_through), ("lines", points_on)):
        for i in range(v):
            for j in range(i + 1, v):
                count = len(blocks[i] & blocks[j])
                if count not in (0, 2):
                    return (kind, i, j, count)
    return None


def component_labels(values, gfac, hfac):
    """Breadth-first labelling of the bipartite incidence graph:
    (label of each point, label of each line, component count). Seeds are
    taken in line-id order, so labels are ordered by smallest line id."""
    lines_through, points_on = blocks_of(values, gfac, hfac)
    v = len(lines_through)
    comp_pt = [-1] * v
    comp_ln = [-1] * v
    count = 0
    for seed in range(v):
        if comp_ln[seed] >= 0:
            continue
        comp_ln[seed] = count
        queue = deque([(False, seed)])
        while queue:
            is_point, i = queue.popleft()
            labels, neighbours = (comp_ln, lines_through[i]) if is_point else (comp_pt, points_on[i])
            for j in neighbours:
                if labels[j] < 0:
                    labels[j] = count
                    queue.append((not is_point, j))
        count += 1
    return tuple(comp_pt), tuple(comp_ln), count


def poly_mul_mod(a, b, modulus):
    """Schoolbook carry-less multiply, then long division by the modulus."""
    prod_bits = 0
    shift = 0
    while b:
        if b & 1:
            prod_bits ^= a << shift
        b >>= 1
        shift += 1
    dm = modulus.bit_length() - 1
    while prod_bits.bit_length() - 1 >= dm and prod_bits:
        prod_bits ^= modulus << (prod_bits.bit_length() - 1 - dm)
    return prod_bits


def poly_is_irreducible(p):
    d = p.bit_length() - 1
    if d < 1:
        return False
    for q in range(2, 1 << (d // 2 + 1)):
        if q.bit_length() - 1 < 1:
            continue
        r = p
        dq = q.bit_length() - 1
        while r.bit_length() - 1 >= dq and r:
            r ^= q << (r.bit_length() - 1 - dq)
        if r == 0:
            return False
    return True
