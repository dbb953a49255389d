"""Naive reference implementations, written straight from the definitions.

Everything here works on digit lists and dictionaries with no shared code
with the package, so the tests can use these as independent oracles.
"""

from collections import Counter
from itertools import product


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


def first_axiom_failure(values, gfac, hfac):
    """The full pair scan: the first (kind, i, j, count) with i < j whose
    points (kind "points") or lines (kind "lines") share a number of blocks
    other than 0 or 2. Points are scanned before lines, pairs in
    lexicographic order; None when both axioms hold."""
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
    for kind, blocks in (("points", lines_through), ("lines", points_on)):
        for i in range(v):
            for j in range(i + 1, v):
                count = len(blocks[i] & blocks[j])
                if count not in (0, 2):
                    return (kind, i, j, count)
    return None


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
