"""Workload inputs and the known-answer gate.

Each workload is a list of ``semibiplane`` CLI commands with the answer each
must give. Inputs come from the benchmark's own from-definition arithmetic,
so the library only ever receives the generated tables; nothing here imports
``semibiplane``.

The gate checks every JSON report against answers the paper fixes (the gcd
rule, the inverse rule, the Z6/Z8/Z2x4/Z2x2x2 counts, 12/12 checklist
passes), validates every axiom-failure witness from the definition of
incidence, and compares a digest of each report's answer fields with
``expected.json``. Digests of seeded inputs apply only at ``DEFAULT_SEED``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

DEFAULT_SEED = 0
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    kind: str  # "build" | "search" | "verify"
    expect: dict
    #: The benchmark's own copy of the table a ``build`` receives, for
    #: checking failure witnesses from the definition of incidence.
    table: tuple[int, ...] | None = None
    #: True when the input depends on the seed, so the stored digest only
    #: applies at DEFAULT_SEED.
    seeded: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    #: Label of the command whose latency is reported as ``key_cmd_s``.
    key: str


# -- GF(2^e) from the definition ---------------------------------------------

def _poly_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def least_irreducible(e: int) -> int:
    """The least irreducible binary polynomial of degree e, by trial division."""
    for m in range(1 << e, 1 << (e + 1)):
        if all(_poly_mod(m, q) for q in range(2, 1 << (e // 2 + 1))):
            return m
    raise ValueError(f"no irreducible polynomial of degree {e}")


def _gf_mul(a: int, b: int, m: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return _poly_mod(r, m)


def _gf_pow(a: int, n: int, m: int) -> int:
    r = 1
    while n:
        if n & 1:
            r = _gf_mul(r, a, m)
        a = _gf_mul(a, a, m)
        n >>= 1
    return r


def gold(e: int, alpha: int) -> tuple[int, ...]:
    """x -> x^(2^alpha + 1) over GF(2^e), elements as bitmasks."""
    m = least_irreducible(e)
    return tuple(_gf_pow(x, (1 << alpha) + 1, m) for x in range(1 << e))


def inverse(e: int) -> tuple[int, ...]:
    """x -> x^(2^e - 2) over GF(2^e), 0 -> 0."""
    m = least_irreducible(e)
    return tuple(_gf_pow(x, (1 << e) - 2, m) if x else 0 for x in range(1 << e))


def xor_semiplanar(t: tuple[int, ...]) -> bool:
    """Every f(x ^ a) ^ f(x) = y with a != 0 has 0 or 2 solutions."""
    n = len(t)
    for a in range(1, n):
        cnt = [0] * n
        for x in range(n):
            cnt[t[x ^ a] ^ t[x]] += 1
        if any(c not in (0, 2) for c in cnt):
            return False
    return True


def perturb(t: tuple[int, ...], rng: random.Random) -> tuple[int, ...]:
    """Change one entry, redrawing until the table is not semi-planar."""
    n = len(t)
    while True:
        x = rng.randrange(n)
        v = rng.randrange(n - 1)
        v += v >= t[x]
        bad = t[:x] + (v,) + t[x + 1:]
        if not xor_semiplanar(bad):
            return bad


def _blocks(t: tuple[int, ...], kind: str, i: int) -> set[int]:
    # Over Z2^e, (x, y) lies on L(a, b) iff y = f(x ^ a) ^ b; ids are x*n + y
    # and a*n + b.
    n = len(t)
    u, w = divmod(i, n)
    if kind == "points":
        return {a * n + (w ^ t[u ^ a]) for a in range(n)}
    return {x * n + (t[x ^ u] ^ w) for x in range(n)}


def witness_holds(t: tuple[int, ...], failure: dict) -> bool:
    """The reported pair really meets in ``count`` blocks, and count is not 0 or 2."""
    kind, (i, j), c = failure["kind"], failure["ids"], failure["count"]
    if kind not in ("points", "lines") or not 0 <= i < j < len(t) ** 2:
        return False
    return c not in (0, 2) and len(_blocks(t, kind, i) & _blocks(t, kind, j)) == c


# -- workloads ----------------------------------------------------------------

def gold_build(seed: int) -> Workload:
    """``build`` on every Gold table for e = 3..6 and the inverse table, each
    followed by a seeded single-entry perturbation of it."""
    rng = random.Random(seed)
    cmds = []
    for e in range(3, 7):
        n = 1 << e
        for alpha in [*range(1, e), None]:
            if alpha is None:
                label, table, sbp = f"inverse e={e}", inverse(e), e % 2 == 1
                argv = ("build", "--field-e", str(e), "--json")
            else:
                label, table, sbp = f"gold e={e} alpha={alpha}", gold(e, alpha), gcd(alpha, e) == 1
                argv = ("build", "--field-e", str(e), "--alpha", str(alpha), "--json")
            want = {"v": n * n, "k": n, "semibiplane": sbp}
            cmds.append(Command(label, argv, "build", want, table))
            bad = perturb(table, rng)
            argv = ("build", "--group", "x".join("2" * e),
                    "--function", ",".join(map(str, bad)), "--json")
            cmds.append(Command(f"{label} perturbed", argv, "build",
                                {**want, "semibiplane": False}, bad, seeded=True))
    return Workload("gold-build", tuple(cmds), key="gold e=6 alpha=1")


#: (group, normalized, pruned, visited, count)
SEARCHES = (
    ("6", True, True, 2448, 0),
    ("6", True, False, 7776, 0),
    ("6", False, True, 14688, 0),
    ("6", False, False, 46656, 0),
    ("8", True, True, 261120, 0),
    ("2x4", True, True, 231424, 1024),
    ("2x2x2", True, True, 86016, 86016),
)


def search_exhaustive(seed: int) -> Workload:
    """``search`` over Z8, Z2x4, Z2x2x2, and Z6 in all four modes; the seed
    is unused."""
    cmds = []
    for group, normalized, pruned, visited, count in SEARCHES:
        argv = ["search", "--group", group, "--json"]
        if not normalized:
            argv.append("--no-normalize")
        if not pruned:
            argv += ["--no-prune", "--no-fiber-limit"]
        label = (f"Z{group} {'normalized' if normalized else 'full'} "
                 f"{'pruned' if pruned else 'unpruned'}")
        cmds.append(Command(label, tuple(argv), "search",
                            {"visited": visited, "count": count}))
    return Workload("search-exhaustive", tuple(cmds), key="Z8 normalized pruned")


def verify_paper(seed: int) -> Workload:
    """``verify-paper --deep``; the seed is unused."""
    cmd = Command("verify-paper --deep", ("verify-paper", "--deep", "--json"),
                  "verify", {"checks": 12})
    return Workload("verify-paper", (cmd,), key=cmd.label)


WORKLOADS = {
    "gold-build": gold_build,
    "search-exhaustive": search_exhaustive,
    "verify-paper": verify_paper,
}


# -- the gate -----------------------------------------------------------------

def answer(kind: str, report: dict):
    """The fields of a report that carry its answer; timings and any fields
    added later stay out, so digests survive them."""
    if kind == "build":
        return {k: report[k] for k in ("v", "k", "semibiplane", "components", "failure")}
    if kind == "search":
        return {k: report[k] for k in ("group", "normalized", "visited", "count", "found")}
    return [[c["name"], c["passed"]] for c in report["checks"]]


def digest(kind: str, report: dict) -> str:
    text = json.dumps(answer(kind, report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check_build(cmd: Command, rc: int, r: dict) -> list[str]:
    want = cmd.expect
    out = []
    if (r["v"], r["k"]) != (want["v"], want["k"]):
        out.append(f"v, k = {r['v']}, {r['k']}; want {want['v']}, {want['k']}")
    if r["semibiplane"] != want["semibiplane"]:
        out.append(f"semibiplane = {r['semibiplane']}; want {want['semibiplane']}")
    if want["semibiplane"]:
        if rc != 0 or r["failure"] is not None or r["components"] != 1:
            out.append(f"exit {rc}, failure {r['failure']}, {r['components']} components; "
                       "want exit 0, no failure, 1 component")
    elif rc != 1 or r["failure"] is None:
        out.append(f"exit {rc}, failure {r['failure']}; want exit 1 with a witness")
    elif not witness_holds(cmd.table, r["failure"]):
        out.append(f"witness {r['failure']} does not hold for the table")
    return out


def _check_search(cmd: Command, rc: int, r: dict) -> list[str]:
    want = cmd.expect
    out = []
    if rc != 0 or (r["visited"], r["count"]) != (want["visited"], want["count"]):
        out.append(f"exit {rc}, visited {r['visited']}, count {r['count']}; "
                   f"want exit 0, visited {want['visited']}, count {want['count']}")
    rows = [tuple(map(int, t.split(","))) for t in r["found"]]
    if len(rows) != r["count"] or any(a >= b for a, b in zip(rows, rows[1:])):
        out.append("found list is not the count of distinct tables in lexicographic order")
    return out


def _check_verify(cmd: Command, rc: int, r: dict) -> list[str]:
    passed = sum(c["passed"] for c in r["checks"])
    want = cmd.expect["checks"]
    if rc != 0 or not r["passed"] or passed != want or len(r["checks"]) != want:
        return [f"exit {rc}, {passed}/{len(r['checks'])} checks passed; want {want}/{want}"]
    return []


_CHECKS = {"build": _check_build, "search": _check_search, "verify": _check_verify}


def load_digests(workload: Workload, seed: int) -> dict[str, str]:
    """Stored digests that apply to this workload's commands at this seed."""
    stored = json.loads(EXPECTED_FILE.read_text()).get(workload.name, {})
    return {
        c.label: stored[c.label]
        for c in workload.commands
        if c.label in stored and (seed == DEFAULT_SEED or not c.seeded)
    }


def check_output(cmd: Command, rc: int, stdout: str, digests: dict[str, str]) -> list[str]:
    """Problems with one command's output; empty when it is the known answer."""
    try:
        report = json.loads(stdout)
        problems = _CHECKS[cmd.kind](cmd, rc, report)
        got = digest(cmd.kind, report)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{cmd.label}: unreadable report ({exc!r})"]
    want = digests.get(cmd.label)
    if want is not None and got != want:
        problems.append(f"answer digest {got}, want {want}")
    return [f"{cmd.label}: {p}" for p in problems]
