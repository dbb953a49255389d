"""The semibiplane benchmark.

    python3 perfbench/run.py --workload gold-build --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced then traced

Each workload is a single-process closed loop: the benchmark calls
``semibiplane.cli.main(argv)`` in-process, one command at a time, with stdout
captured, and repeats passes over the workload's command list for
``--seconds``. Every output goes through the known-answer gate in
``workloads.py``. The library is imported from ``src/`` next to this
directory, after ``setup.py build_ext --inplace`` has built whatever
extension the checkout's build system can build.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time on untraced passes and half on traced ones (spans from ``tracing.py``),
then times one ``kernels.search_tables`` call per f(1) value on
search-exhaustive, and reports the per-layer metrics.

The last stdout line is the result JSON; the line before it is a
``{"record": ...}`` line with the backend, Python version, core count, seed,
pass count and every sample, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, SEARCHES, WORKLOADS, load_digests, check_output  # noqa: E402

#: Set-ups measured per run; setup_s is their median.
SETUP_REPS = 25
MIN_PASSES = 3
MIN_TRACE_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "key_cmd_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers each workload is predicted to exercise; a traced run with no span
#: in one of them fails the gate.
EXERCISED = {
    "gold-build": {"cli", "gf2", "functions", "kernels", "incidence"},
    "search-exhaustive": {"cli", "search", "functions", "kernels"},
    "verify-paper": set(LAYERS),
}

#: Per-layer metric -> (unit, better). Self times and counts are per pass.
PER_LAYER = {
    "incidence.verify_axioms.self_ms": ("ms", "lower"),
    "incidence.verify_axioms.calls": ("count", "lower"),
    "incidence.components.self_ms": ("ms", "lower"),
    "incidence.components.calls": ("count", "lower"),
    "kernels.search_tables.self_ms": ("ms", "lower"),
    "kernels.search_tables.calls": ("count", "lower"),
    "kernels.search_tables.leaves": ("count", "lower"),
    "kernels.search_tables.found": ("count", "higher"),
    "kernels.search_tables.found_per_leaf": ("ratio", "higher"),
    "kernels.shard_ms.max": ("ms", "lower"),
    "kernels.shard_ms.min": ("ms", "lower"),
    "kernels.shard_leaves.max": ("count", "lower"),
    "kernels.semiplanar_witness.self_ms": ("ms", "lower"),
    "kernels.semiplanar_witness.calls": ("count", "lower"),
    "functions.is_semiplanar.self_ms": ("ms", "lower"),
    "functions.equivalence_transform.self_ms": ("ms", "lower"),
    "search.exhaustive_search.self_ms": ("ms", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "cli.reject_ms": ("ms", "lower"),
    "splitting.classify_split.self_ms": ("ms", "lower"),
    "splitting.verify_divisible.self_ms": ("ms", "lower"),
    "splitting.verify_phi_isomorphism.self_ms": ("ms", "lower"),
    "verify.run_checks.self_ms": ("ms", "lower"),
    "gf2.table.self_ms": ("ms", "lower"),
    **{f"{layer}.self_ms": ("ms", "lower")
       for layer in ("functions", "kernels", "incidence", "splitting", "search")},
    **{f"{layer}.spans": ("count", "lower") for layer in LAYERS},
    "trace.overhead_frac": ("fraction", "lower"),
}


class Run:
    """One workload's commands, the library's CLI module, and the tallies."""

    def __init__(self, workload, cli, digests):
        self.workload = workload
        self.cli = cli
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def wrong_output(self, problems: list[str]) -> None:
        if problems:
            self.wrong += 1
            self.problems += problems

    def invoke(self, cmd) -> tuple[float, int | None]:
        """Run one command; return its wall time and exit code (None when it
        failed outright)."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        try:
            with redirect_stdout(out), redirect_stderr(err):
                t0 = perf_counter()
                try:
                    # Through the module, so a traced run sees cli.main's span.
                    rc = self.cli.main(list(cmd.argv))
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                dt = perf_counter() - t0
        except Exception:
            self.failed += 1
            self.problems.append(f"{cmd.label}: raised\n{traceback.format_exc()}")
            return 0.0, None
        if rc not in (0, 1):
            self.failed += 1
            self.problems.append(f"{cmd.label}: exit {rc}: {err.getvalue().strip()}")
            return dt, None
        self.wrong_output(check_output(cmd, rc, out.getvalue(), self.digests))
        return dt, rc

    def passes(self, seconds: float, min_passes: int, after_pass=None) -> list[dict]:
        """Passes over the command list until ``seconds`` would be exceeded.

        Each pass is {"pass_s", "key_cmd_s", "reject_s"}; ``reject_s`` is the
        time of commands that exit 1 (a negative verdict). ``after_pass``'s
        result is kept as the pass's "trace"."""
        out = []
        elapsed = 0.0
        while len(out) < min_passes or elapsed + statistics.median(
            p["pass_s"] for p in out
        ) <= seconds:
            sample = {"pass_s": 0.0, "key_cmd_s": 0.0, "reject_s": 0.0}
            for cmd in self.workload.commands:
                dt, rc = self.invoke(cmd)
                sample["pass_s"] += dt
                if cmd.label == self.workload.key:
                    sample["key_cmd_s"] = dt
                if rc == 1:
                    sample["reject_s"] += dt
            if after_pass is not None:
                sample["trace"] = after_pass()
            elapsed += sample["pass_s"]
            out.append(sample)
        return out


def build_library() -> None:
    """Build the extension with the checkout's own build, if it has one."""
    if not (ROOT / "setup.py").is_file():
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True, timeout=800,
    )
    if proc.returncode != 0:
        print(f"build_ext failed; using whatever backend imports:\n{proc.stderr}",
              file=sys.stderr)


def timed_setup(workload_name: str, seed: int):
    """Import the library afresh and generate the inputs; return the time,
    ``semibiplane.cli`` and the workload."""
    for name in [m for m in sys.modules if m == "semibiplane" or m.startswith("semibiplane.")]:
        del sys.modules[name]
    gc.collect()
    t0 = perf_counter()
    cli = importlib.import_module("semibiplane.cli")
    workload = WORKLOADS[workload_name](seed)
    return perf_counter() - t0, cli, workload


def shard_sweep(run: Run) -> dict:
    """Time one ``kernels.search_tables`` call per f(1) value for each
    normalized pruned search of the workload; the shard totals must add up
    to the unsharded known answer."""
    kernels = importlib.import_module("semibiplane.kernels")
    groups = importlib.import_module("semibiplane.groups")
    ms, leaves = [], []
    for group, normalized, pruned, visited, count in SEARCHES:
        if not (normalized and pruned) or group == "6":
            continue
        G = groups.make_group(int(f) for f in group.split("x"))
        gadd, gsub = groups.add_table(G), groups.sub_table(G)
        total = [0, 0]
        for r in range(G.order):
            t0 = perf_counter()
            v, c, _ = kernels.search_tables(G.order, gadd, gsub, gsub, True, r, True, True)
            ms.append((perf_counter() - t0) * 1e3)
            leaves.append(v)
            total[0] += v
            total[1] += c
        run.attempted += 1
        if total != [visited, count]:
            run.wrong_output([f"Z{group} shards: visited, count = {total}; "
                              f"want {[visited, count]}"])
    return {"kernels.shard_ms.max": max(ms), "kernels.shard_ms.min": min(ms),
            "kernels.shard_leaves.max": max(leaves)}


def layer_metrics(spans: dict, counters: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    def self_ms(prefix):
        return sum(s[2] for n, s in spans.items() if n.startswith(prefix)) / 1e6

    m = {}
    for name in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if fn in spans and stat == "self_ms":
            m[name] = spans[fn][2] / 1e6
        elif fn in spans and stat == "calls":
            m[name] = spans[fn][0]
        elif fn in LAYERS and stat == "self_ms":
            m[name] = self_ms(fn + ".")
        elif fn in LAYERS and stat == "spans":
            m[name] = sum(s[0] for n, s in spans.items() if n.startswith(fn + "."))
    m.update(counters)
    leaves = counters["kernels.search_tables.leaves"]
    m["kernels.search_tables.found_per_leaf"] = (
        counters["kernels.search_tables.found"] / leaves if leaves else 0.0
    )
    m["gf2.table.self_ms"] = self_ms("gf2.")
    for name in PER_LAYER:
        m.setdefault(name, 0)
    return m


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "semibiplane" / "__init__.py").is_file():
        print(f"error: no semibiplane sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    build_library()
    sys.path.insert(0, str(ROOT / "src"))
    setups = []
    for _ in range(SETUP_REPS):
        dt, cli, workload = timed_setup(name, seed)
        setups.append(dt)
    run = Run(workload, cli, load_digests(workload, seed))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "backend": importlib.import_module("semibiplane").KERNEL_BACKEND,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "setup_s": setups,
    }

    if not trace:
        samples = run.passes(seconds, MIN_PASSES)
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": median_of(samples, "pass_s"),
            "key_cmd_s": median_of(samples, "key_cmd_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        record["passes"] = samples
    else:
        plain = run.passes(seconds / 2, MIN_TRACE_PASSES)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run.passes(seconds / 2, MIN_TRACE_PASSES, tracer.take)
        finally:
            tracer.uninstall()
        per_pass = [layer_metrics(*s.pop("trace")) for s in traced]
        metrics = {n: statistics.median(p[n] for p in per_pass) for n in PER_LAYER}
        # Untraced, like the end-to-end metrics it stands in for.
        metrics["cli.reject_ms"] = median_of(plain, "reject_s") * 1e3
        metrics["trace.overhead_frac"] = (
            median_of(traced, "pass_s") / median_of(plain, "pass_s") - 1
        )
        if name == "search-exhaustive":
            metrics.update(shard_sweep(run))
        missing = sorted(layer for layer in EXERCISED[name] if not metrics[f"{layer}.spans"])
        if missing:
            run.wrong_output([f"traced run recorded no span in layers {missing}"])
        units = {n: u for n, (u, _) in PER_LAYER.items()}
        record["passes"] = plain
        record["traced_passes"] = traced

    record["pass_count"] = len(record["passes"])
    record["metrics"] = metrics
    correct = run.wrong == 0 and run.failed == 0
    for problem in run.problems[:20]:
        print(f"wrong: {problem}", file=sys.stderr)

    print(f"workload {name}  seed {seed}  backend {record['backend']}  "
          f"python {record['python']}  nproc {record['nproc']}  "
          f"passes {record['pass_count']}")
    # Reported only here: zero by design (wrong_outputs, failed_frac, and
    # reject time off gold-build), so not metrics a bound could be put on.
    shown = {
        **{n: (v, units[n]) for n, v in metrics.items()},
        "cli.reject_ms": (median_of(record["passes"], "reject_s") * 1e3, "ms"),
        "wrong_outputs": (run.wrong, "count"),
        "failed_frac": (run.failed / run.attempted, "fraction"),
    }
    for metric, (value, unit) in shown.items():
        print(f"  {metric:<42} {value:>14.6g} {unit}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload untraced and then traced, each run in its own process,
    one after another."""
    results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                return 2
            results[name, trace] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{n}": m for (name, _), r in results.items() for n, m in r["metrics"].items()
        },
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics (ignored with --workload all)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
