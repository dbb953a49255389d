"""Tests of the benchmark's known-answer gate and tracing.

    python3 -m pytest perfbench -q
"""

import io
import json
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer
from workloads import DEFAULT_SEED, check_output, load_digests

ROOT = Path(__file__).resolve().parent.parent


def _cli(argv):
    from semibiplane.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        rc = main(list(argv))
    return rc, out.getvalue()


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_gold_inputs_follow_the_rules(seed):
    wl = workloads.gold_build(seed)
    base = {c.label: c.table for c in wl.commands if not c.seeded}
    for cmd in wl.commands:
        if cmd.seeded:
            orig = base[cmd.label.removesuffix(" perturbed")]
            assert sum(a != b for a, b in zip(orig, cmd.table)) == 1
            assert not workloads.xor_semiplanar(cmd.table)
        else:
            # the gcd and inverse rules, checked from the definition
            assert workloads.xor_semiplanar(cmd.table) == cmd.expect["semibiplane"]


def test_known_answers_pass_on_small_commands():
    for wl, pred in [
        (workloads.gold_build(DEFAULT_SEED), lambda c: " e=3" in c.label or " e=4" in c.label),
        (workloads.search_exhaustive(DEFAULT_SEED), lambda c: c.label.startswith("Z6")),
    ]:
        digests = load_digests(wl, DEFAULT_SEED)
        cmds = [c for c in wl.commands if pred(c)]
        assert cmds and all(c.label in digests for c in cmds)
        for cmd in cmds:
            rc, out = _cli(cmd.argv)
            assert check_output(cmd, rc, out, digests) == []


def test_digests_of_seeded_inputs_apply_only_at_the_default_seed():
    wl = workloads.gold_build(DEFAULT_SEED)
    assert len(load_digests(wl, DEFAULT_SEED)) == len(wl.commands)
    assert set(load_digests(wl, 5)) == {c.label for c in wl.commands if not c.seeded}


def test_corrupted_expectations_are_caught():
    wl = workloads.search_exhaustive(DEFAULT_SEED)
    cmd = wl.commands[0]
    rc, out = _cli(cmd.argv)
    digests = load_digests(wl, DEFAULT_SEED)
    bad_count = replace(cmd, expect={**cmd.expect, "visited": cmd.expect["visited"] + 1})
    assert check_output(bad_count, rc, out, digests)
    assert check_output(cmd, rc, out, {cmd.label: "0" * 16})
    assert check_output(cmd, 1, out, digests)

    gold = workloads.gold_build(DEFAULT_SEED)
    bad = next(c for c in gold.commands if c.seeded and "e=3" in c.label)
    rc, out = _cli(bad.argv)
    report = json.loads(out)
    assert check_output(bad, rc, out, {}) == []
    report["failure"]["count"] += 2
    assert any("witness" in p for p in check_output(bad, rc, json.dumps(report), {}))


def test_negative_control_fails_the_run(monkeypatch, capsys):
    make = workloads.WORKLOADS["verify-paper"]

    def corrupted(seed):
        wl = make(seed)
        cmd = wl.commands[0]
        return replace(wl, commands=(replace(cmd, expect={"checks": 13}),))

    monkeypatch.setitem(workloads.WORKLOADS, "verify-paper", corrupted)
    rc = run.main(["--workload", "verify-paper", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1 and result["correct"] is False and result["failed"] == 0


def test_tracer_wraps_every_binding_and_restores_them():
    import semibiplane
    import semibiplane.cli as cli
    import semibiplane.functions as functions
    import semibiplane.verify as verify

    original = functions.is_semiplanar
    tracer = Tracer()
    tracer.install()
    try:
        for module in (functions, verify, cli, semibiplane):
            assert module.is_semiplanar is not original
            assert module.is_semiplanar.__wrapped__ is original
        _cli(["build", "--field-e", "3", "--alpha", "1", "--json"])
        spans, _ = tracer.take()
    finally:
        tracer.uninstall()
    assert all(m.is_semiplanar is original for m in (functions, verify, cli, semibiplane))
    assert spans["cli.main"][0] == 1 and spans["incidence.verify_axioms"][0] == 1
    # self time excludes nested spans
    assert spans["cli.main"][2] < spans["cli.main"][1]


def test_compare_refuses_runs_from_different_backends(monkeypatch):
    import compare

    logs = {
        name: [{"backend": backend, "workload": "verify-paper", "metrics": {"pass_s": 1.0}}]
        for name, backend in (("pure", "pure-python"), ("compiled", "compiled"))
    }
    monkeypatch.setattr(compare, "records", logs.__getitem__)
    assert compare.main(["pure", "compiled"]) == 2
    assert compare.main(["pure", "pure"]) == 0
