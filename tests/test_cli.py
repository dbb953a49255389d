import argparse
import json
import re
import sys
from pathlib import Path

import pytest

from semibiplane import KERNEL_BACKEND, SearchOptions, exhaustive_search, format_table, make_group
from semibiplane.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_semiplanar(capsys):
    code, out, _ = run(capsys, "check", "--group", "2x2", "--function", "0,1,1,1")
    assert code == 0
    assert "semi-planar" in out


def test_check_not_semiplanar(capsys):
    code, out, _ = run(capsys, "check", "--group", "6", "--function", "0,1,2,3,4,5")
    assert code == 1
    assert "not semi-planar" in out


def test_check_arity_error(capsys):
    code, _, err = run(capsys, "check", "--group", "6", "--function", "0,1,2")
    assert code == 2
    assert "--function" in err


def test_check_bad_group(capsys):
    code, _, err = run(capsys, "check", "--group", "6x", "--function", "0")
    assert code == 2
    assert "--group" in err


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--group", "6", "--function", "0,1,2,3,4,5", "--json")
    assert code == 1
    data = json.loads(out)
    assert data == {
        "semiplanar": False, "witness": {"a": 1, "y": 1, "count": 6}, "backend": KERNEL_BACKEND,
    }


def test_check_function_from_file(capsys, tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("0,1,1,1\n")
    code, _, _ = run(capsys, "check", "--group", "2x2", "--function", f"@{path}")
    assert code == 0
    code, _, err = run(capsys, "check", "--group", "2x2", "--function", "@/nonexistent")
    assert code == 2


def test_build_gold3(capsys):
    code, out, _ = run(capsys, "build", "--field-e", "3", "--alpha", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "v": 64, "k": 8, "semibiplane": True, "components": 1, "failure": None,
        "backend": KERNEL_BACKEND,
    }


def test_build_gold2_splits(capsys):
    code, out, _ = run(capsys, "build", "--field-e", "2", "--alpha", "1", "--json")
    assert code == 0  # input is semi-planar even though the structure splits
    data = json.loads(out)
    assert data["semibiplane"] is False
    assert data["components"] == 2
    assert data["failure"] is None


def test_build_non_semiplanar_exit(capsys):
    code, out, _ = run(capsys, "build", "--group", "6", "--function", "0,1,2,3,4,5", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["semibiplane"] is False
    assert data["failure"]["kind"] == "points"


def test_classify_gold2(capsys):
    code, out, _ = run(capsys, "classify", "--field-e", "2", "--alpha", "1", "--json")
    assert code == 0
    assert json.loads(out) == {
        "kind": "case-i", "B": [0, 1], "A": [0, 1, 2, 3], "g": None, "h": 2,
        "backend": KERNEL_BACKEND,
    }


def test_classify_gold3_connected(capsys):
    code, out, _ = run(capsys, "classify", "--field-e", "3", "--alpha", "1", "--json")
    assert code == 0
    assert json.loads(out)["kind"] == "connected"


def test_classify_not_semiplanar(capsys):
    code, out, _ = run(capsys, "classify", "--group", "6", "--function", "0,1,2,3,4,5")
    assert code == 1


def test_search_z6_json(capsys):
    code, out, _ = run(capsys, "search", "--group", "6", "--no-prune", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == "Z6"
    assert data["normalized"] is True
    assert data["visited"] == 7776
    assert data["count"] == 0
    assert data["found"] == []


@pytest.mark.parametrize("group, normalize, visited", [
    ("6", True, 6 ** 5), ("6", False, 6 ** 6), ("5", True, 5 ** 4), ("5", False, 5 ** 5),
])
def test_no_prune_alone_enumerates_every_table(capsys, group, normalize, visited):
    argv = ["search", "--group", group, "--no-prune", "--json"]
    code, out, _ = run(capsys, *argv, *([] if normalize else ["--no-normalize"]))
    assert code == 0
    assert (json.loads(out)["visited"], json.loads(out)["count"]) == (visited, 0)


@pytest.mark.parametrize("prune", [(), ("--no-prune",)])
def test_no_fiber_limit_is_accepted_and_ignored(capsys, prune):
    # The benchmark's unpruned Z6 commands still pass the flag.
    outs = []
    for flag in ((), ("--no-fiber-limit",)):
        code, out, _ = run(capsys, "search", "--group", "6", *prune, *flag, "--json")
        assert code == 0
        outs.append(re.sub(r'"elapsed_ms": \d+', "", out))
    assert outs[0] == outs[1]


def test_search_v4(capsys):
    code, out, _ = run(capsys, "search", "--group", "2x2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 48
    assert "0,1,1,1" in data["found"]


@pytest.mark.parametrize("group, normalize", [("2x4", True), ("2x2", False)])
def test_search_prints_format_table_of_every_found_table(capsys, group, normalize):
    G = make_group([int(n) for n in group.split("x")])
    result = exhaustive_search(G, G, SearchOptions(fix_zero_at_zero=normalize))
    want = [format_table(f) for f in result.found]
    assert len(want) == result.count > 0
    flags = ("--group", group) + (() if normalize else ("--no-normalize",))

    code, out, _ = run(capsys, "search", *flags)
    assert code == 0
    header, *lines = out.splitlines()
    assert header.startswith(
        f"group={G.name} normalized={normalize} visited={result.visited} "
        f"count={result.count} elapsed="
    )
    assert lines == want

    code, out, _ = run(capsys, "search", *flags, "--json")
    assert code == 0
    data = json.loads(out)
    assert data.pop("elapsed_ms") >= 0
    assert data == {
        "group": G.name, "normalized": normalize, "visited": result.visited,
        "count": result.count, "found": want, "backend": KERNEL_BACKEND,
    }


@pytest.mark.parametrize("flags, found", [
    (("--group", "6"), 0),
    (("--group", "2", "--max-results", "1"), 1),
    (("--group", "2x4"), 1024),
    (("--group", "2x4", "--max-results", "3"), 3),
])
def test_search_json_is_byte_identical_to_json_dumps(capsys, flags, found):
    code, out, _ = run(capsys, "search", *flags, "--json")
    data = json.loads(out)
    assert code == 0 and len(data["found"]) == found
    assert out == json.dumps(data, indent=2) + "\n"


def test_search_negative_max_results_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "--group", "4", "--max-results", "-1", "--json")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "max_results" in err
    code, out, _ = run(capsys, "search", "--group", "4", "--max-results", "0", "--json")
    data = json.loads(out)
    assert code == 0 and data["count"] == 8 and data["found"] == []


def test_search_budget(capsys):
    code, _, err = run(capsys, "search", "--group", "9")
    assert code == 2
    assert "--max-order" in err
    code, _, err = run(capsys, "search", "--group", "4", "--max-order", "3")
    assert code == 2
    code, out, _ = run(capsys, "search", "--group", "3", "--max-order", "3", "--json")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_gold_pipes_into_check(capsys):
    code, out, _ = run(capsys, "gold", "--field-e", "2", "--alpha", "1")
    assert code == 0
    table_text = out.strip()
    assert table_text == "0,1,1,1"
    code, _, _ = run(capsys, "check", "--group", "2x2", "--function", table_text)
    assert code == 0


def test_inverse_pipes_into_check(capsys):
    code, out, _ = run(capsys, "inverse", "--field-e", "3")
    assert code == 0
    code, _, _ = run(capsys, "check", "--group", "2x2x2", "--function", out.strip())
    assert code == 0


def test_gold_parameter_error(capsys):
    code, _, err = run(capsys, "gold", "--field-e", "3", "--alpha", "3")
    assert code == 2
    assert "--field-e/--alpha" in err


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export-dot", "--group", "2", "--function", "0,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph sbp {"
    assert sum(1 for l in lines if " -- " in l) == 8


def test_export_dot_to_file(capsys, tmp_path):
    path = tmp_path / "graph.dot"
    code, out, _ = run(
        capsys, "export-dot", "--field-e", "2", "--alpha", "1",
        "--components", "--out", str(path),
    )
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert text.startswith("graph sbp {")
    assert "color=" in text


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "build", "--field-e", "2", "--alpha", "1", "--json", "--out", str(path)
    )
    assert code == 0
    assert json.loads(path.read_text())["v"] == 16


def test_verify_paper_passes(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_paper_json_roundtrip(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["checks"]) >= 12
    assert all(c["passed"] for c in data["checks"])


# The benchmark's answer digests hash these names in this order, so a rename
# or reorder would otherwise show only there.
CHECK_NAMES = [
    "gold-family", "gold-sbp-connected", "hypercube-split", "z6-nonexistence",
    "k2-degenerate", "inverse-bijection", "intersection-criterion",
    "p-characterization", "difference-lemma", "transform-closure",
    "fiber-limit-soundness", "worker-determinism",
]


@pytest.mark.parametrize("deep", [(), ("--deep",)])
def test_verify_paper_lists_the_pinned_checks(capsys, deep):
    code, out, _ = run(capsys, "verify-paper", *deep, "--json")
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]] == CHECK_NAMES


@pytest.mark.parametrize("argv", [
    ("check", "--group", "2x2", "--function", "0,1,1,1"),
    ("build", "--field-e", "2", "--alpha", "1"),
    ("classify", "--field-e", "2", "--alpha", "1"),
    ("search", "--group", "4"),
    ("verify-paper",),
])
def test_json_reports_name_the_backend(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["backend"] == KERNEL_BACKEND in ("compiled", "pure-python")


def test_verify_paper_injected_fault(capsys):
    code, out, _ = run(capsys, "verify-paper", "--inject-fault", "gold-family")
    assert code == 1
    assert "FAIL gold-family" in out


def test_verify_paper_unknown_fault_name(capsys):
    code, _, err = run(capsys, "verify-paper", "--inject-fault", "nope")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("search", "--group", "4", "--workers", "2"),
    ("verify-paper", "--workers", "2"),
])
def test_workers_flag_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "--workers" in err


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


# Help, usage and error bytes of every subcommand and of the usage failures,
# captured with COLUMNS=80 from the parser that added all eight subcommands
# on every call. Each entry: argv, exit code, stdout, stderr.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]) or "(empty)")
def test_help_and_usage_errors_are_byte_identical(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    assert run(capsys, *case["argv"]) == (case["code"], case["out"], case["err"])


@pytest.fixture
def subparsers_added(monkeypatch):
    added = []
    original = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return original(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    return added


ALL_COMMANDS = [
    "check", "build", "classify", "search", "verify-paper", "export-dot", "gold", "inverse",
]


@pytest.mark.parametrize("argv, names", [
    (("build", "--field-e", "3", "--alpha", "1", "--json"), ["build"]),
    (("search", "--group", "2x2", "--json"), ["search"]),
    (("--help",), ALL_COMMANDS),
    (("buil",), ALL_COMMANDS),
    ((), ALL_COMMANDS),
])
def test_only_the_invoked_subcommand_gets_a_parser(capsys, subparsers_added, argv, names):
    run(capsys, *argv)
    assert subparsers_added == names


def test_main_reads_sys_argv_when_argv_is_none(capsys, monkeypatch, subparsers_added):
    # the console script calls main() with no arguments
    monkeypatch.setattr(sys, "argv", ["semibiplane", "gold", "--field-e", "3", "--alpha", "1"])
    assert main() == 0
    assert capsys.readouterr().out == "0,1,3,4,5,6,7,2\n"
    assert subparsers_added == ["gold"]
