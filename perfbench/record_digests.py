"""Rewrite expected.json from the library in ``src/``.

    python3 perfbench/record_digests.py

Runs every workload's commands once at the default seed, refuses to record
unless each output passes the known-answer gate, and stores the digest of
each report's answer fields. Rerun only when an answer is meant to change.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import DEFAULT_SEED, EXPECTED_FILE, WORKLOADS, check_output, digest  # noqa: E402


def main() -> int:
    from semibiplane.cli import main as cli_main

    stored = {}
    for name, make in WORKLOADS.items():
        stored[name] = {}
        for cmd in make(DEFAULT_SEED).commands:
            out = io.StringIO()
            with redirect_stdout(out):
                rc = cli_main(list(cmd.argv))
            problems = check_output(cmd, rc, out.getvalue(), {})
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            stored[name][cmd.label] = digest(cmd.kind, json.loads(out.getvalue()))
    EXPECTED_FILE.write_text(json.dumps(stored, indent=2) + "\n")
    print(f"wrote {sum(map(len, stored.values()))} digests to {EXPECTED_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
