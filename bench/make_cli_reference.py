"""Regenerate cli_reference.json, the parsed outputs the cli workload
checks against, from the current sources:

    python3 bench/make_cli_reference.py

Only do this when an output change is intended and justified.
"""
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from workloads import (  # noqa: E402
    CLI_COMMANDS, REFERENCE_PATH, command_key, parse_cli_output, run_cli)


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        out = Path(tmp) / "out"
        for args in CLI_COMMANDS:
            if run_cli(args, out) != 0:
                raise SystemExit("command failed: %s" % command_key(args))
            reference[command_key(args)] = parse_cli_output(
                args, out.read_text(encoding="utf-8"))
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
