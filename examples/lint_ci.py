"""CI-style static-analysis invocation (docs/STATIC_ANALYSIS.md).

The shell equivalent of what this script does in-process:

    PYTHONPATH=src python -m repro lint --format json | python -m json.tool

Exit code 0 = zero findings; a CI job needs nothing else.  The only
exemption is a reviewed ``# lint: disable=`` pragma on the line itself.
This script runs the engine through the CLI entry point, parses the
JSON report the way a pipeline would, and prints the rule catalog plus
the verdict.
"""

import contextlib
import io
import json

from repro.cli import main


def run_lint_json():
    """`repro lint --format json`, captured the way a pipeline sees it."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = main(["lint", "--format", "json"])
    return exit_code, json.loads(stdout.getvalue())


if __name__ == "__main__":
    exit_code, report = run_lint_json()

    print("repro lint --format json  (CI-style invocation)")
    print(f"  tool: {report['tool']['name']} {report['tool']['version']}")
    summary = report["summary"]
    print(f"  scanned {summary['files_scanned']} files: "
          f"{summary['findings']} finding(s), "
          f"{summary['suppressed']} suppressed by pragma")

    print("\nrule catalog:")
    for rule in report["rules"]:
        print(f"  {rule['id']} [{rule['category']}] "
              f"{rule['description'][:58]}")

    for finding in report["findings"]:
        print(f"  FINDING {finding['rule']} {finding['path']}:"
              f"{finding['line']} {finding['message']}")

    print(f"\nexit code: {exit_code} "
          f"({'clean — ship it' if exit_code == 0 else 'failing'})")
    assert exit_code == 0, "the tree must lint clean"
