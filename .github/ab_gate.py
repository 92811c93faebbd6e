"""Paired A/B benchmark gate: a change against its parent commit.

Usage (from the change's checkout)::

    git worktree add "$RUNNER_TEMP/parent" HEAD^1
    python3 .github/ab_gate.py "$RUNNER_TEMP/parent" .

Runs every workload of the change's ``BENCHMARK.json`` on both trees in
3 pairs (seed = pair number, alternating which tree runs first), each
run a fresh ``callerbench/run.py`` process from its own tree.  Both
trees run interleaved on the same host, so a slow host slows both.
A run whose last output line is not JSON is retried once.

The gate fails (exit 1) when, on any workload:

- a run fails twice;
- any run reports ``"correct": false``;
- the change's runs fail more operations in total than the parent's;
- an end-to-end metric's change median is worse than the parent median
  by more than that metric's ``bound`` in ``BENCHMARK.json``.

Every run's result is appended to ``ab-gate.jsonl`` in the working
directory, one JSON object per line.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 3
OUT = Path("ab-gate.jsonl")


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: int) -> dict | None:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    for _attempt in range(2):
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"  {tree} {workload} seed {seed}: no JSON result (exit {proc.returncode})")
            print(proc.stderr[-2000:], file=sys.stderr)
            continue
        return result
    return None


def worse_by(parent: float, change: float, better: str) -> float:
    """Relative regression of *change* against *parent* (positive = worse).

    callerbench never reports an end-to-end metric as 0.
    """
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    trees = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    command, seconds = spec["command"], spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    results: dict[tuple[str, str], list[dict]] = {}
    problems: list[str] = []
    OUT.write_text("")
    for pair in range(1, PAIRS + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for workload in workloads:
            for side in order:
                print(f"pair {pair} {workload} {side}", flush=True)
                result = run_once(trees[side], command, workload, pair, seconds)
                if result is None:
                    print(f"FAIL: {side} {workload} seed {pair} printed no result twice")
                    return 1
                with OUT.open("a") as handle:
                    row = {"pair": pair, "seed": pair, "tree": side, "workload": workload}
                    handle.write(json.dumps({**row, **result}) + "\n")
                results.setdefault((side, workload), []).append(result)
                if not result["correct"]:
                    problems.append(f"{side} {workload} seed {pair}: correct is false")

    header = (
        f"{'workload':<20} {'metric':<15} {'parent':>12} {'change':>12} {'worse':>8} {'bound':>6}"
    )
    print(header)
    print("-" * len(header))
    for workload in workloads:
        parent_runs, change_runs = results["parent", workload], results["change", workload]
        failed = {side: sum(r["failed"] for r in results[side, workload]) for side in trees}
        if failed["change"] > failed["parent"]:
            problems.append(f"{workload}: failed {failed['parent']} -> {failed['change']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = statistics.median(r["metrics"][name]["value"] for r in parent_runs)
            change = statistics.median(r["metrics"][name]["value"] for r in change_runs)
            worse = worse_by(parent, change, metric["better"])
            verdict = "FAIL" if worse > metric["bound"] else ""
            print(
                f"{workload:<20} {name:<15} {parent:>12.4g} {change:>12.4g} "
                f"{worse:>+8.1%} {metric['bound']:>6.0%} {verdict}"
            )
            if verdict:
                bound = f"{metric['bound']:.0%}"
                problems.append(f"{workload} {name}: {worse:+.1%} worse (bound {bound})")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("A/B gate", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
