"""Check committed performance points against their parents.

Each ``BENCH_<n>.json`` holds ``perfbench/run.py`` result lines for a
change and for its parent commit.  This tool reads the end-to-end
metrics, their directions and their regression bounds from the
repository's ``BENCHMARK.json`` (read only), takes the ``--trace 0``
runs, and prints parent and change per workload for each metric — the
median when a side has several runs.  It exits 1 if any metric is worse
than its parent by more than its bound, or if the share of failed
operations grew.  A metric that reads 0 on the parent has no relative
change to bound.

Run:  python tools/bench_compare.py BENCH_17.json [BENCH_16.json ...]
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def compare(point: dict, declared: dict) -> tuple[list[str], bool]:
    """Report lines for one trajectory point, and whether it passes."""
    lines = [f"parent {point.get('parent', '?')}"]
    ok = True
    sides: dict[tuple[str, str], list[dict]] = {}
    for run in point["runs"]:
        if run["trace"] == 0:
            sides.setdefault((run["workload"], run["side"]), []).append(run["result"])
    for workload in dict.fromkeys(workload for workload, _ in sides):
        parent = sides.get((workload, "parent"), [])
        change = sides.get((workload, "change"), [])
        if not parent or not change:
            lines.append(f"{workload}: needs parent and change runs")
            ok = False
            continue
        lines.append(workload)
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            before = _median(parent, name)
            after = _median(change, name)
            if before is None or after is None:
                continue
            verdict = "ok"
            relative = (after - before) / before if before else 0.0
            worse = relative if metric["better"] == "lower" else -relative
            if worse > bound:
                verdict = f"WORSE than its {bound:.0%} bound"
                ok = False
            lines.append(
                f"  {name:<18} {before:>12.4g} -> {after:>12.4g} "
                f"{metric['unit']:<4} {relative:+7.1%}  {verdict}"
            )
        shares = [_failed_share(parent), _failed_share(change)]
        verdict = "ok"
        if shares[1] > shares[0]:
            verdict = "MORE operations failed"
            ok = False
        lines.append(
            f"  {'failed share':<18} {shares[0]:>12.4g} -> {shares[1]:>12.4g}"
            f" {'':<4} {'':>7}  {verdict}"
        )
    return lines, ok


def _median(results: list[dict], name: str) -> float | None:
    values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
    return statistics.median(values) if values else None


def _failed_share(results: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    passed = True
    for path in argv:
        lines, ok = compare(json.loads(Path(path).read_text(encoding="utf-8")), declared)
        print(f"{path}: {'pass' if ok else 'FAIL'}")
        print("\n".join(f"  {line}" for line in lines))
        passed = passed and ok
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
