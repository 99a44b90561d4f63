"""Noise self-check: run the whole benchmark twice, compare the two sets.

    python3 benchmarks/e2e/selfcheck.py [--seed N]

Both sets use the same seed, so the simulated statistics, the digest
and every call count must match exactly; each timing must agree within
its bound in BENCHMARK.json.  Exits non-zero otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

import run
import workloads


def relative_difference(first: float, second: float) -> float:
    return abs(second - first) / abs(first) if first else abs(second)


#: Units of simulated statistics and call counts.  These do not depend
#: on the host, so two runs of one seed must agree to the last digit.
EXACT_UNITS = frozenset({"ratio", "ms", "J", "count", "1/packet", "Mcalls"})


def compare(
    first: Dict[str, dict], second: Dict[str, dict], bounds: Dict[str, float]
) -> List[str]:
    """One line per end-to-end metric, per mismatch, and one that counts
    the exact matches; a line that starts with FAIL breaks a rule.
    Host-dependent metrics are held to ``bounds`` where it names them
    (the end-to-end ones) and are not compared otherwise."""
    lines, identical = [], 0
    for name, entry in first.items():
        a, b = entry["value"], second[name]["value"]
        if entry["unit"] in EXACT_UNITS:
            if a != b:
                lines.append(f"FAIL {name}: {a!r} vs {b!r} must match exactly")
            else:
                identical += 1
        elif name in bounds:
            diff = relative_difference(a, b)
            verdict = "ok" if diff <= bounds[name] else "FAIL"
            lines.append(
                f"{verdict} {name}: {a!r} vs {b!r} "
                f"differ {diff:.2%} (bound {bounds[name]:.0%})"
            )
    lines.append(f"ok {identical} simulated statistics and call counts identical")
    return lines


def one_set(seed: int, seconds: float) -> Dict[str, dict]:
    """Every workload untraced and traced, one child at a time."""
    return {
        f"{workload} --trace {int(traced)}": run.run_child(
            workload, seed, seconds, traced
        )
        for workload in workloads.WORKLOADS
        for traced in (False, True)
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads(run.SPEC_PATH.read_text("utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    first, second = (one_set(args.seed, spec["run_seconds"]) for _ in range(2))
    failed = False
    for label, a in first.items():
        b = second[label]
        if a["returncode"] != 0 or b["returncode"] != 0:
            lines = ["FAIL a run exited non-zero"]
        else:
            lines = compare(a["result"]["metrics"], b["result"]["metrics"], bounds)
            if a["digests"] != b["digests"]:
                lines.append(f"FAIL digests: {a['digests']} vs {b['digests']}")
        print(f"== {label}")
        print("\n".join(lines), flush=True)
        failed = failed or any(line.startswith("FAIL") for line in lines)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
