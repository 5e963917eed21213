#!/usr/bin/env python3
"""Check the output of a traced perfbench run.

    python3 perfbench/run.py --workload W --seed 1 --seconds 12 --trace 1 \\
      | python3 tools/perfbench_layers.py BENCHMARK.json

Copies the run's stdout through, then exits 1 unless its last line is a
JSON object with "correct": true that carries every per-layer metric
BENCHMARK.json declares, each with a finite value. run.py leaves out a
metric it cannot compute (a 0/0 rate, say), so a missing name is how a
broken counter shows.
"""

import json
import math
import sys


def main():
    with open(sys.argv[1]) as f:
        wanted = [m["name"] for m in json.load(f)["per_layer"]]
    last = ""
    for line in sys.stdin:
        sys.stdout.write(line)
        if line.strip():
            last = line
    sys.stdout.flush()
    try:
        out = json.loads(last)
        metrics = out["metrics"]
    except (ValueError, KeyError, TypeError):
        print("perfbench_layers: the run's last line is not its JSON result", file=sys.stderr)
        return 1
    bad = []
    for name in wanted:
        value = metrics.get(name, {}).get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            bad.append(f"{name}={'missing' if value is None else value}")
    print(f"perfbench_layers: {len(wanted) - len(bad)} of {len(wanted)} per-layer metrics"
          f" finite, correct={out.get('correct')}", file=sys.stderr)
    for b in bad:
        print(f"perfbench_layers: FAILED {b}", file=sys.stderr)
    return 0 if out.get("correct") is True and not bad else 1


if __name__ == "__main__":
    sys.exit(main())
