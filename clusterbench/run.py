"""Run one workload of the cluster benchmark and print its result as JSON.

    python3 clusterbench/run.py --workload tweets-static --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout: it imports the program from
`src/`. The last line of standard output is the result object; the full
per-rep detail is written to clusterbench-out/.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "clusterbench-out"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "skystream").is_dir():
        print(f"no program source at {ROOT / 'src' / 'skystream'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from clusterbench import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    for problem in detail["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    reps = detail["reps"]
    print(f"{args.workload} seed {args.seed}: {len(reps)} reps, "
          f"raw events/s {detail.get('raw_events_per_s', 0):.0f}, "
          f"raw setup {detail.get('raw_setup_s', 0):.3f} s, detail in {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
