"""Run the benchmark over several seeds and record one trajectory point.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/trajectory/BENCH_<label>.json

For every workload in BENCHMARK.json this runs ``run.py --trace 0`` once per
seed, then ``--trace 1`` on the first seed, each in a fresh interpreter.  It
prints, per end-to-end metric, the median over seeds and the spread (third
minus first quartile, over the median) against the metric's bound, and writes
every run's result and context to ``--out``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    ctx = next((json.loads(ln[len("context "):]) for ln in lines if ln.startswith("context ")), {})
    return {
        "workload": workload, "seed": seed, "trace": trace, "run_s": time.perf_counter() - t0,
        "result": json.loads(lines[-1]), "context": ctx,
    }


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)

    runs, summary = [], {}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = [one_run(workload, seed, seconds, 0) for seed in seeds]
        runs += plain
        runs.append(one_run(workload, seeds[0], seconds, 1))
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in plain]
            med, sp = spread(values) if len(values) > 1 else (values[0], 0.0)
            summary[workload][name] = {"median": med, "spread": sp, "bound": bound, "values": values}
            flag = "" if name == "setup_s" or sp <= bound / 3 else ("  over bound/3" if sp <= bound else "  OVER BOUND")
            print(f"{workload:8s} {name:18s} median {med:12.6g}  spread {sp:7.4f}  bound {bound}{flag}  [" + " ".join(f"{v:.4g}" for v in values) + "]", flush=True)
        print(f"{workload:8s} run seconds: " + " ".join(f"{r['run_s']:.1f}" for r in plain), flush=True)

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"context": runs[0]["context"], "run_seconds": seconds, "seeds": seeds, "summary": summary, "runs": runs},
            indent=1, sort_keys=True,
        ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
