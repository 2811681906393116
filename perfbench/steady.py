#!/usr/bin/env python3
"""Run the benchmark over several seeds and record how steady it is.

For each workload, runs the command of BENCHMARK.json once per seed and
reports, per metric, the ten (or however many) values, their median and
quartiles, and the spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median. With
--compare it also checks a second set of runs against a first: each
median may be worse than the first set's by at most the metric's bound.

    python3 perfbench/steady.py --workloads stream --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --out perfbench/steadiness/set-a.json
    python3 perfbench/steady.py --compare perfbench/steadiness/set-a.json \
        perfbench/steadiness/set-b.json

Run it from the root of the repository. Exits 1 if a run fails, a spread
exceeds its bound, or a compared median is worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: failed checks")
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    # A layer a workload does not run reads 0; it has no spread.
    spread = (q3 - q1) / med if med else None
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread}


def measure(spec, workloads, seeds, trace):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {"seeds": seeds, "trace": trace, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    ok = True
    for w in workloads:
        per_metric = {}
        for seed in seeds:
            result = run_once(spec, w, seed, trace)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, {"unit": m["unit"], "values": []})
                per_metric[name]["values"].append(m["value"])
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                if n in bounds or trace), flush=True)
        record["workloads"][w] = {}
        for name, m in per_metric.items():
            s = summarize(m["values"])
            s["unit"] = m["unit"]
            bound = bounds.get(name) if not trace else None
            if bound is not None:
                s["bound"] = bound
                # setup_s is exempt from the spread rule; its medians are
                # still compared across sets.
                s["within_bound"] = name == "setup_s" or s["spread"] <= bound
                ok &= s["within_bound"]
            record["workloads"][w][name] = s
            flag = ""
            if s["spread"] is None:
                print(f"{w:<11} {name:<27} always 0", flush=True)
                continue
            if bound is not None:
                flag = "ok" if s["spread"] <= bound / 3 else (
                    "within bound" if s["within_bound"] else "TOO WIDE")
            print(f"{w:<11} {name:<27} median {s['median']:<14.6g} "
                  f"q1 {s['q1']:<14.6g} q3 {s['q3']:<14.6g} "
                  f"spread {100 * s['spread']:6.2f}%  {flag}", flush=True)
    return record, ok


def compare(spec, first, second):
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w, metrics in second["workloads"].items():
        for name, s in metrics.items():
            if name not in bounds:
                continue
            a = first["workloads"][w][name]["median"]
            b = s["median"]
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            fine = worse <= bounds[name]
            ok &= fine
            print(f"{w:<11} {name:<17} first {a:<14.6g} second {b:<14.6g} "
                  f"worse by {100 * worse:6.2f}% (bound {100 * bounds[name]:.0f}%) "
                  f"{'ok' if fine else 'TOO FAR'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", help="write the record as JSON here")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        with open(args.compare[0]) as f:
            first = json.load(f)
        with open(args.compare[1]) as f:
            second = json.load(f)
        sys.exit(0 if compare(spec, first, second) else 1)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    record, ok = measure(spec, workloads, seeds_of(args.seeds), args.trace)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, allow_nan=False)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
