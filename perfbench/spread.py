#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and comparison of two spread files.

    python3 perfbench/spread.py run --workloads cold-library,serve --seeds 1-10 \
        --out perfbench/out/spread.json
    python3 perfbench/spread.py compare BASE.json NEW.json

`run` invokes the benchmark command from BENCHMARK.json once per
(workload, seed), from the repository root, and reports for every metric
the median, the quartiles (Python's statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median.
It also checks each spread against the metric's bound in BENCHMARK.json
(setup_s excepted) and that each workload's per-run results share one
workload hash.

`compare` refuses two files whose workload hashes differ, then prints each
metric's median change against its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    stamp = os.path.join(
        ROOT, "perfbench", "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(stamp) as f:
        provenance = json.load(f)
    for key in ("metrics", "info", "failures", "spans"):
        provenance.pop(key, None)
    return proc.returncode, result, provenance


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def cmd_run(args):
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values, stamps = {}, []
        for seed in seeds_of(args.seeds):
            code, result, stamp = run_once(bench, workload, seed, seconds, args.trace)
            stamps.append(stamp)
            if code != 0 or not result or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {code})", file=sys.stderr)
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        hashes = {s["workload_hash"] for s in stamps}
        if len(hashes) != 1:
            print(f"{workload}: runs disagree on the workload hash {hashes}", file=sys.stderr)
            ok = False
        first = stamps[0]
        entry = {
            "workload_hash": first["workload_hash"],
            "git_commit": first["git_commit"],
            "host_cpus": first["host_cpus"],
            "rustc": first["rustc"],
            "seeds": seeds_of(args.seeds),
            "digests": {str(s["seed"]): s["digest"] for s in stamps},
            "metrics": {},
        }
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            s = summarize(vals)
            entry["metrics"][name] = s
            bound = bounds.get(name)
            flag = ""
            if args.trace == 0 and bound is not None and name != "setup_s" and s["spread"] is not None:
                flag = "ok" if s["spread"] <= bound else "OVER BOUND"
                if s["spread"] > bound:
                    ok = False
                elif s["spread"] > bound / 3:
                    flag = "ok (above bound/3)"
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:13} {name:28} median {s['median']:14.6f}  spread {spread:>7}"
                  f"  bound {bound if bound is not None else '-':>5}  {flag}")
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


def cmd_compare(args):
    bench = load_benchmark()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    worse = False
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            continue
        if n["workload_hash"] != b["workload_hash"]:
            print(f"{workload}: workload hashes differ ({b['workload_hash']} vs "
                  f"{n['workload_hash']}); not comparable", file=sys.stderr)
            return 2
        for name, bm in b["metrics"].items():
            nm = n["metrics"].get(name)
            if nm is None or not bm["median"]:
                continue
            change = nm["median"] / bm["median"] - 1
            bound, better = bounds.get(name, (None, "lower"))
            regress = change if better == "lower" else -change
            verdict = ""
            if bound is not None:
                verdict = "WORSE" if regress > bound else "within bound"
                worse |= regress > bound
            print(f"{workload:13} {name:28} {bm['median']:14.6f} -> {nm['median']:14.6f}"
                  f"  {change:+.2%}  {verdict}")
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args()
    sys.exit(cmd_run(args) if args.cmd == "run" else cmd_compare(args))


if __name__ == "__main__":
    main()
