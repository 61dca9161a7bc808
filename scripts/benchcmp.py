#!/usr/bin/env python3
"""Compare two revisions on the repository benchmark with interleaved pairs.

Run from the repository root:

    python3 scripts/benchcmp.py --base HEAD~1 --head HEAD --pairs 10 --seconds 10
    python3 scripts/benchcmp.py --workloads serve-mixed --claim serve-mixed:qps

Each revision is exported with `git archive` into .bench_build/cmp/<sha>/
(the checkout and .git are left as they are) and benchmarked there with
the command BENCHMARK.json declares (`python3 perfbench/run.py`), so each
side builds its own sources once and reuses its build cache afterwards.
For every workload the tool runs N pairs. Pair i uses seed --seed + i on
both sides and alternates which side goes first. A run that prints
"correct": false, or exits non-zero, stops the comparison.

For each end-to-end metric it prints each side's median, IQR and min-max,
the median ratio head/base, and how many pairs head won. A metric fails
when head's median is worse than base's by more than its BENCHMARK.json
bound. A metric shows a gain when head won at least 9 of every 10 pairs
and the medians differ by more than base's IQR. Metrics a workload prints
outside the gated set (light_p50_ms, recover_s, ...) are listed ungated,
their wins counted as lower-is-better except for rates (names ending qps).
--claim WORKLOAD:METRIC makes the exit status also require that gain.

The record (host, GOMAXPROCS, Go version, both commits, every run's
numbers) goes to --json when given. Exit status: 0 all bounds and claims
hold, 1 a bound or claim failed, 2 a run failed or was incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
CMP = os.path.join(ROOT, ".bench_build", "cmp")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha):
    """Extract the tree of sha into CMP/<sha> once; return the directory."""
    dest = os.path.join(CMP, sha)
    done = os.path.join(dest, ".exported")
    if not os.path.exists(done):
        os.makedirs(dest, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"benchcmp: git archive {sha} failed")
        open(done, "w").close()
    return dest


def parse_run(stdout):
    """Return (provenance, result, table) from one perfbench run's output."""
    prov, result, table = {}, None, {}
    in_table = False
    for line in stdout.splitlines():
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
        elif line.startswith("{"):
            result = json.loads(line)
        elif line.split()[:3] == ["metric", "value", "unit"]:
            in_table = True
        elif in_table:
            fields = line.split()
            if len(fields) < 2 or fields[0] == "failed_frac":
                in_table = False
                continue
            try:
                table[fields[0]] = float(fields[1])
            except ValueError:
                in_table = False
    return prov, result, table


def run_one(side, sha, workload, seed, seconds, log):
    env = dict(os.environ, GOFLAGS="-buildvcs=false",
               # The export lives inside this checkout; stop git from
               # reporting the checkout's HEAD as the export's revision.
               GIT_CEILING_DIRECTORIES=CMP)
    args = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(args, cwd=export(sha), env=env, capture_output=True, text=True)
    wall = time.time() - start
    with open(log, "w") as f:
        f.write(proc.stdout)
        f.write(proc.stderr)
    prov, result, table = parse_run(proc.stdout)
    if result is not None and not result.get("correct", False):
        sys.stderr.write(f"benchcmp: {side} {workload} seed {seed}: \"correct\": false (log {log})\n")
        sys.exit(2)
    if proc.returncode != 0 or result is None:
        sys.stderr.write(f"benchcmp: {side} {workload} seed {seed}: exit {proc.returncode} (log {log})\n")
        sys.exit(2)
    return {"seed": seed, "wall_s": round(wall, 1), "provenance": prov,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}, "table": table}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summarize(base, head, better, bound):
    """Judge one metric over paired values; bound None means ungated."""
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    worse = sign * (bmed - hmed) / bmed if bmed else 0.0
    gain = wins * 10 >= 9 * len(base) and sign * (hmed - bmed) > bq3 - bq1
    if bound is None:
        verdict = "ungated"
    elif worse > bound:
        verdict = "FAIL"
    elif gain:
        verdict = "gain"
    else:
        verdict = "ok"
    return {"base_median": bmed, "base_iqr": bq3 - bq1, "base_min": min(base), "base_max": max(base),
            "head_median": hmed, "head_iqr": hq3 - hq1, "head_min": min(head), "head_max": max(head),
            "ratio": hmed / bmed if bmed else float("nan"), "wins": wins, "pairs": len(base),
            "better": better, "bound": bound, "gain": gain, "verdict": verdict}


def fmt(x):
    return f"{x:.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD~1", help="baseline revision (default HEAD~1)")
    ap.add_argument("--head", default="HEAD", help="changed revision (default HEAD)")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all in BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10, help="interleaved pairs per workload")
    ap.add_argument("--seconds", type=float, default=10, help="--seconds for every run")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed+i")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                    help="require a gain on this metric (repeatable)")
    ap.add_argument("--json", help="write the full record here")
    opts = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    gated = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    base, head = git("rev-parse", opts.base), git("rev-parse", opts.head)
    logs = os.path.join(CMP, "logs")
    os.makedirs(logs, exist_ok=True)
    sides = {"base": base, "head": head}

    record = {"base": base, "head": head, "seconds": opts.seconds, "pairs": opts.pairs,
              "workloads": {}}
    failed = False
    for w in workloads:
        runs = {"base": [], "head": []}
        for i in range(opts.pairs):
            seed = opts.seed + i
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for side in order:
                log = os.path.join(logs, f"{w}-{seed}-{side}.txt")
                runs[side].append(run_one(side, sides[side], w, seed, opts.seconds, log))
            b, h = runs["base"][-1], runs["head"][-1]
            print(f"{w} pair {i + 1}/{opts.pairs} seed {seed} ({order[0]} first): "
                  + "  ".join(f"{m} {fmt(b['metrics'][m])}->{fmt(h['metrics'][m])}"
                              for m in gated if m in b["metrics"]), flush=True)
        host = runs["base"][0]["provenance"]
        summary = {}
        names = [m for m in gated if m in runs["base"][0]["metrics"]]
        # Ungated rows both revisions printed in every run.
        extra = sorted(set.intersection(*(set(r["table"]) for rs in runs.values() for r in rs))
                       - set(names))
        for m in names + extra:
            bv = [r["metrics"][m] if m in gated else r["table"][m] for r in runs["base"]]
            hv = [r["metrics"][m] if m in gated else r["table"][m] for r in runs["head"]]
            better = gated[m]["better"] if m in gated else "higher" if m.endswith("qps") else "lower"
            summary[m] = summarize(bv, hv, better, gated[m]["bound"] if m in gated else None)
        fails = {s: sum(r["failed"] for r in runs[s]) / max(1, sum(r["attempted"] for r in runs[s]))
                 for s in runs}
        print(f"\n{w}: base {base[:12]} vs head {head[:12]}, {opts.pairs} pairs at --seconds "
              f"{opts.seconds}; nproc {host.get('nproc')} GOMAXPROCS {host.get('gomaxprocs')} "
              f"{host.get('go')}; failed frac base {fails['base']:.4g} head {fails['head']:.4g}")
        if fails["head"] > fails["base"]:
            failed = True
            print("  FAIL: head fails a larger share of operations than base")
        print(f"  {'metric':<14} {'base med':>10} {'IQR':>8} {'min-max':>19}   {'head med':>10} "
              f"{'IQR':>8} {'min-max':>19} {'ratio':>7} {'wins':>6}  verdict")
        for m, s in summary.items():
            if s["verdict"] == "FAIL":
                failed = True
            print(f"  {m:<14} {fmt(s['base_median']):>10} {fmt(s['base_iqr']):>8} "
                  f"{fmt(s['base_min']) + '-' + fmt(s['base_max']):>19}   {fmt(s['head_median']):>10} "
                  f"{fmt(s['head_iqr']):>8} {fmt(s['head_min']) + '-' + fmt(s['head_max']):>19} "
                  f"{s['ratio']:>7.3f} {str(s['wins']) + '/' + str(s['pairs']):>6}  {s['verdict']}")
        print(flush=True)
        record["workloads"][w] = {"host": host, "failed_frac": fails, "summary": summary, "runs": runs}

    for claim in opts.claim:
        w, _, m = claim.partition(":")
        s = record["workloads"].get(w, {}).get("summary", {}).get(m)
        ok = bool(s and s["gain"] and s["verdict"] != "FAIL")
        print(f"claim {claim}: {'holds' if ok else 'NOT shown'}")
        failed = failed or not ok
    if opts.json:
        with open(opts.json, "w") as f:
            json.dump(record, f, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
