#!/usr/bin/env python3
"""Benchmark history: record parent/change runs of perfbench and diff them.

The history lives in BENCH_<workload>.json at the repository root. Each file
holds every run of one workload (side, seed, order, traced or not, the
correct/attempted/failed counts and every metric), plus a summary: per-metric
median and quartiles for each side, and the medians of the traced per-layer
metrics.

    python3 tools/bench_diff.py record --workload shard-failover \\
        --base-dir ../parent --seeds 1 2 3 4 5 6 7 8 9 10 --traced-seeds 1 2 3
    python3 tools/bench_diff.py BENCH_*.json

`record` runs perfbench/run.py in the parent checkout (--base-dir, a git
checkout of the parent commit) and in this one, one untraced pair per seed
with the side that runs first alternating, then one traced run per side for
each traced seed, and writes BENCH_<workload>.json here. Every run lasts
BENCHMARK.json's run_seconds; the change side is this checkout's HEAD plus
its worktree, identified by a digest of the files the benchmark builds
from. Run it on an otherwise idle machine.

The default mode prints parent ("before") against change ("after") for each
workload x end-to-end metric, with the pairs the change won, and flags a
change median worse than the parent's by more than the metric's bound in
BENCHMARK.json. A metric whose parent runs spread (quartile distance over
median) wider than its bound is reported as unresolved instead, unless every
change run beats every parent run. A gain is claimed ("GAIN") only when the
change wins at least 9 of 10 pairs and the medians differ by more than the
parent's quartile distance. It also says whether the metrics a seed fixes
(bytes per unit, far peak, RPO, restored loss) are identical between the
sides for each seed.

Exit status: 1 if any change-side run is incorrect or failed, or any metric
is worse beyond its bound; 0 otherwise. Incorrect parent-side runs are
printed but do not fail the check (a change may fix them).
"""
import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Metrics a seed fixes exactly: a change that moves none of the bytes,
# retention or codec must reproduce them bit for bit.
SAME_SEED_EXACT = ("write_mb_per_ckpt", "far_mb_peak", "rpo_iters", "restored_loss")
REPORT_LINE = re.compile(r"^\s+([A-Za-z_][\w.]*)\s+(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)(?:\s|$)")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def tree_digest(checkout):
    """sha256 over the files the benchmark builds from (src/, perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(checkout, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, checkout).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    v = sorted(values)
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], q[1], q[2]


def summarize(runs):
    """metric -> {median, q1, q3, n} over the given runs."""
    by_metric = {}
    for run in runs:
        for name, value in run["metrics"].items():
            by_metric.setdefault(name, []).append(value)
    out = {}
    for name, values in sorted(by_metric.items()):
        q1, med, q3 = quartiles(values)
        out[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
    return out


def flatten(result):
    """A perfbench result line with its metrics as name -> value."""
    out = dict(result)
    out["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return out


def run_perfbench(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}, "report": {},
                "exit": proc.returncode}
    result = flatten(json.loads(lines[-1]))
    # Workload-specific layers are printed, not in the JSON result line.
    report = {}
    for line in lines[:-1]:
        m = REPORT_LINE.match(line)
        if m:
            report[m.group(1)] = float(m.group(2))
    result["report"] = report
    return result


def checkout_sha(checkout):
    """HEAD of a git checkout, suffixed "+worktree" when it has local changes."""
    sha = git("rev-parse", "HEAD", cwd=checkout)
    return sha + "+worktree" if git("status", "--porcelain", cwd=checkout) else sha


def record(args):
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    sides = {"parent": os.path.abspath(args.base_dir), "change": ROOT}
    digests = {side: tree_digest(path) for side, path in sides.items()}
    runs = []

    def one(side, seed, trace, order):
        res = run_perfbench(sides[side], args.workload, seed, seconds, trace)
        entry = {"side": side, "seed": seed, "trace": trace, "order": order, **res}
        runs.append(entry)
        print(f"{args.workload} {side:6s} seed {seed} trace {trace}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)

    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for k, side in enumerate(order):
            one(side, seed, 0, k)
    for seed in args.traced_seeds:
        for side in ("parent", "change"):
            one(side, seed, 1, 0)

    def pick(side, trace):
        return [r for r in runs if r["side"] == side and r["trace"] == trace]

    def traced_layers(side):
        merged = []
        for r in pick(side, 1):
            metrics = dict(r["report"])
            metrics.update(r["metrics"])
            merged.append({"metrics": metrics})
        return {k: v["median"] for k, v in summarize(merged).items()}

    for side, path in sides.items():
        if tree_digest(path) != digests[side]:
            print(f"{side} checkout changed during the recording; nothing written",
                  file=sys.stderr)
            return 1
    doc = {
        "workload": args.workload,
        "command": bench["command"],
        "seconds": seconds,
        "seeds": args.seeds,
        "traced_seeds": args.traced_seeds,
        "nproc": os.cpu_count(),
        "parent": {"sha": checkout_sha(sides["parent"]), "tree_sha256": digests["parent"]},
        "change": {"sha": checkout_sha(ROOT), "tree_sha256": digests["change"]},
        "summary": {
            "parent": summarize(pick("parent", 0)),
            "change": summarize(pick("change", 0)),
            "traced_parent": traced_layers("parent"),
            "traced_change": traced_layers("change"),
        },
        "runs": runs,
    }
    out = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=False)
        f.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


def better(value, base, direction):
    return value < base if direction == "lower" else value > base


def verdict(metric, parent_runs, change_runs, pairs):
    """One row's verdict: ok / WORSE / unresolved / GAIN, plus pair wins."""
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    p = [r["metrics"][name] for r in parent_runs if name in r["metrics"]]
    c = [r["metrics"][name] for r in change_runs if name in r["metrics"]]
    if not p or not c:
        return None
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    wins = sum(1 for a, b in pairs if name in a and name in b and better(b[name], a[name], direction))
    npairs = sum(1 for a, b in pairs if name in a and name in b)
    spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
    worse_frac = 0.0
    if pmed:
        worse_frac = (cmed - pmed) / abs(pmed) if direction == "lower" else (pmed - cmed) / abs(pmed)
    every_better = all(better(x, y, direction) for x in c for y in p)
    if npairs >= 10 and wins >= 0.9 * npairs and abs(cmed - pmed) > (pq3 - pq1) and better(
            cmed, pmed, direction):
        tag = "GAIN"
    elif worse_frac > bound:
        tag = "WORSE"
    elif spread > bound and not every_better:
        tag = "unresolved"
    else:
        tag = "ok"
    return {"parent": (pmed, pq1, pq3), "change": (cmed, cq1, cq3), "delta": worse_frac,
            "wins": wins, "pairs": npairs, "tag": tag}


def fmt(triple):
    med, q1, q3 = triple
    return f"{med:11.4g} [{q1:.4g}, {q3:.4g}]"


def print_table(workload, parent_runs, change_runs, pairs, bench):
    print(f"\n== {workload}: parent {len(parent_runs)} runs, change {len(change_runs)} runs, "
          f"{len(pairs)} pairs")
    print(f"  {'metric':22s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s} "
          f"{'worse':>8s} {'wins':>6s}  verdict (bound)")
    bad = False
    for metric in bench["end_to_end"]:
        v = verdict(metric, parent_runs, change_runs, pairs)
        if v is None:
            continue
        if v["tag"] == "WORSE":
            bad = True
        print(f"  {metric['name']:22s} {fmt(v['parent']):>30s} {fmt(v['change']):>30s} "
              f"{v['delta'] * 100:7.1f}% {v['wins']:>2d}/{v['pairs']:<3d} {v['tag']} "
              f"({metric['bound']:.2f})")
    return bad


def check_runs(label, runs):
    """Prints every incorrect run; True if one is on the change side."""
    incorrect = [r for r in runs if not r["correct"] or r["failed"] != 0]
    for r in incorrect:
        print(f"  INCORRECT {label}: side {r['side']} seed {r['seed']} trace {r['trace']} "
              f"failed {r['failed']}/{r['attempted']}")
    return any(r["side"] == "change" for r in incorrect)


def show(paths, bench):
    bad = False
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        runs = doc["runs"]
        untraced = [r for r in runs if r["trace"] == 0]
        parent = [r for r in untraced if r["side"] == "parent"]
        change = [r for r in untraced if r["side"] == "change"]
        by_seed = {r["seed"]: r["metrics"] for r in parent}
        pairs = [(by_seed[r["seed"]], r["metrics"]) for r in change if r["seed"] in by_seed]
        bad |= print_table(doc["workload"], parent, change, pairs, bench)
        bad |= check_runs(doc["workload"], runs)
        moved = [name for name in SAME_SEED_EXACT
                 if any(a.get(name) != b.get(name) for a, b in pairs)]
        print(f"  same seed, same {', '.join(SAME_SEED_EXACT)}: "
              f"{'yes' if not moved else 'NO (' + ', '.join(moved) + ')'}")
        cov = [r["metrics"].get("trace.trainer_coverage") for r in runs
               if r["trace"] == 1 and r["side"] == "change"]
        if cov:
            print(f"  traced change trace.trainer_coverage: {', '.join(f'{c:.3f}' for c in cov)}")
    return bad


def main():
    bench = load_benchmark()
    if len(sys.argv) > 1 and sys.argv[1] == "record":
        ap = argparse.ArgumentParser(prog="bench_diff.py record")
        ap.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
        ap.add_argument("--base-dir", required=True, help="git checkout of the parent commit")
        ap.add_argument("--seeds", type=int, nargs="+", required=True)
        ap.add_argument("--traced-seeds", type=int, nargs="*", default=[])
        return record(ap.parse_args(sys.argv[2:]))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", help="BENCH_*.json (default: all at the root)")
    args = ap.parse_args()
    paths = args.files or sorted(
        os.path.join(ROOT, f) for f in os.listdir(ROOT)
        if f.startswith("BENCH_") and f.endswith(".json"))
    return 1 if show(paths, bench) else 0


if __name__ == "__main__":
    sys.exit(main())
