#!/usr/bin/env python3
"""Repeat the benchmark over seeds, summarise the spread, compare two commits.

Run from the root of a dagmap checkout:

    python3 perfsuite/sweep.py run OUT.json
    python3 perfsuite/sweep.py stats OUT.json
    python3 perfsuite/sweep.py pairs BASE_DIR NEW_DIR BASE.json NEW.json
    python3 perfsuite/sweep.py selftest

`run` calls BENCHMARK.json's command once per workload and seed 1-10
and stores every result line as {"<workload>": [result, ...]}. `stats`
prints, per workload and metric, the median, the quartiles and the
spread (Q3 - Q1) / median, flagging spreads above a third of the
metric's bound. `pairs` runs the same command in two checkouts, seed
by seed, alternating which goes first, writes one such file for each,
and classifies each end-to-end metric per workload (see README.md,
"Comparing two commits"); it exits 1 when any metric is worse.
`selftest` checks the classifier on fixed inputs.
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def metric_values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def run_one(bench, cwd, workload, seed):
    """One plain run of `workload` in checkout `cwd`; its result line."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit("%s: %s seed %d failed (exit %d)"
                 % (cwd, workload, seed, proc.returncode))
    print("%s %s seed %d: %s" % (cwd, workload, seed, json.dumps(result["metrics"])),
          flush=True)
    return result


def save(path, sweep):
    with open(path, "w") as f:
        json.dump(sweep, f, indent=1)


def cmd_run(out):
    bench = load_benchmark()
    sweep = {}
    for w in bench["workloads"]:
        sweep[w["name"]] = [run_one(bench, ".", w["name"], s) for s in SEEDS]
        save(out, sweep)
    cmd_stats(out)


def cmd_pairs(base_dir, new_dir, base_out, new_out):
    """Seed by seed, one run in each checkout; the base goes first on
    odd seeds and second on even ones, so a drift of the machine's
    speed falls on both sides alike."""
    bench = load_benchmark()
    base, new = {}, {}
    for w in bench["workloads"]:
        name = w["name"]
        base[name], new[name] = [], []
        for seed in SEEDS:
            order = [(base_dir, base), (new_dir, new)]
            if seed % 2 == 0:
                order.reverse()
            for cwd, sweep in order:
                sweep[name].append(run_one(bench, cwd, name, seed))
        save(base_out, base)
        save(new_out, new)
    compare(bench, base, new)


def cmd_stats(path):
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    with open(path) as f:
        sweep = json.load(f)
    for workload, runs in sweep.items():
        print("%s (%d runs)" % (workload, len(runs)))
        for name in runs[0]["metrics"]:
            values = metric_values(runs, name)
            if len(values) < 2:
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s > bound / 3:
                flag = "  > bound/3 (%.3f)" % (bound / 3)
            print("  %-28s median %12.6g  Q1 %12.6g  Q3 %12.6g  spread %6.3f%s"
                  % (name, med, q1, q3, s, flag))


def classify(base, new, bound, better):
    """One end-to-end metric on one workload: improved, unchanged,
    worse or unresolved. `base` and `new` are per-run values, paired
    by position (same seed); `bound` is the allowed worsening as a
    share of the base median."""
    sign = 1.0 if better == "lower" else -1.0
    base_med = statistics.median(base)
    new_med = statistics.median(new)
    # Positive = the new side is worse, as a share of the base median.
    change = sign * (new_med - base_med) / base_med
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) < 0)
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread(base) > bound and not all_better:
        return "unresolved", change
    if change > bound:
        return "worse", change
    # Sound only for alternating pairs: when the machine's speed drifts
    # between two separate sweeps of one commit, one side wins most
    # pairs by up to 19%.
    if wins >= 0.9 * min(len(base), len(new)) and -change > spread(base):
        return "improved", change
    return "unchanged", change


def compare(bench, base, new):
    any_worse = False
    for workload in base:
        if workload not in new:
            continue
        cells = []
        for m in bench["end_to_end"]:
            b = metric_values(base[workload], m["name"])
            n = metric_values(new[workload], m["name"])
            if len(b) < 2 or len(n) < 2:
                continue
            verdict, change = classify(b, n, m["bound"], m["better"])
            any_worse |= verdict == "worse"
            cells.append("%s %s (%+.1f%%)" % (m["name"], verdict, 100 * change + 0.0))
        print("%-12s %s" % (workload, "; ".join(cells)))
    sys.exit(1 if any_worse else 0)


def cmd_selftest():
    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    cases = [
        # (base, new, bound, better, verdict)
        (steady, steady, 0.1, "lower", "unchanged"),
        (steady, [v * 1.2 for v in steady], 0.1, "lower", "worse"),
        (steady, [v * 1.2 for v in steady], 0.1, "higher", "improved"),
        (steady, [v * 0.8 for v in steady], 0.1, "lower", "improved"),
        # Faster in every pair by less than the bound, more than the spread.
        (steady, [v * 0.93 for v in steady], 0.1, "lower", "improved"),
        # Faster in every pair by less than the spread.
        (steady, [v * 0.99 for v in steady], 0.1, "lower", "unchanged"),
        # Much faster in only 8 of 10 pairs.
        (steady, [v * 0.7 for v in steady[:8]] + steady[8:], 0.1, "lower",
         "unchanged"),
        # Too noisy to tell within the bound, unless every run is better.
        ([80, 120] * 5, [100] * 10, 0.1, "lower", "unresolved"),
        ([80, 120] * 5, [10] * 10, 0.1, "lower", "improved"),
    ]
    bad = 0
    for base, new, bound, better, want in cases:
        got, _ = classify(base, new, bound, better)
        if got != want:
            bad += 1
            print("classify(%s, %s, %s, %s) = %s, want %s"
                  % (base, new, bound, better, got, want))
    print("selftest: %d of %d cases wrong" % (bad, len(cases)))
    sys.exit(1 if bad else 0)


COMMANDS = {
    "run": cmd_run,
    "stats": cmd_stats,
    "pairs": cmd_pairs,
    "selftest": cmd_selftest,
}


def main():
    args = sys.argv[1:]
    func = COMMANDS.get(args[0]) if args else None
    nargs = func.__code__.co_argcount if func else -1
    if len(args) - 1 != nargs:
        sys.exit(__doc__)
    func(*args[1:])


if __name__ == "__main__":
    main()
