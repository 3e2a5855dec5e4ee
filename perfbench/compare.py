"""Compare two cyfold source trees on one workload, with this benchmark.

    python3 perfbench/compare.py --base ../parent/src --change src \
        --workload transport --seeds 1 2 3 4 5 6 7 8 9 10 --heldout

Runs ``run.py`` on both trees in pairs, one seed per pair and the same
seed on both sides, alternating which side runs first; both sides use the
benchmark code next to this file.  A pair whose two stamps differ in
seed, Python version or kernel backend is refused as not comparable (a
compiled kernel moves Q by about 5 % and GF(p) by about 27 %).  With
--heldout it then runs as many pairs again on HELDOUT_SEED, a seed that is
never used while a change is written, so that a claim can be rechecked on
input the change was not tuned on.

For every end-to-end metric it prints each side's median and quartiles,
how many pairs the change won, and a verdict: ``gain`` when there are at
least ten pairs, the change wins nine tenths of them and the medians
differ by more than the base's own quartile spread; ``regression`` when
the change's median is worse than the base's by more than the metric's
bound in BENCHMARK.json; ``unresolved`` when the base's spread is wider
than the bound; ``same`` otherwise.  Below the verdicts it prints each
side's measured pass time and the CPU speed it saw (speed.py), unscaled.
Both sides run for ``run_seconds`` of BENCHMARK.json.  Exits 1 on a
regression or a failed run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELDOUT_SEED = 90210
COMPARABLE = ("seed", "python", "backend", "workload", "seconds", "trace")


def run_once(src, workload, seed, scratch):
    record = os.path.join(scratch, f"{os.path.basename(os.path.dirname(src))}"
                                   f"-{workload}-{seed}-{len(os.listdir(scratch))}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0",
         "--src", src, "--record", record],
        capture_output=True, timeout=600)
    if proc.returncode != 0 or not os.path.exists(record):
        raise SystemExit(f"run failed on {src} seed {seed}:\n"
                         f"{proc.stdout.decode()[-2000:]}{proc.stderr.decode()[-2000:]}")
    with open(record, encoding="utf-8") as fh:
        return json.load(fh)


def run_pairs(args, seeds, scratch):
    pairs = []
    for i, seed in enumerate(seeds):
        sides = [("base", args.base), ("change", args.change)]
        if i % 2:
            sides.reverse()
        got = {name: run_once(src, args.workload, seed, scratch)
               for name, src in sides}
        a, b = got["base"]["stamp"], got["change"]["stamp"]
        diff = [k for k in COMPARABLE if a[k] != b[k]]
        if diff:
            raise SystemExit(f"not comparable, stamps differ in {diff}: {a} vs {b}")
        print(f"pair {i + 1}: seed {seed}  base {a['git_sha'][:10]}  "
              f"change {b['git_sha'][:10]}  backend {a['backend']}", flush=True)
        pairs.append(got)
    return pairs


def verdicts(pairs, metrics):
    rows = []
    for m in metrics:
        name, bound = m["name"], m["bound"]
        lower = m["better"] == "lower"
        base = [p["base"]["result"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["result"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        mb, mc = statistics.median(base), statistics.median(change)
        if len(base) >= 2:
            q1, _, q3 = statistics.quantiles(base, n=4)
        else:
            q1 = q3 = base[0]
        worse = (mc - mb) if lower else (mb - mc)
        if worse > bound * mb:
            verdict = "regression"
        elif len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(mc - mb) > q3 - q1:
            verdict = "gain"
        elif q3 - q1 > bound * mb:
            verdict = "unresolved"
        else:
            verdict = "same"
        rows.append((name, mb, q1, q3, mc, wins, len(pairs), verdict))
    return rows


def print_rows(title, rows):
    print(title)
    print(f"  {'metric':<20}{'base median':>13}{'base q1..q3':>22}"
          f"{'change median':>15}{'wins':>8}  verdict")
    for name, mb, q1, q3, mc, wins, n, verdict in rows:
        print(f"  {name:<20}{mb:>13.4f}{f'{q1:.4f}..{q3:.4f}':>22}{mc:>15.4f}"
              f"{f'{wins}/{n}':>8}  {verdict}")


def measured(record, key):
    """Median over a run's untraced passes of a per-pass figure."""
    return statistics.median(p[key] for p in record["passes"] if not p["traced"])


def print_measured(pairs):
    """Measured pass times and the CPU speed each side saw, so that a
    verdict on scaled times can be checked against the unscaled ones."""
    print(f"  {'as measured':<20}{'base median':>13}{'change median':>15}"
          f"{'change/base':>13}")
    for label, key in (("wall_s", "wall_raw_s"), ("cpu_speed", "speed")):
        base = statistics.median(measured(p["base"], key) for p in pairs)
        change = statistics.median(measured(p["change"], key) for p in pairs)
        print(f"  {label:<20}{base:>13.4f}{change:>15.4f}{change / base:>13.4f}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="src directory of the base tree")
    p.add_argument("--change", required=True, help="src directory of the changed tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--heldout", action="store_true",
                   help=f"also run as many pairs on the held-out seed {HELDOUT_SEED}")
    args = p.parse_args(argv)
    args.base, args.change = os.path.abspath(args.base), os.path.abspath(args.change)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if HELDOUT_SEED in args.seeds:
        raise SystemExit(f"seed {HELDOUT_SEED} is held out; do not tune on it")
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_tmp")) as scratch:
        pairs = run_pairs(args, args.seeds, scratch)
        rows = verdicts(pairs, bench["end_to_end"])
        print_rows(f"{args.workload}: seeds {args.seeds}", rows)
        print_measured(pairs)
        if args.heldout:
            pairs = run_pairs(args, [HELDOUT_SEED] * len(args.seeds), scratch)
            held = verdicts(pairs, bench["end_to_end"])
            print_rows(f"{args.workload}: held-out seed {HELDOUT_SEED}", held)
            print_measured(pairs)
            rows += held
    try:
        os.rmdir(os.path.join(ROOT, ".perfbench_tmp"))
    except OSError:
        pass  # another run still uses it
    return 1 if any(r[-1] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
