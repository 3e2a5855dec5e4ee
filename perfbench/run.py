"""The cyfold benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload completion --seed 1 --trace 0

A run first times the workload's set-up (imports and preset construction)
in SETUP_PROBES fresh interpreters, then runs passes over the workload's
instances -- one client, one instance after another -- while the next
pass, taking as long as the slowest so far, would end within --seconds
(default: ``run_seconds`` in BENCHMARK.json).
Every instance checks its verdict against a known answer (workloads.py);
a wrong verdict, an exception or an unexpected exit code counts as
failed, and the run then exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, taken with
tracing off: medians over the passes of the run, with times scaled to the
reference CPU speed (speed.py).  With --trace 1 the run alternates
untraced and traced passes, and the metrics are the per-layer ones
(tracer.py).  Lines before it are for people: the stamp (seed, git SHA,
Python, nproc, kernel backend) and the figures with units, measured times
included.  --record FILE also writes all of it as JSON, for compare.py.

The package measured is the one under --src (default: src/ next to this
directory); the run stops with exit code 2 and no result if it is absent.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
END_TO_END = ("setup_s", "pass_s", "slowest_instance_s", "peak_rss_mb")
UNITS = {"setup_s": "s", "pass_s": "s", "slowest_instance_s": "s",
         "peak_rss_mb": "MB"}


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the cyfold package to measure")
    p.add_argument("--record", default=None,
                   help="write stamp, metrics and per-pass samples as JSON here")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_sha(path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", path, "rev-parse", "HEAD"],
                             capture_output=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.decode().strip() if out.returncode == 0 else "unknown"


def stamp(args, src):
    from cyfold import _kernels

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(src),
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "backend": _kernels.BACKEND}


def setup_child(args, src):
    """Child side of a set-up probe: set up, say so, exit."""
    scratch = os.path.join(ROOT, ".perfbench_tmp", f"probe-{os.getpid()}")
    os.makedirs(scratch)
    try:
        WORKLOADS[args.workload](args.seed, {"src": src, "scratch": scratch})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("ready", flush=True)
    return 0


def setup_seconds(args, src, probe):
    """Median time from starting a fresh interpreter to the end of the
    workload's set-up, over SETUP_PROBES interpreters: at the reference
    CPU speed, and as measured."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload",
           args.workload, "--seed", str(args.seed), "--src", src]
    spans = []
    start = time.perf_counter()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        line = proc.stdout.readline()
        spans.append((t0, time.perf_counter()))
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up failed: {err.decode(errors='replace')}")
    outer = (start, time.perf_counter())
    return (statistics.median(probe.scaled(a, b, outer=outer) for a, b in spans),
            statistics.median(b - a for a, b in spans))


def run_pass(build, seed, ctx, tracer):
    """Build fresh inputs (untimed), then time each instance in order.
    Returns the clock readings; ``scale`` turns them into durations."""
    gc.collect()
    if tracer:
        tracer.install()
    instances = build(seed, ctx)
    setup_spans = dict(tracer.spans) if tracer else {}
    if tracer:
        tracer.reset()
    stamps, errors = [], []
    t_pass = time.perf_counter()
    for name, fn in instances:
        t0 = time.perf_counter()
        try:
            fn()
        except Exception:  # count it and keep measuring the other instances
            errors.append(f"{name}: {traceback.format_exc()}")
        stamps.append((name, t0, time.perf_counter()))
    t_end = time.perf_counter()
    if tracer:
        tracer.uninstall()
    return {"t": (t_pass, t_end), "stamps": stamps, "wall_raw_s": t_end - t_pass,
            "errors": errors, "setup_spans": setup_spans}


def scale(p, probe):
    """Pass and instance times in seconds at the reference CPU speed."""
    p["pass_s"] = probe.scaled(*p["t"])
    p["instances"] = [(n, probe.scaled(a, b, outer=p["t"])) for n, a, b in p["stamps"]]
    p["instances_raw"] = [(n, b - a) for n, a, b in p["stamps"]]
    p["speed"] = probe.speed(*p["t"])


def tail(values):
    """The highest percentile with at least ten samples beyond it, with
    that percentile; the maximum when that percentile would not be above
    the median (fewer than 22 samples)."""
    v = sorted(values)
    k = len(v) - 11
    if k < len(v) // 2:
        k = len(v) - 1
    return v[k], 100.0 * (k + 1) / len(v)


def cli_figures(passes, workload):
    """Per-command latencies of the cli workload, fresh process included,
    as measured (not scaled to the reference speed)."""
    if workload != "cli":
        return {}
    samples = [(n, s) for p in passes for n, s in p["instances_raw"]]
    by = {}
    for n, s in samples:
        by.setdefault(n, []).append(s)
    cmd_tail, pct = tail([s for _, s in samples])
    return {"cli.cmd_s.p50": statistics.median(s for _, s in samples),
            "cli.cmd_s.tail": cmd_tail, "cli.cmd_s.tail_pct": pct,
            "cli.cmd_s.samples": len(samples),
            "cli.complete.cold_s": statistics.median(by["complete_cold_Q"]),
            "cli.complete.warm_s": statistics.median(by["complete_warm_Q"]),
            "cli.complete.gfp_s": statistics.median(by["complete_cold_p"])}


def end_to_end(passes, setup_s, workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "slowest_instance_s": statistics.median(
            max(s for _, s in p["instances"]) for p in passes),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def per_layer(untraced, traced, workload):
    rows = []
    for p in traced:
        row = layer_metrics(p["spans"], p["counts"], p["counting_s"], p["wall_raw_s"])
        row["quiveralg.build_algebra.setup_s"] = p["setup_spans"].get(
            "quiveralg.build_algebra", [0, 0.0, 0.0])[2]
        row["cli.import_s"] = (statistics.median(p["import_s"])
                               if p["import_s"] else 0.0)
        rows.append(row)
    # counts repeat from pass to pass; times are medians over the passes
    out = {k: rows[0][k] if _unit(k) == "count" else statistics.median(r[k] for r in rows)
           for k in rows[0]}
    cli = cli_figures(untraced, workload)
    for k in ("cli.cmd_s.p50", "cli.cmd_s.tail", "cli.complete.cold_s",
              "cli.complete.warm_s", "cli.complete.gfp_s"):
        out[k] = cli.get(k, 0.0)
    out["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                               - statistics.median(p["pass_s"] for p in untraced))
    return out


def measure(args, src, scratch):
    build = WORKLOADS[args.workload]
    info = stamp(args, src)
    print("stamp:", json.dumps(info, sort_keys=True), flush=True)
    probe = SpeedProbe()
    probe.start()
    setup_s, setup_raw_s = setup_seconds(args, src, probe)
    tracer = Tracer() if args.trace else None
    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        ctx = {"src": src, "scratch": scratch}
        if traced:
            ctx["child"] = os.path.join(HERE, "traced_cli.py")
            ctx["trace_dir"] = os.path.join(scratch, f"trace-{len(passes)}")
            os.makedirs(ctx["trace_dir"])
        p = run_pass(build, args.seed, ctx, tracer if traced else None)
        p["traced"] = traced
        if traced:
            p["import_s"] = []
            for fname in sorted(os.listdir(ctx["trace_dir"])):
                with open(os.path.join(ctx["trace_dir"], fname), encoding="utf-8") as fh:
                    snap = json.load(fh)
                tracer.merge(snap)
                p["import_s"].append(snap["import_s"])
            p.update(tracer.snapshot())
            tracer.reset()
        passes.append(p)
        if p["errors"]:
            break
        # stop when the next pass, taking as long as the slowest so far,
        # would end after the deadline; a traced run needs one of each kind
        longest = max(q["wall_raw_s"] for q in passes)
        if (time.perf_counter() + longest > deadline
                and (not args.trace or len(passes) >= 2)):
            break
    probe.stop()
    for p in passes:
        scale(p, probe)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    errors = [e for p in passes for e in p["errors"]]
    attempted = sum(len(p["instances"]) for p in passes)
    for e in errors:
        print(f"FAILED {e}", file=sys.stderr)
    figures = end_to_end(untraced, setup_s, args.workload)
    figures["setup_raw_s"] = setup_raw_s
    figures.update(cli_figures(untraced, args.workload))
    if traced and not errors:
        metrics = per_layer(untraced, traced, args.workload)
        units = {k: _unit(k) for k in metrics}
    else:
        metrics = {k: figures[k] for k in END_TO_END}
        units = UNITS
    report(args, passes, figures, metrics if args.trace else {}, len(errors),
           attempted)
    result = {"correct": not errors, "attempted": attempted, "failed": len(errors),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"stamp": info, "result": result, "figures": figures,
                       "passes": [{k: p[k] for k in ("traced", "pass_s", "wall_raw_s",
                                                     "speed", "instances", "instances_raw")}
                                  for p in passes]}, fh, indent=1)
    print(json.dumps(result, sort_keys=True))
    return 0 if not errors else 1


def _unit(name):
    if name.endswith("_s") or name.endswith(".tail") or name.endswith(".p50"):
        return "s"
    if name.endswith("_ratio") or name.endswith(".share"):
        return "ratio"
    return "count"


def report(args, passes, figures, layer, failed, attempted):
    untraced = [p for p in passes if not p["traced"]]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{len(untraced)} untraced + {len(passes) - len(untraced)} traced passes  "
          f"{len(passes[0]['instances'])} instances/pass")
    slow = max(untraced[0]["instances"], key=lambda x: x[1])[0]
    notes = {"setup_s": f"median of {SETUP_PROBES} fresh-interpreter set-ups, at reference speed",
             "pass_s": f"median of {len(untraced)} passes, at reference speed",
             "slowest_instance_s": f"median over passes, at reference speed; {slow}",
             "peak_rss_mb": "peak resident set"
             + (" of any command" if args.workload == "cli" else "")}
    for k in END_TO_END:
        print(f"  {k:<22}{figures[k]:>11.4f} {UNITS[k]:<3} {notes[k]}")
    print(f"  {'wall_s':<22}{statistics.median(p['wall_raw_s'] for p in untraced):>11.4f}"
          f" s   median of the measured pass times")
    print(f"  {'setup_wall_s':<22}{figures['setup_raw_s']:>11.4f}"
          f" s   median of the measured set-up times")
    print(f"  {'cpu_speed':<22}{statistics.median(p['speed'] for p in untraced):>11.4f}"
          f"     median over passes, relative to the reference speed")
    if "cli.cmd_s.p50" in figures:
        print(f"  {'cmd_s.p50':<22}{figures['cli.cmd_s.p50']:>11.4f} s   "
              f"over {figures['cli.cmd_s.samples']} commands")
        print(f"  {'cmd_s.tail':<22}{figures['cli.cmd_s.tail']:>11.4f} s   "
              f"p{figures['cli.cmd_s.tail_pct']:.0f} of "
              f"{figures['cli.cmd_s.samples']} commands")
        for k in ("cold_s", "warm_s", "gfp_s"):
            print(f"  {'complete_' + k:<22}{figures['cli.complete.' + k]:>11.4f} s")
    print(f"  {'failed_frac':<22}{failed / attempted:>11.4f}     "
          f"{failed} of {attempted} instances")
    for k, v in sorted(layer.items()):
        print(f"  {k:<42}{v:>14.4f} {_unit(k)}")


def main(argv=None):
    args = parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "cyfold", "__init__.py")):
        print(f"perfbench: no cyfold package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.probe:
        return setup_child(args, src)
    scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch)
    try:
        return measure(args, src, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
