"""Self-test of the benchmark's tracer.

    python3 perfbench/selftest.py

Checks, on the lighter instances of each workload:

* after ``Tracer.install`` no loaded cyfold module still binds a wrapped
  function under another name;
* no wrapped function is entered except through its wrapper (a profiler
  hook watches every call);
* call counts and the deterministic counters (rref cells and nonzeros,
  summands, cache lookups) repeat exactly when the same seed runs twice,
  in process and through the traced ``cyfold`` command;
* a negative control: an alias left unwrapped on purpose is reported by
  both checks, so the checks can fail.

Prints one line per check and exits 1 if any fails.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import ReachCheck, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5
# the instances that take most of a pass; the rest exercise the same paths
HEAVY = {"gorenstein_quasi_veronese", "sigma_power_10"}

failures = []


def check(what, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {what}" + (f"  {detail}" if detail else ""))
    if not ok:
        failures.append(what)


def traced_run(workload, scratch, reach):
    tracer = Tracer()
    tracer.install()
    try:
        aliases = tracer.unwrapped_aliases()
        instances = [(n, f) for n, f in WORKLOADS[workload](
            SEED, {"src": None, "scratch": scratch}) if n not in HEAVY]
        tracer.reset()
        watch = ReachCheck(tracer) if reach else contextlib.nullcontext()
        with watch:
            for _, fn in instances:
                fn()
    finally:
        tracer.uninstall()
    calls = {k: v[0] for k, v in tracer.spans.items()}
    return aliases, (watch.misses if reach else {}), calls, dict(tracer.counts)


def negative_control():
    """An alias bound after install must show up in both checks."""
    from cyfold import exactlin

    tracer = Tracer()
    tracer.install()
    alias = types.ModuleType("cyfold.perfbench_alias")
    alias.rref = exactlin.rref.__wrapped__
    sys.modules[alias.__name__] = alias
    try:
        listed = "cyfold.perfbench_alias.rref" in tracer.unwrapped_aliases()
        with ReachCheck(tracer) as watch:
            alias.rref(exactlin.Matrix.identity(2))
            exactlin.rref(exactlin.Matrix.identity(2))
        caught = watch.misses == {"exactlin.py:rref": 1}
    finally:
        del sys.modules[alias.__name__]
        tracer.uninstall()
    check("negative control: unwrapped alias is listed", listed)
    check("negative control: call through the alias is caught", caught,
          json.dumps(watch.misses))


def traced_command(src, scratch, argv, env):
    out = os.path.join(scratch, "trace.json")
    env = dict(os.environ, PYTHONPATH=src, PERFBENCH_TRACE_OUT=out, **env)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "traced_cli.py")] + argv,
                          capture_output=True, env=env, timeout=120)
    with open(out, encoding="utf-8") as fh:
        snap = json.load(fh)
    return proc.returncode, {k: v[0] for k, v in snap["spans"].items()}, snap["counts"]


def cli_determinism(src, scratch):
    runs = []
    for i in range(2):
        work = os.path.join(scratch, f"cli{i}")
        env = {"CYFOLD_CACHE": os.path.join(work, "cache")}
        code, _, _ = traced_command(src, scratch, [
            "--out-dir", work, "gen", "kronecker"], env)
        pair = ["--algebra", os.path.join(work, "kronecker_algebra.json"),
                "--bimodule", os.path.join(work, "kronecker_bimodule.json")]
        cmd = ["--out-dir", work, "complete"] + pair + ["--adams-max", "4", "--e", "0"]
        cold = traced_command(src, scratch, cmd, env)
        warm = traced_command(src, scratch, cmd, env)
        runs.append((code, cold, warm))
    (gen0, cold0, warm0), (gen1, cold1, warm1) = runs
    check("cli: traced commands exit 0",
          (gen0, cold0[0], warm0[0], gen1, cold1[0], warm1[0]) == (0,) * 6)
    check("cli: cache lookups/hits are 1/0 cold and 1/1 warm",
          (cold0[1].get("cli.cache_get"), cold0[2].get("cli.cache.hits", 0),
           warm0[1].get("cli.cache_get"), warm0[2].get("cli.cache.hits", 0))
          == (1, 0, 1, 1))
    check("cli: call and counter counts repeat", cold0[1:] == cold1[1:]
          and warm0[1:] == warm1[1:])


def main():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cyfold", "__init__.py")):
        print(f"selftest: no cyfold package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        negative_control()
        for workload in ("completion", "complexes", "transport"):
            # the profiler hook slows transport's long transport instance
            # tenfold; its aliases are still checked statically
            a1, misses, calls1, counts1 = traced_run(
                workload, scratch, reach=workload != "transport")
            a2, _, calls2, counts2 = traced_run(workload, scratch, reach=False)
            check(f"{workload}: no unwrapped aliases", not a1 and not a2, str(a1))
            if workload != "transport":
                check(f"{workload}: every wrapped call went through its wrapper",
                      not misses, json.dumps(misses))
            check(f"{workload}: call counts repeat", calls1 == calls2)
            check(f"{workload}: counters repeat", counts1 == counts2,
                  f"rref cells {counts1.get('exactlin.rref.cells')}, "
                  f"nnz {counts1.get('exactlin.rref.nnz')}")
        cli_determinism(src, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still uses it
    print("selftest:", "FAILED " + ", ".join(failures) if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
