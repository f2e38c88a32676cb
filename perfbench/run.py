#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --workload all ...   (every workload in turn)
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles the library
from ../src) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
Each run then executes the benchmark binary in a fresh process with every
HADAR_* variable removed from its environment, so no stray knob changes what
is measured; the binary pins its own thread count per workload.

A traced run (--trace 1) also keeps its span file, round -> schedule ->
cell -> stage, under $CARGO_TARGET_DIR/perfbench/spans/.

The last line of stdout is one JSON object:
  {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. `correct` is false when any output check of
the binary fails, when a metric is missing, or when the schedule digest
differs from the one recorded for this workload and seed in
perfbench/digests.json (--record-digest rewrites that entry after an
intended schedule change).
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS_JSON = os.path.join(HERE, "digests.json")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found (run from a full checkout)")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no binary")
    return binary


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("HADAR_")}
    for k in sorted(set(os.environ) - set(env)):
        print("perfbench: ignoring %s from the environment" % k, file=sys.stderr)
    return env


def load_json(path):
    with open(path) as f:
        return json.load(f)


def stamp():
    """Identifies the code measured: git describe when available, and a
    hash over the library and benchmark sources (the checkout may not be a
    git repository)."""
    describe = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            describe = r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for fn in sorted(filenames):
                p = os.path.join(dirpath, fn)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return describe, h.hexdigest()[:16]


def run_binary(binary, args, work, keep=None):
    """Runs the binary in a work directory that is removed afterwards;
    `keep` = (path inside it, destination) saves one file first."""
    os.makedirs(work, exist_ok=True)
    try:
        r = subprocess.run([binary] + args + ["--work-dir", work], capture_output=True,
                           text=True, env=clean_env(), cwd=ROOT, timeout=RUN_TIMEOUT_S)
        if keep and os.path.isfile(os.path.join(work, keep[0])):
            os.makedirs(os.path.dirname(keep[1]), exist_ok=True)
            shutil.move(os.path.join(work, keep[0]), keep[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(r.stderr)
    return r


def selftest(binary, bench, work):
    ok = True
    r = run_binary(binary, ["--selftest"], work)
    sys.stdout.write(r.stdout)
    ok &= r.returncode == 0
    seen = set()
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in bench[group]:
            name = entry["name"]
            good = bool(NAME_RE.match(name)) and name not in seen
            if "unit" in entry:
                good &= bool(UNIT_RE.match(entry["unit"]))
            seen.add(name)
            print("%s metric name %s/%s" % ("PASS" if good else "FAIL", group, name))
            ok &= good
    print("selftest " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-digest", action="store_true")
    a = ap.parse_args()

    bench = load_json(BENCHMARK_JSON)
    binary = build()
    work = os.path.join(build_dir(), "work", str(os.getpid()))
    if a.selftest:
        return selftest(binary, bench, work)
    names = [w["name"] for w in bench["workloads"]]
    if a.workload != "all" and a.workload not in names:
        fail("unknown workload %r (choose from %s, or all)" % (a.workload, ", ".join(names)))
    describe, src_hash = stamp()
    for name in names if a.workload == "all" else [a.workload]:
        print("stamp: git=%s sources=%s workload=%s seed=%d seconds=%g trace=%d"
              % (describe, src_hash, name, a.seed, a.seconds, a.trace))
        run_workload(binary, bench, a, name, work)
    return 0


def run_workload(binary, bench, a, workload, work):
    """Runs one workload and prints its result as the last line."""
    spans = os.path.join(build_dir(), "spans", "%s-seed%d.json" % (workload, a.seed))
    r = run_binary(binary, ["--workload", workload, "--seed", str(a.seed),
                            "--seconds", repr(a.seconds), "--trace", str(a.trace)], work,
                   keep=(os.path.join(workload, "spans-%s.json" % workload), spans))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("benchmark binary exited with %d" % r.returncode)
    for line in lines[:-1]:
        print(line)
    if a.trace:
        print("spans: %s" % os.path.relpath(spans, ROOT))
    res = json.loads(lines[-1])

    correct = bool(res["correct"])
    # An untraced run folds one digest per trace, and the trace count scales
    # with --seconds; a traced run covers the first trace only.
    digests = load_json(DIGESTS_JSON)
    mode = "trace%d" % a.trace
    want = digests.get(workload, {}).get(mode, {}).get(str(a.seed))
    if not a.trace and a.seconds != bench["run_seconds"]:
        want = None
    if a.record_digest:
        # A traced run covers exactly the first trace of an untraced one.
        entry = digests.setdefault(workload, {})
        if a.trace or a.seconds == bench["run_seconds"]:
            entry.setdefault(mode, {})[str(a.seed)] = res["digest"]
        entry.setdefault("trace1", {})[str(a.seed)] = res["first_digest"]
        with open(DIGESTS_JSON, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")
    elif want is None:
        print("digest: %s (no recorded value for seed %d)" % (res["digest"], a.seed))
    elif want != res["digest"]:
        print("CHECK FAILED: schedule digest %s != recorded %s" % (res["digest"], want))
        correct = False
    else:
        print("digest: %s matches the recorded value" % res["digest"])

    wanted = bench["per_layer" if a.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            print("CHECK FAILED: metric %s missing" % m["name"])
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
