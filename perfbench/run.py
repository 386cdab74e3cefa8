#!/usr/bin/env python3
"""Builds and runs the layer-attributed benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <train|serve> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the satd library from
src/ plus the benchmark binary) into .bench_build/cmake/, or under
$CARGO_TARGET_DIR when that is set; later calls only re-check the build.
The binary's output is passed through; its last line is the result JSON
{"correct", "attempted", "failed", "metrics"}.

On top of the binary's own checks, this runner compares the run's
deterministic outputs (the BIM(10) accuracy, the gauntlet CSV row and the
job outputs) with any earlier run of the same build at the same workload
and seed, and marks the run incorrect when they differ by a single byte
or when the printed metrics are not exactly those BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(target):
    out = os.path.join(build_dir(), "cmake")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, target)


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def read_digests(path):
    digests = {}
    with open(path) as f:
        for line in f:
            key, _, value = line.rstrip("\n").partition("\t")
            digests[key] = value
    return digests


def compare_digests(exe, workload, seed, digests):
    """Compares this run's digests with an earlier run of this build at
    the same workload and seed, or records them when there is none.
    Returns (compared, names whose bytes differ)."""
    store = os.path.join(build_dir(), "digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-%s-%d.json" % (file_digest(exe), workload,
                                                  seed))
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        return True, sorted(k for k in set(earlier) | set(digests)
                            if earlier.get(k) != digests.get(k))
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(digests, f)
    os.replace(tmp, path)
    return False, []


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["train", "serve"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="build and run the statistics self-tests")
    args = p.parse_args()

    if args.self_test:
        exe = build("perfbench_selftest")
        return 1 if exe is None else subprocess.run([exe]).returncode
    if args.workload is None:
        p.error("--workload is required")

    exe = build("perfbench")
    if exe is None:
        return 1
    work = build_dir()
    digest_file = os.path.join(work, "digests-%d.txt" % os.getpid())
    trace_dir = os.path.join(work, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digest-out", digest_file,
           "--trace-out", os.path.join(trace_dir, "%s-seed%d.json" %
                                       (args.workload, args.seed)),
           "--tmp-root", os.path.join(work, "tmp")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print("perfbench: run failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1

    result = json.loads(lines[-1])
    try:
        digests = read_digests(digest_file)
    finally:
        if os.path.exists(digest_file):
            os.remove(digest_file)
    compared, differing = compare_digests(exe, args.workload, args.seed,
                                          digests)
    lines.insert(-1, "digests %s" % (
        "compared with an earlier run at this seed: %d of %d differ" %
        (len(differing), len(digests)) if compared else
        "recorded: first run of this build at this seed"))
    failures = ["%s differs from an earlier run at seed %d" % (name, args.seed)
                for name in differing]
    declared, printed = declared_metrics(args.trace), set(result["metrics"])
    if declared != printed:
        failures.append("metrics differ from BENCHMARK.json: missing %s, "
                        "undeclared %s" % (sorted(declared - printed),
                                           sorted(printed - declared)))
    for failure in failures:
        lines.insert(-1, "check FAILED: " + failure)
        result["correct"] = False
        result["attempted"] += 1
        result["failed"] += 1
    lines[-1] = json.dumps(result)
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
