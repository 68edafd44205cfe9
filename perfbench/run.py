#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the DoPE libraries and the dope_perfbench program
from source (release configuration, assertions stripped) into
.bench_build/perfbench, runs one workload, and prints its output:
a fingerprint line, then the result as the last line of standard output.

dope_perfbench prints the metrics a workload measured as bare numbers;
this script completes the result from BENCHMARK.json, the one list of
metric names and units. A metric of the run's kind (end-to-end for
--trace 0, per-layer for --trace 1) that the workload does not exercise
reads 0, and a name BENCHMARK.json does not list is an error.

--smoke runs every workload named in BENCHMARK.json briefly in both modes
and fails if a run is incorrect, an end-to-end metric is missing from a
workload, or a per-layer metric is measured by no workload.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "dope_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then rebuilds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no DoPE sources at %s/src; run from a checkout of the repository" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)


def source_id():
    """The git commit when there is one, else a hash of the sources built."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, check=True)
        top, sha = out.stdout.split()
        # A checkout nested in some other repository is not that commit.
        if os.path.realpath(top) == os.path.realpath(ROOT):
            return "git-" + sha
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(spec, workload, seed, seconds, trace, source):
    """Runs dope_perfbench once.

    Returns (exit code, output lines before the result, the metric names the
    workload measured, the completed result line); the result line is None
    when the program printed no result or reported a metric that
    BENCHMARK.json does not list for this kind of run.
    """
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--source", source],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        raw = json.loads(lines[-1])
        measured = raw["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        print("perfbench: %s printed no result" % workload, file=sys.stderr)
        return proc.returncode, lines, set(), None
    named = spec["per_layer" if trace else "end_to_end"]
    unknown = sorted(set(measured) - {m["name"] for m in named})
    if unknown:
        print("perfbench: %s reported metrics not listed in BENCHMARK.json: %s"
              % (workload, ", ".join(unknown)), file=sys.stderr)
        return proc.returncode, lines[:-1], set(measured), None
    raw["metrics"] = {m["name"]: {"value": measured.get(m["name"], 0),
                                  "unit": m["unit"]} for m in named}
    return proc.returncode, lines[:-1], set(measured), json.dumps(raw)


def smoke():
    spec = load_spec()
    source = source_id()
    problems = []
    measured_anywhere = set()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            before = len(problems)
            code, _, measured, result = run_workload(spec, workload, 1, 1, trace,
                                                     source)
            where = "%s --trace %d" % (workload, trace)
            if result is None:
                problems.append("%s: no valid result line (exit %d)" % (where, code))
                continue
            if not json.loads(result).get("correct") or code != 0:
                problems.append("%s: incorrect (exit %d)" % (where, code))
            if trace:
                measured_anywhere |= measured
            else:
                for m in spec["end_to_end"]:
                    if m["name"] not in measured:
                        problems.append("%s: metric %s missing" % (where, m["name"]))
            print("smoke %-28s %s" % (where, "ok" if len(problems) == before else "FAIL"),
                  file=sys.stderr)
    for m in spec["per_layer"]:
        if m["name"] not in measured_anywhere:
            problems.append("per-layer metric %s is measured by no workload" % m["name"])
    for problem in problems:
        print("perfbench smoke: " + problem, file=sys.stderr)
    print(json.dumps({"smoke": "fail" if problems else "ok",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check its metrics")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    if args.smoke:
        return smoke()

    code, lines, _, result = run_workload(load_spec(), args.workload, args.seed,
                                          args.seconds, args.trace, source_id())
    for line in lines:
        print(line)
    if result is None:
        return code or 1
    print(result)
    return code


if __name__ == "__main__":
    sys.exit(main())
