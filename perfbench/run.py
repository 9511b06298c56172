#!/usr/bin/env python3
"""Builds and runs the SQLGraph benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gremlin_paged --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt (Release) into
$CARGO_TARGET_DIR, or .bench_build when unset. For the Gremlin workloads it
then runs the oracle (baseline interpreter) in its own process, so the
oracle's time and memory stay out of the measured processes. An untraced run
then starts PARTS measured processes one after another; each sets up its own
store and measures for --seconds / PARTS, and every metric is the median
over them. A traced run is one process. The last line of stdout is the
result JSON object; the exit code is 0 only when every answer and check was
right.

--selftest plants a wrong expected count and a forced non-OK LinkBench
status, and passes only if each planted fault makes a run fail while the
same runs without the plant succeed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("gremlin_paged", "linkbench_mix")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Time allowed for the oracle and the measured process together, counted
# from the end of the build. The measured process caps its own phases (see
# kPhaseCapFactor in linkbench_workload.cc), so a slow program still reports.
RUN_BUDGET_S = 170
# Measured processes per untraced run. A process's speed is one draw: six
# fresh processes of one linkbench_mix seed ran 51k-67k ops/s. The median of
# five draws moves far less, and five set-ups give setup_s its median too.
PARTS = 5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: the SQLGraph sources (src/) are not in this checkout")
        return None
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", out, "--target", "sqlgraph_perfbench",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("error: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "sqlgraph_perfbench")


def source_identity():
    """(git SHA or "none", sha256 over the sources that make the binary)."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()


def run(binary, workload, seed, seconds, trace, plant=None,
        corrupt_expected=False):
    """One benchmark invocation. Returns (exit code, stdout lines)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(build_dir(), "runs")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--work-dir", work]
    expected = None
    if workload != "linkbench_mix":
        expected = os.path.join(work, "expected-%s-%d.tsv" % (workload, seed))
        try:
            proc = subprocess.run([binary, "--mode", "oracle", "--workload",
                                   workload, "--seed", str(seed), "--expected",
                                   expected],
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            log("error: the oracle exceeded the run's %d s" % RUN_BUDGET_S)
            return 1, []
        if proc.returncode != 0:
            log("error: oracle failed")
            return 1, []
        log(proc.stdout.strip())
        if corrupt_expected:
            with open(expected) as f:
                lines = f.readlines()
            shape, count, text = lines[0].split("\t", 2)
            lines[0] = "%s\t%d\t%s" % (shape, int(count) + 1, text)
            with open(expected, "w") as f:
                f.writelines(lines)
        cmd += ["--expected", expected]
    if plant:
        cmd += ["--plant", plant]
    sha, digest = source_identity()
    cmd += ["--git-sha", sha, "--source-digest", digest]
    # A traced run measures an untraced and a traced phase, each half of
    # --seconds.
    parts, part_seconds = (1, seconds / 2) if trace else (PARTS, seconds / PARTS)
    code, lines, results = 0, [], []
    try:
        for part in range(parts):
            # Only the last part closes, reopens and re-reads the store.
            last = "1" if part == parts - 1 else "0"
            part_code, out = run_part(cmd + ["--seconds", str(part_seconds),
                                             "--check-recovery", last,
                                             "--part", str(part),
                                             "--parts", str(parts)],
                                      deadline)
            part_lines = out.splitlines()
            res = result_of(part_lines)
            lines += ["part %d: %s" % (part, line) for line in part_lines]
            code = code or part_code
            if res is None:
                return code or 1, lines
            results.append(res)
    finally:
        if expected and os.path.exists(expected):
            os.remove(expected)
    return code, lines + [json.dumps(combine(results))]


def run_part(cmd, deadline):
    """One measured process. Returns (exit code, stdout)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1, deadline - time.monotonic()))
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        log("error: run exceeded %d s" % RUN_BUDGET_S)
        out = e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        return 1, out


def combine(results):
    """The run's result: each metric's median over the parts, which with an
    odd number of parts is one part's value as measured."""
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": metric["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def selftest(binary):
    cases = [
        ("control: gremlin_paged", "gremlin_paged", None, False, True),
        ("planted wrong expected count", "gremlin_paged", None, True, False),
        ("control: linkbench_mix", "linkbench_mix", None, False, True),
        ("planted non-OK op status", "linkbench_mix", "status", False, False),
    ]
    ok = True
    for label, workload, plant, corrupt, should_pass in cases:
        code, lines = run(binary, workload, 1, 2, False, plant=plant,
                          corrupt_expected=corrupt)
        res = result_of(lines)
        passed = code == 0 and res is not None and res["correct"]
        caught = code != 0 and (res is None or (not res["correct"]
                                                and res["failed"] >= 1))
        good = passed if should_pass else caught
        ok = ok and good
        print("%-34s exit=%d correct=%s failed=%s -> %s" % (
            label, code, res and res["correct"], res and res["failed"],
            "ok" if good else "WRONG"))
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.selftest:
        return selftest(binary)
    code, lines = run(binary, args.workload, args.seed, args.seconds,
                      args.trace == 1)
    for line in lines:
        print(line)
    if code == 0 and result_of(lines) is None:
        log("error: the run printed no result line")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
