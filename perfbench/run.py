#!/usr/bin/env python3
"""Builds and runs the dblind benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The program and the benchmark binary are
built from source under .bench_build/perfbench (optimised; the build is
refused otherwise), reports go to .bench_build/perfbench/reports/ or --out,
and nothing in the source tree is written. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shlex
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REPORTS = os.path.join(BUILD, "reports")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170  # one run; the benchmark's own bound is --seconds plus one batch
# Runnable by name and covered by --smoke and --workload all, but not one of
# BENCHMARK.json's gated workloads: with every server on its own thread it
# needs the whole 4-core host, and its timings spread 27-33% over ten runs
# there, more than any bound allows.
EXTRA_WORKLOADS = ["ec255-threaded-client"]


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"program sources not found under {os.path.join(ROOT, 'src')}", 2)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"])
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        for cmd in steps:
            log.write("$ " + shlex.join(cmd) + "\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                die(f"build failed: {shlex.join(cmd)} (log: {log.name})")


def opt_level(args):
    """The -O level the compiler applies: the last -O flag, or None."""
    level = None
    for a in args:
        if re.fullmatch(r"-O([0-9sgz]|fast)?", a):
            level = a
    return level


def provenance():
    """Host, compiler, sources and the effective flags of this build.

    The flags come from the build's compile_commands.json, which records what
    the compiler was really given; a build type recorded elsewhere can
    disagree with it. Refuses (exit 3) when any source of the program or the
    benchmark was compiled without optimisation.
    """
    with open(os.path.join(BUILD, "compile_commands.json")) as f:
        entries = json.load(f)
    flags = {}
    unoptimised = []
    compiler = None
    for e in entries:
        args = e.get("arguments") or shlex.split(e["command"])
        compiler = compiler or args[0]
        level = opt_level(args)
        if level in (None, "-O0", "-Og"):
            unoptimised.append(os.path.relpath(e["file"], ROOT))
        kept, skip = [], False
        for a in args[1:]:
            if skip:
                skip = False
            elif a in ("-o", "-c", "-I", "-isystem"):
                skip = a != "-c"
            elif not (a.startswith("-I") or a == e["file"]):
                kept.append(a)
        flags[" ".join(kept)] = flags.get(" ".join(kept), 0) + 1
    if unoptimised:
        die("refusing to report from a build without optimisation: " +
            ", ".join(sorted(unoptimised)[:5]), 3)
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True).stdout
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "compiler": compiler,
        "compiler_version": version.splitlines()[0] if version else "",
        "commit": commit,
        "sources_sha256": sources_digest(),
        "compile_flags": flags,  # distinct flag sets -> number of sources
    }


def sources_digest():
    """SHA-256 over every file of src/ and perfbench/, by relative path."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def run_one(workload, seed, seconds, trace, smoke=False, inject_fault=False, quiet=False):
    """Runs the benchmark binary once; returns (result, notes) or exits on failure."""
    os.makedirs(REPORTS, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if inject_fault:
        cmd.append("--inject-fault")
    if trace:
        cmd += ["--spans", os.path.join(REPORTS, tag + ".spans.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{workload}: perfbench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die(f"{workload}: perfbench's last line is not JSON")
    notes = lines[:-1]
    if not quiet:
        for line in notes:
            print(line)
    return result, notes


def write_report(path, record):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")


def all_workloads(spec):
    return [x["name"] for x in spec["workloads"]] + EXTRA_WORKLOADS


def smoke(spec, seconds):
    """Short runs of every workload on toy parameters.

    Checks that each run prints exactly the metrics BENCHMARK.json names for
    its mode, with the units it gives, that no transfer fails, and that the
    correctness checks run: a run told to corrupt one expected plaintext
    must come back with correct=false.
    """
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in all_workloads(spec):
        for trace, want in ((False, e2e), (True, per_layer)):
            result, _ = run_one(w, 1, seconds, trace, smoke=True, quiet=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            mode = f"{w} --trace {int(trace)}"
            for name in sorted(set(got) - set(want)):
                problems.append(f"{mode}: prints {name}, which BENCHMARK.json does not name")
            for name in sorted(set(want) - set(got)):
                problems.append(f"{mode}: does not print {name}")
            for name in sorted(set(got) & set(want)):
                if got[name] != want[name]:
                    problems.append(f"{mode}: {name} in {got[name]}, BENCHMARK.json says "
                                    f"{want[name]}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{mode}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            print(f"smoke {mode}: {len(got)} metrics, {result['attempted']} transfers")
        faulty, _ = run_one(w, 1, seconds, False, smoke=True, inject_fault=True, quiet=True)
        if faulty["correct"]:
            problems.append(f"{w}: a corrupted expected plaintext went unnoticed")
        else:
            print(f"smoke {w}: the correctness check catches a corrupted plaintext")
    for p in problems:
        print("SMOKE FAILURE: " + p)
    ok = not problems
    print(json.dumps({"correct": ok, "attempted": 1, "failed": 0 if ok else 1, "metrics": {}}))
    return 0 if ok else 1


def run_all(spec, seed, seconds):
    """Every workload, untraced and traced, in one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for w in all_workloads(spec):
        for trace in (False, True):
            print(f"== {w} --trace {int(trace)}")
            result, _ = run_one(w, seed, seconds, trace)
            for name, m in sorted(result["metrics"].items()):
                print(f"  {name:48s} {m['value']:>16.6g} {units.get(name, m['unit'])}")
            print(f"  attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{w}/{name}"] = m
    return combined


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="short runs of every workload on toy parameters, with checks")
    parser.add_argument("--out", help="report path (default: under the build directory)")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload or --smoke is required")

    build()
    prov = provenance()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    started = time.time()
    if args.smoke:
        return smoke(spec, args.seconds if args.seconds is not None else 2)
    if args.workload == "all":
        result = run_all(spec, args.seed, seconds)
        notes = []
        name = f"all-seed{args.seed}"
    else:
        result, notes = run_one(args.workload, args.seed, seconds, args.trace == "1")
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = args.out or os.path.join(REPORTS, name + ".json")
    write_report(out, {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace == "1",
        "wall_s": time.time() - started,
        "notes": notes,
        "provenance": prov,
        "result": result,
    })
    print(f"report written to {os.path.relpath(out, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
