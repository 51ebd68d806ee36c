#!/usr/bin/env python3
"""Bench regression gate for the verification fast path (PR 3).

Runs the deterministic verification benchmarks (bench_fig4_full's
"blind-verify" and "e2e" BENCHJSON rows, plus the multi-exp microbenchmarks
from bench_primitives), records everything in BENCH_pr3.json at the repo
root, and FAILS (exit 1) when batched verification stops beating serial
verification.

The primary gate is Montgomery-multiplication counts, not wall-clock:
mont-muls are identical across machines for a deterministic run, so the gate
cannot flake on a loaded CI box. Gates enforced:

  1. every blind-verify row: batch_mont_muls < serial_mont_muls
     (batch must never be slower on the verification-dominated column);
  2. at least one blind-verify row reaches >= 2.0x fewer mont-muls
     (the PR 3 acceptance bar);
  3. every e2e row: batch_mont_muls <= serial_mont_muls
     (the fast path must not regress the whole protocol);
  4. the obs-overhead row (PR 4): an instrumented run (JSONL trace +
     metrics registry) must report mont-mul and message counts identical
     to the plain run — the observability layer is a pure observer.

The PR 4 observability report (obs-overhead plus the per-phase latency
breakdown from the instrumented run's registry) is additionally written to
BENCH_pr4.json next to BENCH_pr3.json.

PR 5 gates (offline/online split), written to BENCH_pr5.json:

  5. pool: warm-pool online mont-muls must be >= 3.0x lower than the cold
     (no-pool) run for the same seed and transfer count — the offline phase
     genuinely moved the dual encryption + VDE announcements off the
     latency-critical path;
  6. pool: identical_results == 1 — pool-on and pool-off runs produce
     bit-identical result ciphertexts (the pool may change WHEN work runs,
     never WHAT randomness it consumes);
  7. fixed-base: comb-table exponentiation uses >= 2.0x fewer mont-muls
     than the generic square-and-multiply path for a pinned base;
  8. throughput: the pipelined run completes with integrity == 1
     (transfers/sec is recorded for context, wall-clock, never gated).

PR 7 gates (epochal reconfiguration), written to BENCH_pr7.json:

  9.  reconfig: the rotation run installs epoch 1 (installed == 1) and every
      transfer — including those aborted at the epoch boundary and re-run —
      decrypts to its original plaintext (integrity == 1);
  10. reconfig: post-rotation steady-state mont-muls/transfer within 5% of
      the no-rotation baseline for the same seed — the install's cache
      invalidation cascade (pinned comb tables, contribution pool, offline
      prng) must re-arm completely rather than leak per-transfer cost into
      the new epoch. The rotation window itself (re-share round + discarded
      in-flight work) is recorded for context, never gated.

PR 8 gates (concurrent multi-transfer engine), written to BENCH_pr8.json
from bench_load's open-loop workload:

  11. load_saturation: saturated virtual-time throughput of the concurrent
      engine (unlimited admission + cross-transfer batch drain + verify
      workers) must be >= 5.0x the sequential baseline
      (max_inflight_transfers == 1, serial verification) at f=1/sec512,
      with integrity == 1 on both arms. Virtual time is deterministic per
      seed, so the gate cannot flake on a loaded box; wall-clock and
      mont-mul counts are recorded as provenance;
  12. load_latency: every offered-load point completes all transfers with
      p50 <= p95 <= p99 (the percentile extraction is ordered and total);
  13. load_equivalence: identical_results == 1 — the concurrent and
      sequential schedules produce byte-identical per-transfer ciphertexts.

PR 9 gates (causal span tracing), written to BENCH_pr9.json together with
a re-statement of the PR 4 obs-overhead result (the span upgrade must keep
tracing-off runs byte-identical to plain runs):

  14. critpath: bench_load --trace-out's span trace, fed through
      tools/trace_critpath.py --budget 0.95, must attribute >= 95% of every
      completed transfer's virtual-time latency to named budget categories
      (network / queueing / verify / retransmit-backoff / crypto), with the
      mont-mul crypto join present in the report.

PR 10 gates (elliptic-curve group backend), written to BENCH_pr10.json
together with another re-statement of the PR 4 obs-overhead result (the
backend carve must keep the default mod-p build byte-identical to PR 9):

  15. backend-compare: the same honest Fig. 4 run (n=4, f=1, same seed) on
      ristretto255 must cost >= 5.0x fewer normalized word-multiplications
      than mod-p at matched ~128-bit security (kSec2048). Group-op counts
      are deterministic per seed; each backend's ops are weighted by its
      op_cost_weight (mod-p: 2k^2 64-bit word muls per Montgomery mul at
      k limbs; ec255: 25 word muls per fe25519 mul), so the gate compares
      machine-independent arithmetic cost, never wall-clock. Both runs must
      decrypt the original plaintext at every server (integrity == 1) and
      EC element encodings must be <= 32 bytes;
  16. backend-equivalence: the cross-backend panel (3 seeds x {honest,
      Byzantine inconsistent-contribution} on mod-p and ec255) must report
      identical_results == 1 — the observable protocol outcome is backend
      independent even though element values differ by construction.

Wall-clock numbers from bench_primitives are recorded for context only.

Every report records its provenance (host, compiler and the effective
compile flags read back from the build's compile_commands.json). Like
perfbench/run.py, the script refuses (exit 3) to write any report when a
translation unit of the build was compiled without optimisation.

Usage: bench_check.py --build-dir <dir> [--output BENCH_pr3.json]
       (registered as ctest label `bench`, which writes its reports under
       <build-dir>/bench-reports/; tools/ci.sh bench regenerates the tracked
       BENCH_pr*.json files at the repo root; see tools/CMakeLists.txt)
"""

import argparse
import json
import os
import platform
import re
import shlex
import subprocess
import sys

MARKER = "BENCHJSON "


def opt_level(args):
    """The -O level the compiler applies: the last -O flag, or None."""
    level = None
    for a in args:
        if re.fullmatch(r"-O([0-9sgz]|fast)?", a):
            level = a
    return level


def read_environment(build_dir):
    """Provenance for the wall-clock columns: host, compiler, effective flags.

    Mont-mul counts are machine-independent, but serial_ms/batch_ms are not;
    without this block a report regenerated on a different box is
    indistinguishable from a hand-edited one.

    The flags come from the build's compile_commands.json, which records what
    the compiler was really given. The CMake cache is not used: the top-level
    CMakeLists.txt sets CMAKE_BUILD_TYPE as a plain variable, so the cache
    records an empty build type for an -O2 -g build. Returns the environment
    and the translation units compiled without optimisation.
    """
    env = {
        "host": platform.node(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "build_dir": os.path.basename(os.path.abspath(build_dir)),
    }
    try:
        with open(os.path.join(build_dir, "compile_commands.json"),
                  encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return env, ["compile_commands.json (unreadable)"]
    flags = {}
    unoptimised = []
    for e in entries:
        args = e.get("arguments") or shlex.split(e["command"])
        env.setdefault("cxx_compiler", args[0])
        if opt_level(args) in (None, "-O0", "-Og"):
            unoptimised.append(e["file"])
        kept, skip = [], False
        for a in args[1:]:
            if skip:
                skip = False
            elif a in ("-o", "-c", "-I", "-isystem"):
                skip = a != "-c"
            elif not (a.startswith("-I") or a == e["file"]):
                kept.append(a)
        key = " ".join(kept)
        flags[key] = flags.get(key, 0) + 1
    env["compile_flags"] = [{"flags": k, "sources": n} for k, n in sorted(flags.items())]
    return env, unoptimised


def run_fig4(build_dir):
    exe = os.path.join(build_dir, "bench", "bench_fig4_full")
    if not os.path.exists(exe):
        print(f"bench_check: missing {exe} (build the bench targets first)")
        sys.exit(2)
    out = subprocess.run([exe], capture_output=True, text=True, check=True)
    rows = []
    for line in out.stdout.splitlines():
        if line.startswith(MARKER):
            rows.append(json.loads(line[len(MARKER):]))
    if not rows:
        print("bench_check: bench_fig4_full produced no BENCHJSON rows")
        sys.exit(2)
    return rows


def run_load(build_dir, trace_path):
    """Open-loop load harness (PR 8); emits the load_* BENCHJSON sections
    and dumps the capped run's span trace for the PR 9 critpath gate."""
    exe = os.path.join(build_dir, "bench", "bench_load")
    if not os.path.exists(exe):
        print(f"bench_check: missing {exe} (build the bench targets first)")
        sys.exit(2)
    out = subprocess.run([exe, "--trace-out", trace_path],
                         capture_output=True, text=True, timeout=1800)
    rows = []
    for line in out.stdout.splitlines():
        if line.startswith(MARKER):
            rows.append(json.loads(line[len(MARKER):]))
    if not rows:
        print("bench_check: bench_load produced no BENCHJSON rows")
        sys.exit(2)
    return rows


def run_critpath(trace_path, failures):
    """PR 9 budget gate: trace_critpath.py over the traced load run.

    Returns the tool's --json summary (or None), appending to `failures`
    when the trace is missing or the 0.95 attribution gate rejects it.
    """
    if not os.path.exists(trace_path):
        failures.append("critpath: bench_load wrote no span trace")
        return None
    tool = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "trace_critpath.py")
    out = subprocess.run(
        [sys.executable, tool, trace_path, "--metrics", trace_path + ".prom",
         "--budget", "0.95", "--json"],
        capture_output=True, text=True, timeout=300)
    try:
        summary = json.loads(out.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        failures.append(f"critpath: no JSON summary from trace_critpath.py "
                        f"({out.stderr.strip() or 'no stderr'})")
        return None
    if out.returncode != 0:
        failures.append(
            f"critpath: budget gate failed — worst transfer attributes "
            f"{summary.get('attributed_min', 0):.1%} of its latency "
            f"(>= 95% required): {out.stderr.strip()}")
    if not summary.get("mont_muls"):
        failures.append("critpath: mont-mul crypto join is empty — the "
                        "metrics snapshot was missing or unparsable")
    return summary


def run_primitives(build_dir):
    """Multi-exp microbenchmarks; context only, never gated (wall-clock)."""
    exe = os.path.join(build_dir, "bench", "bench_primitives")
    if not os.path.exists(exe):
        return None
    try:
        out = subprocess.run(
            [exe, "--benchmark_filter=MultiPow|CpBatch|CpVerify",
             "--benchmark_format=json", "--benchmark_min_time=0.05"],
            capture_output=True, text=True, check=True, timeout=600)
        data = json.loads(out.stdout)
        return [
            {"name": b["name"], "real_time_ns": b["real_time"]}
            for b in data.get("benchmarks", [])
        ]
    except (subprocess.SubprocessError, json.JSONDecodeError) as err:
        print(f"bench_check: bench_primitives skipped ({err})")
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--output", default=None,
                    help="where to write the report (default <repo>/BENCH_pr3.json)")
    ap.add_argument("--skip-primitives", action="store_true",
                    help="skip the wall-clock microbenchmarks (faster CI)")
    args = ap.parse_args()

    # Same rule as perfbench/run.py: wall-clock figures from an unoptimised
    # build are not worth recording, so no report is written from one.
    environment, unoptimised = read_environment(args.build_dir)
    if unoptimised:
        print("bench_check: refusing to write a report from a build without "
              "optimisation: " + ", ".join(sorted(unoptimised)[:5]))
        return 3

    rows = run_fig4(args.build_dir)
    trace_path = os.path.join(args.build_dir, "load_trace.jsonl")
    rows += run_load(args.build_dir, trace_path)
    blind = [r for r in rows if r.get("section") == "blind-verify"]
    e2e = [r for r in rows if r.get("section") == "e2e"]
    obs = [r for r in rows if r.get("section") == "obs-overhead"]
    phases = [r for r in rows if r.get("section") == "phases"]
    pool = [r for r in rows if r.get("section") == "pool"]
    fixed_base = [r for r in rows if r.get("section") == "fixed-base"]
    throughput = [r for r in rows if r.get("section") == "throughput"]
    reconfig = [r for r in rows if r.get("section") == "reconfig"]
    load_latency = [r for r in rows if r.get("section") == "load_latency"]
    load_saturation = [r for r in rows if r.get("section") == "load_saturation"]
    load_equivalence = [r for r in rows if r.get("section") == "load_equivalence"]
    backend_compare = [r for r in rows if r.get("section") == "backend-compare"]
    backend_equiv = [r for r in rows if r.get("section") == "backend-equivalence"]

    failures = []
    best_ratio = 0.0
    for r in blind:
        ratio = r["serial_mont_muls"] / r["batch_mont_muls"]
        r["mul_ratio"] = round(ratio, 3)
        best_ratio = max(best_ratio, ratio)
        if r["batch_mont_muls"] >= r["serial_mont_muls"]:
            failures.append(
                f"blind-verify f={r['f']}: batch ({r['batch_mont_muls']}) not cheaper "
                f"than serial ({r['serial_mont_muls']}) mont-muls")
    if not blind:
        failures.append("no blind-verify rows emitted")
    elif best_ratio < 2.0:
        failures.append(
            f"best blind-verify mont-mul ratio {best_ratio:.2f}x < 2.0x acceptance bar")
    for r in e2e:
        r["mul_ratio"] = round(r["serial_mont_muls"] / r["batch_mont_muls"], 3)
        if r["batch_mont_muls"] > r["serial_mont_muls"]:
            failures.append(
                f"e2e f={r['f']}: batch mode costs more mont-muls than serial")

    if not obs:
        failures.append("no obs-overhead row emitted")
    for r in obs:
        if r["instrumented_mont_muls"] != r["plain_mont_muls"]:
            failures.append(
                f"obs-overhead: instrumented run cost "
                f"{r['instrumented_mont_muls']} mont-muls vs "
                f"{r['plain_mont_muls']} plain — observability is not a "
                f"pure observer")
        if r["instrumented_messages"] != r["plain_messages"]:
            failures.append(
                f"obs-overhead: instrumented run sent "
                f"{r['instrumented_messages']} messages vs "
                f"{r['plain_messages']} plain")
        if r["trace_events"] == 0:
            failures.append("obs-overhead: instrumented run emitted no trace events")
    if not phases:
        failures.append("no per-phase latency rows emitted")

    pool_ratio = 0.0
    if not pool:
        failures.append("no pool row emitted")
    for r in pool:
        pool_ratio = r["cold_online_mont_muls"] / max(r["warm_online_mont_muls"], 1)
        r["online_mul_ratio"] = round(pool_ratio, 3)
        if pool_ratio < 3.0:
            failures.append(
                f"pool: warm online mont-muls only {pool_ratio:.2f}x lower than cold "
                f"({r['cold_online_mont_muls']} -> {r['warm_online_mont_muls']}), "
                f"< 3.0x acceptance bar")
        if r["identical_results"] != 1:
            failures.append(
                "pool: warm-pool run results diverged from the cold run — the pool "
                "must be byte-transparent")
        if r["warm_drains"] == 0:
            failures.append("pool: warm run never drained a precomputed bundle")
    if not fixed_base:
        failures.append("no fixed-base row emitted")
    for r in fixed_base:
        ratio = r["generic_mont_muls"] / max(r["comb_mont_muls"], 1)
        r["mul_ratio"] = round(ratio, 3)
        if ratio < 2.0:
            failures.append(
                f"fixed-base: comb table only {ratio:.2f}x fewer mont-muls than "
                f"generic pow ({r['generic_mont_muls']} -> {r['comb_mont_muls']}), "
                f"< 2.0x acceptance bar")
    if not throughput:
        failures.append("no throughput row emitted")
    for r in throughput:
        if r["integrity"] != 1:
            failures.append("throughput: pipelined run lost integrity")

    if not reconfig:
        failures.append("no reconfig row emitted")
    for r in reconfig:
        if r["installed"] != 1:
            failures.append("reconfig: rotation run never installed epoch 1")
        if r["integrity"] != 1:
            failures.append(
                "reconfig: a transfer crossing the epoch boundary lost integrity")
        pre, post = r["pre_wave_mont_muls"], r["post_wave_mont_muls"]
        delta = abs(post - pre) / pre if pre else 0.0
        r["steady_state_delta"] = round(delta, 4)
        if delta > 0.05:
            failures.append(
                f"reconfig: post-rotation steady state costs {post} mont-muls vs "
                f"{pre} baseline ({delta:.1%} drift, > 5% bar) — the install "
                f"cascade is leaking per-transfer cost into the new epoch")

    if not load_latency:
        failures.append("no load_latency rows emitted")
    for r in load_latency:
        if r["completed"] != r["transfers"]:
            failures.append(
                f"load_latency gap={r['mean_interarrival_us']}us: only "
                f"{r['completed']}/{r['transfers']} transfers completed")
        if not r["p50_us"] <= r["p95_us"] <= r["p99_us"]:
            failures.append(
                f"load_latency gap={r['mean_interarrival_us']}us: percentiles "
                f"unordered (p50={r['p50_us']}, p95={r['p95_us']}, p99={r['p99_us']})")
        if r["integrity"] != 1:
            failures.append(
                f"load_latency gap={r['mean_interarrival_us']}us: integrity lost")
    if not load_saturation:
        failures.append("no load_saturation row emitted")
    for r in load_saturation:
        if r["integrity"] != 1:
            failures.append("load_saturation: an arm lost integrity or did not complete")
        if r["speedup"] < 5.0:
            failures.append(
                f"load_saturation f={r['f']}/{r['params']}: concurrent engine only "
                f"{r['speedup']:.2f}x the sequential baseline "
                f"({r['baseline_tps']:.1f} -> {r['saturated_tps']:.1f} transfers/sec "
                f"virtual), < 5.0x acceptance bar")
    if not load_equivalence:
        failures.append("no load_equivalence row emitted")
    for r in load_equivalence:
        if r["identical_results"] != 1:
            failures.append(
                "load_equivalence: concurrent and sequential schedules diverged — "
                "the engine must change WHEN work runs, never WHAT it computes")

    if not backend_compare:
        failures.append("no backend-compare row emitted")
    for r in backend_compare:
        if r["cost_ratio"] < 5.0:
            failures.append(
                f"backend-compare: ec255 only {r['cost_ratio']:.2f}x cheaper than "
                f"mod-p {r['modp_params']} in normalized word-muls "
                f"({r['modp_word_muls']} -> {r['ec_word_muls']}), "
                f"< 5.0x acceptance bar")
        if r["ec_element_bytes"] > 32:
            failures.append(
                f"backend-compare: EC element encoding is {r['ec_element_bytes']} "
                f"bytes, > 32-byte canonical-encoding bar")
        if r["integrity"] != 1:
            failures.append(
                "backend-compare: a backend arm failed to decrypt the original "
                "plaintext at every server")
    if not backend_equiv:
        failures.append("no backend-equivalence row emitted")
    for r in backend_equiv:
        if r["identical_results"] != 1:
            failures.append(
                f"backend-equivalence: protocol outcomes diverged across backends "
                f"({r['cells']} cells) — the group abstraction is leaking into "
                f"observable behavior")

    critpath = run_critpath(trace_path, failures)

    prims = None if args.skip_primitives else run_primitives(args.build_dir)

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_path = args.output or os.path.join(repo_root, "BENCH_pr3.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    report = {
        "gate": "verification-fast-path",
        "pass": not failures,
        "environment": environment,
        "failures": failures,
        "blind_verify": blind,
        "e2e": e2e,
        "primitives_wall_clock": prims,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    obs_path = os.path.join(os.path.dirname(out_path), "BENCH_pr4.json")
    obs_report = {
        "gate": "observability-overhead",
        "pass": not any("obs-overhead" in f or "phase" in f for f in failures),
        "environment": environment,
        "obs_overhead": obs,
        "phases": phases,
    }
    with open(obs_path, "w", encoding="utf-8") as fh:
        json.dump(obs_report, fh, indent=2)
        fh.write("\n")

    pool_path = os.path.join(os.path.dirname(out_path), "BENCH_pr5.json")
    pool_fail_keys = ("pool", "fixed-base", "throughput")
    pool_report = {
        "gate": "offline-online-split",
        "pass": not any(f.startswith(pool_fail_keys) or f.startswith("no pool")
                        or f.startswith("no fixed-base") or f.startswith("no throughput")
                        for f in failures),
        "environment": environment,
        "pool": pool,
        "fixed_base": fixed_base,
        "throughput": throughput,
    }
    with open(pool_path, "w", encoding="utf-8") as fh:
        json.dump(pool_report, fh, indent=2)
        fh.write("\n")

    reconfig_path = os.path.join(os.path.dirname(out_path), "BENCH_pr7.json")
    reconfig_report = {
        "gate": "epochal-reconfiguration",
        "pass": not any(f.startswith("reconfig") or f.startswith("no reconfig")
                        for f in failures),
        "environment": environment,
        "reconfig": reconfig,
    }
    with open(reconfig_path, "w", encoding="utf-8") as fh:
        json.dump(reconfig_report, fh, indent=2)
        fh.write("\n")

    load_path = os.path.join(os.path.dirname(out_path), "BENCH_pr8.json")
    load_report = {
        "gate": "concurrent-multi-transfer-engine",
        "pass": not any(f.startswith("load_") or f.startswith("no load_")
                        for f in failures),
        "environment": environment,
        "load_latency": load_latency,
        "load_saturation": load_saturation,
        "load_equivalence": load_equivalence,
    }
    with open(load_path, "w", encoding="utf-8") as fh:
        json.dump(load_report, fh, indent=2)
        fh.write("\n")

    # PR 9: the span-trace critpath gate, plus the PR 4 obs-overhead result
    # re-stated — the span upgrade must keep the zero-overhead property.
    critpath_path = os.path.join(os.path.dirname(out_path), "BENCH_pr9.json")
    critpath_report = {
        "gate": "causal-span-tracing",
        "pass": not any(f.startswith("critpath") or "obs-overhead" in f
                        for f in failures),
        "environment": environment,
        "obs_overhead": obs,
        "critpath": critpath,
    }
    with open(critpath_path, "w", encoding="utf-8") as fh:
        json.dump(critpath_report, fh, indent=2)
        fh.write("\n")

    # PR 10: the EC-backend cost gate, plus the PR 4 obs-overhead result
    # re-stated — the backend carve must keep the default mod-p build
    # byte-identical to PR 9.
    backend_path = os.path.join(os.path.dirname(out_path), "BENCH_pr10.json")
    backend_report = {
        "gate": "ec-group-backend",
        "pass": not any(f.startswith("backend-") or f.startswith("no backend-")
                        or "obs-overhead" in f for f in failures),
        "environment": environment,
        "backend_compare": backend_compare,
        "backend_equivalence": backend_equiv,
        "obs_overhead": obs,
    }
    with open(backend_path, "w", encoding="utf-8") as fh:
        json.dump(backend_report, fh, indent=2)
        fh.write("\n")

    for r in blind:
        print(f"blind-verify f={r['f']}: {r['serial_mont_muls']} -> "
              f"{r['batch_mont_muls']} mont-muls ({r['mul_ratio']}x)")
    for r in e2e:
        print(f"e2e          f={r['f']}: {r['serial_mont_muls']} -> "
              f"{r['batch_mont_muls']} mont-muls ({r['mul_ratio']}x)")
    for r in obs:
        print(f"obs-overhead: {r['plain_mont_muls']} plain vs "
              f"{r['instrumented_mont_muls']} instrumented mont-muls, "
              f"{r['trace_events']} trace events")
    for r in pool:
        print(f"pool: {r['cold_online_mont_muls']} cold -> "
              f"{r['warm_online_mont_muls']} warm online mont-muls "
              f"({r['online_mul_ratio']}x), identical_results={r['identical_results']}")
    for r in fixed_base:
        print(f"fixed-base: {r['generic_mont_muls']} generic -> "
              f"{r['comb_mont_muls']} comb mont-muls ({r['mul_ratio']}x)")
    for r in throughput:
        print(f"throughput: {r['transfers']} transfers, "
              f"{r['transfers_per_sec']:.1f}/sec wall-clock, integrity={r['integrity']}")
    for r in reconfig:
        print(f"reconfig: {r['pre_wave_mont_muls']} baseline -> "
              f"{r['post_wave_mont_muls']} post-rotation mont-muls "
              f"({r['steady_state_delta']:.2%} drift), rotation window "
              f"{r['rotation_mont_muls']}, integrity={r['integrity']}")
    for r in load_latency:
        print(f"load_latency gap={r['mean_interarrival_us']}us: "
              f"p50={r['p50_us']:.0f} p95={r['p95_us']:.0f} p99={r['p99_us']:.0f} "
              f"({r['completed']}/{r['transfers']} completed)")
    for r in load_saturation:
        print(f"load_saturation f={r['f']}/{r['params']}: "
              f"{r['baseline_tps']:.1f} -> {r['saturated_tps']:.1f} transfers/sec "
              f"virtual ({r['speedup']:.2f}x), integrity={r['integrity']}")
    for r in load_equivalence:
        print(f"load_equivalence: identical_results={r['identical_results']} "
              f"({r['transfers']} transfers)")
    for r in backend_compare:
        print(f"backend-compare: {r['modp_word_muls']} mod-p ({r['modp_params']}) -> "
              f"{r['ec_word_muls']} ec255 word-muls ({r['cost_ratio']:.1f}x), "
              f"elements {r['modp_element_bytes']} -> {r['ec_element_bytes']} bytes, "
              f"integrity={r['integrity']}")
    for r in backend_equiv:
        print(f"backend-equivalence: identical_results={r['identical_results']} "
              f"({r['cells']} cells)")
    if critpath:
        print(f"critpath: {critpath['transfers']} transfers, "
              f"{critpath['attributed_overall']:.1%} latency attributed "
              f"(worst {critpath['attributed_min']:.1%}), budget "
              f"{critpath['budget_us']}")
    print(f"report: {out_path} + {obs_path} + {pool_path} + {reconfig_path} + "
          f"{load_path} + {critpath_path} + {backend_path}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"PASS: best verification mont-mul ratio {best_ratio:.2f}x (>= 2.0x required)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
