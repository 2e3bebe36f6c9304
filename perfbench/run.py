#!/usr/bin/env python3
"""HDDTherm repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ (a CMake package that compiles ../src in Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs workload
W, checks its simulated output, and prints one JSON object as the last line
of stdout: {"correct", "attempted", "failed", "metrics"}.  The line before
it records provenance: git SHA (obs::RunManifest), seed, build type and the
host's effective parallelism from a calibrated CPU burn.

Workloads (open loop in simulated time, caches empty at the start of every
replay; seed 0 keeps the committed generator seeds of core/scenarios.cc and
bench_fleet_scale's fleet seed 42, any other seed re-derives all of them):
  fig4_read         OLTP, Search-Engine, TPC-H (JBOD, 60k requests each) at
                    base, +5K, +10K, +15K RPM; storage only, as paper 5.1.
  fig4_raid5_write  Openmail and TPC-C (RAID-5, read-modify-write) at the
                    same four speeds.
  fleet_throttled   bench_fleet_scale's 64-bay fleet: 2.6" 24,534 RPM
                    drives, 27 C inlet, gate DTM, 100 req/s and 20k requests
                    per bay, 0.5 s epochs, 2 executor threads, delta+LZ
                    checkpoints every 100 epochs into a fresh directory.

End-to-end metrics (--trace 0).  Host time is CPU time of the measuring
process (all threads).  A shared host changes speed by half within
minutes, in CPU time as well as wall time, so throughput is expressed in
units of a fixed reference job (perfbench.cc: referenceCpuSeconds) timed
just before each repetition; the job shares no code with the library.
The wall-clock and plain CPU-time figures go to the provenance line
(req_per_wall_s, req_per_cpu_s, setup_wall_s).
  req_per_ref    simulated requests completed per reference-job time:
                 requests x reference CPU s / repetition CPU s, median over
                 the repetitions that fit in S seconds; trace generation
                 and checkpoint writes are inside the timed region.
  setup_s        host CPU seconds from process start to the first simulated
                 event, median of several probe processes.
  peak_rss_mb    peak resident memory of the measuring process during its
                 repetitions (the high-water mark is reset after each
                 reference job, so the job's memory is not counted).
  paper_err_pct  simulated: mean |simulated - paper| / paper x 100 over the
                 workload's Fig-4 mean response times, for the run's seed
                 (held out: the generators were tuned on seed 0).  The fleet
                 run has no published reference; on fleet_throttled this is
                 the error of its bay drive's steady temperature against
                 Table 3 (48.26 C), i.e. of the thermal model the bays run.
  ok_frac        1 - failed/attempted (fail_frac inverted so it is never 0).
                 A repetition or probe fails if it throws, exits non-zero,
                 leaves a request incomplete, hits a checkpoint writer error,
                 or yields a digest that differs from another repetition's
                 or from the committed one for (workload, seed) in
                 digests.json.  Digests hash simulated outcomes only: count,
                 mean, exact p50/p99 (fig4) and the Fig-4 bins with the
                 overflow fraction; never the bin-clamped quantiles.

Per-layer metrics (--trace 1): untraced repetitions for half of S, then
one traced repetition (obs on, engine::KernelMetricsSink on the storage
kernels, an epoch TraceSink on the fleet).  Per-layer host times are
wall-clock medians over the untraced repetitions, read by clock calls
around public entry points; counters are simulated.  obs.trace_overhead_pct
compares the traced repetition's rate with the untraced median, and
sim.paper_err_pct_seed0 repeats the Fig-4 check on the tuning seed.  The
spans (name, start, end, parent, run id) of every repetition are written
to $CARGO_TARGET_DIR/perfbench/spans/.  Layers report 0 on workloads that
do not exercise them.  On fleet_throttled only the fleet-epoch kernel is
reachable from outside, so engine.events counts its events; dtm.ticks and
thermal.steps are bounds (bays x slowest bay's span / control interval).
"""
import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig4_read", "fig4_raid5_write", "fleet_throttled")
PROBES = 7
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def out_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    bdir = out_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, timeout=850).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(bdir, "perfbench")


def run_json(cmd, timeout):
    """Run cmd; return its last stdout line parsed as JSON (None on error)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        log(f"exit {proc.returncode}: {' '.join(cmd)}")
        return None
    return json.loads(lines[-1])


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def committed_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def measure(binary, workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result line, provenance)."""
    common = ["--workload", workload, "--seed", str(seed),
              "--scratch", os.path.join(out_dir(), "scratch")]
    if tiny:
        common.append("--tiny")

    # Set-up probes serve the end-to-end setup_s only.
    setups, setup_walls, probe_failures = [], [], 0
    for _ in range(0 if trace else PROBES):
        t0 = time.monotonic_ns()
        res = run_json([binary, "--mode", "probe", "--t0-ns", str(t0)]
                       + common, timeout=60)
        if res is None:
            probe_failures += 1
        else:
            setups.append(res["setup_cpu_s"])
            setup_walls.append(res["setup_s"])

    spans = ""
    cmd = [binary, "--mode", "trace" if trace else "run",
           "--seconds", str(seconds)] + common
    if trace:
        os.makedirs(os.path.join(out_dir(), "spans"), exist_ok=True)
        spans = os.path.join(out_dir(), "spans",
                             f"{workload}-s{seed}.jsonl")
        cmd += ["--spans", spans]
    res = run_json(cmd, timeout=seconds + 120) or {}
    burn = run_json([binary, "--mode", "burn"], timeout=30) or {}

    attempted = len(setups) + probe_failures + res.get("attempted", 1)
    failed = probe_failures + res.get("failed", 1)
    expect = None if tiny else committed_digest(workload, seed)
    digest_ok = res.get("consistent", False) and \
        expect in (None, res["digest"])
    if res and not digest_ok:
        log(f"digest {res['digest']} (consistent={res['consistent']}) "
            f"differs from committed {expect}")
        failed = attempted
    if res.get("error"):
        log("error: " + res["error"])

    spec = declared()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        # Layers a workload does not exercise read 0; a name the program
        # prints but BENCHMARK.json does not declare is an error.
        values = {m["name"]: 0.0 for m in wanted}
        layers = res.get("per_layer", {})
        if set(layers) - set(values):
            log(f"undeclared per-layer metrics: "
                f"{sorted(set(layers) - set(values))}")
            failed = attempted
        values.update(layers)
    else:
        values = {
            "req_per_ref": res.get("req_per_ref"),
            "setup_s": statistics.median(setups) if setups else None,
            "peak_rss_mb": res.get("peak_rss_mb"),
            "paper_err_pct": res.get("paper_err_pct"),
            "ok_frac": 1.0 - failed / attempted,
        }
    metrics = {}
    for m in wanted:
        v = values.get(m["name"]) if res else None
        if v is None:
            failed = attempted
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    provenance = {
        "workload": workload, "seed": seed, "trace": trace,
        "build_type": res.get("build_type"),
        "manifest": res.get("manifest"),
        "digest": res.get("digest"),
        "committed_digest": expect,
        "simulated": res.get("summary"),
        "req_per_wall_s": res.get("req_per_s"),
        "req_per_cpu_s": res.get("req_per_cpu_s"),
        "reference_cpu_s": res.get("reference_cpu_s"),
        "setup_wall_s": statistics.median(setup_walls) if setup_walls
        else None,
        "effective_parallelism": burn.get("effective_parallelism"),
        "hardware_threads": burn.get("hardware_threads"),
        "spans": os.path.relpath(spans, ROOT) if spans else None,
    }
    result = {
        "correct": bool(res) and failed == 0 and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, provenance


def selftest(binary):
    """Tiny sizes: determinism, thread-count independence, metric names."""
    ok = True

    def check(cond, what):
        nonlocal ok
        log(("ok   " if cond else "FAIL ") + what)
        ok = ok and cond

    scratch = ["--scratch", os.path.join(out_dir(), "scratch"), "--tiny"]
    for w in WORKLOADS:
        runs = [run_json([binary, "--workload", w, "--reps", "2"] + scratch,
                         timeout=120) for _ in range(2)]
        check(all(r and r["consistent"] and not r["failed"] for r in runs)
              and runs[0]["digest"] == runs[1]["digest"],
              f"{w}: two runs give the same digest")
    by_threads = [run_json([binary, "--workload", "fleet_throttled",
                            "--reps", "1", "--threads", str(t)] + scratch,
                           timeout=120) for t in (1, 2)]
    check(all(by_threads) and
          by_threads[0]["digest"] == by_threads[1]["digest"],
          "fleet digest identical at 1 and 2 executor threads")

    spec = declared()
    names = {m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]}
    for w in WORKLOADS:
        for trace in (0, 1):
            result, _ = measure(binary, w, 0, 1, trace, tiny=True)
            printed = set(result["metrics"])
            want = {m["name"] for m in
                    spec["per_layer" if trace else "end_to_end"]}
            check(result["correct"] and printed == want and
                  printed <= names and
                  all(NAME_RE.match(n) for n in printed),
                  f"{w} trace={trace}: every metric declared and well named")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    # Compiler temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(out_dir(), "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    binary = build()
    try:
        if args.selftest:
            return selftest(binary)
        result, provenance = measure(binary, args.workload, args.seed,
                                     args.seconds, args.trace)
    finally:
        shutil.rmtree(os.path.join(out_dir(), "scratch"), ignore_errors=True)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
