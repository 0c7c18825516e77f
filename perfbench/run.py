#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md and BENCHMARK.json).

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--results FILE]
  python3 perfbench/run.py smoke            # all workloads, small inputs
  python3 perfbench/run.py selftest         # every check fires on bad input
  python3 perfbench/run.py compare A B      # cells whose stats differ

The first run builds ltpbench from the simulator sources into
.bench_build/. A run prints a provenance line, then as its last line one
JSON object: correct / attempted / failed and the metrics. --trace 0
gives the end-to-end metrics; --trace 1 the per-layer ones, where this
script attributes the CPU-time samples ltpbench took to src/ modules.
"""

import argparse
import collections
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "ltpbench")
WORKLOADS = ["p2p32-paper", "mesh64-dsm", "mesh64-dsm-4shard",
             "mesh64-netload"]
# src/ modules the sampler attributes CPU time to; src/sim/par is its own
# layer, src/sim/guard counts as sim. Frames of the benchmark itself, and
# samples with no repository frame at all, count as "other".
MODULES = ["sim", "sim.par", "net", "proto", "predictor", "mem", "kernel",
           "dsm", "obs"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def build():
    """Configure (once) and build ltpbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dsm", "system.hh")):
        fail("no simulator sources under %s/src; run from the root of a "
             "checkout" % ROOT)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s not found on PATH" % tool)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)


def cmake_cache():
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def provenance(load_avg, info):
    cache = cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""), "-g"]))
    nproc = os.cpu_count() or 1
    shards = info.get("shards", 1)
    cpu = info.get("sampledCpuS", 0)
    return {
        "commit": commit,
        "nproc": nproc,
        "build_type": build_type,
        "flags": flags,
        "compiler": version,
        "shards": shards,
        "oversubscribed": shards > nproc,
        "loadavg_1min_at_start": load_avg,
        "sampler_hz": info.get("samples", 0) / cpu if cpu else 0,
    }


def run_ltpbench(args, work_dir):
    """Run ltpbench; returns its parsed last stdout line."""
    try:
        res = subprocess.run([EXE] + args + ["--work-dir", work_dir],
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("ltpbench did not finish within %d s" % RUN_TIMEOUT_S, 1)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail("ltpbench exited with code %d" % res.returncode, 1)
    return json.loads(lines[-1])


def module_of(path, src_roots, bench_roots):
    """src/ module of a source path, "other" for the benchmark's own
    files, None for files outside the repository."""
    path = os.path.normpath(path)
    for src in src_roots:
        if path.startswith(src):
            parts = path[len(src):].split("/")
            if parts[0] == "sim" and len(parts) > 2 and parts[1] == "par":
                return "sim.par"
            return parts[0] if parts[0] in MODULES else "other"
    for bench in bench_roots:
        if path.startswith(bench):
            return "other"
    return None


def attribute_samples(samples_path):
    """Sample count per module: each sample goes to the module of its
    innermost repository frame, inlined frames included."""
    samples = []
    with open(samples_path) as f:
        for line in f:
            samples.append([int(x, 16) for x in line.split()[1:]])
    addrs = sorted({a for s in samples for a in s})
    chains = {}
    if addrs:
        res = subprocess.run(
            ["addr2line", "-a", "-i", "-e", EXE],
            input="".join("%x\n" % a for a in addrs),
            capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            fail("addr2line failed: " + res.stderr.strip(), 1)
        cur = None
        for line in res.stdout.splitlines():
            if line.startswith("0x"):
                cur = int(line, 16)
                chains[cur] = []
            elif cur is not None:
                chains[cur].append(
                    line.split(" (discriminator")[0].rsplit(":", 1)[0])
    roots = {ROOT, os.path.realpath(ROOT)}
    src_roots = [os.path.join(r, "src") + "/" for r in roots]
    bench_roots = [os.path.join(r, "perfbench") + "/" for r in roots]
    addr_module = {}
    for a, chain in chains.items():
        addr_module[a] = next(
            (m for m in (module_of(p, src_roots, bench_roots) for p in chain)
             if m), None)
    counts = collections.Counter()
    for s in samples:
        counts[next((addr_module[a] for a in s if addr_module.get(a)),
                    "other")] += 1
    return counts


def cmd_run(opts):
    load_avg = os.getloadavg()[0]
    build()
    work_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    try:
        args = ["--workload", opts.workload, "--seed", str(opts.seed),
                "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
        if opts.smoke:
            args.append("--smoke")
        if opts.results:
            args += ["--results", os.path.abspath(opts.results)]
        out = run_ltpbench(args, work_dir)
        info = out.pop("info")
        metrics = out["metrics"]
        if opts.trace:
            # A module's self time per round: its share of the samples
            # times the process CPU time measured over the sampled rounds.
            counts = attribute_samples(os.path.join(work_dir, "samples.txt"))
            total = max(1, sum(counts.values()))
            for module in MODULES + ["other"]:
                metrics[module + ".self_s"] = {
                    "value": counts.get(module, 0) / total *
                    info["sampledCpuS"] / info["rounds"],
                    "unit": "s"}
            # obs only runs armed in the one traced round, sampled apart.
            counts = attribute_samples(
                os.path.join(work_dir, "samples-obs.txt"))
            metrics["obs.self_s"]["value"] = counts.get("obs", 0) / max(
                1, sum(counts.values())) * info["obsCpuS"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    prov = provenance(load_avg, info)
    if opts.results:
        with open(opts.results) as f:
            rows = f.read()
        with open(opts.results, "w") as f:
            f.write(json.dumps({"provenance": prov, "info": info}) + "\n")
            f.write(rows)
    print(json.dumps({"provenance": prov, "info": info}))
    print(json.dumps(out))
    return 0


def cmd_selftest(_opts):
    build()
    return subprocess.run([EXE, "--selftest"]).returncode


def cmd_smoke(_opts):
    build()
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.monotonic()
            res = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", "1", "--seconds", "0", "--trace",
                 str(trace), "--smoke"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=RUN_TIMEOUT_S)
            lines = res.stdout.strip().splitlines()
            out = json.loads(lines[-1]) if res.returncode == 0 and lines \
                else {}
            ok = bool(out.get("correct"))
            bad += not ok
            print("%-20s trace=%d %-6s attempted=%s failed=%s %.1f s" % (
                workload, trace, "ok" if ok else "FAILED",
                out.get("attempted"), out.get("failed"),
                time.monotonic() - t0))
    return 1 if bad else 0


def load_rows(path):
    rows = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if "cell" in row:
                rows[(row["workload"], row["seed"], row["cell"])] = row
    return rows


def cmd_compare(opts):
    a = load_rows(opts.a)
    b = load_rows(opts.b)
    differ = 0
    for key in sorted(set(a) | set(b)):
        ra, rb = a.get(key), b.get(key)
        name = "%s seed=%s %s" % key
        if ra is None or rb is None:
            print("only in %s: %s" % (opts.a if rb is None else opts.b,
                                      name))
            differ += 1
        elif not (ra["completed"] and rb["completed"]):
            print("not compared (failed cell): %s" % name)
        elif ra["statsDigest"] != rb["statsDigest"]:
            print("differs: %s (%s vs %s)" % (name, ra["statsDigest"],
                                              rb["statsDigest"]))
            differ += 1
    print("%d cell(s) differ" % differ)
    return 1 if differ else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("smoke", "selftest", "compare"):
        sub = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "compare":
            sub.add_argument("a")
            sub.add_argument("b")
        opts = sub.parse_args(sys.argv[2:])
        handler = {"smoke": cmd_smoke, "selftest": cmd_selftest,
                   "compare": cmd_compare}[sys.argv[1]]
        return handler(opts)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results", help="write per-cell rows (JSONL)")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for a quick end-to-end check")
    return cmd_run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
