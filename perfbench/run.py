#!/usr/bin/env python3
"""Decision-service benchmark runner.

    python3 perfbench/run.py --workload hot_zipf|churn_miss|drift_adapt \
        --seed N --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --self-test

Builds perfbench/ (a CMake project over the repository's src/) into
.bench_build/perfbench, starts the benchmark server as a child process
several times to time its set-up, runs the load generator against the last
one, and prints every metric by name and unit. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}; --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer
ones. See perfbench/README.md.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 3
# Every run must end well inside the 180 s a run is allowed.
CLIENT_TIMEOUT_S = 150
READY_TIMEOUT_S = 60


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary directory."""
    out = build_dir()
    # Compiler temporaries stay inside the build tree.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "pb_server", "pb_client", "pb_selftest"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        raise RuntimeError("build failed")
    return out


def exit_description(code):
    if code is None:
        return "running"
    if code < 0:
        try:
            return "killed by signal %s" % signal.Signals(-code).name
        except ValueError:
            return "killed by signal %d" % -code
    return "exit status %d" % code


def stop(proc, grace_s=5.0):
    """Stops a child and waits for it; returns its exit code."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
    return proc.wait()


def start_server(bindir, seed):
    """Starts pb_server; returns (process, port, seconds from exec to ready)."""
    start = time.perf_counter()
    proc = subprocess.Popen([os.path.join(bindir, "pb_server"), "--seed", str(seed)],
                            stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    deadline = start + READY_TIMEOUT_S
    while True:
        remaining = deadline - time.perf_counter()
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, remaining))
        if not ready:
            stop(proc)
            raise RuntimeError("server not ready within %d s" % READY_TIMEOUT_S)
        line = proc.stdout.readline()
        if not line:
            code = proc.wait()
            raise RuntimeError("server exited during set-up (%s)" % exit_description(code))
        if line.startswith("PB_READY"):
            elapsed = time.perf_counter() - start
            fields = dict(kv.split("=", 1) for kv in line.split()[1:])
            return proc, int(fields["port"]), elapsed


def run_client(bindir, port, args, spans_path):
    cmd = [os.path.join(bindir, "pb_client"), "--port", str(port), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--smoke", "1" if args.smoke else "0", "--spans", spans_path]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=CLIENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log("pb_client: timed out after %d s" % CLIENT_TIMEOUT_S)
    lines = out.splitlines()
    report = None
    if lines:
        try:
            report = json.loads(lines[-1])
            lines = lines[:-1]
        except json.JSONDecodeError:
            report = None
    for line in lines:
        print(line)
    return report, proc.returncode


def compose(spec, trace, report, setup_s, server_status):
    """The benchmark's result object and the human-readable metric lines."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if report is None:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, ["PB_RESULT no client report"]
    measured = dict(report.get("metrics", {}))
    measured["setup_s"] = setup_s
    measured["loadgen.warmup_s"] = report.get("warmup_s", 0)
    samples = report.get("samples", {})
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in measured}
    # Every metric this run measured is printed; the result carries the
    # list the trace mode selects.
    lines = []
    for m in spec["end_to_end"] + spec["per_layer"]:
        value = measured.get(m["name"])
        if value is None:
            continue
        n = samples.get(m["name"])
        if m["name"].startswith("latency_"):
            n = samples.get("latency")
            if m["name"] == "latency_p99_us":
                n = "%s, p%g" % (n, samples.get("latency_tail_percentile", 0))
        lines.append("PB_METRIC %-28s %14.6g %-6s%s" % (m["name"], value, m["unit"],
                                                        "" if n is None else "  (n=%s)" % n))
    failed = int(report.get("failed", 0))
    attempted = max(1, int(report.get("attempted", 0)))
    correct = (not report.get("server_lost", True) and report.get("oracle_ran", False) and failed == 0
               and report.get("drifts_adopted") == report.get("drifts_expected")
               and server_status == 0 and len(metrics) == len(wanted))
    if report.get("server_lost"):
        failed = max(failed, 1)
    return {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}, lines


def self_test(bindir):
    """Metric-printer checks here, oracle checks in pb_selftest."""
    spec = load_spec()
    report = {"server_lost": False, "oracle_ran": True, "attempted": 10, "failed": 0,
              "drifts_expected": 1, "drifts_adopted": 1, "warmup_s": 1.5,
              "samples": {"latency": 10, "latency_tail_percentile": 50},
              "metrics": {m["name"]: 1.25 for m in spec["end_to_end"] + spec["per_layer"]}}
    ok = True

    def check(cond, what):
        nonlocal ok
        print("%s %s" % ("ok  " if cond else "FAIL", what))
        ok = ok and cond

    for trace in (0, 1):
        result, lines = compose(spec, trace, report, 0.75, 0)
        names = [m["name"] for m in (spec["per_layer"] if trace else spec["end_to_end"])]
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"], "result has exactly the four keys")
        check(list(result["metrics"]) == names, "trace %d prints every listed metric" % trace)
        check(all(set(v) == {"value", "unit"} for v in result["metrics"].values()), "each metric has value and unit")
        check(result["correct"], "a clean report is correct")
        check(len(lines) == len(spec["end_to_end"]) + len(spec["per_layer"]), "every measured metric is printed")
        check(json.loads(json.dumps(result)) == result, "result round-trips through JSON")
    result, _ = compose(spec, 0, report, 0.75, 0)
    check(result["metrics"]["setup_s"]["value"] == 0.75, "setup_s is the runner's own timing")
    bad = dict(report, failed=3)
    check(not compose(spec, 0, bad, 0.75, 0)[0]["correct"], "failed operations make the run incorrect")
    check(not compose(spec, 0, report, 0.75, -11)[0]["correct"], "a crashed server makes the run incorrect")
    lost = dict(report, server_lost=True)
    check(compose(spec, 0, lost, 0.75, 0)[0]["failed"] >= 1, "a lost server counts as a failure")
    check(not compose(spec, 0, None, 0.75, 0)[0]["correct"], "a missing client report is incorrect")
    code = subprocess.run([os.path.join(bindir, "pb_selftest")]).returncode
    check(code == 0, "pb_selftest (oracle and printer of the binaries)")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["hot_zipf", "churn_miss", "drift_adapt"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long run, same output shape")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    # Server and client read the seed as an unsigned 64-bit integer.
    args.seed %= 2**64

    try:
        spec = load_spec()
        bindir = build()
    except (OSError, RuntimeError, ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    if args.self_test:
        return self_test(bindir)
    if args.smoke:
        args.seconds = min(args.seconds, 2)

    run_dir = os.path.join(build_dir(), "runs")
    os.makedirs(run_dir, exist_ok=True)
    spans_path = os.path.join(run_dir, "spans_%s_%d.jsonl" % (args.workload, args.seed)) if args.trace else ""

    setups = []
    server = None
    try:
        for i in range(1 if args.smoke else SETUP_REPEATS):
            if server is not None:
                stop(server)
            server, port, elapsed = start_server(bindir, args.seed)
            setups.append(elapsed)
    except RuntimeError as e:
        log("perfbench: %s" % e)
        if server is not None:
            stop(server)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print("PB_SERVER %s" % e)
        print(json.dumps(result))
        return 0
    setup_s = statistics.median(setups)
    print("PB_SETUP seconds=%s" % " ".join("%.4f" % s for s in setups))

    report, client_code = run_client(bindir, port, args, spans_path)
    try:
        server_code = server.wait(timeout=10)
    except subprocess.TimeoutExpired:
        server_code = stop(server)
        print("PB_SERVER did not exit after the run; stopped (%s)" % exit_description(server_code))
        server_code = server_code if server_code != 0 else -1
    if server_code != 0 or (report or {}).get("server_lost"):
        print("PB_SERVER %s; %s" % (exit_description(server_code), (report or {}).get("lost_reason", "")))
    if client_code != 0:
        print("PB_CLIENT %s" % exit_description(client_code))

    result, lines = compose(spec, args.trace, report, setup_s, server_code)
    if report is not None:
        print("PB_ENV %s" % json.dumps(report.get("env", {}), sort_keys=True))
        print("PB_REQUESTS workload=%s sent=%d succeeded=%d failed=%d failures=%s oracle=%s" % (
            args.workload, result["attempted"], result["attempted"] - result["failed"], result["failed"],
            json.dumps(report.get("failures", {})), json.dumps(report.get("oracle", {}))))
        print("PB_DRIFTS expected=%s adopted=%s" % (report.get("drifts_expected"), report.get("drifts_adopted")))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
