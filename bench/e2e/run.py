#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload.  Standard output ends with one JSON line:
      {"correct", "attempted", "failed", "metrics"}.

  python3 bench/e2e/run.py [--runs K] [--seed N] [--seconds S] [--trace 0|1]
                           [--json FILE]
      Every workload, K runs each (run r uses seed N + r), each run in
      its own process.  --json writes a versioned results file.

  python3 bench/e2e/run.py --compare PARENT.json CHANGE.json
      Per (workload, metric): better, worse, same or unresolved, judged
      against the bounds in BENCHMARK.json.

  python3 bench/e2e/run.py --smoke
      Every workload, plain and traced, at a tiny size.

Builds bench/e2e/e2e.exe and bin/ptaintd.exe with dune first (a no-op
when they are current).  Everything it writes stays in the checkout:
_build/ and the .e2e/ trace directory.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

WORKLOADS = ["spec-full", "campaign-warm", "daemon-inproc", "daemon-isolate"]
PINNED = {"daemon-inproc", "daemon-isolate"}
E2E = os.path.join("_build", "default", "bench", "e2e", "e2e.exe")
PTAINTD = os.path.join("_build", "default", "bin", "ptaintd.exe")
SCHEMA = "ptaint-e2e/1"
RUN_TIMEOUT = 170  # seconds for one workload run, build excluded


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", os.path.join("bin", "ptaintd.ml")):
        if not os.path.isfile(need):
            die("%s not found: run from the root of a ptaint checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./bench/e2e/e2e.exe", "./bin/ptaintd.exe"]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        die("build failed")


class Child:
    """One e2e.exe process in its own session; whatever it leaves behind
    is killed with the session when it ends."""

    current = None

    def __init__(self, args, cpu=None):
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        self.proc = subprocess.Popen([E2E] + args + ["--ptaintd", PTAINTD],
                                     stdout=subprocess.PIPE, text=True,
                                     start_new_session=True, preexec_fn=pin)
        Child.current = self

    def finish(self):
        try:
            out, _ = self.proc.communicate(timeout=RUN_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            die("e2e.exe did not finish within %d s" % RUN_TIMEOUT, 3)
        self.kill()
        return self.proc.returncode, out

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        Child.current = None


def on_signal(signum, _frame):
    if Child.current is not None:
        Child.current.kill()
    sys.exit(128 + signum)


def run_one(workload, seed, seconds, trace):
    # A daemon workload's client, ptaintd and worker share one CPU: a job
    # then passes between them by context switches on that CPU, not by
    # wake-ups across vCPUs, whose latency the host sets.
    cpu = max(os.sched_getaffinity(0)) if workload in PINNED else None
    code, out = Child(["--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)], cpu).finish()
    return code, out


def parse(out):
    """Per-metric within-run summaries from the metric lines, and the
    verdict object from the last line."""
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    within = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 4:
            stats = dict(f.split("=", 1) for f in fields[4:] if "=" in f)
            within[fields[1]] = {k: float(v) for k, v in stats.items()}
    return result, within


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor()}


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def run_all(args):
    workloads = [args.workload] if args.workload else WORKLOADS
    report = {"schema": SCHEMA, "seed": args.seed, "runs": args.runs,
              "seconds": args.seconds, "trace": args.trace, "commit": commit(),
              "host": host(), "workloads": {}}
    entries = {w: {"correct": True, "attempted": 0, "failed": 0, "metrics": {}} for w in workloads}
    # Round-robin over workloads, so that every workload's runs meet the
    # same drift in host speed.
    for r in range(args.runs):
        for w in workloads:
            entry = entries[w]
            code, out = run_one(w, args.seed + r, args.seconds, args.trace)
            sys.stdout.write(out)
            sys.stdout.flush()
            result, within = parse(out)
            if code != 0 or result is None:
                entry["correct"] = False
                continue
            entry["correct"] &= result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                e = entry["metrics"].setdefault(name, {"unit": m["unit"], "values": [], "per_run": []})
                e["values"].append(m["value"])
                e["per_run"].append(dict(within.get(name, {}), value=m["value"]))
    for w, entry in entries.items():
        for e in entry["metrics"].values():
            v = e["values"]
            q1, q3 = quartiles(v)
            e.update(n=len(v), median=statistics.median(v), q1=q1, q3=q3, min=min(v), max=max(v))
        report["workloads"][w] = entry
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if all(e["correct"] for e in entries.values()) else 1


def verdict(parent, change, better, bound):
    """A change is worse when its median is worse by more than the
    bound, and better only when it wins nine pairs in ten and its median
    moves by more than the parent's own quartile spread.  It is
    unresolved when that spread is wider than the bound, unless every
    run of one side beats every run of the other; otherwise the same."""
    sign = 1 if better == "higher" else -1
    mp, mc = statistics.median(parent), statistics.median(change)
    gain = sign * (mc - mp) / mp
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / mp
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if spread > bound and not (all_better or all_worse):
        v = "unresolved"
    elif gain < -bound:
        v = "worse"
    elif gain > spread and pairs and wins >= 0.9 * len(pairs):
        v = "better"
    else:
        v = "same"
    return v, mp, mc, gain, spread


def compare(parent_path, change_path):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(parent_path) as f:
        parent = json.load(f)
    with open(change_path) as f:
        change = json.load(f)
    print("%-15s %-15s %12s %12s %8s %8s %6s  %s" % (
        "workload", "metric", "parent", "change", "delta", "spread", "bound", "verdict"))
    worse = 0
    for w, pw in parent["workloads"].items():
        cw = change["workloads"].get(w)
        if cw is None:
            continue
        for m in bench["end_to_end"]:
            pm, cm = pw["metrics"].get(m["name"]), cw["metrics"].get(m["name"])
            if pm is None or cm is None:
                continue
            v, mp, mc, gain, spread = verdict(pm["values"], cm["values"], m["better"], m["bound"])
            worse += v == "worse"
            print("%-15s %-15s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s" % (
                w, m["name"], mp, mc, 100 * gain, 100 * spread, 100 * m["bound"], v))
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--json")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    build()
    if args.smoke:
        code, out = Child(["--smoke"]).finish()
        sys.stdout.write(out)
        sys.exit(code)
    if args.workload and args.runs == 1 and not args.json:
        # one run of one workload: pass its output through untouched
        code, out = run_one(args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        sys.exit(code)
    sys.exit(run_all(args))


if __name__ == "__main__":
    main()
