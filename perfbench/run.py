#!/usr/bin/env python3
"""Build and run the repository benchmark (BENCHMARK.json describes it).

Run from anywhere inside a checkout; the benchmark builds from source into
.bench_build/ at the checkout root and writes nothing outside it:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload serve-single --seed 4 --seconds 15 --trace 1

Spread mode runs one workload N times on seeds B..B+N-1 and prints each
metric's median, quartiles and quartile spread as a share of the median:

    python3 perfbench/run.py --spread 10 --seed-base 1 --workload fleet-replay --seconds 15 --trace 0
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175
STAMP = "perfbench env "
STAMP_SPREAD = ("requests", "p50_us", "p90_us", "p99_us")


def go_env():
    """The Go toolchain's environment: every cache and the toolchain's own
    config directory inside the checkout, no network, no git."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="-buildvcs=false",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: building the benchmark failed; it needs the repository's Go sources next to perfbench/\n")
        sys.exit(2)


def source_digest():
    """sha256 over the checkout's Go sources and module files, for the stamp."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    """HEAD of the checkout, or "none" when the checkout itself is not a
    git repository (git may not search the directories above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run(args, env, capture=False):
    """Run the built benchmark once; returns (exit code, stdout)."""
    try:
        proc = subprocess.run([BIN] + args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: the benchmark exceeded %d s and was stopped\n" % RUN_TIMEOUT_S)
        return 1, ""
    return proc.returncode, proc.stdout or ""


def spread(args, env):
    """--spread N [--seed-base B]: N runs on seeds B.., quartiles per metric."""
    n, base, rest = 10, 1, []
    i = 0
    while i < len(args):
        if args[i] == "--spread":
            n = int(args[i + 1])
            i += 2
        elif args[i] == "--seed-base":
            base = int(args[i + 1])
            i += 2
        elif args[i] == "--seed":
            i += 2  # spread mode chooses the seeds
        else:
            rest.append(args[i])
            i += 1
    values, failed = {}, 0
    for k in range(n):
        code, out = run(rest + ["--seed", str(base + k)], env, capture=True)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            sys.stderr.write("run.py: seed %d failed (exit %d)\n" % (base + k, code))
            return 1
        res = json.loads(lines[-1])
        failed += res["failed"] if res["correct"] else max(1, res["failed"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        # The serve workloads' latency percentiles ride in the stamp.
        stamp = json.loads(lines[-2][len(STAMP):]) if len(lines) > 1 and lines[-2].startswith(STAMP) else {}
        for key in STAMP_SPREAD:
            if key in stamp:
                values.setdefault("stamp." + key, []).append(stamp[key])
        print("seed %d: %s" % (base + k, " ".join("%s=%.6g" % (name, vs[-1]) for name, vs in sorted(values.items()))))
    summary = {}
    print("%-32s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3", "iqr/med"))
    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], vs[0], vs[0])
        rel = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": rel, "runs": len(vs)}
        print("%-32s %12.6g %12.6g %12.6g %8.4f" % (name, med, q1, q3, rel))
    print(json.dumps({"runs": n, "failed": failed, "metrics": summary}))
    return 0 if failed == 0 else 1


def main():
    args = sys.argv[1:]
    build()
    env = dict(os.environ, PERFBENCH_SOURCE=source_digest(), PERFBENCH_COMMIT=commit())
    if "--spread" in args:
        sys.exit(spread(args, env))
    code, _ = run(args, env)
    sys.exit(code)


if __name__ == "__main__":
    main()
