#!/usr/bin/env python3
"""Build and run the qoslb benchmark (see perfbench/README.md).

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

The first form runs one workload; the last line of its output is the
result object. `--workload all` runs every workload untraced and traced,
prints each report and exits nonzero if any check failed.

The benchmark binary is built from source with cargo into
$CARGO_TARGET_DIR (default: .bench_build at the repository root).
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim-crowded", "sim-tight", "serve-sync", "serve-pipelined"]
BUILD_TIMEOUT_S = 850
# A run is killed after twice its --seconds plus RUN_SLACK_S (room for
# set-up, warm-up and the traced replays), but never later than
# RUN_TIMEOUT_S while that still leaves the slack.
RUN_SLACK_S = 30
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit, or a hash of the sources in a checkout without git."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if ".bench_build" in f or os.sep + "target" + os.sep in f:
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def build():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        res = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if res.returncode != 0:
        fail(f"build failed with exit code {res.returncode}")
    return os.path.join(target, "release", "qlb-perfbench")


def run(binary, args, env):
    """Run the benchmark binary, echoing its stdout; returns (code, last line)."""
    try:
        seconds = float(flag(args, "--seconds", "10"))
    except ValueError:
        seconds = 10.0  # the binary rejects the value and exits at once
    timeout = max(RUN_TIMEOUT_S, 2 * seconds + RUN_SLACK_S)
    try:
        res = subprocess.run([binary] + args, env=env, capture_output=True,
                             text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)}: no result within {timeout:.0f} s")
    sys.stdout.write(res.stdout)
    sys.stderr.write(res.stderr)
    sys.stdout.flush()
    lines = res.stdout.strip().splitlines()
    return res.returncode, lines[-1] if lines else ""


def flag(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main():
    args = sys.argv[1:]
    workload = flag(args, "--workload", None)
    if workload is None:
        fail("--workload is required")
    binary = build()
    env = dict(os.environ, QLB_PERFBENCH_COMMIT=source_id())
    if workload != "all":
        code, _ = run(binary, args, env)
        sys.exit(code)

    seed = flag(args, "--seed", "1")
    seconds = flag(args, "--seconds", "10")
    worst = 0
    summary = []
    for w in WORKLOADS:
        for trace in ["0", "1"]:
            print(f"== {w} trace {trace}", flush=True)
            code, last = run(binary, ["--workload", w, "--seed", seed, "--seconds",
                                      seconds, "--trace", trace], env)
            worst = max(worst, code)
            if trace == "0" and last.startswith("{"):
                r = json.loads(last)
                cells = "  ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items())
                summary.append(f"{w:<16} correct {r['correct']}  failed {r['failed']}/{r['attempted']}  {cells}")
            elif trace == "0":
                summary.append(f"{w:<16} no result (exit code {code})")
    print("== summary")
    print("\n".join(summary))
    sys.exit(worst)


if __name__ == "__main__":
    main()
