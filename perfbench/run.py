#!/usr/bin/env python3
"""Builds the benchmark and the cwp-serve binary from source, then runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default: .bench_build at the
repository root). The last line of stdout is the run's JSON result; it is
printed only when it names exactly the metrics BENCHMARK.json lists for
the requested mode. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must exit within 180 s of the benchmark starting; builds are
# not counted against this.
RUN_TIMEOUT_S = 170
# What a source revision is made of, when there is no git metadata.
SOURCE_PARTS = ["Cargo.toml", "Cargo.lock", "crates", "src", "perfbench/src",
                "perfbench/Cargo.toml"]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def source_rev():
    """The git revision, or a digest of the sources when git has none."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for part in SOURCE_PARTS:
        top = os.path.join(ROOT, part)
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (("perfbench/Cargo.toml", []), ("Cargo.toml", ["--bin", "cwp-serve"])):
        cmd = ["cargo", "build", "--release", "--offline", "-q",
               "--manifest-path", os.path.join(ROOT, manifest)] + extra
        # Build output goes to stderr so stdout carries only results.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build of {manifest} failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    want = expected_metrics(args.trace == 1)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(ROOT, ".bench_build"))
    build(target)
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(release, "cwp-serve"), "--rev", source_rev()]
    # Its own process group, so a timeout also stops any server it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, units {sorted(n for n in want if got.get(n, want[n]) != want[n])}")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
