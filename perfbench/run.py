#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). The
benchmark binary runs in a process group of its own; if any process of
that group (a shard worker, say) is still alive when the binary exits, the
run fails. The last line of stdout is the binary's JSON result, checked
here to name exactly the metrics BENCHMARK.json lists for the mode.
"""

import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def expected_metrics(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    os.chdir(ROOT)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # Unix sockets of the UDS workers go here: inside the checkout, and
    # relative so the socket paths stay short.
    tmp = os.path.join(".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp

    manifest = os.path.join("perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed ({build.returncode})")

    argv = sys.argv[1:]
    binary = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen(
        [binary] + argv, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if group_alive(proc.pid):
        os.killpg(proc.pid, signal.SIGKILL)
        fail("a process started by the benchmark outlived it")
    if proc.returncode != 0:
        sys.stdout.write(out)
        sys.exit(proc.returncode)

    lines = out.strip().splitlines()
    if not lines:
        fail("no result printed")
    result = json.loads(lines[-1])
    names = set(result["metrics"])
    want = expected_metrics(argv)
    if names != want:
        fail(f"metrics {sorted(names ^ want)} disagree with BENCHMARK.json")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
