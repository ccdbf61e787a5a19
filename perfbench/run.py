#!/usr/bin/env python3
"""Build and run the F-CAD host-time benchmark on one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` agent (release, into
$CARGO_TARGET_DIR, default `.bench_build`), then:

- `--trace 0`: runs the timed agent. Its operations alternate between all
  cores and the single-core control; before each it asks, on a `pin` row,
  to be confined to one CPU or released, which this script does with
  `os.sched_setaffinity` before acknowledging on the agent's stdin. The
  agent times its own set-up in fresh processes spread through the run.
- `--trace 1`: runs the traced agent.

Prints the agent's per-operation rows, then one JSON result line with the
keys `correct`, `attempted`, `failed` and `metrics`. Exits non-zero,
without a result line, when the build or an agent run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dse_decoder", "dse_classic", "serve_metropolis")
# The agent must end well inside the 180 s a whole run may take.
AGENT_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def build():
    """Builds the agent and returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo's own output goes to stderr so stdout carries only results.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        raise BenchError(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def run_agent(binary, args):
    """Runs the agent, serving its pin requests; returns (rows, result)."""
    cpus = os.sched_getaffinity(0)
    # The last CPU: the first one takes the VM's device interrupts.
    one_cpu = {max(cpus)}
    proc = subprocess.Popen([binary] + args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(AGENT_TIMEOUT_S, proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            if line.startswith('{"row": "pin"'):
                workers = json.loads(line)["workers"]
                # The main thread's affinity; threads it spawns later inherit it.
                os.sched_setaffinity(proc.pid, one_cpu if workers == 1 else cpus)
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not lines:
        raise BenchError(f"agent {' '.join(args)} exited with {code}")
    return lines[:-1], json.loads(lines[-1])


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build()
    agent_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    rows, result = run_agent(binary, agent_args)
    for row in rows:
        print(row)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
