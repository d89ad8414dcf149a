#!/usr/bin/env python3
"""Run one workload of the repository's benchmark and print its result.

    python3 perfbench/run.py --workload study --seed 7 --seconds 20 --trace 0

Builds the `perfbench` package (release, offline) from the sources of the
checkout it sits in, runs the workload, and prints two lines on stdout:

1. a stamp: host `nproc`, workers, scale, seed, build profile, the output
   digest, and the measurements under their documented names
   (`study_s`, `staged_s`, `recover_s`, `serve_rps`, ...);
2. the result: `{"correct", "attempted", "failed", "metrics"}`, with every
   end-to-end metric of BENCHMARK.json (`--trace 0`) or every per-layer
   metric (`--trace 1`).

`--trace 1` alternates the untraced and the traced binary on the same seed,
two processes each, sharing the window; the per-layer metrics are the
medians of the traced processes, and `trace.overhead_frac` compares the
main measured operation of each traced process with the untraced one run
just before it. Build output and diagnostics go to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check and output.
DEADLINE_S = 170.0
# Untraced/traced process pairs in a traced run.
TRACE_PAIRS = 2


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def declared_metrics():
    """(end_to_end, per_layer) as {name: unit} from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}
    return units("end_to_end"), units("per_layer")


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release")


def run_binary(path, args, seconds, started):
    remaining = DEADLINE_S - (time.monotonic() - started)
    cmd = [path] + args + ["--seconds", f"{seconds:g}"]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(remaining, 1)
        )
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(path)} exceeded the run deadline")
    if done.returncode != 0:
        fail(f"{os.path.basename(path)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["study", "recover", "serve"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="pool workers (default: nproc; more than nproc is refused)")
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: the small inputs the benchmark's own test uses")
    a = p.parse_args()
    started = time.monotonic()

    end_to_end, per_layer = declared_metrics()
    bindir = build()
    # The binaries default workers to nproc and refuse more.
    args = ["--workload", a.workload, "--seed", str(a.seed), "--size", a.size]
    if a.workers is not None:
        args += ["--workers", str(a.workers)]
    plain_bin = os.path.join(bindir, "perfbench")
    if a.trace:
        # Alternate untraced and traced processes so that both see the same
        # host conditions; the overhead is the median of adjacent pairs.
        window = a.seconds / (2 * TRACE_PAIRS)
        pairs = [
            (run_binary(plain_bin, args, window, started),
             run_binary(os.path.join(bindir, "perfbench-traced"), args, window, started))
            for _ in range(TRACE_PAIRS)
        ]
        runs = [r for pair in pairs for r in pair]
        traced = [t for _, t in pairs]
        metrics = {
            name: {"value": statistics.median(t["metrics"][name]["value"] for t in traced),
                   "unit": m["unit"]}
            for name, m in traced[0]["metrics"].items()
        }
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(t["primary_s"] / u["primary_s"] for u, t in pairs) - 1.0,
            "unit": "ratio",
        }
        declared = per_layer
    else:
        runs = [run_binary(plain_bin, args, a.seconds, started)]
        metrics = runs[0]["metrics"]
        declared = end_to_end

    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared:
        fail(f"emitted metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(declared) - set(emitted))}, "
             f"extra {sorted(set(emitted) - set(declared))}, "
             f"units {[n for n in declared if n in emitted and emitted[n] != declared[n]]}", 3)

    # Every process, traced or not, must produce the same output.
    digest_mismatch = len({r["digest"] for r in runs}) != 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs) + int(digest_mismatch)
    correct = all(r["correct"] for r in runs) and not digest_mismatch

    first = runs[0]
    # Documented names, from the untraced run where both report one.
    info = {name: m["value"] for r in reversed(runs) for name, m in r["info"].items()}
    info["failed_frac"] = failed / attempted
    if a.trace:
        # The traced processes' own measurements, such as the share of
        # `staged_s` their timed parts cover.
        info["traced"] = {
            name: statistics.median(t["info"][name]["value"] for t in traced)
            for name in traced[0]["info"]
        }
    stamp = {
        "workload": a.workload, "seed": a.seed, "scale": first["scale"],
        "nproc": first["nproc"], "workers": first["workers"],
        "profile": first["profile"], "size": a.size, "trace": a.trace,
        "seconds": a.seconds,
    }
    print(json.dumps({"stamp": stamp, "digest": first["digest"], "info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
