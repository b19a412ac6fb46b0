#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `nowa-perf` package (and through it the default build of
`nowa-runtime`) from source, reads from cargo which `nowa-runtime` features
that build has, runs the benchmark with them, and checks that its result line
carries exactly the metrics `BENCHMARK.json` declares: the end-to-end ones
with `--trace 0`, the per-layer ones with `--trace 1`. The last line of
standard output is that result; everything else goes to standard error.

Exits non-zero without printing a result when the build, the run or the check
fails. The build goes to `$CARGO_TARGET_DIR`, `.bench_build` by default.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "Cargo.toml"
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo(*args, **kw):
    return subprocess.run(
        ["cargo", *args, "--offline", "--manifest-path", str(MANIFEST)],
        cwd=ROOT, env=kw.pop("env"), **kw)


def runtime_features(env):
    """The feature set cargo resolved for `nowa-runtime` in this package."""
    out = cargo("tree", "-q", "-p", "nowa-runtime", "--depth", "0", "-e", "normal",
                "-f", "{f}", env=env, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        fail("cargo tree failed")
    return out.stdout.strip()


def check_result(line, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}")


def main():
    argv = sys.argv[1:]
    if "--trace" not in argv or argv.index("--trace") + 1 >= len(argv):
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    trace = argv[argv.index("--trace") + 1] == "1"
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target

    build = cargo("build", "--release", "-q", env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    features = runtime_features(env)
    binary = target / "release" / "nowa-perf"
    try:
        run = subprocess.run([str(binary), *argv, "--runtime-features", features],
                             cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("no result line")
    check_result(lines[-1], trace)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
