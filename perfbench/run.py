#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <compile_corpus|trajectory_wide|service_mix> \
        --seed <n> --seconds <s> --trace <0|1> [--threads <n>]

Builds the `opc-perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build` at the repository root), runs it, and relays its
standard output; the last line is the result object. Build output goes to
standard error. Exits non-zero, without a result line, when the build or the
run fails.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 175


def source_id():
    """The commit id when the tree is a git checkout, else a digest of the
    sources the benchmark builds from."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    roots = [ROOT / "crates", ROOT / "perfbench"]
    files = []
    for base in roots:
        if base.is_dir():
            files += [
                p
                for p in base.rglob("*")
                if p.is_file()
                and "target" not in p.relative_to(base).parts
                and (p.suffix in (".rs", ".toml", ".lock") or p.name == "run.py")
            ]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--threads", type=int, help="pool size (default: the host's core count)")
    args = ap.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    manifest = ROOT / "perfbench" / "Cargo.toml"
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    binary = target / "release" / "opc-perfbench"
    store = target / f"perfbench-store-{os.getpid()}"
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--commit", source_id(),
        "--store-dir", str(store),
    ]
    if args.threads is not None:
        cmd += ["--threads", str(args.threads)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"run.py: benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
