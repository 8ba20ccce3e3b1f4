#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0

Run from the repository root. The Go toolchain's caches and the binary
go under .bench_build/ in the checkout; the benchmark's own output (the
last stdout line is the JSON result) passes through unchanged, and its
exit code is this script's. See e2ebench/README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run measures for --seconds (at most 60) plus set-up and checks; a
# wedged run is killed well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def source_digest():
    """Fingerprint the Go sources, standing in for a commit id in
    checkouts that are not git repositories."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src:" + h.hexdigest()[:16]


def git_commit():
    """The checkout's commit, when it is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return ""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def main():
    home = os.path.join(BUILD, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
        HOME=home,
        XDG_CONFIG_HOME=home,
        XDG_CACHE_HOME=home,
    )
    binary = os.path.join(BUILD, "e2ebench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    env["E2EBENCH_SOURCE"] = source_digest()
    env["E2EBENCH_COMMIT"] = git_commit()
    args = [binary] + sys.argv[1:] + ["--trace-dir", os.path.join(BUILD, "traces")]
    try:
        return subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
