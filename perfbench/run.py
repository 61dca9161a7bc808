#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload batch-skew --seed 1 --seconds 10 --trace 0

The Go program is built from source into .bench_build/ (with its build
cache there too, so nothing is written outside the checkout), then run
with the given arguments; its exit status is passed through. The
revision recorded in the provenance line is the git commit when the
checkout is a git repository, else a digest of the Go sources.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(OUT, "perfbench")


def source_revision():
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    env = dict(os.environ,
               GOCACHE=os.path.join(OUT, "gocache"),
               GOMODCACHE=os.path.join(OUT, "gomodcache"),
               GOPATH=os.path.join(OUT, "gopath"),
               XDG_CONFIG_HOME=os.path.join(OUT, "config"),
               GOTOOLCHAIN="local",
               GOPROXY="off",
               CGO_ENABLED="0")
    return subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env).returncode


def main():
    os.makedirs(OUT, exist_ok=True)
    if build() != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [BIN, "--out", OUT, "--commit", source_revision()] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
