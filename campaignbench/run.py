#!/usr/bin/env python3
"""Build and run the campaign benchmark.

    python3 campaignbench/run.py --workload fabric-fine --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The script builds the runner
(campaignbench/bin/main.exe) with dune, scrubs every inherited GCR_*
variable, and runs it in a fresh working directory under .cbench/ so
that no minheap memo, result cache or artifact store survives from an
earlier run.  The runner's standard output is passed through; its last
line is the JSON result.  Spans of traced runs are kept in .cbench/out/.

Exit status: the runner's, or 2 when the checkout cannot be built.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
EXE = os.path.join(ROOT, "_build", "default", "campaignbench", "bin", "main.exe")


def die(msg):
    print("campaignbench: " + msg, file=sys.stderr)
    sys.exit(2)


def clean_env(work):
    env = {k: v for k, v in os.environ.items() if not k.startswith("GCR_")}
    env["TMPDIR"] = work
    env["DUNE_CACHE"] = "disabled"
    return env


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the runner is built from."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("lib", "campaignbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return "src:" + h.hexdigest()[:16]


def build(env):
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ROOT, "./campaignbench/bin/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if done.returncode != 0 or not os.path.isfile(EXE):
        die("build failed (dune exit %d)" % done.returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no dune project with lib/ at %s; run from a full source checkout" % ROOT)

    bench_dir = os.path.join(ROOT, ".cbench")
    work = os.path.join(bench_dir, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = clean_env(work)
    try:
        build(env)
        cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--ref-dir", os.path.join(ROOT, "campaignbench", "reference"),
               "--out-dir", os.path.join(bench_dir, "out"),
               "--source-id", source_id()]
        # Own process group: on a timeout the forked fabric workers go too.
        proc = subprocess.Popen(cmd, cwd=work, env=env, start_new_session=True)
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            die("runner exceeded %d s" % RUN_TIMEOUT_S)
        return code
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
