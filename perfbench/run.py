#!/usr/bin/env python3
"""The repository benchmark: builds the program from source, runs one
workload and prints its result as the last stdout line (README.md beside
this file documents workloads, metrics and the result line).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); scratch files
of a run go to a work directory under it and are removed afterwards; the
traced run's Chrome trace stays in its traces/ directory.
Exit code 0 means every correctness check passed; 1 means a check failed
(the result line then says "correct": false); 2 means the benchmark could
not run at all, and then no result line is printed.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-uniform-k", "large-crash-window", "paper-figure",
             "server-mixed"]
# A run that exceeds this is killed: the benchmark must finish within 180 s.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(
            "no program sources next to the benchmark (expected "
            "CMakeLists.txt and src/ in %s)" % ROOT)
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target"]
                   + targets, stdout=sys.stderr, check=True)
    return out


def run_benchmark(args, out):
    work = os.path.join(out, "work", "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [
        os.path.join(out, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--server-bin", os.path.join(out, "tools", "campaign_server"),
        "--worker-bin", os.path.join(out, "tools", "campaign_cli"),
        "--work-dir", work,
        "--digests", os.path.join(HERE, "digests.txt"),
    ]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.perturb:
        command += ["--perturb", args.perturb]
    # Scratch files of the subprocess backend land in the work directory.
    env = dict(os.environ, TMPDIR=work)
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                             start_new_session=True, text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # Nothing the run started may outlive it.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    return child.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--perturb", choices=["digest", "output"],
                        help="corrupt the committed digest or one output "
                             "byte; the run must then fail")
    args = parser.parse_args()
    try:
        begin = time.monotonic()
        out = build(["perfbench"])
        print("perfbench: build ready in %.1f s" % (time.monotonic() - begin),
              file=sys.stderr)
        code, stdout = run_benchmark(args, out)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    lines = stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        print("perfbench: the run printed no result (exit %d)" % code,
              file=sys.stderr)
        return code if code != 0 else 2
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
