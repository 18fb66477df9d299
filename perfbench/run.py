"""cartier-lab benchmark: one command, four seeded batch workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload finite-hom --seed 1 --seconds 22 --trace 0

The runner generates the workload's inputs from the seed (gen.py), writes
them as JSON documents into a scratch directory of the checkout, and runs
the jobs in fresh single-threaded worker processes, one at a time: a
closed loop with a single caller.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it prints the per-layer metrics of
a traced pass, the layer micro-operations, and the tracing overhead.
Answers are checked against independent oracles outside the timed
region, and a SHA-256 digest over the canonical answers is compared with
every earlier run of the same seed and source tree.  The last line of
standard output is one JSON object; the exit code is 0 only when every
answer is correct.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes timed for setup_s, including the run's own
TIME_LIMIT_S = 170.0  # every run ends within this wall time
WORK_DIR = ".perfbench_work"
DIGEST_FILE = os.path.join(".perfbench_out", "digests.json")
PACKAGE = os.path.join("src", "cartier_lab")

UNITS = {
    "jobs_per_s": "jobs/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def source_fingerprint(root):
    h = hashlib.sha256()
    pkg = os.path.join(root, PACKAGE)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def answers_digest(answers):
    """SHA-256 over the canonical answers, in job order."""
    h = hashlib.sha256()
    for key in sorted(answers, key=int):
        h.update(json.dumps([int(key), answers[key]], sort_keys=True).encode())
    return h.hexdigest()


class Bench:
    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.inputs = gen.generate(args.workload, args.seed)
        self.dir = os.path.join(
            root, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"), HERE]),
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "NUMBA_NUM_THREADS": "1",
        })
        self.env.pop("CARTIER_LAB_MAX_ITER", None)

    def write_inputs(self):
        docs = os.path.join(self.dir, "docs")
        os.makedirs(docs)
        for name, doc in self.inputs["documents"].items():
            with open(os.path.join(docs, name + ".json"), "w",
                      encoding="utf-8") as fh:
                fh.write(gen.canonical(doc))

    def worker(self, mode, tag, trace=0):
        spec = {
            "mode": mode,
            "workload": self.args.workload,
            "jobs": self.inputs["jobs"],
            "seconds": self.args.seconds,
            "trace": trace,
        }
        spec_path = os.path.join(self.dir, f"spec-{tag}.json")
        result_path = os.path.join(self.dir, f"result-{tag}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before a worker could start")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
                 result_path],
                cwd=self.dir, env=self.env, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker exceeded the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)

    def check_digest(self, digest):
        """Compare with earlier runs of this seed on the same source."""
        path = os.path.join(self.root, DIGEST_FILE)
        inputs = hashlib.sha256(gen.canonical(self.inputs).encode())
        key = (f"{self.args.workload}:{self.args.seed}:"
               f"{source_fingerprint(self.root)}:{inputs.hexdigest()}")
        known = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                known = json.load(fh)
        previous = known.setdefault(key, digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return previous == digest

    # -- the two kinds of run ---------------------------------------------

    def timed(self):
        setups = [self.worker("setup", f"setup{i}")["setup_s"]
                  for i in range(SETUP_SAMPLES - 1)]
        res = self.worker("run", "run")
        setups.append(res["setup_s"])
        # Job times are scaled to the reference machine speed (see
        # calibrate.py), and each job's time is its median over the passes.
        samples = {}
        for job_id, t, f in zip(res["run_ids"], res["times"], res["factors"]):
            samples.setdefault(job_id, []).append(t * f)
        per_job = sorted(statistics.median(ts) for ts in samples.values())
        cuts = statistics.quantiles(per_job, n=100, method="inclusive")
        failed_ids = set(res["failed_ids"])
        attempted = len(res["run_ids"])
        failed = sum(1 for j in res["run_ids"] if j in failed_ids)
        metrics = {
            "jobs_per_s": (len(per_job) - len(failed_ids)) / sum(per_job),
            "job_s.p50": statistics.median(per_job),
            "job_s.p90": cuts[89],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        tail = sum(1 for t in per_job if t > cuts[89])
        notes = [
            f"{attempted} job runs in {sum(res['times']):.2f} s of job time: "
            f"{res['passes']} passes over {len(per_job)} jobs, closed loop, "
            "1 worker; each job timed as its median over the passes",
            f"job_s.p90 has {tail} of {len(per_job)} jobs above it",
            f"speed factors {min(res['factors']):.3f}-"
            f"{max(res['factors']):.3f}; raw job time "
            f"{sum(res['times']):.2f} s",
            f"setup_s is the median of {len(setups)} fresh processes",
            f"fail_frac {failed / attempted:.4f} ratio ({failed}/{attempted})",
        ]
        return res, metrics, attempted, failed, notes

    def traced(self):
        plain = self.worker("pass", "plain")
        traced = self.worker("pass", "traced", trace=1)
        micro = self.worker("micro", "micro")["micro"]
        metrics = dict(traced["layers"])
        metrics.update(micro)
        metrics["trace.overhead_frac"] = traced["busy_s"] / plain["busy_s"] - 1
        if answers_digest(traced["answers"]) != answers_digest(
                plain["answers"]):
            plain["mismatches"] = ["traced pass changed an answer"]
        attempted = len(plain["answers"])
        failed = len(plain["failed_ids"])
        notes = [f"one pass of {attempted} jobs untraced "
                 f"({plain['raw_s']:.2f} s raw) and traced "
                 f"({traced['raw_s']:.2f} s raw); overhead from scaled times"]
        return plain, metrics, attempted, failed, notes


def layer_unit(name):
    if name.endswith("_us") or "_us." in name:
        return "us"
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, PACKAGE, "__init__.py")):
        print(f"perfbench: no {PACKAGE} under {root}; run from the "
              "repository root", file=sys.stderr)
        return 2
    bench = Bench(root, args)
    try:
        bench.write_inputs()
        if args.trace:
            res, metrics, attempted, failed, notes = bench.traced()
        else:
            res, metrics, attempted, failed, notes = bench.timed()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass

    digest = answers_digest(res["answers"])
    stable = bench.check_digest(digest)
    wrong = res["wrong"]
    correct = not wrong and not res["mismatches"] and stable
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        unit = UNITS.get(name) or layer_unit(name)
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  results digest sha256:{digest}")
    for job_id, reason in sorted(wrong.items(), key=lambda kv: int(kv[0])):
        print(f"  WRONG job {job_id}: {reason}")
    if res["mismatches"]:
        print(f"  WRONG answers changed between runs: {res['mismatches']}")
    if not stable:
        print("  WRONG digest differs from an earlier run of this seed")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS.get(name) or layer_unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
