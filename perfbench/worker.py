"""One benchmark worker process; ``run.py`` starts it, one at a time.

Usage: python3 worker.py SPEC.json RESULT.json

The working directory holds ``docs/`` with the generated documents.
SPEC.json names the workload, the jobs and a mode:

* ``setup``: time set-up only (import, fields and rings, every document
  loaded and validated) and exit;
* ``run``: set up, then run whole passes over the job list in a closed
  loop, stopping at the pass boundary nearest to ``seconds`` of job time
  (so every run measures the same job mix), record peak RSS and apply the
  oracles after the timed region;
* ``pass``: set up, run every job once, optionally with the per-layer
  tracer installed, and report the pass's job time; the untraced pass
  also applies the oracles;
* ``micro``: measure the layer micro-operations and scaling curves.
"""

import hashlib
import json
import resource
import sys
import time

import calibrate


def _digest(answer):
    return hashlib.sha256(
        json.dumps(answer, sort_keys=True).encode()).hexdigest()


class Runner:
    def __init__(self, prep):
        import jobs  # after set-up, which times the first import

        self.answer_of = jobs.answer
        self.prep = prep
        self.by_id = {job["id"]: job for job in prep.jobs}
        self.answers = {}  # job id -> canonical answer of its first run
        self.digests = {}
        self.mismatches = []
        self.times = []  # raw seconds of each timed run
        self.run_ids = []  # job id of each timed run
        self.scale = calibrate.SpeedScale()

    def run_pass(self):
        """Run every job once; returns the pass's raw job time."""
        busy = 0.0
        for job in self.prep.jobs:
            dt = self.run_one(job["id"])
            self.times.append(dt)
            self.run_ids.append(job["id"])
            self.scale.record(dt)
            busy += dt
        self.scale.close()
        return busy

    def scaled_s(self):
        return sum(t * f for t, f in zip(self.times, self.scale.factors))

    def run_one(self, job_id):
        """Run one job; returns its job time in seconds."""
        call = self.prep.calls[job_id]
        t0 = time.perf_counter()
        try:
            res = call()
            err = None
        except Exception as exc:  # a failed job is recorded, not fatal
            err = type(exc).__name__
        dt = time.perf_counter() - t0
        job = self.by_id[job_id]
        ans = {"error": err} if err else self.answer_of(self.prep, job, res)
        digest = _digest(ans)
        if job_id not in self.digests:
            self.digests[job_id] = digest
            self.answers[job_id] = ans
        elif self.digests[job_id] != digest:
            self.mismatches.append(job_id)
        return dt


def _setup(workload, job_list):
    """(prepared jobs, set-up seconds scaled to the reference speed)."""
    before = calibrate.probe()
    t0 = time.perf_counter()
    import jobs

    prep = jobs.Prepared(workload, job_list)
    raw = time.perf_counter() - t0
    after = calibrate.probe()
    return prep, raw * calibrate.REFERENCE_S / ((before + after) / 2)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finish(runner, spec):
    """Apply the oracles (untimed).  A job that raised or failed its oracle
    is failed; its answer repeats on every run (else it is a mismatch), so
    it failed on each of its runs."""
    import oracles
    from jobs import doc_path

    documents = oracles.load_documents(runner.prep.docs, doc_path)
    wrong = oracles.check(spec["workload"], runner.prep.jobs,
                          runner.answers, documents, runner.prep)
    failed = {k for k, ans in runner.answers.items() if "error" in ans}
    return {
        "answers": {str(k): v for k, v in sorted(runner.answers.items())},
        "wrong": {str(k): v for k, v in wrong.items()},
        "mismatches": runner.mismatches,
        "failed_ids": sorted(failed | set(wrong)),
    }


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    mode = spec["mode"]
    out = {}
    if mode == "micro":
        import micro

        out["micro"] = micro.measure()
    elif mode == "setup":
        _, out["setup_s"] = _setup(spec["workload"], spec["jobs"])
    elif mode == "run":
        prep, out["setup_s"] = _setup(spec["workload"], spec["jobs"])
        runner = Runner(prep)
        busy, passes = 0.0, 0
        while busy + busy / max(passes, 1) / 2 < spec["seconds"]:
            busy += runner.run_pass()
            passes += 1
        out["passes"] = passes
        out["peak_rss_mb"] = _peak_rss_mb()
        out["times"] = runner.times
        out["factors"] = runner.scale.factors
        out["run_ids"] = runner.run_ids
        out.update(_finish(runner, spec))
    elif mode == "pass":
        tracer = None
        if spec["trace"]:
            import cartier_lab  # noqa: F401  (wrap after import)
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        prep, out["setup_s"] = _setup(spec["workload"], spec["jobs"])
        runner = Runner(prep)
        out["raw_s"] = runner.run_pass()
        out["busy_s"] = runner.scaled_s()
        out["answers"] = {str(k): v for k, v in sorted(runner.answers.items())}
        if tracer is None:
            out.update(_finish(runner, spec))
        else:
            # layer times take the pass's mean speed factor
            factor = out["busy_s"] / out["raw_s"]
            out["layers"] = {
                name: value * factor if name.endswith("_s") else value
                for name, value in tracer.metrics().items()
            }
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
