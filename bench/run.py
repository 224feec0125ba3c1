"""Engine benchmark: end-to-end and per-layer metrics, with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``pipeline`` (everyday CLI subcommands on the
running surface, cusp-line, tangent-triple and the curve family),
``blowup`` (``vanishing --route both``) and ``kernel`` (library calls into
``gecc_kit.ideal``). With ``--trace 0`` the last line of output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics instead. Every output is checked; the command exits 1
when a check fails. Needs only the standard library and sympy; the
engine is loaded from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import inputs

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); started = time.perf_counter(); "
    "import gecc_kit.cli; print(time.perf_counter() - started)"
)

# Per-layer metrics of a traced run: self times in seconds per round,
# counts per round, and ratios.
SELF_TIME_METRICS = [
    "ideal.groebner_s", "ideal.saturate_element_s", "ideal.eliminate_s", "ideal.saturate_s",
    "ideal.radical_contains_s", "ideal.local_degree_s",
    "cycles.intersection_multiplicity_s", "cycles.divisor_intersect_s", "cycles.pushforward_s",
    "decompose.minimal_primes_s", "decompose.factor_list_s", "decompose.rational_point_s",
    "conormal.conormal_variety_s", "conormal.gecc_assemble_s",
    "hypersurface.polar_curve_s", "hypersurface.nearby_gecc_s", "hypersurface.morse_at_origin_s",
    "vanishing.microsupport_bound_s", "vanishing.isolating_check_s", "vanishing.pi_delta_s",
    "vanishing.reconstruct_s", "vanishing.blowup_s", "vanishing.agreement_s",
    "cli.load_descriptor_s",
]
COUNT_METRICS = {
    "ideal.groebner_runs": "ideal.groebner_runs",
    "ideal.spairs": "ideal.spairs",
    "ideal.local_degree_calls": "ideal.local_degree.calls",
    "ideal.local_degree_gb_runs": "ideal.local_degree_gb_runs",
    "decompose.minimal_primes_calls": "decompose.minimal_primes.calls",
}
PER_LAYER_UNITS = dict(
    {name: "s" for name in SELF_TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    **{
        "ideal.useful_spair_ratio": "ratio",
        "ideal.peak_basis_size": "count",
        "ideal.gb_cache_hit_ratio": "ratio",
        "cycles.multiplicity_samples": "ratio",
        "trace.overhead_pct": "%",
    },
)
END_TO_END_UNITS = {"setup_s": "s", "problems_per_s": "1/s", "solve_p50_s": "s", "peak_rss_mb": "MB"}


def clean_env() -> dict:
    """The engine sees no PYTHONPATH and a fixed hash seed in every process."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict) -> float:
    """Median time to import gecc_kit.cli in a fresh interpreter."""
    def probe() -> float:
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        return float(out.stdout.strip())

    probe()  # the first import may compile bytecode; users import warm
    return statistics.median(probe() for _ in range(SETUP_REPEATS))


class Worker:
    """One worker.py process, spoken to in JSON lines."""

    def __init__(self, mode: str, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "worker.py"), mode],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


class Tally:
    """Solve times, memory, failures and trace totals of one run."""

    def __init__(self):
        self.solve_s: list = []
        self.rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.traced_rounds = 0
        self.traced_solve_s = 0.0
        self.untraced_solve_s = 0.0
        self.self_s: dict = {}
        self.counts: dict = {}
        self.busy_s = 0.0  # time spent waiting on the worker, checks excluded

    def ask(self, worker: Worker, request: dict) -> dict:
        """One request to the worker; its duration counts as measured time."""
        started = time.perf_counter()
        try:
            return worker.ask(request)
        finally:
            self.busy_s += time.perf_counter() - started

    def add_trace(self, snapshot: dict) -> None:
        for k, v in snapshot["self_s"].items():
            self.self_s[k] = self.self_s.get(k, 0.0) + v
        for k, v in snapshot["counts"].items():
            if k == "ideal.peak_basis_size":
                self.counts[k] = max(self.counts.get(k, 0), v)
            else:
                self.counts[k] = self.counts.get(k, 0) + v

    def end_to_end(self, setup_s: float) -> dict:
        values = {
            "setup_s": setup_s,
            "problems_per_s": _ratio(len(self.solve_s), sum(self.solve_s)),
            "solve_p50_s": statistics.median(self.solve_s) if self.solve_s else 0.0,
            "peak_rss_mb": self.rss_kb / 1024,
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    def per_layer(self) -> dict:
        rounds = self.traced_rounds
        c = self.counts
        values = {name: self.self_s.get(name[:-2], 0.0) / rounds for name in SELF_TIME_METRICS}
        for name, key in COUNT_METRICS.items():
            values[name] = c.get(key, 0) / rounds
        values["ideal.useful_spair_ratio"] = _ratio(
            c.get("ideal.nonzero_reductions", 0), c.get("ideal.spairs", 0))
        values["ideal.peak_basis_size"] = c.get("ideal.peak_basis_size", 0)
        calls = c.get("ideal.groebner.calls", 0)
        values["ideal.gb_cache_hit_ratio"] = _ratio(calls - c.get("ideal.groebner_runs", 0), calls)
        values["cycles.multiplicity_samples"] = _ratio(
            c.get("cycles.multiplicity_samples", 0), c.get("cycles.intersection_multiplicity.calls", 0))
        values["trace.overhead_pct"] = 100 * (_ratio(self.traced_solve_s, self.untraced_solve_s) - 1)
        return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# rounds: the same jobs every round; in a traced run each job runs untraced
# and then traced, back to back, so the overhead compares like with like


def run_rounds(worker: Worker, workload, seconds: float, trace: bool) -> Tally:
    tally = Tally()
    while True:
        round_started = tally.busy_s
        for job in workload.jobs:
            for traced in ((False, True) if trace else (False,)):
                result = tally.ask(worker, dict(workload.request(job), trace=traced))
                tally.attempted += 1
                if "error" in result or result.get("code", 0) != 0:
                    # The workloads are sized so that no problem fails: a failure
                    # (a diagnostic exit, an exception, the time limit) fails the run.
                    tally.failed += 1
                    tally.errors.append(f"{job} failed: {result.get('error') or result['stderr']}")
                    continue
                workload.verify(job, result, tally)
                if not trace:
                    tally.solve_s.append(result["solve_s"])
                    tally.rss_kb = max(tally.rss_kb, result["rss_kb"])
                elif traced:
                    tally.traced_solve_s += result["solve_s"]
                    tally.add_trace(result["trace"])
                else:
                    tally.untraced_solve_s += result["solve_s"]
        tally.traced_rounds += trace
        if tally.busy_s + (tally.busy_s - round_started) > seconds:
            return tally


def write_descriptors(germs: dict, workdir: str) -> dict:
    paths = {}
    for name, germ in germs.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(germ.descriptor, fh)
    return paths


class CliWorkload:
    """CLI problems: one descriptor file per germ, checked reports."""

    def __init__(self, checks, germs: dict, jobs: list, paths: dict):
        self.checks = checks
        self.germs = germs
        self.jobs = jobs
        self.paths = paths
        self.reference: dict = {}  # (germ, command) -> report without seed/engine
        self.verdicts: dict = {}  # (germ, subcommand, report text) -> list of errors

    def request(self, job) -> dict:
        argv = [job.command[0], self.paths[job.germ], "--json", "--seed", str(job.engine_seed)]
        return {"argv": argv + list(job.command[1:])}

    def verify(self, job, result: dict, tally: Tally) -> None:
        report = self.checks.strip_run_fields(json.loads(result["stdout"]))
        text = json.dumps(report, sort_keys=True)
        key = (job.germ, job.command[0], text)
        if key not in self.verdicts:
            self.verdicts[key] = self.checks.check_report(
                self.germs[job.germ], job.command[0], report)
        errors = list(self.verdicts[key])
        if text != self.reference.setdefault((job.germ, job.command), text):
            errors.append(f"report depends on the seed (engine seed {job.engine_seed})")
        for e in errors:
            tally.errors.append(f"{job.germ} {' '.join(job.command)}: {e}")


class KernelWorkload:
    """Library calls on seeded ideals; the first result of each is checked with sympy."""

    def __init__(self, checks, problems: list, names: tuple):
        self.checks = checks
        self.jobs = list(range(len(problems)))
        self.problems = problems
        self.names = names
        self.verified: dict = {}  # job -> results of its first run

    def request(self, job) -> dict:
        return {"vars": list(self.names), "problem": self.problems[job]}

    def verify(self, job, result: dict, tally: Tally) -> None:
        results = {k: v for k, v in result.items() if k in KERNEL_RESULTS}
        if job not in self.verified:
            self.verified[job] = results
            tally.errors += self.checks.check_kernel(self.problems[job], results, self.names)
        elif results != self.verified[job]:
            tally.errors.append(f"kernel problem {job} gave a different result on a rerun")


KERNEL_RESULTS = ("groebner", "saturate_element", "eliminate", "saturate", "saturate_exponent")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["pipeline", "blowup", "kernel"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gecc_kit", "cli.py")):
        print(f"engine sources not found: {os.path.join(SRC, 'gecc_kit')}", file=sys.stderr)
        return 2

    env = clean_env()
    trace = bool(args.trace)
    setup_s = None if trace else measure_setup(env)
    # Start the worker before sympy is loaded here: an exec'd process's
    # peak resident memory starts from its parent's.
    worker = Worker("kernel" if args.workload == "kernel" else "cli", env)
    try:
        import checks

        if args.workload == "kernel":
            workload = KernelWorkload(checks, inputs.kernel_batch(args.seed), inputs.KERNEL_VARS)
            tally = run_rounds(worker, workload, args.seconds, trace)
        else:
            make = inputs.pipeline_batch if args.workload == "pipeline" else inputs.blowup_batch
            germs, jobs = make(args.seed)
            os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
            workdir = tempfile.mkdtemp(dir=os.path.join(BENCH, ".work"))
            try:
                workload = CliWorkload(checks, germs, jobs, write_descriptors(germs, workdir))
                tally = run_rounds(worker, workload, args.seconds, trace)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    finally:
        worker.close()

    for e in tally.errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    correct = not tally.errors
    metrics = tally.per_layer() if trace else tally.end_to_end(setup_s)
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
