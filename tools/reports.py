"""Every benchmark output of one checkout, as one JSON file.

    python3 tools/reports.py TREE OUT

TREE is the root of a checkout; its engine (``src/``) and its benchmark
inputs (``bench/inputs.py``) are loaded. OUT receives, for seeds 1-3:

- every report of the ``pipeline`` and ``blowup`` problems: each job's
  argv, exit code, stderr and its ``--json`` report, ``engine`` counters
  included (its raw stdout when that is not JSON), each from a fresh
  forked process;
- every ``kernel`` result, computed as ``bench/worker.py kernel`` does,
  without its timing.

A change that should alter no output is checked by running this on the
parent and on the change and comparing the two files with ``diff``;
the last line printed sums the ``engine`` counters (Groebner runs,
S-pairs, basis conversions and quotient rings built). Processes run with
``PYTHONHASHSEED=0``, as the benchmark's do.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import traceback

SEEDS = (1, 2, 3)


def _run_forked(cli, argv: list) -> dict:
    """cli.main(argv) in a forked child: its exit code, stderr and report."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            result = {"code": code, "stderr": err.getvalue()}
            try:
                result["report"] = json.loads(out.getvalue())
            except ValueError:
                result["stdout"] = out.getvalue()
        except BaseException:
            result = {"error": traceback.format_exc()}
        with os.fdopen(wfd, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, encoding="utf-8") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    return json.loads(data) if data else {"error": f"wait status {status}"}


def cli_reports(cli, inputs, workdir: str) -> dict:
    """{workload: {seed: [job record]}} for the pipeline and blow-up workloads."""
    done: dict = {}  # (germ, command, engine seed) -> record; germs do not depend on the seed
    out: dict = {}
    for workload, batch in (("pipeline", inputs.pipeline_batch), ("blowup", inputs.blowup_batch)):
        for seed in SEEDS:
            germs, jobs = batch(seed)
            records = []
            for job in jobs:
                key = (job.germ, job.command, job.engine_seed)
                if key not in done:
                    path = os.path.join(workdir, f"{job.germ}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(germs[job.germ].descriptor, fh)
                    argv = [job.command[0], path, "--json", "--seed", str(job.engine_seed),
                            *job.command[1:]]
                    record = _run_forked(cli, argv)
                    record = json.loads(json.dumps(record).replace(workdir, "<workdir>"))
                    done[key] = dict(record, argv=[a.replace(workdir, "<workdir>") for a in argv])
                records.append(done[key])
            out.setdefault(workload, {})[str(seed)] = records
    return out


def kernel_results(worker, inputs) -> dict:
    """{seed: [result]} for the kernel workload, in one process as its worker runs them."""
    from gecc_kit import ideal
    from gecc_kit.polyring import base_context, parse_polynomial

    ctx = base_context(inputs.KERNEL_VARS)
    out = {}
    for seed in SEEDS:
        results = []
        for problem in inputs.kernel_batch(seed):
            result = worker._kernel_problem(ideal, parse_polynomial, ctx, problem)
            del result["solve_s"]
            results.append(result)
        out[str(seed)] = results
    return out


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tree, target = (os.path.abspath(a) for a in argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("PYTHONPATH", None)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import inputs
    import worker
    from gecc_kit import cli

    with tempfile.TemporaryDirectory() as workdir:
        report = cli_reports(cli, inputs, workdir)
    report["kernel"] = kernel_results(worker, inputs)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    records = [r for w in ("pipeline", "blowup") for rs in report[w].values() for r in rs]
    engine = [r.get("report", {}).get("engine", {}) for r in records]
    print(f"{len(records)} reports ({sum('error' in r for r in records)} errors), "
          f"{sum(e.get('groebner_runs', 0) for e in engine)} Groebner runs, "
          f"{sum(e.get('spairs', 0) for e in engine)} S-pairs, "
          f"{sum(e.get('basis_conversions', 0) for e in engine)} basis conversions, "
          f"{sum(e.get('quotient_rings', 0) for e in engine)} quotient rings; "
          f"{sum(map(len, report['kernel'].values()))} kernel results")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
