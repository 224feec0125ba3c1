"""Engine-side processes of the benchmark, driven over JSON lines on stdin.

``worker.py cli``: a fork server. It imports ``gecc_kit.cli`` once, then
forks one child per problem, so every problem runs in a fresh process
with the package already imported and no engine cache carried over.
The child times ``cli.main`` from loading the descriptor to the printed
report and sends back the report, the time and its peak resident memory.

``worker.py kernel``: one library process that runs ideal problems
through ``gecc_kit.ideal``, one request each, and times the four calls.

A request with ``"trace": true`` runs with the timing wrappers of
``spans.py`` installed; otherwise nothing is wrapped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402

# A problem that runs longer than this is killed and counted as failed,
# so that one stuck problem cannot hold a run past its time limit.
PROBLEM_TIMEOUT_S = 60


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _solve_in_child(cli, request: dict) -> dict:
    tracer = None
    if request.get("trace"):
        tracer = spans.Tracer()
        spans.install(tracer)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        code = cli.main(request["argv"])
        solve_s = time.perf_counter() - started
    return {
        "code": code,
        "solve_s": solve_s,
        "rss_kb": _peak_rss_kb(),
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "trace": tracer.snapshot() if tracer else None,
    }


def _read_all(fd: int) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def serve_cli() -> None:
    from gecc_kit import cli

    for line in sys.stdin:
        request = json.loads(line)
        rfd, wfd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(rfd)
            signal.alarm(request.get("timeout_s", PROBLEM_TIMEOUT_S))
            try:
                result = _solve_in_child(cli, request)
            except Exception:
                result = {"error": traceback.format_exc()}
            with os.fdopen(wfd, "wb") as fh:
                fh.write(json.dumps(result).encode())
            os._exit(0)
        os.close(wfd)
        data = _read_all(rfd)
        os.close(rfd)
        _, status = os.waitpid(pid, 0)
        if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGALRM:
            result = {"error": "problem outlasted its time limit", "timed_out": True}
        elif status or not data:
            result = {"error": f"problem process ended with wait status {status}"}
        else:
            result = json.loads(data)
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


def _kernel_problem(ideal, parse, ctx, problem: dict) -> dict:
    I = ideal.Ideal(ctx, [parse(g, ctx) for g in problem["I"]])
    h = parse(problem["h"], ctx)
    J = ideal.Ideal(ctx, [parse(g, ctx) for g in problem["J"]])
    started = time.perf_counter()
    basis = I.groebner_basis()
    sat_h = ideal.saturate_element(I, h)
    elim = ideal.eliminate(I, ["x"])
    sat_J = ideal.saturate(I, J)
    solve_s = time.perf_counter() - started
    return {
        "solve_s": solve_s,
        "groebner": [str(g) for g in basis],
        "saturate_element": [str(g) for g in sat_h.generators],
        "eliminate": [str(g) for g in elim.generators],
        "saturate": [str(g) for g in sat_J.ideal.generators],
        "saturate_exponent": sat_J.exponent,
    }


def serve_kernel() -> None:
    from gecc_kit import ideal
    from gecc_kit.polyring import base_context, parse_polynomial

    for line in sys.stdin:
        request = json.loads(line)
        ctx = base_context(request["vars"])
        tracer = uninstall = None
        if request.get("trace"):
            tracer = spans.Tracer()
            uninstall = spans.install(tracer)
        try:
            result = _kernel_problem(ideal, parse_polynomial, ctx, request["problem"])
        finally:
            if uninstall:
                uninstall()
        result["rss_kb"] = _peak_rss_kb()
        result["trace"] = tracer.snapshot() if tracer else None
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    {"cli": serve_cli, "kernel": serve_kernel}[sys.argv[1]]()
