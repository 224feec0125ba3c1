"""Sizing sweep: find the (germ, engine seed) pairs the workloads must leave out.

    python3 bench/size.py

Runs the running surface, cusp-line, tangent-triple and every pool germ
through the pipeline subcommands and the blow-up route, for every engine
seed the workloads draw from. Each report goes through the same checks
as a benchmark run. A pair is printed as SLOW when one of its problems
outlasts CAP_S; these lines are the table ``SLOW`` in inputs.py. A pair
is printed as WRONG when one of its problems fails, gives a wrong answer,
or differs from the answer most seeds give. A WRONG pair shows an engine
fault: it enters ``WRONG_ANSWER`` only together with a FOUND entry in
CHANGES.md that names the fault. It takes about ten minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from collections import Counter

import checks
import inputs
from run import BENCH, Worker, clean_env, write_descriptors

CAP_S = 15  # seconds a problem may take; the slow path takes minutes


def main() -> int:
    germs = [inputs.surface_germ(), inputs.cusp_line_germ(), inputs.tangent_triple_germ()]
    germs += inputs.curve_pool()
    commands = list(inputs.PIPELINE_COMMANDS) + [inputs.BLOWUP_COMMAND]
    os.makedirs(os.path.join(BENCH, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(BENCH, ".work"))
    worker = Worker("cli", clean_env())
    slow, wrong = set(), set()
    try:
        paths = write_descriptors({g.name: g for g in germs}, workdir)
        for g in germs:
            for cmd in commands:
                if cmd == inputs.BLOWUP_COMMAND and g.name in ("cusp-line", "tangent-triple"):
                    continue  # not part of the blow-up workload
                reports = {}
                for seed in inputs.ENGINE_SEEDS:
                    argv = [cmd[0], paths[g.name], "--json", "--seed", str(seed), *cmd[1:]]
                    result = worker.ask({"argv": argv, "timeout_s": CAP_S})
                    label = f"{g.name} {' '.join(cmd)} seed {seed}"
                    if "error" in result or result["code"] != 0:
                        print(f"bad  {label}: {result.get('error') or result['stderr']}".strip(),
                              flush=True)
                        (slow if result.get("timed_out") else wrong).add((g.name, seed))
                        continue
                    report = checks.strip_run_fields(json.loads(result["stdout"]))
                    errors = checks.check_report(g, cmd[0], report)
                    if errors:
                        print(f"bad  {label}: {errors}", flush=True)
                        wrong.add((g.name, seed))
                    reports[seed] = json.dumps(report, sort_keys=True)
                    print(f"ok   {label}: {result['solve_s']:.2f} s", flush=True)
                if reports:
                    usual, _ = Counter(reports.values()).most_common(1)[0]
                    for seed, text in reports.items():
                        if text != usual:
                            print(f"bad  {g.name} {' '.join(cmd)} seed {seed}: "
                                  "report differs from most seeds", flush=True)
                            wrong.add((g.name, seed))
    finally:
        worker.close()
        shutil.rmtree(workdir, ignore_errors=True)
    for name, seed in sorted(slow):
        print(f"SLOW ({name!r}, {seed}),")
    for name, seed in sorted(wrong):
        print(f"WRONG ({name!r}, {seed}),  # needs a FOUND entry in CHANGES.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
