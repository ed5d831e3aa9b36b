"""End-to-end benchmark of the `states` verifier.

    python3 perfbench/run.py --workload tables --seed 0 --seconds 30 --trace 0

Writes one workload's scenario files from the seed, then runs its `states`
commands in this process (``orbitstates.cli.main``) in whole rounds for
about ``--seconds``, timing each command and checking each report against
references computed apart from the program (checks.py).  Round r uses the
inputs drawn from (seed, r).

--trace 0 prints the end-to-end metrics of untraced rounds.  --trace 1
alternates untraced and traced rounds on the same inputs, prints the
per-layer metrics of the traced ones, requires every traced output file to
be byte-identical to the untraced one, and writes the spans to
perfbench/out/<workload>-trace.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 when every check
passed, 1 when a check failed, 2 when the program's sources are missing.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
MAX_ROUNDS = 16     # input sets written at set-up; later rounds reuse them


def _fail_input(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def load_program():
    if not (SRC / "orbitstates" / "cli.py").is_file():
        _fail_input("no orbitstates sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import orbitstates
    from orbitstates import cli
    if Path(cli.__file__).resolve().parent != SRC / "orbitstates":
        _fail_input("orbitstates imported from %s, not from %s"
                    % (cli.__file__, SRC))
    return orbitstates, cli


def write_scenarios(op_sets, scen_dir):
    for r, ops in enumerate(op_sets):
        round_dir = scen_dir / ("r%02d" % r)
        round_dir.mkdir(parents=True, exist_ok=True)
        for op in ops:
            if op.scenario is not None:
                path = round_dir / (op.name + ".json")
                path.write_text(op.scenario)
                op.argv = op.command + ["--scenario", str(path)]
            else:
                op.argv = list(op.command)


def fresh_import():
    """A new interpreter importing orbitstates.cli, as every `states`
    command does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", "import orbitstates.cli"],
                          env=env, cwd=str(ROOT), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        _fail_input("fresh import failed: %s" % proc.stderr.decode()[-400:])


def setup(op_sets, work_dir, timed):
    """Write the scenario files.  With timed=True, repeat the set-up a user
    pays (fresh import plus scenario files) and return its median time."""
    if not timed:
        write_scenarios(op_sets, work_dir / "scenarios")
        return None
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fresh_import()
        write_scenarios(op_sets, work_dir / "scenarios")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _read_outputs(outdir):
    if not outdir.exists():
        return {}
    return {str(p.relative_to(outdir)): p.read_bytes()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def run_op(cli, op, outdir, tracer=None):
    """Run one command; returns (seconds, exit code)."""
    if outdir.exists():
        shutil.rmtree(outdir)
    argv = op.argv + ["--out", str(outdir)]
    sink = io.StringIO()
    span = tracer.open("op/" + op.name) if tracer else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception:
        # a `states` process ends with exit code 1 on an uncaught exception
        code = 1
    elapsed = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    return elapsed, code


def check_op(op, code, outdir):
    if code != op.expect:
        return ["exit %s, expected %s" % (code, op.expect)]
    if op.check is None:
        return []
    try:
        return op.check(outdir)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as e:
        return ["report unreadable: %s: %s" % (type(e).__name__, e)]


def run_round(cli, ops, work_dir, tracer=None, keep_files=False):
    """Run and check every operation once.  keep_files keeps each command's
    output files for comparison; otherwise they are not held in memory."""
    r = {"ops": ops, "times": [], "files": [], "problems": []}
    for op in ops:
        outdir = work_dir / op.name
        seconds, code = run_op(cli, op, outdir, tracer)
        r["times"].append(seconds)
        if keep_files:
            r["files"].append(_read_outputs(outdir))
        r["problems"].append(check_op(op, code, outdir))
    r["wall"] = sum(r["times"])
    return r


def repeat(step, seconds):
    """Call step(k) for k = 0, 1, ... while the next call is expected to end
    within `seconds` of the first; at least once."""
    t0 = time.perf_counter()
    k = 0
    while True:
        step(k)
        k += 1
        if (time.perf_counter() - t0) * (k + 1) / k > seconds:
            return


def end_to_end(cli, op_sets, work_dir, seconds, setup_s):
    rounds = []
    repeat(lambda k: rounds.append(
        run_round(cli, op_sets[k % MAX_ROUNDS], work_dir)), seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "slowest_op_s": (max(statistics.median(t) for t in
                             zip(*(r["times"] for r in rounds))), "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }
    return rounds, metrics, []


def traced(orbitstates, cli, op_sets, work_dir, seconds):
    tracer = tracing.Tracer()
    plain, rounds, per_round, problems = [], [], [], []

    def pair(k):
        ops = op_sets[k % MAX_ROUNDS]
        plain.append(run_round(cli, ops, work_dir, keep_files=True))
        first = len(tracer.name)
        tracer.install(orbitstates)
        try:
            rounds.append(run_round(cli, ops, work_dir, tracer,
                                    keep_files=True))
        finally:
            tracer.remove()
        m = tracer.layer_metrics(first, len(tracer.name))
        m["cli.report_bytes"] = float(sum(
            len(b) for files in rounds[-1]["files"] for b in files.values()))
        per_round.append(m)
        for op, a, b in zip(ops, plain[-1]["files"], rounds[-1]["files"]):
            if a != b:
                problems.append("%s: traced outputs differ from untraced"
                                % op.name)
        plain[-1]["files"] = rounds[-1]["files"] = None

    repeat(pair, seconds)
    tracer.write(str(OUT / ("%s-trace.json" % work_dir.name)))
    overhead = statistics.median(t["wall"] - p["wall"]
                                 for t, p in zip(rounds, plain))
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        value = overhead if name == "trace.overhead_s" else \
            statistics.median(m[name] for m in per_round)
        metrics[name] = (value, unit)
    return plain + rounds, metrics, sorted(set(problems))


def tally(rounds, extra_problems):
    """(correct, attempted, failed, problem lines) over all rounds.  An
    operation with a known fault counts as failed without making the run
    incorrect."""
    attempted = failed = 0
    lines = list(extra_problems)
    correct = not extra_problems
    known = {}
    for r in rounds:
        for op, problems in zip(r["ops"], r["problems"]):
            attempted += 1
            if not problems:
                continue
            failed += 1
            if op.known_fault is None:
                correct = False
                lines.append("%s: %s" % (op.name, "; ".join(problems)))
            else:
                known[op.name] = "%s (known fault in %s): %s" % (
                    op.name, op.known_fault, "; ".join(problems))
    return correct, attempted, failed, lines + list(known.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    orbitstates, cli = load_program()
    # the commands run at the program's default thread count
    os.environ.pop("STATES_THREADS", None)
    # `states reproduce TARGET` writes a temporary scenario file: keep it
    # inside the checkout
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(tmp)
    make = workloads.WORKLOADS[args.workload]
    op_sets = [make(args.seed, r) for r in range(MAX_ROUNDS)]
    work_dir = OUT / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    setup_s = setup(op_sets, work_dir, timed=not args.trace)

    if args.trace:
        rounds, metrics, problems = traced(orbitstates, cli, op_sets,
                                           work_dir, args.seconds)
    else:
        rounds, metrics, problems = end_to_end(cli, op_sets, work_dir,
                                               args.seconds, setup_s)
    correct, attempted, failed, lines = tally(rounds, problems)
    for line in lines:
        print(line, file=sys.stderr)
    print("%d rounds, wall per round: %s" % (
        len(rounds), " ".join("%.3f" % r["wall"] for r in rounds)),
        file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
