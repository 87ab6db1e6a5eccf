"""corename benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a corename source tree; the program is run from its
``src/`` directory and nothing is installed.  Inputs are generated from the
seed under ``.perfbench_work/``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

MIN_ROUNDS = 3  # rounds per untraced run, at least
SETUPS_PER_ROUND = 3  # query-process set-ups per round
QUERY_BATCHES = 2  # every query runs twice, so its rankings can be compared
STAGES = ("mine", "facts", "group", "analyze", "query", "setup")
CLI = "from corename.cli import main; main()"

END_TO_END = {
    "setup_s": "s",
    "facts_ms_per_file": "ms/file",
    "group_s": "s",
    "analyze_s": "s",
    "recommend_ms_p90": "ms",
    "mine_ms_per_commit": "ms/commit",
    "peak_rss_mb": "MB",
}


def p90(values) -> float:
    """90th percentile, interpolated between samples.

    Stage timings use it rather than the median.  On a shared virtual
    machine the speed swings between a slow speed and short fast spells;
    the slow speed shows up in every run and the fast spells come and go,
    so an upper quantile repeats across runs where a median does not
    (README.md).
    """
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def calibrate() -> dict:
    """Wall and CPU seconds of a fixed pure-Python loop: a host-noise
    diagnostic only.  Wall time well above CPU time means the host took the
    CPU away."""
    start, start_cpu = time.perf_counter(), time.process_time()
    total = 0
    for i in range(1_000_000):
        total += i
    return {"wall_s": time.perf_counter() - start, "cpu_s": time.process_time() - start_cpu}


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CORENAME_")}
    env.update(gen.GIT_ENV)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env




class Children:
    """Runs CLI stages as child processes and keeps their peak RSS."""

    def __init__(self, env: dict, logs: Path, ledger: checks.Ledger):
        self.env = env
        self.logs = logs
        self.ledger = ledger
        self.maxrss_kb = 0
        self.runs = 0
        self.user_sys_s: dict[str, list] = {}  # per command, (user, system) CPU seconds

    def cli(self, *argv) -> tuple[float, float]:
        """Run ``corename ARGV``; return its wall and CPU time in seconds.

        The CPU time is the user time of the child and of every process it
        waited for.  System time is left out: it is mostly the cost of
        starting processes, which on a shared host moves with the host's
        memory load (README.md).  It is kept in ``user_sys_s``.
        """
        self.runs += 1
        err_path = self.logs / f"stage{self.runs}.err"
        with open(err_path, "wb") as err, open(os.devnull, "wb") as devnull:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", CLI, *map(str, argv)],
                stdout=devnull, stderr=err, env=self.env,
            )
            _pid, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        self.ledger.check(
            proc.returncode == 0 and "Traceback" not in stderr,
            f"corename {argv[0]} exited {proc.returncode}: {stderr[-300:]}",
        )
        self.user_sys_s.setdefault(argv[0], []).append((usage.ru_utime, usage.ru_stime))
        return elapsed, usage.ru_utime


class QueryWorker:
    """The query process: one client, one command at a time."""

    def __init__(self, inputs, work: Path, env: dict):
        queries_path = work / "queries.json"
        queries_path.write_text(json.dumps(inputs.queries), encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "query_worker.py"),
             str(inputs.snapshots[inputs.query_snapshot]), str(queries_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        self.first_setup = self._reply()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("query process ended early")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> int:
        """End the process; return its peak RSS in KiB."""
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        _pid, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return usage.ru_maxrss


def stage_argv(inputs, out: Path) -> dict[str, list[list]]:
    """The pipeline as a user runs it, with default flags, stage by stage."""
    return {
        "mine": [["mine", *inputs.mine_args, "--out", out / "renames.jsonl"]],
        "facts": [["facts", "--src", directory, "--out", out / "facts" / f"{name}.json"]
                  for name, directory in inputs.snapshots.items()],
        "group": [["group", "--renames", out / "renames.jsonl", "--mode", "lemma",
                   "--out", out / "sets.jsonl"]],
        "analyze": [["analyze", "--renames", out / "renames.jsonl",
                     "--sets", out / "sets.jsonl", "--facts-dir", out / "facts",
                     "--out", out / "report"]],
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def check_outputs(ledger, inputs, out: Path) -> dict:
    """Check one pipeline's files; missing or malformed files count as failed."""
    try:
        mined = checks.check_mined(ledger, inputs, out)
        checks.check_facts(ledger, inputs, out / "facts")
        found = checks.check_sets_and_report(ledger, out, len(mined))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ledger.check(False, f"unreadable output in {out.name}: {exc!r}")
        return {"sets": None, "report": None, "set_size_histogram": {}, "pairs": 0,
                "records_mined": 0}
    found["records_mined"] = len(mined)
    return found


def generate(workload: str, seed: int, work: Path) -> tuple:
    """Generate the workload's inputs; return them, the time taken and their
    content digest."""
    root = fresh_dir(work / "inputs")
    start = time.perf_counter()
    inputs = gen.WORKLOADS[workload](root, seed)
    return inputs, time.perf_counter() - start, gen.tree_digest(root)


def setup_times(reply: dict) -> tuple[float, float]:
    """The (wall, CPU) seconds of a query-process set-up."""
    return reply["wall_ns"] / 1e9, reply["cpu_ns"] / 1e9


class Sampler:
    """Runs the stages of one untraced run in rounds and checks every
    repetition.

    A round runs each stage once, in pipeline order, and then sets the
    query process up again SETUPS_PER_ROUND times.  The queries run in the
    first QUERY_BATCHES rounds only.  So every stage gets about as many
    samples, spread over the whole run.  After MIN_ROUNDS rounds, a stage
    starts only while its median wall time still fits in the run's time.
    A sample is a (wall, CPU) pair; the metrics use the CPU time.
    """

    def __init__(self, inputs, children: Children, worker: QueryWorker, out: Path,
                 ledger: checks.Ledger):
        self.inputs = inputs
        self.children = children
        self.worker = worker
        self.out = out
        self.ledger = ledger
        self.argv = stage_argv(inputs, out)
        # per stage, one (wall, CPU) pair of seconds per sample
        self.samples: dict[str, list[tuple[float, float]]] = {stage: [] for stage in STAGES}
        self.samples["setup"].append(setup_times(worker.first_setup))
        self.latencies: list[tuple[float, float]] = []  # (wall, CPU) ms per query
        self.first: dict | None = None  # digests of the first round
        self.rankings = None
        self.rounds = 0

    def run(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            for stage in STAGES:
                if stage == "query" and len(self.samples[stage]) >= QUERY_BATCHES:
                    continue
                left = seconds - (time.perf_counter() - start)
                if self.rounds >= MIN_ROUNDS and self.wall_median(stage) > left:
                    return
                self.run_stage(stage)
                if self.first is None and stage == "analyze":
                    self.first = check_outputs(self.ledger, self.inputs, self.out)
            self.rounds += 1

    def wall_median(self, stage: str) -> float:
        return statistics.median(wall for wall, _cpu in self.samples[stage])

    def run_stage(self, stage: str) -> None:
        if stage == "setup":
            for _ in range(SETUPS_PER_ROUND):
                self.samples[stage].append(setup_times(self.worker.command("setup")))
            return
        if stage == "query":
            reply = self.worker.command("batch")
            self.samples[stage].append((sum(reply["wall_ns"]) / 1e9, sum(reply["cpu_ns"]) / 1e9))
            self.latencies += [(wall / 1e6, cpu / 1e6)
                               for wall, cpu in zip(reply["wall_ns"], reply["cpu_ns"])]
            for problems in reply["problems"]:
                self.ledger.check(not problems, "; ".join(problems))
            if self.rankings is None:
                self.rankings = reply["digests"]
            else:
                self.ledger.check(reply["digests"] == self.rankings,
                                  "rankings changed between repetitions")
            return
        times = [self.children.cli(*argv) for argv in self.argv[stage]]
        self.samples[stage].append((sum(w for w, _c in times), sum(c for _w, c in times)))
        if self.first is not None:
            found = check_outputs(self.ledger, self.inputs, self.out)
            same = all(found[k] == self.first[k] for k in ("sets", "report", "records_mined"))
            self.ledger.check(same, f"outputs changed when {stage} was repeated")


def untraced_run(workload, seed, seconds, work, src) -> dict:
    ledger = checks.Ledger()
    calibration = [calibrate()]
    inputs, gen_s, input_digest = generate(workload, seed, work)
    env = child_env(src)
    children = Children(env, fresh_dir(work / "logs"), ledger)
    worker = QueryWorker(inputs, work, env)
    out = fresh_dir(work / "out")
    (out / "facts").mkdir()
    sampler = Sampler(inputs, children, worker, out, ledger)
    try:
        sampler.run(seconds)
    finally:
        worker_rss_kb = worker.close()
    calibration.append(calibrate())
    samples = sampler.samples
    cpu = {stage: [c for _w, c in pairs] for stage, pairs in samples.items()}
    wall = {stage: [w for w, _c in pairs] for stage, pairs in samples.items()}
    latencies_cpu = [c for _w, c in sampler.latencies]
    latencies_wall = [w for w, _c in sampler.latencies]
    files = sum(inputs.snapshot_files.values())
    metrics = {
        "setup_s": statistics.median(cpu["setup"]),
        "facts_ms_per_file": p90(cpu["facts"]) * 1e3 / files,
        "group_s": p90(cpu["group"]),
        "analyze_s": p90(cpu["analyze"]),
        "recommend_ms_p90": p90(latencies_cpu),
        "mine_ms_per_commit": p90(cpu["mine"]) * 1e3 / inputs.commits,
        "peak_rss_mb": max(children.maxrss_kb, worker_rss_kb) / 1024,
    }
    counts = {
        "setup_s": len(cpu["setup"]), "facts_ms_per_file": len(cpu["facts"]),
        "group_s": len(cpu["group"]), "analyze_s": len(cpu["analyze"]),
        "recommend_ms_p90": len(latencies_cpu), "mine_ms_per_commit": len(cpu["mine"]),
        "peak_rss_mb": children.runs + 1,
    }
    first = sampler.first
    details = {
        "recommend_ms_p50": statistics.median(latencies_cpu),
        "wall": {
            "stage_p90_s": {k: p90(v) for k, v in wall.items() if len(v) > 1},
            "stage_median_s": {k: statistics.median(v) for k, v in wall.items()},
            "recommend_ms_p50": statistics.median(latencies_wall),
            "recommend_ms_p90": p90(latencies_wall),
        },
        "queries": len(latencies_cpu),
        "rounds": sampler.rounds,
        "samples": counts,
        "stage_cpu_s": cpu,
        "stage_wall_s": wall,
        "cli_user_sys_s": children.user_sys_s,
        "latencies_cpu_ms": latencies_cpu,
        "latencies_wall_ms": latencies_wall,
        "setup": {"generate_s": gen_s},
        "digests": {
            "inputs": input_digest,
            "sets": first["sets"],
            "report": first["report"],
            "rankings": checks.digest(sampler.rankings),
        },
        "set_size_histogram": first["set_size_histogram"],
        "pairs": first["pairs"],
        "records_mined": first["records_mined"],
    }
    return finish(ledger, inputs, metrics, END_TO_END, details, calibration)


def traced_run(workload, seed, work, src) -> dict:
    """Run one round in process untraced, then the same round traced."""
    sys.path.insert(0, str(src))
    import corename.cli
    import layers
    import queries
    from tracer import Tracer

    ledger = checks.Ledger()
    calibration = [calibrate()]
    inputs, _gen_s, input_digest = generate(workload, seed, work)

    def one_round(out: Path) -> tuple[float, dict]:
        (out / "facts").mkdir()
        start = time.perf_counter()
        for stage, argvs in stage_argv(inputs, out).items():
            for argv in argvs:
                err = io.StringIO()
                try:
                    with contextlib.redirect_stderr(err):
                        code = corename.cli.run([str(a) for a in argv])
                except Exception as exc:  # a crashing stage is a failed operation
                    code = f"raised {exc!r}"
                ledger.check(code == 0,
                             f"corename {stage} returned {code}: {err.getvalue()[-300:]}")
        facts = queries.load_snapshot(inputs.snapshots[inputs.query_snapshot])
        queries.checked_query(inputs.queries[0], facts)  # warm-up, as in set-up
        rankings = []
        for query in inputs.queries:
            ranking, problems = queries.checked_query(query, facts)
            ledger.check(not problems, "; ".join(problems))
            rankings.append(ranking)
        elapsed = time.perf_counter() - start
        found = check_outputs(ledger, inputs, out)
        found["rankings"] = rankings
        return elapsed, found

    plain_s, plain = one_round(fresh_dir(work / "out-untraced"))
    tracer = Tracer("corename")
    layers.install(tracer)
    try:
        traced_s, traced = one_round(fresh_dir(work / "out-traced"))
    finally:
        tracer.uninstall()
    for key in ("sets", "report", "rankings"):
        ledger.check(plain[key] == traced[key], f"{key} differ between untraced and traced runs")
    spans = tracer.write_spans(work / "spans.tsv")
    summary = tracer.summary()
    metrics = layers.per_layer_metrics(summary, traced_s / plain_s)
    calibration.append(calibrate())
    details = {
        "untraced_round_s": plain_s,
        "traced_round_s": traced_s,
        "spans_written": spans,
        "absent_targets": tracer.absent,
        "span_totals": summary["spans"],
        "counters": summary["counters"],
        "digests": {
            "inputs": input_digest,
            "sets": traced["sets"],
            "report": traced["report"],
            "rankings": checks.digest(traced["rankings"]),
        },
        "pairs": traced["pairs"],
    }
    units = {name: unit for name, (unit, _better) in layers.PER_LAYER.items()}
    return finish(ledger, inputs, metrics, units, details, calibration)


def finish(ledger, inputs, metrics, units, details, calibration) -> dict:
    details.update({
        "properties": inputs.properties,
        "cpu_count": os.cpu_count(),
        "calibration_loop_s": calibration,
        "failed_ops_ratio": ledger.failed / ledger.attempted,
        "failures": ledger.failures,
    })
    return {
        "details": details,
        "result": {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "corename" / "cli.py").is_file():
        print(f"perfbench: no corename sources under {src}; run from the "
              "root of a corename source tree", file=sys.stderr)
        return 2
    base = root / ".perfbench_work"
    work = fresh_dir(base / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        if args.trace:
            run = traced_run(args.workload, args.seed, work, src)
        else:
            run = untraced_run(args.workload, args.seed, args.seconds, work, src)
    finally:
        shutil.rmtree(work / "inputs", ignore_errors=True)
        for out in work.glob("out*"):
            shutil.rmtree(out, ignore_errors=True)
    run["details"].update(workload=args.workload, seed=args.seed, trace=args.trace)
    (work / "results.json").write_text(json.dumps(run, indent=2, sort_keys=True) + "\n")
    result = run["result"]
    print(f"corename benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, failed_ops_ratio {run['details']['failed_ops_ratio']}")
    samples = run["details"].get("samples", {})
    for name, entry in result["metrics"].items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:45s} {entry['value']:>14.6g} {entry['unit']}{count}")
    if "recommend_ms_p50" in run["details"]:
        print(f"  {'recommend_ms_p50 (diagnostic)':45s} "
              f"{run['details']['recommend_ms_p50']:>14.6g} ms")
    for failure in run["details"]["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps(run["details"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
