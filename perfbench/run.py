"""fpkit benchmark: one closed-loop caller driving ``fpkit.cli.main`` in-process.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --self-test

One process, one thread, ``FPKIT_THREADS`` cleared: each op (one
``main([...])`` call) starts only after the previous one returns and its
output has been checked.  Each workload (see ``workloads.py``) is a fixed
list of ops made from the seed; the run repeats whole passes of it until
scaled op time is within half a pass of ``--seconds`` and at least the
workload's minimum number of passes is done, and fails if two passes give
different stdout or exit codes.

Every timing is scaled to a nominal host speed with a reference kernel
timed between the ops (see ``hostspeed.py``); the unscaled figures and the
factors are printed in the detail line.  With ``--trace 0`` the last stdout
line reports the end-to-end metrics:

* ``items_per_s``: survey candidates, or input files, completed per second
  of op time (see ``Tally.items_per_s``);
* ``op_p50_ms`` and ``op_tail_ms``: the median op latency and the highest
  percentile with at least 10 samples beyond it (both nearest-rank);
* ``peak_rss_mb``: this process's ``ru_maxrss``;
* ``cold_start_s``: the median spawn-to-exit time of
  ``python -m fpkit.cli validate`` on a small file, spawned between passes;
* ``setup_s``: the median over five fresh processes of the time to import
  fpkit, generate the inputs from the seed and run one warm-up op of each
  kind.

The error rate (failed ops over attempted ops) is printed with its base and
carried by ``attempted`` and ``failed``.  Ops on inputs that hit a recorded
fpkit bug are not timed or counted: they run once after the timed passes
and their outcome is printed as ``known_defects``.  With ``--trace 1`` the
run measures half its time untraced and half with every layer wrapped (see
``tracing.py``), reports per-layer calls, self time and counters plus the
tracing overhead, and writes the spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from tracing import Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Op, Workload, write_json  # noqa: E402

SETUP_ROUNDS = 5
COLD_STARTS = 15
COLD_PER_PASS = 2
#: A small realizable datum for the cold-start command.
COLD_DOCUMENT = {
    "name": "cold",
    "dimension": 6,
    "fixed_points": [
        {"id": "p", "sign": 1, "weights": [-3, 1, 2]},
        {"id": "q", "sign": 1, "weights": [-2, -1, 3]},
    ],
}
END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "cold_start_s": "s",
    "setup_s": "s",
}


@dataclass
class Tally:
    """Outcome of a sequence of ops."""

    latencies: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    pass_items: list = field(default_factory=list)
    pass_size: int = 0
    #: Host-speed factor of each pass (see ``hostspeed.py``).
    factors: list = field(default_factory=list)
    meter: hostspeed.Meter = field(default_factory=hostspeed.Meter)

    @property
    def op_seconds(self) -> float:
        return sum(self.latencies)

    def scaled_latencies(self) -> list[float]:
        """Each op's latency times the host-speed factor of its pass."""
        size = self.pass_size
        return [t * self.factors[k // size] for k, t in enumerate(self.latencies)]

    def items_per_s(self, scaled: bool = True) -> float:
        """Median items of a pass over a typical pass time: the sum over op
        positions of each op's median latency across passes, so that a
        stall of the machine during a minority of passes does not count."""
        size = self.pass_size
        latencies = self.scaled_latencies() if scaled else self.latencies
        passes = [latencies[k : k + size] for k in range(0, len(latencies), size)]
        typical_pass_s = sum(statistics.median(column) for column in zip(*passes))
        return statistics.median(self.pass_items) / typical_pass_s

    @property
    def correct(self) -> bool:
        """No failed op, and every pass gave the same digest."""
        return not self.failed and len(set(self.digests)) <= 1


def nearest_rank(sorted_values: list, percentile: float) -> float:
    index = max(0, math.ceil(percentile / 100 * len(sorted_values)) - 1)
    return sorted_values[index]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least 10 of ``count`` samples
    beyond it (50 when there are too few samples for any)."""
    for p in range(99, 0, -1):
        if count - math.ceil(p / 100 * count) >= 10:
            return p
    return 50


def evaluate(op: Op, rc, stdout: str, stderr: str, error: "str | None") -> "str | None":
    """Why the op failed, or None when its exit code and output are right."""
    if error is not None:
        return error
    if rc != op.expect_rc:
        return f"exit code {rc}, expected {op.expect_rc}"
    try:
        op.check(stdout, stderr)
    except CheckFailed as exc:
        return f"wrong output: {exc}"
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


def execute(cli, op: Op) -> tuple:
    """Run one op; return (exit code, stdout, stderr, error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception as exc:  # an op that raises is a failed op
        rc = None
        error = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), error, seconds


def run_op(cli, op: Op, tally: Tally, digest) -> None:
    rc, stdout, stderr, error, seconds = execute(cli, op)
    tally.latencies.append(seconds)
    tally.meter.after_op(seconds)
    if op.capture is not None:
        with open(op.capture, "w", encoding="utf-8") as handle:
            handle.write(stdout)
    digest.update(json.dumps([op.argv, rc, stdout]).encode())
    tally.attempted += 1
    reason = evaluate(op, rc, stdout, stderr, error)
    if reason is None:
        tally.items += op.items
        return
    tally.failed += 1
    if len(tally.unexpected) < 20:
        tally.unexpected.append({"argv": op.argv, "reason": reason})


def run_ops(
    cli,
    ops: list[Op],
    seconds: float,
    min_passes: int,
    tally: Tally,
    tracer=None,
    after_pass=None,
) -> Tally:
    """Whole passes over ops until at least ``min_passes`` are done and
    scaled op time is within half a pass of ``seconds``, so that a run makes
    the same number of passes on a fast host and a slow one.  The host-speed
    kernel runs between ops, outside the op time, and gives each pass its
    factor.  ``tracer`` gets the index of each op it sees; ``after_pass``
    runs between passes, outside the op time."""
    tally.pass_size = len(ops)
    passes = 0
    scaled_s = 0.0
    while passes < min_passes or scaled_s * (1 + 0.5 / passes) < seconds:
        digest = hashlib.sha256()
        items = tally.items
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            run_op(cli, op, tally, digest)
        tally.digests.append(digest.hexdigest())
        tally.pass_items.append(tally.items - items)
        tally.factors.append(tally.meter.factor())
        scaled_s += sum(tally.latencies[-len(ops):]) * tally.factors[-1]
        passes += 1
        if after_pass is not None:
            after_pass()
    return tally


def run_probes(cli, probes: list[Op]) -> dict:
    """Run each known-defect probe once; map its command to the recorded
    defect and what happened (None when the op now passes its check)."""
    outcomes = {}
    for op in probes:
        rc, stdout, stderr, error, _ = execute(cli, op)
        outcomes[" ".join(op.argv)] = {
            "defect": op.known_defect,
            "observed": evaluate(op, rc, stdout, stderr, error),
        }
    return outcomes


def traced_run(cli, ops: list[Op], seconds: float, min_passes: int) -> tuple[Tracer, Tally]:
    tracer = Tracer()
    tracer.install()
    try:
        tally = run_ops(cli, ops, seconds, min_passes, Tally(), tracer)
    finally:
        tracer.uninstall()
    return tracer, tally


def write_inputs(workload: Workload) -> None:
    for path, content in workload.files.items():
        if isinstance(content, str):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
        else:
            write_json(path, content)


def set_up(cli, name: str, seed: int) -> tuple[Workload, Tally]:
    """Generate the inputs and run the warm-up ops."""
    workload = WORKLOADS[name](seed)
    write_inputs(workload)
    return workload, run_ops(cli, workload.warmup, 0, 1, Tally())


def child_env() -> dict:
    """Environment of spawned processes: fpkit sources on the path, no
    FPKIT_THREADS, and bytecode caching on, as an installed package or a
    second run has it."""
    unset = ("FPKIT_THREADS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, host-speed factor) of SETUP_ROUNDS fresh processes
    (see ``--setup-only``)."""
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_ROUNDS):
        proc = subprocess.run(
            argv, env=child_env(), capture_output=True, text=True, timeout=120, check=True
        )
        seconds, factor = proc.stdout.split()[-2:]
        times.append((float(seconds), float(factor)))
    return times


def spawn(argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True, timeout=120)
    return proc, time.perf_counter() - start


def cold_start(tally: Tally, times: list, count: int) -> None:
    """Spawn ``python -m fpkit.cli validate`` count times, each right after
    the reference process, and scale each time by the reference's."""
    argv = [sys.executable, "-m", "fpkit.cli", "validate", "cold.json"]
    for _ in range(count):
        _, reference_s = spawn([sys.executable, "-c", hostspeed.SPAWN_REFERENCE])
        proc, seconds = spawn(argv)
        times.append(seconds * hostspeed.NOMINAL_SPAWN_S / reference_s)
        tally.attempted += 1
        if proc.returncode != 0 or not json.loads(proc.stdout or "{}").get("verdict"):
            tally.failed += 1
            tally.unexpected.append({"argv": argv[1:], "reason": f"exit {proc.returncode}"})


def machine(threads_before: "str | None") -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    except OSError:
        rev = None
    cpu = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "fpkit_threads_cleared": True,
        "fpkit_threads_before": threads_before,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(
    workload: Workload, tally: Tally, setup_s: float, cold_s: float
) -> tuple[dict, dict]:
    latencies = sorted(tally.scaled_latencies())
    # From the op count every run reaches, so each run of a workload reports
    # the same percentile.
    tail_pct = tail_percentile(len(workload.ops) * workload.min_passes)
    values = {
        "items_per_s": tally.items_per_s(),
        "op_p50_ms": nearest_rank(latencies, 50) * 1000,
        "op_tail_ms": nearest_rank(latencies, tail_pct) * 1000,
        "peak_rss_mb": peak_rss_mb(),
        "cold_start_s": cold_s,
        "setup_s": setup_s,
    }
    detail = {
        "ops": len(latencies),
        "passes": len(tally.digests),
        "op_tail_percentile": tail_pct,
        "items": tally.items,
        "item_unit": workload.item_unit,
        "op_seconds": tally.op_seconds,
        "host_factor": spread_of(tally.factors),
        "unscaled": {
            "items_per_s": tally.items_per_s(scaled=False),
            "op_p50_ms": nearest_rank(sorted(tally.latencies), 50) * 1000,
        },
    }
    return values, detail


def spread_of(values: list) -> dict:
    return {
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
    }


def run_workload(args, cli) -> tuple[dict, dict, Tally]:
    setup_rounds = setup_seconds(args.workload, args.seed)
    setup_s = statistics.median(seconds * factor for seconds, factor in setup_rounds)
    workload, warmup = set_up(cli, args.workload, args.seed)
    detail: dict = {
        "inputs": workload.properties,
        "setup_rounds_s": [seconds for seconds, _ in setup_rounds],
        "setup_factors": [factor for _, factor in setup_rounds],
    }
    if not args.trace:
        # Cold starts run between passes, so that they sample the machine
        # over the whole run rather than in one burst.
        write_json("cold.json", COLD_DOCUMENT)
        tally, cold = Tally(), []
        run_ops(
            cli, workload.ops, args.seconds, workload.min_passes, tally,
            after_pass=lambda: cold_start(tally, cold, COLD_PER_PASS),
        )
        cold_start(tally, cold, COLD_STARTS - len(cold))
        cold_s = statistics.median(cold)
        values, more = end_to_end(workload, tally, setup_s, cold_s)
        detail.update(more)
        units = END_TO_END_UNITS
    else:
        plain = run_ops(cli, workload.ops, args.seconds / 2, 1, Tally())
        tracer, traced = traced_run(cli, workload.ops, args.seconds / 2, 1)
        values = tracer.layer_metrics()
        values["trace.items_per_s"] = traced.items_per_s()
        values["trace.untraced_items_per_s"] = plain.items_per_s()
        values["trace.overhead_ratio"] = (
            values["trace.untraced_items_per_s"] / values["trace.items_per_s"]
        )
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}.jsonl"
        tracer.write_spans(spans_path)
        detail.update(
            spans=len(tracer),
            spans_file=str(spans_path.relative_to(ROOT)),
            patch_sites=len(tracer.patch_sites),
            layer_self_share=layer_shares(values),
        )
        units = metric_units()
        tally = merge(plain, traced)
    tally.failed += warmup.failed
    tally.attempted += warmup.attempted
    tally.unexpected += warmup.unexpected
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    detail.update(
        attempted=tally.attempted,
        failed=tally.failed,
        error_rate=tally.failed / tally.attempted,
        known_defects=run_probes(cli, workload.probes),
        unexpected_failures=tally.unexpected,
        digest=tally.digests[0],
        digests_agree=len(set(tally.digests)) == 1,
    )
    return metrics, detail, tally


def layer_shares(values: dict) -> dict:
    """Each layer's share of the summed self time of all wrapped functions."""
    self_s: dict = {}
    for key, value in values.items():
        if key.endswith(".self_s"):
            layer = key.split(".", 1)[0]
            self_s[layer] = self_s.get(layer, 0.0) + value
    total = sum(self_s.values()) or 1.0
    return {layer: value / total for layer, value in self_s.items()}


def merge(first: Tally, second: Tally) -> Tally:
    merged = Tally()
    for part in (first, second):
        merged.latencies += part.latencies
        merged.items += part.items
        merged.attempted += part.attempted
        merged.failed += part.failed
        merged.unexpected += part.unexpected
        merged.digests += part.digests
    return merged


def summary_lines(name: str, metrics: dict, detail: dict) -> list[str]:
    lines = [f"workload {name}: {detail['attempted']} ops attempted, {detail['failed']} failed"]
    for metric, entry in metrics.items():
        lines.append(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    lines.append(
        f"  error_rate = {detail['error_rate']:.6g} "
        f"({detail['failed']} of {detail['attempted']} ops)"
    )
    for command, outcome in detail.get("known_defects", {}).items():
        observed = outcome["observed"] or "passes now"
        lines.append(f"  known defect, not timed: {command}: {observed}")
    return lines


def run_all(args) -> int:
    """Each workload in its own process, then one table of all metrics."""
    table = {}
    status = 0
    for name in WORKLOADS:
        argv = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["perfbench"]
        table[name] = result
        print("\n".join(summary_lines(name, result["metrics"], detail)))
        status |= 0 if result["correct"] else 1
    print(json.dumps(table))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import fpkit, set the workload up once and print the seconds it took",
    )
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fpkit" / "cli.py").is_file():
        print(f"perfbench: no fpkit sources under {SRC}", file=sys.stderr)
        return 2
    threads_before = os.environ.pop("FPKIT_THREADS", None)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import fpkit.cli as cli

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        os.chdir(workdir)
        if args.setup_only:
            set_up(cli, args.workload, args.seed)
            print(time.perf_counter() - start, hostspeed.factor())
            return 0
        if args.self_test:
            from selftest import self_test

            return self_test(cli)
        metrics, detail, tally = run_workload(args, cli)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    detail["machine"] = machine(threads_before)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("\n".join(summary_lines(args.workload, metrics, detail)))
    print(json.dumps({"perfbench": detail}))
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
