"""delaris benchmark: closed-loop CLI workloads, end to end or traced by layer.

    python3 perfbench/run.py --workload mc-exp --seed 1 --seconds 20 --trace 0

One client, one process, one thread: each operation is issued after the
previous one returns. A round is the workload's list of operations; rounds
repeat, with the same seed, until ``--seconds`` have passed, and a metric is
the median over rounds. Operations run ``delaris.cli.main`` from this
checkout's ``src`` with BLAS threads pinned to 1 and write to fresh
directories under ``.perfbench_out`` (removed at exit).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` first repeats
untraced rounds for half the time, then traced rounds (at least two) with
the wrappers of ``tracer.py`` installed, and reports the per-layer metrics.
Counts must repeat exactly across traced rounds and artifacts must be
byte-identical across all rounds; otherwise the run is not correct.

The last stdout line is the result object; the line before it records the
environment. Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import os

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_ENV:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 11
SUBCOMMANDS = ("strategy", "simulate", "verify", "reproduce-figures")

SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import delaris.cli
from delaris import sweeps
sweeps.baseline_params("exponential", "I")
sweeps.baseline_params("power", "I")
print(time.perf_counter() - t0)
"""


@dataclass
class OpRecord:
    subcommand: str
    wall_s: float
    error: str | None
    digest: str
    bytes_written: int
    path_steps: int = 0


def measure_setup() -> float:
    """Median, over fresh interpreters, of importing ``delaris.cli`` and
    building the baseline models. One discarded warm-up run first."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE.format(src=str(SRC))],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples[1:])


def output_digest(out: Path) -> tuple[str, int]:
    """Hash of every artifact except manifests (which carry a timestamp),
    and the bytes of all files written."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        total += len(data)
        if not path.name.startswith("manifest_"):
            h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), total


def run_op(cli, op, seed: int, workdir: Path, tracer) -> OpRecord:
    out = Path(tempfile.mkdtemp(dir=workdir))
    argv = [*op.argv, "--seed", str(seed), "--out", str(out)]
    steps0 = tracer.counters["simulation.path_steps"] if tracer else 0
    span = tracer.span(f"op.{op.subcommand}") if tracer else nullcontext()
    t0 = time.perf_counter()
    with redirect_stdout(io.StringIO()), span:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    wall = time.perf_counter() - t0
    error = None
    if code != op.exit_code:
        error = f"exit code {code}, expected {op.exit_code}"
    else:
        try:
            op.check(out)
        except Exception:  # noqa: BLE001 - any failure of a check is a wrong output
            error = traceback.format_exc(limit=3)
    digest, nbytes = output_digest(out)
    shutil.rmtree(out)
    steps = tracer.counters["simulation.path_steps"] - steps0 if tracer else 0
    if error:
        print(f"FAILED {' '.join(op.argv)}: {error}", file=sys.stderr)
    return OpRecord(op.subcommand, wall, error, digest, nbytes, steps)


def run_rounds(cli, workload, seed, seconds, min_rounds, workdir, tracer=None):
    """Repeat the workload's operations until ``seconds`` have passed and at
    least ``min_rounds`` rounds ran. Returns [(records, layer metrics, counts)]."""
    rounds = []
    t_end = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < t_end:
        if tracer:
            tracer.reset()
        records = [run_op(cli, op, seed, workdir, tracer) for op in workload.ops]
        if tracer:
            rounds.append((records, tracing.layer_metrics(tracer), tracer.exact_counts()))
        else:
            rounds.append((records, None, None))
    return rounds


def median(values) -> float:
    return float(statistics.median(values))


def round_wall(records) -> float:
    return sum(r.wall_s for r in records)


def end_to_end(rounds, setup_s) -> dict:
    return {
        "setup_s": setup_s,
        "wall_s": median(round_wall(recs) for recs, _, _ in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain, traced, failed, attempted) -> dict:
    """Layer metrics from the traced rounds (times: median over rounds;
    counts: repeat exactly), plus the untraced per-subcommand times."""
    layers = [lm for _, lm, _ in traced]
    metrics = {name: median(lm[name] for lm in layers) for name in layers[0]}
    metrics["cli.bytes_written"] = sum(r.bytes_written for r in traced[0][0])
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub.replace('-', '_')}_s"] = median(
            sum(r.wall_s for r in recs if r.subcommand == sub) for recs, _, _ in plain)
    mc_ops = [k for k, r in enumerate(traced[0][0]) if r.path_steps > 0]
    steps = sum(traced[0][0][k].path_steps for k in mc_ops)
    metrics["simulation.mc_path_steps_per_s"] = median(
        steps / sum(recs[k].wall_s for k in mc_ops) if mc_ops else 0.0 for recs, _, _ in plain)
    metrics["trace.overhead_s"] = (median(round_wall(recs) for recs, _, _ in traced)
                                   - median(round_wall(recs) for recs, _, _ in plain))
    metrics["error_rate"] = failed / attempted
    return metrics


def self_test(rounds, traced) -> list[str]:
    """Artifacts identical across all rounds; counts identical across traced rounds."""
    problems = []
    first = rounds[0][0]
    for recs, _, _ in rounds[1:]:
        for a, b in zip(first, recs):
            if a.digest != b.digest:
                problems.append(f"{a.subcommand}: artifacts differ between rounds")
    for _, _, counts in traced[1:]:
        if counts != traced[0][2]:
            diff = sorted(k for k in counts.keys() | traced[0][2].keys()
                          if counts.get(k) != traced[0][2].get(k))
            problems.append(f"counts differ between traced rounds: {diff}")
    return problems


def environment(args) -> dict:
    def commit():
        head = ROOT / ".git" / "HEAD"
        if not head.is_file():
            return None
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            return ref_file.read_text().strip() if ref_file.is_file() else None
        return ref

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "commit": commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "thread_env": {v: os.environ[v] for v in THREAD_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "delaris" / "cli.py").is_file():
        print(f"error: package source {SRC / 'delaris'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import delaris.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "delaris":
        print(f"error: imported delaris from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    setup_s = None if args.trace else measure_setup()
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=out_root))
    try:
        if args.trace:
            plain = run_rounds(cli, workload, args.seed, args.seconds / 2, 1, workdir)
            tr = tracing.Tracer()
            restore = tracing.install(tr)
            try:
                traced = run_rounds(cli, workload, args.seed, args.seconds / 2, 2, workdir, tr)
            finally:
                restore()
            rounds = plain + traced
        else:
            rounds = plain = run_rounds(cli, workload, args.seed, args.seconds, 2, workdir)
            traced = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(out_root.iterdir()):
            out_root.rmdir()

    records = [r for recs, _, _ in rounds for r in recs]
    attempted = len(records)
    failed = sum(r.error is not None for r in records)
    problems = self_test(rounds, traced)
    for p in problems:
        print(f"SELF-TEST {p}", file=sys.stderr)
    if args.trace:
        values = per_layer(plain, traced, failed, attempted)
    else:
        values = end_to_end(rounds, setup_s)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")

    print(json.dumps({"environment": environment(args), "notes": workload.notes,
                      "rounds": len(rounds), "computed": list(tracing.COMPUTED)}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
