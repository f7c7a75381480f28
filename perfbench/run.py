"""zeonalg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a zeonalg checkout; the library is loaded from
src/ of that checkout. The inputs are planted from the seed, handed to a
worker process (worker.py) that runs them in a closed loop, and every
output is checked against the planted answer in zdense arithmetic. Every
reported time is scaled to a reference host's speed (reference.py). The
last line of standard output is the JSON result; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import REF_NOMINAL_S, REF_SPAWN_NOMINAL_S, reference_median  # noqa: E402

WORKLOADS = ("spectral_dense", "split_sparse", "det_elim", "cli_cold")
SETUP_SAMPLES = 3        # set-up-only workers before and again after the timed loop
CLI_SAMPLES = 5          # repeats of each cli.* layer measurement
REF_RUNS = 5             # reference kernel runs (median) before each set-up timed
CHILD_LIMIT_S = 150      # a worker or CLI process still alive after this is killed


class Child:
    """One child process, timed from spawn, reaped with its resource usage."""

    def __init__(self, argv: list[str], env: dict):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        self._timer = threading.Timer(CHILD_LIMIT_S, self.proc.kill)
        self._timer.start()

    def wait_ready(self) -> float:
        """Seconds from spawn until the worker printed "ready"."""
        line = self.proc.stdout.readline()
        ready_s = time.perf_counter() - self.start
        if line.strip() != b"ready":
            self.finish()
            raise RuntimeError(f"worker did not start: {self.stderr.decode()[-2000:]}")
        return ready_s

    def finish(self) -> tuple[bytes, float]:
        """Read all output and reap; returns (stdout, seconds since spawn)."""
        errors: list[bytes] = []
        reader = threading.Thread(target=lambda: errors.append(self.proc.stderr.read()))
        reader.start()
        out = self.proc.stdout.read()
        reader.join()
        _, status, self.usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.start
        self._timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.proc.stderr.close()
        self.stderr = errors[0] if errors else b""
        return out, wall


def pin_to_fastest_cpu() -> None:
    """Run this process and its children on the CPU that is fastest now.

    On a shared host one virtual CPU can run at half the speed of the
    other for minutes; a run that migrates between them mixes two speeds.
    Pinning acts on this process only; a short spin loop on each allowed
    CPU picks the one to use.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    samples = {cpu: [] for cpu in cpus}
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            acc = 0
            for i in range(200_000):
                acc += i * i
            samples[cpu].append(time.perf_counter() - t0)
    os.sched_setaffinity(0, {min(cpus, key=lambda cpu: statistics.median(samples[cpu]))})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker_argv(*args) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


def host_scale() -> float:
    """REF_NOMINAL_S over the reference kernel's time now; multiplies a wall time."""
    return REF_NOMINAL_S / reference_median(REF_RUNS)


def spawn_reference(env: dict) -> tuple[float, float]:
    """Wall and CPU seconds of a bare interpreter process, `python -S -c pass`."""
    child = Child([sys.executable, "-S", "-c", "pass"], env)
    _, wall = child.finish()
    return wall, child.usage.ru_utime + child.usage.ru_stime


def scaled(times: list[float], scales: list[float]) -> list[float]:
    return [t * s for t, s in zip(times, scales)]


def run_worker(mode: str, workdir: Path, workload: str, seconds: float, env: dict):
    scale = host_scale()
    child = Child(worker_argv(mode, workdir, workload, seconds), env)
    setup_s = child.wait_ready() * scale
    child.finish()
    if child.proc.returncode != 0:
        raise RuntimeError(f"worker {mode} failed: {child.stderr.decode()[-2000:]}")
    with open(workdir / "result.json", encoding="utf-8") as handle:
        result = json.load(handle)
    return result, setup_s, child.usage.ru_maxrss / 1024.0


def measure_setup(workdir: Path, workload: str, env: dict) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        scale = host_scale()
        child = Child(worker_argv("setup", workdir, workload), env)
        samples.append(child.wait_ready() * scale)
        child.finish()
    return samples


def cli_argv(case_file: Path, kind: str) -> list[str]:
    return ["-m", "zeonalg", kind, str(case_file)]


def cli_rounds(files, kinds, seconds: float, env: dict, stats_dir: Path | None = None):
    """Cold CLI processes, one at a time, whole rounds over every input.

    A process start slows with the host differently from Python code, so
    the reference here is a bare interpreter process, started before the
    first child and after each; each child's wall (CPU) time is scaled by
    REF_SPAWN_NOMINAL_S over the mean wall (CPU) time of the two.
    """
    op_s, cpu_s, scale, cpu_scale = [], [], [], []
    rss, stdouts, mismatches, stats = 0.0, [], 0, []
    ref_before = spawn_reference(env)
    start = time.perf_counter()
    rounds = 0
    while True:
        for index, (path, kind) in enumerate(zip(files, kinds)):
            args = cli_argv(path, kind)
            if stats_dir is None:
                argv = [sys.executable, *args]
            else:
                stats_file = stats_dir / f"stats-{len(op_s)}.json"
                argv = worker_argv("cli", stats_file, "--", *args[2:])
            child = Child(argv, env)
            out, wall = child.finish()
            op_s.append(wall)
            cpu_s.append(child.usage.ru_utime + child.usage.ru_stime)
            ref_after = spawn_reference(env)
            scale.append(2 * REF_SPAWN_NOMINAL_S / (ref_before[0] + ref_after[0]))
            cpu_scale.append(2 * REF_SPAWN_NOMINAL_S / (ref_before[1] + ref_after[1]))
            ref_before = ref_after
            rss = max(rss, child.usage.ru_maxrss / 1024.0)
            if child.proc.returncode != 0:
                out = b'{"error": "exit status %d"}' % child.proc.returncode
            if rounds == 0 and stats_dir is None:
                stdouts.append(out)
            elif stats_dir is None and out != stdouts[index]:
                mismatches += 1
            if stats_dir is not None:
                with open(stats_file, encoding="utf-8") as handle:
                    stats.append(json.load(handle))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"op_s": op_s, "cpu_s": cpu_s, "scale": scale, "cpu_scale": cpu_scale,
            "rss_mb": rss, "rounds": rounds, "mismatches": mismatches,
            "outputs": [_parse_output(out) for out in stdouts], "stats": stats}


def _parse_output(out: bytes) -> dict:
    try:
        return json.loads(out)
    except ValueError:
        return {"error": f"output is not JSON: {out[:200]!r}"}


def judge(cases, outputs) -> tuple[bool, int, list[str]]:
    """(correct, failing inputs per round, problems) for round one's outputs."""
    from checks import CHECKS

    correct, failing, problems = True, 0, []
    for index, (case, out) in enumerate(zip(cases, outputs)):
        reason = out["error"] if "error" in out else CHECKS[case["kind"]](case, out)
        if reason is None:
            continue
        if case.get("random_blades"):
            failing += 1
        else:
            correct = False
        problems.append(f"input {index} ({case['kind']}): {reason}")
    return correct, failing, problems


def tail(op_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it, and that percentile.

    Below forty samples that percentile would be no tail; the median stands in.
    """
    ordered = sorted(op_ms)
    count = len(ordered)
    if count < 40:
        return statistics.median(ordered), 50.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def end_to_end(workload, payloads, workdir, seconds, env):
    setup = measure_setup(workdir, workload, env)
    if workload == "cli_cold":
        files, kinds = write_cli_inputs(payloads, workdir)
        run = cli_rounds(files, kinds, seconds, env)
        peak = run["rss_mb"]
    else:
        run, first_setup, peak = run_worker("run", workdir, workload, seconds, env)
        setup.append(first_setup)
    setup += measure_setup(workdir, workload, env)
    op_ms = [1000.0 * s for s in scaled(run["op_s"], run["scale"])]
    cpu_ms = [1000.0 * s for s in scaled(run["cpu_s"], run["cpu_scale"])]
    tail_ms, pct = tail(op_ms)
    print(f"# {len(op_ms)} ops in {run['rounds']} rounds of {len(payloads)}; "
          f"op_ms_tail is p{pct:.1f} of {len(op_ms)} samples; "
          f"setup_s is the median of {len(setup)}")
    print(f"# unscaled: {1000.0 * statistics.median(run['op_s']):.4g} ms per op (median); "
          f"scale factor to the reference host {statistics.median(run['scale']):.4g} (median)")
    metrics = {
        "ops_per_s": (1000.0 * len(op_ms) / sum(op_ms), "1/s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "cpu_ms_per_op": (sum(cpu_ms) / len(cpu_ms), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return run, metrics


def write_cli_inputs(payloads, workdir: Path):
    files, kinds = [], []
    for index, case in enumerate(payloads):
        path = workdir / f"case-{index}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(case["payload"], handle)
        files.append(path)
        kinds.append(case["kind"])
    return files, kinds


def median_spawn_ms(argv: list[str], env: dict) -> float:
    samples = []
    for _ in range(CLI_SAMPLES):
        child = Child(argv, env)
        _, wall = child.finish()
        samples.append(1000.0 * wall * REF_SPAWN_NOMINAL_S / spawn_reference(env)[0])
    return statistics.median(samples)


def per_layer(workload, payloads, workdir, seconds, env):
    result, _, _ = run_worker("trace", workdir, workload, seconds, env)
    files, kinds = write_cli_inputs(payloads, workdir)
    if workload == "cli_cold":
        plain = cli_rounds(files, kinds, seconds / 2, env)
        traced_run = cli_rounds(files, kinds, seconds / 2, env, stats_dir=workdir)
        stats = {"calls": {}, "self_s": {}, "counts": {}}
        for one in traced_run["stats"]:
            for group in stats:
                for key, value in one[group].items():
                    stats[group][key] = stats[group].get(key, 0) + value
        traced = {"ops": len(traced_run["op_s"]), "op_s": traced_run["op_s"],
                  "scale": traced_run["scale"], "mismatches": 0, **stats}
        run = plain
    else:
        run, traced = result, result["traced"]
    bare = median_spawn_ms([sys.executable, "-c", "pass"], env)
    imported = median_spawn_ms([sys.executable, "-c", "import zeonalg"], env)
    command = median_spawn_ms([sys.executable, *cli_argv(files[0], kinds[0])], env)

    ops = traced["ops"]
    calls, self_s, counts = traced["calls"], traced["self_s"], traced["counts"]
    scale = statistics.median(traced["scale"])

    def per_op(value):
        return value / ops

    def ms(name):
        return 1000.0 * self_s.get(name, 0.0) * scale / ops

    def mean_op_s(loop):
        return statistics.fmean(scaled(loop["op_s"], loop["scale"]))

    pairs = counts.get("mul_pairs", 0)
    lifts = calls.get("poly.lift", 0)
    metrics = {
        "algebra.mul_calls": (per_op(calls.get("algebra.mul", 0)), "count/op"),
        "algebra.mul_pairs": (per_op(pairs), "count/op"),
        "algebra.mul_useful_ratio": (counts.get("mul_disjoint", 0) / pairs if pairs else 0.0,
                                     "ratio"),
        "algebra.mul_ms": (ms("algebra.mul"), "ms/op"),
        "algebra.inverse_calls": (per_op(calls.get("algebra.inverse", 0)), "count/op"),
        "algebra.inverse_ms": (ms("algebra.inverse"), "ms/op"),
        "algebra.kth_root_ms": (ms("algebra.kth_root"), "ms/op"),
        "linalg.matmul_calls": (per_op(calls.get("linalg.matmul", 0)), "count/op"),
        "linalg.matmul_ms": (ms("linalg.matmul"), "ms/op"),
        "linalg.eliminate_calls": (per_op(calls.get("linalg.eliminate", 0)), "count/op"),
        "linalg.eliminate_ms": (ms("linalg.eliminate"), "ms/op"),
        "linalg.normalize_ms": (ms("linalg.normalize"), "ms/op"),
        "linalg.determinant_ms": (ms("linalg.determinant"), "ms/op"),
        "poly.complex_roots_ms": (ms("poly.complex_roots"), "ms/op"),
        "poly.aberth_iterations": (per_op(counts.get("aberth_iterations", 0)), "count/op"),
        "poly.lift_calls": (per_op(lifts), "count/op"),
        "poly.lift_evals": (counts.get("lift_evals", 0) / lifts if lifts else 0.0,
                            "count/lift"),
        "poly.lift_ms": (ms("poly.lift"), "ms/op"),
        "spectral.char_poly_ms": (ms("spectral.char_poly"), "ms/op"),
        "spectral.eigenvector_ms": (ms("spectral.eigenvector"), "ms/op"),
        "spectral.checks_ms": (ms("spectral.decompose"), "ms/op"),
        "cli.interpreter_ms": (bare, "ms"),
        "cli.import_ms": (imported - bare, "ms"),
        "cli.command_ms": (command - imported, "ms"),
        "cli.json_ms": (1000.0 * result["json_s"], "ms"),
        "trace.overhead_ratio": (mean_op_s(traced) / mean_op_s(run), "ratio"),
    }
    run["mismatches"] += traced["mismatches"]
    run["traced_ops"] = ops
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zeonalg" / "__init__.py").is_file():
        print(f"no zeonalg sources under {ROOT / 'src'}; run from a zeonalg checkout",
              file=sys.stderr)
        return 2

    pin_to_fastest_cpu()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        # Planting runs in a child: a process keeps the peak memory of the
        # process it was spawned from, so run.py stays small until the
        # timed children have ended, and only then plants again to check.
        plant = Child([sys.executable, str(HERE / "inputs.py"), args.workload,
                       str(args.seed), str(workdir / "inputs.json")], env)
        plant.finish()
        if plant.proc.returncode != 0:
            raise RuntimeError(f"planting failed: {plant.stderr.decode()[-2000:]}")
        with open(workdir / "inputs.json", encoding="utf-8") as handle:
            payloads = json.load(handle)
        # untimed: compiles bytecode after a fresh checkout and warms the file cache
        prime = Child(worker_argv("setup", workdir, args.workload), env)
        prime.wait_ready()
        prime.finish()
        measure = per_layer if args.trace else end_to_end
        run, metrics = measure(args.workload, payloads, workdir, args.seconds, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    from inputs import make_cases

    cases = make_cases(args.workload, args.seed)
    correct, failing, problems = judge(cases, run["outputs"])
    rounds = run["rounds"] + run.get("traced_ops", 0) // len(cases)
    attempted = rounds * len(cases)
    for problem in problems:
        print(f"# {problem}")
    if run["mismatches"]:
        correct = False
        print(f"# {run['mismatches']} outputs differed from round one's")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failing * rounds,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
