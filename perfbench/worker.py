"""The process that runs zeonalg for one workload; run.py starts it.

    worker.py setup WORKDIR WORKLOAD           set up, print "ready", exit
    worker.py run WORKDIR WORKLOAD SECONDS     set up, then time whole rounds
    worker.py trace WORKDIR WORKLOAD SECONDS   untraced rounds, then traced ones
    worker.py cli STATS -- ARGS...             `python -m zeonalg ARGS` under the tracer

Set-up is everything before the first timed operation: interpreter start,
`import zeonalg`, reading WORKDIR/inputs.json through zeonalg's JSON
readers, and one warm-up operation. The timed loop is a closed loop with
one client: one operation at a time, and whole rounds over every input,
so each round does the same work. The reference kernel (reference.py)
runs between operations, outside their timing, so run.py can scale each
time to the reference host's speed. Round one's outputs
go back to run.py for checking; later rounds must reproduce them exactly.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import zeonalg
from reference import REF_NOMINAL_S, reference, reference_median
from tracer import Tracer


class Kind(NamedTuple):
    """How the worker handles one kind of input."""

    parse: Callable        # payload JSON -> zeonalg value
    run: Callable          # the timed operation
    output: Callable       # result -> the JSON run.py checks
    fingerprint: Callable  # result -> exact, comparable digest
    cli_json: Callable     # result -> what the CLI serializes


def _fingerprint(elements) -> tuple:
    return tuple(tuple(sorted(e.terms.items())) for e in elements)


def _split_out(zeros) -> dict:
    return {"zeros": [z.to_json() for z in zeros]}


KINDS = {
    "spectral": Kind(
        zeonalg.ZeonMatrix.from_json,
        lambda m: zeonalg.spectral_decompose(m),
        lambda r: {"eigenvalues": [p.value.to_json() for p in r.eigenpairs],
                   "eigenvectors": [p.normalized.to_json() for p in r.eigenpairs]},
        lambda r: _fingerprint([p.value for p in r.eigenpairs]
                               + [e for p in r.eigenpairs for e in p.normalized.entries]),
        lambda r: r.to_json()),
    "det": Kind(zeonalg.ZeonMatrix.from_json, lambda m: zeonalg.determinant(m),
                lambda r: r.to_json(), lambda r: _fingerprint([r]), lambda r: r.to_json()),
    "split": Kind(zeonalg.ZeonPolynomial.from_json, lambda p: zeonalg.split(p), _split_out,
                  _fingerprint, _split_out),
}


def _call(kind: str, value):
    try:
        return KINDS[kind].run(value), None
    except Exception as exc:  # reported per operation; run.py decides what it means
        return None, f"{type(exc).__name__}: {exc}"


def set_up(workdir: Path) -> list[tuple[str, object]]:
    with open(workdir / "inputs.json", encoding="utf-8") as handle:
        raw = json.load(handle)
    cases = [(case["kind"], KINDS[case["kind"]].parse(case["payload"])) for case in raw]
    _call(*cases[0])
    return cases


def timed_rounds(cases, seconds: float, prints=None) -> dict:
    """Whole rounds until `seconds` have passed; at least one round.

    The reference kernel runs once before the first operation and once
    after each; each operation's wall and CPU time come with a scale
    factor, REF_NOMINAL_S over the mean of the kernel's two runs on either
    side, which takes the time to the reference host's speed.
    Each output is fingerprinted; every round after the first (or every
    round, when `prints` from an earlier loop is given) must match. Round
    one's outputs are kept for checking unless `prints` is given.
    """
    op_s: list[float] = []
    cpu_s: list[float] = []
    scale: list[float] = []
    cpu_scale: list[float] = []
    outputs = []
    fresh = prints is None
    prints = [] if fresh else prints
    mismatches = 0
    rounds = 0
    ref_before = reference()
    deadline = time.perf_counter() + seconds
    while True:
        for index, (kind, value) in enumerate(cases):
            c0 = time.process_time()
            t0 = time.perf_counter()
            result, error = _call(kind, value)
            op_s.append(time.perf_counter() - t0)
            cpu_s.append(time.process_time() - c0)
            ref_after = reference()
            scale.append(2 * REF_NOMINAL_S / (ref_before[0] + ref_after[0]))
            cpu_scale.append(2 * REF_NOMINAL_S / (ref_before[1] + ref_after[1]))
            ref_before = ref_after
            fp = error if result is None else KINDS[kind].fingerprint(result)
            if fresh and rounds == 0:
                prints.append(fp)
                outputs.append({"error": error} if result is None
                               else KINDS[kind].output(result))
            elif fp != prints[index]:
                mismatches += 1
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    return {"op_s": op_s, "cpu_s": cpu_s, "scale": scale, "cpu_scale": cpu_scale,
            "rounds": rounds, "outputs": outputs, "mismatches": mismatches,
            "prints": prints}


def json_seconds(workdir: Path, cases) -> float:
    """Median over inputs of from_json + to_json + json.dumps, as the CLI does.

    Scaled to the reference host's speed like every other time.
    """
    with open(workdir / "inputs.json", encoding="utf-8") as handle:
        raw = json.load(handle)
    samples = []
    for case, (kind, value) in zip(raw, cases):
        result, _ = _call(kind, value)
        if result is None:
            continue
        t0 = time.perf_counter()
        KINDS[kind].parse(case["payload"])
        json.dumps(KINDS[kind].cli_json(result), indent=2)
        samples.append(time.perf_counter() - t0)
    samples.sort()
    scale = REF_NOMINAL_S / reference_median(5)
    return samples[len(samples) // 2] * scale if samples else 0.0


def traced_cli(stats_path: str, argv: list[str]) -> int:
    import zeonalg.cli

    tracer = Tracer()
    tracer.install()
    code = zeonalg.cli.main(argv)
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.snapshot(), handle)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        return traced_cli(argv[1], argv[3:])
    workdir, workload = Path(argv[1]), argv[2]
    cases = set_up(workdir)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    seconds = float(argv[3])
    if mode == "run":
        result = timed_rounds(cases, seconds)
        del result["prints"]
    else:
        result = {"json_s": json_seconds(workdir, cases)}
        if workload != "cli_cold":
            plain = timed_rounds(cases, seconds / 2)
            tracer = Tracer()
            tracer.install()
            traced = timed_rounds(cases, seconds / 2, plain.pop("prints"))
            tracer.uninstall()
            result.update(plain)
            result["traced"] = {"ops": len(traced["op_s"]), "op_s": traced["op_s"],
                                "scale": traced["scale"], "mismatches": traced["mismatches"],
                                **tracer.snapshot()}
    with open(workdir / "result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
