"""The cyclogcd benchmark: one workload, measured end to end or traced.

    python3 benchmark/run.py --workload champion|density|ff --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout.  The seed picks the workload's
operations (inputs.py); the expected results are computed once by the
independent reference (reference.py).  Then rounds of the operations run
in a closed loop, one at a time, each in a fresh worker process
(worker.py) with --jobs 1 and without CYCLOGCD_JOBS, until S seconds have
passed; the last round is always finished.  Every report is checked
against the reference.  The last line of standard output is one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics of
spans.py with --trace 1.

Host speed on a shared machine drifts by a third over tens of seconds, and
CPU time drifts with it.  Each worker therefore times a fixed calibration
kernel before and after its operation, and every time reported here is
the measured wall time scaled by CALIBRATION_REF_S / (median kernel time):
seconds on a host that runs the kernel in CALIBRATION_REF_S.  The raw wall
times and kernel times are kept in results/result-<workload>-<seed>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import inputs
import reference
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
CALIBRATION_REF_S = 0.020
WORKER_TIMEOUT_S = 150


def expectation(op: inputs.Op):
    p = op.params
    if op.argv[0] == "champion":
        return reference.expected_champion(p["a"], p["b"], p["N"], p["x"], p["delta"], p["M"])
    if op.argv[0] == "density":
        return reference.expected_density(p["N"], p["d"], p["a"], p["b"], p["x"])
    if op.argv[0] == "verify-lemma":
        return reference.expected_lemma(p["N"], p["a"], p["b"], p["p_max"], p["m_max"])
    return reference.expected_ff(p["q"], p["k"], p["n0"], p["m"], p["a_poly"], p["b_poly"],
                                 p["deg_max"])


def check(op: inputs.Op, expected, report: dict) -> None:
    p = op.params
    if op.argv[0] == "champion":
        reference.check_champion(report, expected, p["a"], p["b"], p["N"], p["M"])
    elif op.argv[0] == "density":
        reference.check_density(report, expected)
    elif op.argv[0] == "verify-lemma":
        reference.check_lemma(report, expected)
    else:
        reference.check_ff(report, expected, p["q"], p["k"], p["n0"])


def work_units(op: inputs.Op, expected) -> int:
    """Input-fixed work: admissible pairs, primes examined, monic candidates."""
    if op.argv[0] == "champion":
        return expected.pair_count
    if op.argv[0] in ("density", "verify-lemma"):
        return expected.primes_examined
    return expected.candidates


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: robust to the odd stalled operation like a
    median, but it averages more of the rounds."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])


def run_op(op: inputs.Op, tracing: bool, env: dict) -> dict | None:
    """Start a worker for `op` and wait for it; None if it did not finish."""
    report = RESULTS / f"report-{op.label}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), op.label,
           "1" if tracing else "0", str(report), *op.argv]
    spawned = spans.now()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{op.label}: worker timed out", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{op.label}: worker exited {proc.returncode}\n{err}", file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    res["label"] = op.label
    res["report"] = report
    res["scale"] = CALIBRATION_REF_S / statistics.median(res["calibration"])
    res["setup_s"] = (res["ready"] - spawned) * res["scale"]
    res["op_s"] = (res["end"] - res["start"]) * res["scale"]
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("champion", "density", "ff"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cyclogcd" / "cli.py").is_file():
        print(f"no cyclogcd sources under {SRC}", file=sys.stderr)
        return 2
    tracing = bool(args.trace)

    ops = inputs.make_ops(args.workload, args.seed)
    expected = [expectation(op) for op in ops]
    units = sum(work_units(op, exp) for op, exp in zip(ops, expected))
    RESULTS.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "CYCLOGCD_JOBS"}

    attempted = failed = 0
    correct = True
    rounds: list[list[dict]] = []
    start = spans.now()
    while not rounds or spans.now() - start < args.seconds:
        done = []
        for op, exp in zip(ops, expected):
            attempted += 1
            res = run_op(op, tracing, env)
            if res is None or res["rc"] != 0:
                failed += 1
                continue
            try:
                with open(res["report"]) as fh:
                    check(op, exp, json.load(fh)["report"])
            except (reference.CheckError, KeyError, TypeError, ValueError) as exc:
                correct = False
                print(f"{op.label}: check failed: {exc!r}", file=sys.stderr)
            done.append(res)
        rounds.append(done)

    round_s = [sum(r["op_s"] for r in rnd) for rnd in rounds if rnd]
    if not round_s:
        print("no operation completed", file=sys.stderr)
        return 1
    run_s = interquartile_mean(round_s)
    if tracing:
        per_round = [spans.round_metrics([(r["spans"], r["scale"]) for r in rnd])
                     for rnd in rounds if rnd]
        metrics = {name: {"value": value, "unit": spans.unit(name)}
                   for name, value in spans.layer_metrics(per_round).items()}
        metrics["bench.traced_run_s"] = {"value": run_s, "unit": "s"}
        metrics["bench.calib_ms"] = {
            "value": 1000 * statistics.median(t for rnd in rounds for r in rnd for t in r["calibration"]),
            "unit": "ms"}
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for rnd in rounds for r in rnd),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(max(r["rss_mb"] for r in rnd)
                                                       for rnd in rounds if rnd), "unit": "MB"},
            "work_rate": {"value": units / run_s, "unit": "1/s"},
        }

    kind = "trace" if tracing else "result"
    with open(RESULTS / f"{kind}-{args.workload}-{args.seed}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "ops": [{"label": op.label, "argv": op.argv} for op in ops],
                   "rounds": [[{k: v for k, v in r.items() if k != "report"} for r in rnd]
                              for rnd in rounds],
                   "metrics": metrics}, fh)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
