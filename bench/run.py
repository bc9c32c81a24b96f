"""lightlattice benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload pair-sweep --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout; it uses the package under
src/ and nothing installed. With --trace 0 it reports the end-to-end
metrics (wall_s, setup_s, peak_rss_mb); with --trace 1 the per-layer
metrics. bench/README.md says why each workload exists and which layer
metric should move which end-to-end metric.

Set-up time is measured in fresh processes (bench/worker.py setup), the
workload in one more process of its own (bench/worker.py run), so that
peak_rss_mb is the workload's alone. The result goes to standard output,
last line; a readable report comes before it, and the full record
(environment, scenario hashes, every sample) goes to
.bench_out/results-<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import scenarios  # noqa: E402

SETUP_REPEATS = 7
DEADLINE_S = 170.0


def percentile_summary(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    text = f"median {statistics.median(s):.6g} (n={n})"
    if n >= 11:
        text += f", p{100.0 * (n - 10) / n:.0f} {s[n - 11]:.6g}"
    else:
        text += ", no percentile has 10 samples beyond it"
    return text


def run_child(argv, deadline):
    """Run a child process to completion or kill it at the deadline."""
    env = dict(os.environ, LIGHTLATTICE_THREADS="1")
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"error: {argv[2]} process passed the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"error: {argv[2]} process exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=scenarios.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lightlattice", "__init__.py")):
        print("error: src/lightlattice not found; run from a lightlattice checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    out_root = os.path.join(root, ".bench_out")
    run_dir = os.path.join(out_root, f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    worker = [sys.executable, os.path.join(HERE, "worker.py")]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--root", root]
    try:
        setup = []
        setup_calibration = []
        # one untimed set-up first: it compiles the package's bytecode
        for i in range(SETUP_REPEATS + 1):
            setup_calibration.append(calibrate.calibration_time())
            t = time.perf_counter()
            run_child(worker + ["setup", *common, "--dir", os.path.join(run_dir, f"setup{i}")],
                      deadline)
            setup.append(time.perf_counter() - t)
        setup_calibration.append(calibrate.calibration_time())
        setup = setup[1:]
        out = run_child(worker + ["run", *common, "--seconds", str(args.seconds),
                                  "--trace", str(args.trace), "--dir", run_dir], deadline)
        report = json.loads(out.strip().splitlines()[-1])
        if args.trace:
            spans = os.path.join(run_dir, "spans.npz")
            os.replace(spans, os.path.join(out_root, f"spans-{args.workload}.npz"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    report["setup_samples"] = setup
    report["setup_calibration"] = setup_calibration
    metrics = dict(report["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup) * (
            calibrate.REFERENCE_S / statistics.median(setup_calibration))
    report["metrics"] = metrics
    with open(os.path.join(out_root, f"results-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(report, workload=args.workload, seed=args.seed), fh, indent=1)

    env = report["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, sha in report["scenario_hashes"].items():
        print(f"scenario_hash {name} {sha}")
    print("raw wall time per pass (s): " + percentile_summary(report["pass_walls"]))
    if report["traced_pass_walls"]:
        print("raw traced wall time per pass (s): "
              + percentile_summary(report["traced_pass_walls"]))
    print("calibration between passes (s): " + percentile_summary(report["calibration"]))
    print("raw set-up time per process (s): " + percentile_summary(setup))
    print("calibration between set-ups (s): " + percentile_summary(setup_calibration))
    for i, label in enumerate(report["op_labels"]):
        times = [t[i] for t in report["op_times"]]
        print(f"op {label}: " + percentile_summary(times))
    attempted, failed = report["attempted"], report["failed"]
    print(f"operations attempted {attempted} failed {failed} "
          f"fail_frac {failed / attempted:.6g}")
    for err in report["errors"]:
        print(f"FAILED {err}")
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]!r}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
