"""One benchmark process: set-up only, or the timed passes of a workload.

    python3 bench/worker.py setup --workload W --seed S --root R --dir D
    python3 bench/worker.py run --workload W --seed S --root R --dir D --seconds T --trace 0|1

R is the checkout root (its src/ is imported), D a scratch directory.

`setup` is what a user pays before the first result: a fresh interpreter
importing lightlattice and lightlattice.cli, then generating the
workload's scenario documents and validating them with load_scenario.
bench/run.py times whole `setup` processes.

`run` repeats passes of the workload for about T seconds and prints one
JSON line. Every pass runs the same operations on the same documents, so
per-pass counts repeat exactly and all passes must write byte-identical
artifacts. A fixed calibration (calibrate.py) runs between passes, and
every reported time is scaled by the machine speed it measured. With
--trace 1 the kernel probes run first, then passes alternate untraced and
traced, and the per-layer metrics come from the traced ones. The package
is driven only through lightlattice.cli.main and public library functions.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# reference (mpmath) and tracer are imported where they are used: set-up
# processes import this module and must pay for the package alone
import artifacts  # noqa: E402
import calibrate  # noqa: E402
import scenarios  # noqa: E402

PACKAGE = "lightlattice"
# subcommands some workload runs; each gets a cli.main.<sub>.wall_s metric
SUBCOMMANDS = ("sweep", "evolve", "zerolines", "forces", "fields", "design", "modes")


def import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import lightlattice
    import lightlattice.cli

    where = os.path.dirname(os.path.abspath(lightlattice.__file__))
    if os.path.commonpath([where, src]) != src:
        raise SystemExit(f"error: imported {where}, not the checkout's own package")
    return lightlattice


def write_documents(ll, workload: str, seed: int, directory: str) -> dict:
    """Generate, write and validate the documents; return role -> Scenario."""
    os.makedirs(directory, exist_ok=True)
    loaded = {}
    for role, doc in scenarios.documents(workload, seed).items():
        path = os.path.join(directory, f"{role}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        loaded[role] = ll.load_scenario(path)
    return loaded


# ------------------------------------------------------------ workloads

class Op:
    """One operation of a pass: a main() invocation or a library call."""

    def __init__(self, label, call):
        self.label = label
        self.call = call


def cli_op(ll, sub, *args):
    def call(out):
        code = ll.cli.main([sub, *args, "--out", out])
        if code != 0:
            raise RuntimeError(f"{sub} exited with code {code}")
        return code

    return Op(sub, call)


def equilibrium_op(ll, label, scn):
    def call(out):
        return ll.find_equilibrium(scn.chain, scn.mode_list(), relative_only=True)

    return Op(label, call)


def build_ops(ll, workload, seed, docs_dir, loaded):
    def doc(role):
        return os.path.join(docs_dir, f"{role}.json")

    if workload == "pair-sweep":
        return [cli_op(ll, "sweep", "--scenario", doc("sweep"))]
    if workload == "long-chain":
        return [cli_op(ll, "evolve", "--scenario", doc("evolve"))]
    steps = str(scenarios.ZEROLINES_STEPS)
    return [
        equilibrium_op(ll, "equilibrium-drifting10", loaded["drifting10"]),
        equilibrium_op(ll, "equilibrium-symmetric30", loaded["symmetric30"]),
        cli_op(ll, "zerolines", "--scenario", doc("zerolines"),
               "--d1-steps", steps, "--d2-steps", steps),
        cli_op(ll, "forces", "--scenario", doc("pair")),
        cli_op(ll, "fields", "--scenario", doc("pair")),
        cli_op(ll, "design", *scenarios.design_args(seed)),
        cli_op(ll, "modes", "--scenario", doc("modes")),
    ]


def run_pass(ops, out):
    """Run every op once; return (wall, per-op times, results, errors)."""
    os.makedirs(out, exist_ok=True)
    times, results, errors = [], {}, []
    clock = time.perf_counter
    t0 = clock()
    for op in ops:
        t = clock()
        try:
            results[op.label] = op.call(out)
        except Exception:  # the benchmark keeps going and counts the failure
            errors.append(f"{op.label}: {traceback.format_exc()}")
        times.append(clock() - t)
    return clock() - t0, times, results, errors


# --------------------------------------------------------------- checks

def spot_checks(ll, workload, seed, docs, out, results):
    import reference

    checks = reference.SpotChecks()
    rng = random.Random(f"checks-{workload}-{seed}")
    if workload == "pair-sweep":
        checks.sweep(os.path.join(out, artifacts.SWEEP_CSV), docs["sweep"])
    elif workload == "long-chain":
        doc = docs["evolve"]
        summary = checks.evolve_summary(os.path.join(out, "long_chain_summary.json"), doc)
        chain = ll.ScattererChain(summary["final_positions"], complex(*doc["chain"]["zeta"]))
        scn = ll.scenario_from_document(doc)
        solution = ll.solve_fields(chain, scn.mode_list())
        worst = 0.0
        for mode, mf in zip(scn.modes, solution.fields):
            target = mode.drive_right * cmath.exp(-1j * mode.k * chain.positions[-1])
            drive = max(abs(mode.drive_left), abs(mode.drive_right))
            worst = max(worst, abs(mf.quads[-1][3] - target) / drive)
        checks.record("boundary residual |D_N - drive_right e^-ikx_N|", worst < 1e-9,
                      f"relative residual {worst:.3e}")
    else:
        checks.zerolines(os.path.join(out, "triple_zerolines.csv"), docs["zerolines"], rng)
        checks.forces_table(os.path.join(out, "pair_forces.csv"), docs["pair"], rng)
        checks.design(os.path.join(out, "design.csv"), scenarios.ZETA_CHAIN, rng)
        for role, label in (("drifting10", "equilibrium-drifting10"),
                            ("symmetric30", "equilibrium-symmetric30")):
            report = results.get(label)
            if report is None:
                continue
            # find_equilibrium's default tolerance on sup |F_j+1 - F_j|
            modes = reference.modes_from_document(docs[role])
            f = reference.forces(report.positions, modes)
            worst = max(abs(b - a) for a, b in zip(f, f[1:]))
            limit = 1e-12 + reference.RTOL * reference.force_scale(modes)
            checks.record(f"{label} relative-force residual", worst <= limit,
                          f"max |F_j+1 - F_j| = {worst:.3e}, limit {limit:.3e}")
    return checks


# --------------------------------------------------------------- probes

def _median_time(fn, min_reps, min_seconds):
    samples = []
    start = time.perf_counter()
    while len(samples) < min_reps or time.perf_counter() - start < min_seconds:
        t = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def kernel_probes(ll) -> dict:
    """North-star kernel timings: forces_exact, Jacobian, Newton, RK4 step."""
    modes = [
        ll.Mode("y", ll.K_REF, drive_left=math.sqrt(2.0)),
        ll.Mode("z", ll.K_REF, drive_right=math.sqrt(2.0)),
    ]

    def chain(n):
        return ll.ScattererChain([j * scenarios.D_SW for j in range(n)], scenarios.ZETA_CHAIN)

    out = {}
    for n in (2, 10, 100, 1000):
        c = chain(n)
        out[f"forcefield.probe.n{n}_us"] = 1e6 * _median_time(
            lambda: ll.forces_exact(c, modes), 5, 0.2)
    for n, reps in ((10, 5), (100, 3)):
        c = chain(n)
        out[f"equilibria.probe.jac_n{n}_ms"] = 1e3 * _median_time(
            lambda: ll.equilibria.force_jacobian(c, modes), reps, 0.2)
    pair = ll.ScattererChain((0.0, 0.36), scenarios.ZETA_CHAIN)
    out["equilibria.probe.newton_pair_ms"] = 1e3 * _median_time(
        lambda: ll.find_equilibrium(pair, modes, relative_only=True), 5, 0.2)
    params = ll.DynamicsParams(regime="overdamped", dt=1.0, t_end=1.0)
    c10 = chain(10)
    out["dynamics.probe.rk4_step_n10_ms"] = 1e3 * _median_time(
        lambda: ll.dynamics.step_overdamped(c10, modes, params), 5, 0.2)
    return out


# -------------------------------------------------------------- metrics

def environment(ll) -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "LIGHTLATTICE_THREADS": os.environ.get("LIGHTLATTICE_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "lightlattice": ll.__version__,
    }


def layer_metrics(traced: list[dict], speed: float) -> dict:
    """Per-layer metrics: counts from one traced pass, times as calibrated medians."""

    def med(key):
        return speed * statistics.median(s.get(key, 0.0) for s in traced)

    def cnt(key):
        return traced[0].get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for key in ("wavecore.solve_fields.calls", "wavecore.reflection_transmission.calls",
                "forcefield.forces_exact.calls", "forcefield.pair_forces_approx.calls",
                "dynamics.evolve.calls", "equilibria.force_jacobian.calls",
                "equilibria.find_equilibrium.calls", "equilibria.linearize_pair_in_lattice.calls",
                "lattice.build_lattice.calls", "scenario.scenario_from_document.calls",
                "scenario.apply_axis_values.calls", "wavecore.scatterer_modes",
                "dynamics.rk4_steps", "equilibria.find_equilibrium.iterations",
                "cli.artifact_bytes", "cli.sweep.cells", "cli.sweep.failed_cells"):
        m[key] = cnt(key)
    for key in ("wavecore.solve_fields", "forcefield.forces_exact", "dynamics.evolve",
                "equilibria.force_jacobian", "equilibria.find_equilibrium",
                "equilibria.zero_force_grid", "equilibria.design_wavenumber",
                "equilibria.linearize_pair_in_lattice", "lattice.build_lattice",
                "scenario.scenario_from_document"):
        m[f"{key}.self_s"] = med(f"{key}.self_s")
    for module in ("wavecore", "forcefield", "dynamics", "equilibria", "lattice",
                   "scenario", "cli"):
        m[f"{module}.self_s"] = med(f"{module}.self_s")
    m["wavecore.ns_per_scatterer_mode"] = 1e9 * ratio(
        m["wavecore.solve_fields.self_s"], m["wavecore.scatterer_modes"])
    m["forcefield.forces_exact.us_per_call"] = 1e6 * ratio(
        med("forcefield.forces_exact.wall_s"), m["forcefield.forces_exact.calls"])
    m["dynamics.force_evals_per_step"] = ratio(
        cnt("dynamics.evolve.forces_exact_calls"), m["dynamics.rk4_steps"])
    m["equilibria.find_equilibrium.force_evals_per_iter"] = ratio(
        cnt("equilibria.find_equilibrium.forces_exact_calls"),
        m["equilibria.find_equilibrium.iterations"])
    for sub in SUBCOMMANDS:
        m[f"cli.main.{sub}.wall_s"] = med(f"cli.main.{sub}.wall_s")
    return m


# ----------------------------------------------------------------- main

def cmd_setup(args, root):
    ll = import_package(root)
    write_documents(ll, args.workload, args.seed, args.dir)
    return 0


def cmd_run(args, root):
    os.environ["LIGHTLATTICE_THREADS"] = "1"
    ll = import_package(root)

    docs_dir = os.path.join(args.dir, "docs")
    loaded = write_documents(ll, args.workload, args.seed, docs_dir)
    docs = {role: scn.doc for role, scn in loaded.items()}
    ops = build_ops(ll, args.workload, args.seed, docs_dir, loaded)

    # warm-up: first-call costs (schema validator, numpy linalg) off the clock
    ll.cli.main(["fields", "--scenario", os.path.join(docs_dir, f"{next(iter(docs))}.json"),
                 "--samples", "3", "--out", os.path.join(args.dir, "warm")])

    # times are scaled by the machine speed measured between passes
    calibration = [calibrate.calibration_time()]
    # the probes count against the run's time so a traced run takes as long
    budget = args.seconds
    probes = {}
    tracer = None
    if args.trace:
        import tracer as tracing

        t = time.perf_counter()
        probes = kernel_probes(ll)
        budget -= time.perf_counter() - t
        tracer = tracing.Tracer(PACKAGE)
        tracer.install()

    walls = {False: [], True: []}
    op_times = []
    summaries = []
    errors = []
    attempted = 0
    first = None
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        out = os.path.join(args.dir, f"pass{k}")
        if tracer is not None:
            tracer.reset()
            tracer.enabled = traced
        wall, times, results, errs = run_pass(ops, out)
        if tracer is not None:
            tracer.enabled = False
        attempted += len(ops)
        errors += errs
        walls[traced].append(wall)
        if not traced:
            op_times.append(times)
        digest, size = artifacts.digest(out)
        cells, failed_cells = artifacts.sweep_cells(out) if args.workload == "pair-sweep" else (0, [])
        attempted += cells
        errors += failed_cells
        if traced:
            s = tracer.summary()
            s["cli.artifact_bytes"] = size
            s["cli.sweep.cells"], s["cli.sweep.failed_cells"] = cells, len(failed_cells)
            summaries.append(s)
        if first is None:
            first = {"out": out, "digest": digest, "size": size, "results": results}
        else:
            if digest != first["digest"]:
                errors.append(f"pass {k}: artifacts differ from pass 0")
            shutil.rmtree(out)
        calibration.append(calibrate.calibration_time())
        k += 1
        elapsed = time.perf_counter() - start
        per_pass = statistics.median(walls[False] + walls[True])
        need_traced = tracer is not None and not walls[True]
        if not need_traced and elapsed + per_pass > budget:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.save(os.path.join(args.dir, "spans.npz"))
        tracer.uninstall()
        counts = [{k: v for k, v in s.items() if isinstance(v, int)} for s in summaries]
        if any(c != counts[0] for c in counts):
            errors.append("per-pass counts differ between traced passes")

    checks = spot_checks(ll, args.workload, args.seed, docs, first["out"], first["results"])
    attempted += len(checks.results)
    errors += [f"check {label}: {detail}" for label, ok, detail in checks.results if not ok]

    failed = len(errors)
    speed = calibrate.REFERENCE_S / statistics.mean(calibration)
    if tracer is not None:
        metrics = layer_metrics(summaries, speed)
        metrics.update((name, value * speed) for name, value in probes.items())
        metrics["trace.overhead_s"] = (
            statistics.mean(walls[True]) - statistics.mean(walls[False])) * speed
        metrics["fail_frac"] = failed / attempted
    else:
        # mean, not median: pass times are bimodal under the host's load
        # and the median jumps between the modes (README.md)
        metrics = {
            "wall_s": statistics.mean(walls[False]) * speed,
            "peak_rss_mb": peak_rss_mb,
        }
    report = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "pass_walls": walls[False],
        "traced_pass_walls": walls[True],
        "calibration": calibration,
        "op_labels": [op.label for op in ops],
        "op_times": op_times,
        "artifact_bytes": first["size"],
        "scenario_hashes": artifacts.scenario_hashes(first["out"]),
        "checks": [list(c) for c in checks.results],
        "environment": environment(ll),
    }
    print(json.dumps(report))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "run"))
    parser.add_argument("--workload", choices=scenarios.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)
    if args.role == "setup":
        return cmd_setup(args, args.root)
    return cmd_run(args, args.root)


if __name__ == "__main__":
    sys.exit(main())
