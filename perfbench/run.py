"""Run one benchmark workload against the mfekit sources of this checkout.

    python3 perfbench/run.py --workload statics_exact --seed 1 --seconds 20 --trace 0

The process pins BLAS to one thread, times its own cold set-up (importing
mfekit and building the workload's models and inputs), then repeats whole
rounds of the workload until --seconds of timed work have passed.  Each
round's time is normalised by the machine-speed probes taken before, between
and after its operations (see calibration.py), and wall_s is the median; setup_s is normalised by the
probe taken right after set-up.  Every round's outputs are
checked afterwards against the exact oracle.  With
--trace 1 one more round runs with spans around mfekit's public functions,
and the per-layer metrics replace the end-to-end ones.  The last line of
standard output is the result as one JSON object.
"""

import time

_PROCESS_T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Per-layer metrics: name -> (unit, better).  BENCHMARK.json lists the same.
PER_LAYER = {
    "dp.value_iteration.s": ("s", "lower"),
    "dp.value_iteration.sweeps": ("count", "lower"),
    "dp.value_iteration.unconverged": ("count", "lower"),
    "dp.model_matrices.s": ("s", "lower"),
    "dp.model_matrices.calls": ("count", "lower"),
    "dp.model_matrices.built": ("count", "lower"),
    "dp.extract_policy.s": ("s", "lower"),
    "chain.build_chain.s": ("s", "lower"),
    "chain.stationary_distribution.s": ("s", "lower"),
    "chain.ergodicity_check.s": ("s", "lower"),
    "chain.monte_carlo_stationary.s": ("s", "lower"),
    "chain.us_per_mc_sample": ("us", "lower"),
    "core.interaction_value_detailed.s": ("s", "lower"),
    "core.interaction.clamped": ("count", "lower"),
    "equilibrium.residual.calls": ("count", "lower"),
    "equilibrium.residual.s": ("s", "lower"),
    "equilibrium.adaptive_vfi.s": ("s", "lower"),
    "equilibrium.trace_rows": ("count", "lower"),
    "learning.q_learning.s": ("s", "lower"),
    "learning.us_per_env_step": ("us", "lower"),
    "learning.us_per_tuple_update": ("us", "lower"),
    "learning.outer_steps": ("count", "lower"),
    "experiments.solve_by_name.s": ("s", "lower"),
    "experiments.comparative_statics_sweep.s": ("s", "lower"),
    "cli.main.s": ("s", "lower"),
    "io.write_artifact.s": ("s", "lower"),
    "io.bytes_written": ("bytes", "lower"),
    "models.build_model.s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
    }


def per_layer_metrics(tracer, solutions_trace_rows: int, traced_wall: float, untraced_wall: float) -> dict:
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts

    def per(total: float, n: float) -> float:
        return 1e6 * total / n if n else 0.0

    values = {name: self_s.get(name[:-2], 0.0) for name in PER_LAYER if name.endswith(".s")}
    values.update({
        "dp.value_iteration.sweeps": counts["dp.value_iteration.sweeps"],
        "dp.value_iteration.unconverged": counts["dp.value_iteration.unconverged"],
        "dp.model_matrices.calls": calls.get("dp.model_matrices", 0),
        "dp.model_matrices.built": counts["dp.model_matrices.built"],
        "chain.us_per_mc_sample": per(self_s.get("chain.monte_carlo_stationary", 0.0), counts["chain.mc_samples"]),
        "core.interaction.clamped": counts["core.interaction.clamped"],
        "equilibrium.residual.calls": calls.get("equilibrium.residual", 0),
        "equilibrium.trace_rows": solutions_trace_rows,
        "learning.us_per_env_step": per(self_s.get("learning.q_learning", 0.0), counts["learning.env_steps"]),
        "learning.us_per_tuple_update": per(self_s.get("learning.q_learning", 0.0), counts["learning.tuple_updates"]),
        "learning.outer_steps": counts["learning.outer_steps"],
        "io.bytes_written": counts["io.bytes_written"],
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(tracer.spans),
    })
    return {name: {"value": float(values[name]), "unit": unit} for name, (unit, _) in PER_LAYER.items()}


def trace_rows(outputs) -> int:
    """Evaluation rows in the traces of a round's exact solutions (0 for other workloads)."""
    from mfekit.equilibrium import MfeSolution

    return sum(len(out.trace) for out in outputs
               if isinstance(out, MfeSolution) and out.algorithm == "adaptive_vfi")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import mfekit

    if Path(mfekit.__file__).resolve().parent != ROOT / "src" / "mfekit":
        print(f"imported mfekit from {mfekit.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    setup_raw = time.perf_counter() - _PROCESS_T0

    from calibration import REFERENCE_S, probe

    probes = [probe()]
    setup_s = setup_raw * REFERENCE_S / probes[0]
    results, times = [], []

    def timed_round():
        """Run one round, probing the machine's speed between its operations."""
        outputs, spent, first = [], 0.0, len(probes) - 1
        for operation in workload.operations():
            t0 = time.perf_counter()
            outputs.append(operation())
            spent += time.perf_counter() - t0
            probes.append(probe())
        results.append(outputs)
        times.append(spent)
        return spent * REFERENCE_S / statistics.mean(probes[first:])

    normalised = []
    while not times or sum(times) < args.seconds:
        normalised.append(timed_round())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(normalised)

    if args.trace:
        from tracing import Tracer

        with Tracer() as tracer:
            traced_wall = timed_round()
        span_dir = OUT / args.workload
        span_dir.mkdir(exist_ok=True)
        tracer.write(span_dir / "spans.jsonl")
        metrics = per_layer_metrics(tracer, trace_rows(results[-1]), traced_wall, wall_s)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    attempted = failed = 0
    problems = []
    for result in results:
        n, bad, round_problems = workload.check_round(result)
        attempted += n
        failed += bad
        problems += round_problems
    for problem in dict.fromkeys(problems):
        print(f"property violated: {problem}", file=sys.stderr)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "raw_setup_s": setup_raw,
                      "raw_round_s": times, "probe_s": probes, **provenance()}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
