"""Benchmark for aq: time to a verified answer, and where the work goes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.
Workloads (see `workloads.py` and `predictions.json`): readme-session,
suites, surjections.  All load comes from one process at a time: each pass
runs in a fresh interpreter (`worker.py`), one after another, so no cache
survives from one pass into the next.  The seed orders the surjections
corpus; the other two workloads have fixed inputs.

With `--trace 0` the benchmark runs passes until `--seconds` have gone by
(at least three) and reports the end-to-end metrics: wall_s (median pass
time), item_p50_ms and item_p90_ms (percentiles over the items of each
item's median over the passes), setup_s (median time of `import aq` plus
input building, over the passes and over short passes that only set up,
at least SETUP_SAMPLES in all) and peak_rss_mb (median peak RSS of a
pass).  The times are in reference seconds: wall time with the shared
host's drift in speed taken out, as `hostspeed.py` measures it during the
pass.
With `--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics of `tracing.layer_metrics` plus trace.overhead_ratio,
and prints the traced profile.  Either way every item's output is checked
(see `workloads.py`), traced output must equal untraced output byte for
byte, and traced call counts must repeat exactly from pass to pass.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
the run completed, whether or not the outputs were correct, and 2 when it
could not run (for example, no `src/aq` below the working directory).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402  (imports no part of aq)

END_TO_END = {"wall_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_SECONDS_SUFFIX = ".self_s"
MIN_PASSES = 3
SETUP_SAMPLES = 25
SETUP_PER_PASS = 3
# Stop starting passes once this much time has gone, so that a run ends
# well within three minutes even when a pass got much slower.
LAST_START_S = 90.0
PASS_TIMEOUT_S = 170.0
# Percentiles considered for a tail, in per mille.
PERCENTILES = (500, 750, 900, 950, 990, 999)


class BenchError(RuntimeError):
    pass


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(PER_LAYER_SECONDS_SUFFIX):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


# -- statistics --------------------------------------------------------

def percentile(values, per_mille: int) -> float:
    """Nearest rank: the smallest value with at least that share of the
    values at or below it.  Repeating every value k times leaves it
    unchanged, so pooling passes over the same items does not move it
    from one item to the next as the number of passes varies."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = -(-per_mille * len(xs) // 1000)
    return xs[max(rank, 1) - 1]


def tail_percentile(n: int) -> int | None:
    """The highest percentile (per mille) with at least ten of n samples
    beyond it, or None when even the median has fewer than ten."""
    best = None
    for q in PERCENTILES:
        if n * (1000 - q) >= 10 * 1000:
            best = q
    return best


def failed_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no items attempted")
    return failed / attempted


def describe_timing(name: str, values, unit: str) -> str:
    line = f"{name:<12} median {percentile(values, 500):.6g} {unit}"
    q = tail_percentile(len(values))
    if q is not None and q > 500:
        line += f", p{q / 10:g} {percentile(values, q):.6g} {unit}"
    return line + f" (n={len(values)})"


# -- passes ------------------------------------------------------------

def _env(root: Path) -> dict:
    """The environment of a pass: the checkout's library, nothing else."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def run_pass(root: Path, out_dir: Path, workload: str, seed: int,
             trace: bool, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           "1" if trace else "0", str(out_dir)]
    if setup_only:
        cmd.append("setup-only")
    proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True,
                          text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"a pass of {workload} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    library = (root / "src" / "aq").resolve()
    if Path(result["aq_file"]).resolve().parent != library:
        raise BenchError(f"imported aq from {result['aq_file']}, "
                         f"not from {root / 'src'}")
    return result


def warm_up(root: Path) -> None:
    """Compile the library and the benchmark's modules once, untimed, as an
    installed package would be; timed passes then load the same bytecode."""
    env = _env(root)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import aq, workloads, tracing")
    subprocess.run([sys.executable, "-c", code, str(BENCH)], cwd=root,
                   env=env, check=True, timeout=PASS_TIMEOUT_S)


def timed_run(root, out_dir, workload, seed, seconds):
    started = time.perf_counter()
    passes, setup_passes = [], []

    def set_up(count):
        for _ in range(count):
            setup_passes.append(run_pass(root, out_dir, workload, seed,
                                         trace=False, setup_only=True))

    while True:
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and (elapsed >= seconds
                                          or elapsed >= LAST_START_S):
            break
        passes.append(run_pass(root, out_dir, workload, seed, trace=False))
        # A pass sets up once; short passes that only set up, spread over
        # the run, add samples, so that the median set-up time rests on at
        # least SETUP_SAMPLES of them.
        set_up(SETUP_PER_PASS)
    set_up(SETUP_SAMPLES - len(passes) - len(setup_passes))
    setups = [p["setup_ref_s"] for p in passes + setup_passes]
    raw_setups = [p["setup_s"] for p in passes + setup_passes]
    items = [t for p in passes for t in p["times_ref_ms"]]
    # Every pass runs the same items in the same order.  Each item's median
    # over the passes damps one slow pass; the percentiles then pick an
    # item, not a noisy sample from the edge of a cluster of items.
    per_item = [statistics.median(ts)
                for ts in zip(*(p["times_ref_ms"] for p in passes))]
    metrics = {
        "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
        "item_p50_ms": percentile(per_item, 500),
        "item_p90_ms": percentile(per_item, 900),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    print(describe_timing("wall_ref_s", [p["wall_ref_s"] for p in passes],
                          "s"))
    print(describe_timing("wall clock", [p["wall_s"] for p in passes], "s"))
    print(describe_timing("setup_ref_s", setups, "s"))
    print(describe_timing("setup clock", raw_setups, "s"))
    print(describe_timing("item_ref_ms", items, "ms"))
    problems = []
    if len({p["digest"] for p in passes}) != 1:
        problems.append("outputs differ between passes over the same inputs")
    return metrics, passes, problems


def traced_run(root, out_dir, workload, seed, seconds):
    started = time.perf_counter()
    plain, traced = [], []
    while not traced or (time.perf_counter() - started < min(seconds,
                                                             LAST_START_S)):
        plain.append(run_pass(root, out_dir, workload, seed, trace=False))
        traced.append(run_pass(root, out_dir, workload, seed, trace=True))
    problems = []
    if len({p["digest"] for p in plain + traced}) != 1:
        problems.append("traced outputs differ from untraced outputs")
    exact = [{k: v for k, v in p["layers"].items()
              if not k.endswith(PER_LAYER_SECONDS_SUFFIX)} for p in traced]
    if any(e != exact[0] for e in exact):
        problems.append("traced call counts differ between passes")
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               if name.endswith(PER_LAYER_SECONDS_SUFFIX) else exact[0][name]
               for name in traced[0]["layers"]}
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    print(f"traced profile of {workload} "
          f"({traced[0]['spans']} spans, traced wall "
          f"{traced[0]['wall_s']:.3f} s, untraced {plain_wall:.3f} s):")
    for label, seconds_ in traced[0]["profile"]:
        share = seconds_ / traced[0]["wall_s"]
        print(f"  {label:<66} {seconds_:9.4f} s {share:6.1%}")
    return metrics, plain + traced, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; available: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (root / "src" / "aq" / "__init__.py").is_file():
        print(f"no src/aq below {root}: run from the root of an aq checkout",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    try:
        warm_up(root)
        run = traced_run if args.trace else timed_run
        metrics, passes, problems = run(root, out_dir, args.workload,
                                        args.seed, args.seconds)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"passes {len(passes)}, items {attempted}, failed {failed}, "
          f"failed_ratio {failed_ratio(attempted, failed):.6g}")
    for problem in problems:
        print(f"incorrect: {problem}")
    for name, value in metrics.items():
        print(f"{name:<42} {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
