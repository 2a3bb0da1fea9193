"""One timed pass of one workload, in the interpreter this script starts.

    python3 bench/worker.py WORKLOAD SEED TRACE OUT_DIR [setup-only]

`run.py` starts this script once per pass, so no cache survives from one
pass into the next.  It times `import aq` plus building the inputs (the
set-up), then the items, checks each item's output, and prints one JSON
object as its last line of standard output.  With TRACE 1 the tracing
wrappers are installed right after `import aq`; the object then also holds
the per-layer metrics and the profile, and the spans go to OUT_DIR.  With
`setup-only` the pass ends after the set-up and reports only its times.  With
TRACE 0 a `hostspeed.SpeedSampler` runs from the start, and the object
also holds the set-up, pass and item times in reference seconds
(`hostspeed.py`), which take the shared host's drift out of them.
"""

import sys
import time


def main(argv: list[str]) -> dict:
    workload_name, seed, trace, out_dir, *mode = argv
    seed, trace = int(seed), trace == "1"
    setup_only = mode == ["setup-only"]

    sampler = None
    if not trace:
        from hostspeed import SpeedSampler
        sampler = SpeedSampler()
        sampler.start()
    # only `sys`, `time` and the sampler are loaded before the clock starts
    setup_start = time.perf_counter()
    import aq
    install_s = 0.0
    tracer = None
    if trace:
        from tracing import Tracer
        t = time.perf_counter()
        tracer = Tracer()
        tracer.install()
        install_s = time.perf_counter() - t
    from pathlib import Path
    from workloads import WORKLOADS
    out_dir = Path(out_dir)
    workload = WORKLOADS[workload_name](out_dir)
    items = workload.setup(seed)
    setup_end = time.perf_counter()
    setup_s = setup_end - setup_start - install_s
    if setup_only:
        sampler.stop()
        return {"aq_file": aq.__file__, "setup_s": setup_s,
                "setup_ref_s": sampler.reference_seconds(setup_start,
                                                         setup_end)}

    import hashlib
    import resource
    times_ms: list[float] = []
    item_starts: list[tuple[float, int]] = []
    failed = 0
    attempted = 0
    digest = hashlib.sha256()
    started = time.perf_counter()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        t0 = time.perf_counter()
        outcome = workload.run(item)
        item_starts.append((t0, len(outcome.times_ms)))
        times_ms += outcome.times_ms
        attempted += len(outcome.times_ms)
        failed += outcome.failed
        digest.update(outcome.canonical.encode())
    wall_end = time.perf_counter()
    wall_s = wall_end - started
    if sampler is not None:
        sampler.stop()

    result = {
        "aq_file": aq.__file__,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "times_ms": times_ms,
        "attempted": attempted,
        "failed": failed,
        "digest": digest.hexdigest(),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if sampler is not None:
        result["setup_ref_s"] = sampler.reference_seconds(setup_start,
                                                          setup_end)
        result["wall_ref_s"] = sampler.reference_seconds(started, wall_end)
        result["times_ref_ms"] = reference_times(sampler, item_starts,
                                                 times_ms)
        result["slices"] = len(sampler.durations)
    if tracer is not None:
        from tracing import layer_metrics, layer_profile, self_times
        tracer.uninstall()
        self_s = self_times(tracer.start, tracer.end, tracer.parent)
        result["layers"] = layer_metrics(tracer, self_s)
        result["profile"] = layer_profile(tracer, self_s, wall_s)
        result["spans"] = len(tracer.name_id)
        tracer.write_spans(out_dir / f"spans-{workload_name}.txt")
    return result


def reference_times(sampler, item_starts, times_ms) -> list[float]:
    """Each item's times in reference ms.  The times of an item (the tasks
    of a session, or the item itself) ran one after another from the item's
    start, so each is laid from where the previous one ended and scaled by
    the host's speed there."""
    out = []
    position = 0
    for t0, count in item_starts:
        cursor = t0
        for ms in times_ms[position:position + count]:
            end = cursor + ms / 1000
            if end > cursor:
                ms *= sampler.reference_seconds(cursor, end) / (end - cursor)
            out.append(ms)
            cursor = end
        position += count
    return out


if __name__ == "__main__":
    import json
    print(json.dumps(main(sys.argv[1:])))
