#!/usr/bin/env python3
"""End-to-end benchmark of delcert.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload certify-builtin --seed 1 --seconds 20 --trace 0

or every workload, each in a fresh process:

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run sets the program up several times (``setup_s`` is the median),
then processes generated instances one at a time until ``--seconds`` of
measured work is done, checks every output and prints the end-to-end
metrics.  Times are scaled to a nominal host speed, which a reference
kernel timed between units of work gives (see ``hostspeed.py``); the
table shows the raw figures next to them.  With ``--trace 1`` it
repeats the same instances with every traced name of delcert rebound
(see ``tracing.py``), checks that the outputs are identical, and prints
the per-layer metrics and the tracing overhead instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Outputs, the run manifest and the spans go to ``perfbench/out/``.

Exit codes: 0 all checks passed, 1 a check failed, 2 the program could
not be loaded or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("certify-builtin", "certify-external", "oracle-verify", "attack-smoothed")
END_TO_END = (
    ("instances_per_s", "1/s"),
    ("instance_ms_p50", "ms"),
    ("instance_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# set-up runs at least SETUP_REPEATS times and, while it has taken less
# than SETUP_MIN_S in all, again, up to SETUP_MAX_REPEATS times; setup_s
# is the median, so that a short set-up is not read off one noisy sample
SETUP_REPEATS = 3
SETUP_MIN_S = 1.5
SETUP_MAX_REPEATS = 15
# per-layer metrics that must be nonzero in a traced run of each workload
EXPECTED_LAYERS = {
    "certify-builtin": [
        "mechanisms.keep_matrix.calls", "rng.generator.calls", "tokenization.tokenize.calls",
        "certify.score_bounds.calls", "certify.radius_from_margin.calls",
        "certify.smoothed_predict.calls", "edit_metrics.lev_ball_lower_bound.calls",
        "classifier.train_builtin.s", "cli.self_s",
    ],
    "certify-external": [
        "mechanisms.keep_matrix.calls", "certify.texts", "certify.score_bounds.calls",
        "certify.radius_from_margin.calls", "classifier.classify_batch.calls",
        "classifier.train_builtin.s", "external.round_trip_s", "external.child_busy_s",
        "external.bytes_sent",
    ],
    "oracle-verify": [
        "oracle.exact_smoothed_scores.calls", "oracle.exact_smoothed_scores.subsequences",
        "oracle.verify_certificate.calls", "edit_metrics.enumerate_ball.calls",
        "edit_metrics.enumerate_ball.candidates", "kernels.edit_distance_ids.calls",
        "classifier.classify_batch.calls", "certify.radius_from_margin.calls",
    ],
    "attack-smoothed": [
        "attacks.queries", "attacks.predict_s", "attacks.self_s", "rng.generator.calls",
        "tokenization.tokenize.calls", "certify.smoothed_predict.calls",
        "mechanisms.keep_matrix.calls", "classifier.train_builtin.s",
    ],
}
# the manifest also digests the first this many outputs: runs measure for
# a time, not a count, so only a prefix is comparable between commits
DIGEST_PREFIX = 100
# a run that has not ended by then is stopped, so that it never exceeds 180 s
ALARM_S = 170


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured work per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small sizes, for the benchmark's own tests")
    p.add_argument("--inject-fault", action="store_true",
                   help="tamper with one output before the checks, for the benchmark's own tests")
    return p.parse_args(argv)


def _load_program():
    """Import delcert from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "delcert" / "__init__.py").is_file():
        print(f"error: no delcert sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import delcert

    if Path(delcert.__file__).resolve().parent != SRC / "delcert":
        print(f"error: imported delcert from {delcert.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return delcert


def _git_commit() -> str | None:
    # the ceiling keeps git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _more_setups(args, setup_times: list[float]) -> bool:
    if args.trace or args.tiny:
        return False
    n = len(setup_times)
    return n < SETUP_REPEATS or (sum(setup_times) < SETUP_MIN_S and n < SETUP_MAX_REPEATS)


def _timed_phase(wl, host, seconds: float | None = None, n_units: int | None = None):
    """Process units until ``n_units`` are done or, at the end of a block
    of ``wl.units_per_block`` units, the next block would likely take the
    measured time past ``seconds`` (at least one block).

    Only processing is measured; generating the next unit and sampling
    ``host`` between units are not.  Returns the results, the measured
    seconds and the number of units.
    """
    results, measured, done = [], 0.0, 0
    block = wl.units_per_block
    units = wl.units()
    host.sample()
    while True:
        if n_units is not None:
            if done == n_units:
                break
        elif done and done % block == 0 and measured * (done + block) / done > seconds:
            break
        unit = next(units)
        t0 = time.perf_counter()
        results.extend(wl.process(unit))
        measured += time.perf_counter() - t0
        done += 1
        host.sample_if_due()
    return results, measured, done


def _digest(wl, results) -> str:
    h = hashlib.sha256(wl.header.encode())
    for r in results:
        h.update(r.output.encode())
    return h.hexdigest()


def _write_outputs(wl, results, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(wl.header)
        fh.writelines(r.output for r in results)


def _end_to_end(results, measured, host, setup_times, setup_host, peak_rss_mb):
    """The end-to-end metrics scaled to the nominal host, the raw ones,
    and a note with the sample count of each."""
    lat_ms = [r.latency * 1000 for r in results]
    p90 = statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0]
    raw = {
        "instances_per_s": len(results) / measured,
        "instance_ms_p50": statistics.median(lat_ms),
        "instance_ms_p90": p90,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    scale = {
        "instances_per_s": 1 / host.scale,
        "instance_ms_p50": host.scale,
        "instance_ms_p90": host.scale,
        "setup_s": setup_host.scale,
        "peak_rss_mb": 1.0,
    }
    values = {name: raw[name] * scale[name] for name in raw}
    reference = f"reference {host.typical_s * 1000:.3f} ms, n={len(host.samples)}"
    notes = {
        "instances_per_s": f"n={len(results)} in {measured:.2f} s; {reference}",
        "instance_ms_p50": f"n={len(results)}",
        "instance_ms_p90": f"n={len(results)}, {sum(t > p90 for t in lat_ms)} above",
        "setup_s": f"median of n={len(setup_times)} set-ups; reference"
                   f" {setup_host.typical_s * 1000:.3f} ms, n={len(setup_host.samples)}",
        "peak_rss_mb": "this process, before the checks",
    }
    for name in raw:
        if scale[name] != 1.0:
            notes[name] = f"raw {raw[name]:.6g}; " + notes[name]
    return values, raw, notes


def run_workload(args) -> int:
    delcert = _load_program()
    import numpy
    import scipy

    import tracing as tr
    import workloads
    from hostspeed import NOMINAL_S, HostSpeed

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, out_dir)
    problems: list[str] = []
    setup_times = []
    setup_host, host = HostSpeed(), HostSpeed()
    try:
        while not setup_times or _more_setups(args, setup_times):
            if setup_times:
                problems += wl.teardown()
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            setup_host.sample()
        results, measured, units = _timed_phase(wl, host, seconds=args.seconds)
    finally:
        problems += wl.teardown()
    # the peak of set-up and measured work, before the checks add their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.inject_fault:
        wl.inject_fault(results)
    wl.check(results)
    digest = _digest(wl, results)
    _write_outputs(wl, results, out_dir / wl.output_name)

    manifest = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "params": wl.params(),
        "delcert_version": delcert.__version__,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": sys.modules["delcert.kernels"].BACKEND,
        "nproc": os.cpu_count(),
        "reference_kernel": {
            "nominal_s": NOMINAL_S,
            "setup_samples_s": setup_host.samples,
            "timed_samples_s": host.samples,
        },
        "instances": len(results),
        "outputs": {wl.output_name: digest},
        "outputs_prefix": {
            "instances": min(DIGEST_PREFIX, len(results)),
            wl.output_name: _digest(wl, results[:DIGEST_PREFIX]),
        },
    }

    if args.trace:
        tracer, bindings = tr.Tracer(), tr.Bindings()
        traced_host = HostSpeed()
        wl.tracer = tracer
        try:
            tr.install(tracer, bindings, extra_classifiers=[workloads.KeywordRule])
            try:
                wl.setup()
                traced, traced_s, _ = _timed_phase(wl, traced_host, n_units=units)
            finally:
                problems += wl.teardown()
        finally:
            bindings.restore()
            wl.tracer = None
        traced_digest = _digest(wl, traced)
        if traced_digest != digest:
            problems.append(f"traced outputs {traced_digest} differ from untraced {digest}")
        overhead_frac = (traced_s * traced_host.scale) / (measured * host.scale) - 1
        metrics = tr.layer_metrics(tracer, wl.child_stats(), overhead_frac)
        for name in EXPECTED_LAYERS[wl.name]:
            if not metrics[name]:
                problems.append(f"traced name {name} was never called")
        tracer.save(out_dir / "spans.npz")
        manifest["outputs_traced"] = {wl.output_name: traced_digest}
        # layer times are scaled to the nominal host like end-to-end times
        shown = {
            name: (metrics[name] * (traced_host.scale if unit == "s" else 1.0), unit)
            for name, unit, _, _ in tr.LAYERS
        }
        notes = {name: f"moves {moves}" for name, _, _, moves in tr.LAYERS}
        manifest["metrics_raw"] = {name: metrics[name] for name, _, _, _ in tr.LAYERS}
        manifest["reference_kernel"]["traced_samples_s"] = traced_host.samples
    else:
        values, raw, notes = _end_to_end(
            results, measured, host, setup_times, setup_host, peak_rss_mb
        )
        shown = {name: (values[name], unit) for name, unit in END_TO_END}
        manifest["metrics_raw"] = raw

    failed = sum(r.problem is not None for r in results)
    for r in results:
        if r.problem is not None:
            print(f"FAILED instance {r.item[0]}: {r.problem}", file=sys.stderr)
    for p in problems:
        print(f"FAILED run: {p}", file=sys.stderr)
    correct = failed == 0 and not problems

    manifest["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}
    manifest["failed"] = failed
    manifest["problems"] = problems
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}"
          f"  backend {manifest['kernel_backend']}")
    for name, (value, unit) in shown.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    print(f"  {'failed_frac':<48} {failed / len(results):>14.6g} {'ratio':<6}"
          f" {failed}/{len(results)} instances")
    print(f"  outputs sha256 {digest}  manifest {out_dir / 'manifest.json'}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so that peak RSS is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAILED run: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


class Overrun(BaseException):
    """Raised by the alarm; a BaseException, so that no per-instance
    handler takes it for a failed instance and carries on."""


def _alarm(signum, frame):
    raise Overrun(f"run exceeded {ALARM_S} s")


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(ALARM_S)
    try:
        return run_workload(args)
    except (Exception, Overrun):
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
