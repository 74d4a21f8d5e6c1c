"""Benchmark harness for matchwise.

Usage, from the repository root:

    python3 bench/run.py --workload characterize --seed 0 --seconds 35 --trace 0

One process, one client, one operation at a time (a closed loop), and
no threads: the harness calls the library and ``matchwise.cli.main``
in-process.  A run sets up ``SETUP_REPEATS`` times (a fresh import of
the package plus building the workload's inputs from the seed), then
runs passes over the workload's operations until ``--seconds`` is used
up.  Each operation is timed on its own; after each pass, outside the
timed section, every answer is checked by the code in ``checks`` and
digested.

Times are in nominal seconds: each operation's seconds are rescaled by
the reference kernel of ``calibrate``, sampled just before and just
after it, so that the machine's drifting speed does not read as a
change of the program.  Per-layer times and set-up use the median
sample of their pass.  The raw seconds and the samples are kept in
the record file.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: the time of one pass, as the sum over operations of each
  operation's median time across the run's passes;
* ``setup_s``: median set-up time;
* ``peak_rss_mb``: the process's peak resident set size;
* ``ops_ok_ratio``: share of operations that did not fail.  An
  operation fails when it raises, exits nonzero, gives an answer a
  check rejects, gives an answer unlike its own first one in the run,
  or when the run's answer digest differs from the recorded one.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of ``spans.METRICS`` (medians over traced passes)
plus ``trace.overhead_s``, the traced minus the untraced ``wall_s``.

The last line of standard output is the result object.  A full record
(environment, per-operation times, digests, failures) goes to
``bench/out/``, and the spans of the first traced pass to a gzipped
JSON file beside it.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 11
PACKAGE = "matchwise"
MODULES = ("families", "arcs", "orders", "search", "fuzz", "cli")


class SetupError(Exception):
    """The package cannot be imported from this checkout."""


def load_package():
    """Import the package afresh from ``src`` (dropping any earlier import)."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    importlib.invalidate_caches()
    try:
        pkg = importlib.import_module(PACKAGE)
        for mod in MODULES:
            importlib.import_module(f"{PACKAGE}.{mod}")
    except ImportError as exc:
        raise SetupError(f"cannot import {PACKAGE} from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise SetupError(f"{PACKAGE} was imported from {pkg.__file__}, not {SRC}")
    return pkg


def set_up(workload: str, seed: int):
    """Set up ``SETUP_REPEATS`` times; return (package, ops, raw seconds, scale)."""
    clock = calibrate.Clock()
    seconds = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        pkg = load_package()
        ops = workloads.WORKLOAD_OPS[workload](pkg, seed)
        seconds.append(time.perf_counter() - t0)
        clock.sample()
    return pkg, ops, seconds, clock.scale()


def digest_of(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def group_digest(ops, digests: dict[str, str], seeded: bool) -> str:
    """One digest over the answers of the seeded or of the fixed operations."""
    return digest_of([[op.name, digests.get(op.name)] for op in ops
                      if op.seeded == seeded])


class Evaluator:
    """Checks answers after each pass and counts attempts and failures."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[str, str] = {}            # op name -> first digest
        self._verdicts: dict[tuple[str, str], list[str]] = {}
        self.output_bytes = 0                       # CLI output of the last pass

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def evaluate(self, outcomes) -> None:
        self.output_bytes = 0
        for op, (raw, error) in zip(self.ops, outcomes):
            self.attempted += 1
            problems = [error] if error else self._problems(op, raw)
            if problems:
                self.fail(f"{op.name}: {'; '.join(problems)}")

    def _problems(self, op, raw) -> list[str]:
        if isinstance(raw, tuple):  # (exit code, stdout) of a CLI operation
            self.output_bytes += len(raw[1].encode())
        try:
            answer = op.answer(raw)
            digest = digest_of(answer)
            key = (op.name, digest)
            if key not in self._verdicts:
                self._verdicts[key] = op.check(answer)
        except Exception as exc:  # a malformed answer is a failed operation
            return [f"answer unreadable: {exc!r}"]
        problems = list(self._verdicts[key])
        if self.first.setdefault(op.name, digest) != digest:
            problems.append("answer differs from this run's first answer")
        return problems


def run_pass(ops, tracer=None):
    """Run every operation once.

    Returns raw per-operation seconds, the outcomes (raw result, error),
    the pass's factor from seconds to nominal seconds, and the kernel
    times: the pass median and, per operation, the geometric mean of
    the samples taken before and after it.
    """
    gc.collect()
    times, outcomes, before = [], [], []
    clock = calibrate.Clock()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in ops:
            clock.tick()
            before.append(len(clock.samples) - 1)
            t0 = time.perf_counter()
            try:
                raw, error = op.run(), None
            except (Exception, SystemExit) as exc:
                raw, error = None, f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            outcomes.append((raw, error))
    finally:
        if tracer is not None:
            tracer.uninstall()
    clock.sample()
    local = [(clock.samples[i] * clock.samples[i + 1]) ** 0.5 for i in before]
    return times, outcomes, clock.scale(), {"median": clock.median(), "local": local}


def pass_time(times_by_pass: list[list[float]]) -> float:
    """Sum over operations of each operation's median time."""
    return sum(statistics.median(col) for col in zip(*times_by_pass))


def rescale(values: dict, scale: float) -> dict:
    """Per-layer values of one pass in nominal seconds."""
    out = dict(values)
    for name, (unit, _) in spans.METRICS.items():
        if out[name] is not None and unit in ("s", "1/s"):
            out[name] = out[name] * scale if unit == "s" else out[name] / scale
    return out


def measure(pkg, ops, seconds: float, trace: bool) -> dict:
    """Run passes until ``seconds`` is used up (at least one of each kind)."""
    evaluator = Evaluator(ops)
    tracer = spans.Tracer(pkg) if trace else None
    kinds = (False, True) if trace else (False,)
    times = {kind: [] for kind in kinds}      # nominal seconds per pass
    raw = {kind: [] for kind in kinds}        # seconds per pass
    scales = {kind: [] for kind in kinds}
    kernels = {kind: [] for kind in kinds}
    last = dict.fromkeys(kinds, 0.0)
    layer_passes, first_spans = [], None
    start = time.perf_counter()
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        i += 1
        t0 = time.perf_counter()
        pass_times, outcomes, scale, kernel = run_pass(ops, tracer if traced else None)
        kernels[traced].append(kernel)
        last[traced] = time.perf_counter() - t0
        raw[traced].append(pass_times)
        times[traced].append([t * calibrate.factor(k)
                              for t, k in zip(pass_times, kernel["local"])])
        scales[traced].append(scale)
        evaluator.evaluate(outcomes)
        del outcomes
        if traced:
            tracer.count("cli.output_bytes", evaluator.output_bytes)
            layer_passes.append(rescale(spans.read_pass(tracer), scale))
            if first_spans is None:
                first_spans = tracer.spans
        elapsed = time.perf_counter() - start
        upcoming = kinds[i % len(kinds)]
        if all(times.values()) and elapsed + last[upcoming] > seconds:
            break
    return {"evaluator": evaluator, "times": times, "raw": raw, "scales": scales,
            "kernels": kernels,
            "tracer": tracer, "layer_passes": layer_passes, "spans": first_spans}


def recorded_digests(workload: str, seed: int) -> dict[str, str | None]:
    try:
        entry = json.loads(DIGESTS.read_text()).get(workload, {})
    except FileNotFoundError:
        entry = {}
    return {"fixed": entry.get("fixed"), "seeded": entry.get("seeded", {}).get(str(seed))}


def environment(seed: int) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(), "usable_cores": affinity,
            "platform": platform.platform(), "seed": seed}


def compare_digests(workload: str, seed: int, ops, evaluator: Evaluator) -> dict:
    """Compare the run's answer digests with the recorded ones."""
    result = {}
    recorded = recorded_digests(workload, seed)
    for part, seeded in (("fixed", False), ("seeded", True)):
        got = group_digest(ops, evaluator.first, seeded)
        want = recorded[part]
        status = "unrecorded" if want is None else ("match" if got == want else "MISMATCH")
        if status == "MISMATCH":
            evaluator.fail(f"{part} answer digest {got} differs from recorded {want}")
        result[part] = {"digest": got, "status": status}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        pkg, ops, setup_raw, setup_scale = set_up(args.workload, args.seed)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    run = measure(pkg, ops, args.seconds, bool(args.trace))
    evaluator = run["evaluator"]
    digests = compare_digests(args.workload, args.seed, ops, evaluator)
    wall_s = pass_time(run["times"][False])

    if args.trace:
        metrics = spans.combine(run["layer_passes"], run["tracer"].notes)
        metrics["trace.overhead_s"] = {
            "value": pass_time(run["times"][True]) - wall_s, "unit": "s"}
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_raw) * setup_scale, "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
            "ops_ok_ratio": {"value": 1.0 - evaluator.failed / evaluator.attempted,
                             "unit": "ratio"},
        }

    env = environment(args.seed)
    kind_name = {False: "untraced", True: "traced"}
    names = [op.name for op in ops]
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "metrics": metrics,
        "nominal_kernel_s": calibrate.NOMINAL_S,
        "setup": {"raw_s": setup_raw, "scale": setup_scale},
        "passes": {kind_name[k]: {"raw_s": [sum(p) for p in v],
                                  "scale": run["scales"][k],
                                  "raw_wall_s": pass_time(v)}
                   for k, v in run["raw"].items()},
        "digests": digests, "failures": evaluator.failures[:50],
        "op_names": names,
        "op_raw_s": run["raw"][False],
        "kernels": run["kernels"][False],
        "op_digests": evaluator.first,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run["spans"] is not None:
        with gzip.open(OUT / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": run["spans"]}, fh)

    for failure in evaluator.failures[:10]:
        print(f"bench: failed: {failure}", file=sys.stderr)
    passes = {kind_name[k]: len(v) for k, v in run["times"].items()}
    print(f"# {args.workload} seed={args.seed} python={env['python']} "
          f"cores={env['cpu_count']} platform={env['platform']} passes={passes} "
          f"digests fixed={digests['fixed']['status']} seeded={digests['seeded']['status']}")
    print(json.dumps({"correct": evaluator.failed == 0,
                      "attempted": evaluator.attempted,
                      "failed": evaluator.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
