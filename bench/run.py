"""Benchmark of the papperitz CLI.

Each request is a real CLI request sent through papperitz.cli.main(argv)
in this process, with stdout and stderr captured, in a closed loop with one
client.  Inputs come only from --seed (see workloads.py); every answer is
checked against mpmath (see reference.py) outside the timed region.

    python3 bench/run.py --workload eval_batch --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics.  The requests of the run are sent
in PASSES passes, each in a freshly imported program, and a request's
latency is the least of its passes.  The timing metrics, setup_s too, are
scaled to a reference host speed by the probe in speed.py; the notes line
gives them as timed.  --trace 1 runs the requests of a quarter of --seconds
untraced, replays them under the outside-in tracer (tracer.py) and prints
the per-layer metrics, in seconds as timed.  The metric names and
units are those of BENCHMARK.json.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tomllib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import reference
import workloads
from speed import SpeedProbe
from tracer import ROOT as ROOT_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

#: Fresh interpreters timed per run for setup_s, after one untimed import
#: that leaves the byte-code caches warm.
SETUP_REPEATS = 5

#: Passes over the requests of an untraced run.  The host's speed changes
#: from second to second by up to 1.8x (the same request took 100-120 ms
#: or 170-190 ms).  A run's requests are sent once per pass, seconds apart,
#: and each request's latency is the least of its passes, so a run measures
#: the program and not how much of it fell into slow spells.  Drift over
#: minutes is left to the speed probe (speed.py).
PASSES = 6

EXIT_UNREACHABLE = 3

#: Percentiles request_tail_ms may use: the highest one up to the
#: workload's TAIL_PERCENTILE with at least ten requests beyond it.
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)

STRATEGIES = ("DirectSeries", "PfaffOnAlpha", "PfaffOnBeta",
              "OneMinusTConnection", "PolynomialTruncation", "Unreachable")
HYPERGEOM_ERRORS = ("EvaluationUnreachable", "OnBranchCut", "NoConvergence",
                    "DegenerateGamma", "InvalidGamma")


def import_cli():
    """papperitz.cli from this checkout's sources; exits when they are missing."""
    if not (SRC / "papperitz" / "cli.py").is_file():
        raise SystemExit(f"bench: no program sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from papperitz import cli
    if Path(cli.__file__).resolve().parent != SRC / "papperitz":
        raise SystemExit(f"bench: imported papperitz from {cli.__file__}, not {SRC}")
    return cli


def fresh_cli():
    """papperitz.cli imported anew, with every papperitz module executed
    again, so nothing the program keeps between calls carries over."""
    for name in [k for k in sys.modules if k == "papperitz" or k.startswith("papperitz.")]:
        del sys.modules[name]
    return import_cli()


def measure_setup(speed: SpeedProbe) -> float:
    """Median time from starting a fresh interpreter until
    `import papperitz.cli` completes.  The host speed is probed after each."""
    code = "import papperitz.cli, sys; sys.stdout.write('.'); sys.stdout.flush()"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE) as proc:
            ready = proc.stdout.read(1)
            elapsed = perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or ready != b".":
            raise SystemExit("bench: `import papperitz.cli` failed in a fresh interpreter")
        times.append(elapsed)
        speed.after(elapsed)
    return statistics.median(times[1:])


@dataclass
class Reply:
    code: Optional[int]
    #: class of an exception that escaped cli.main, else None
    error: Optional[str]
    out: str
    err: str
    seconds: float


def send(cli, argv) -> Reply:
    """One request through cli.main; a failure is returned, never raised."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # one failed request must not end the run
            error = type(exc).__name__
        seconds = perf_counter() - start
    return Reply(code, error, out.getvalue(), err.getvalue(), seconds)


def _rows(out: str):
    """(z, y, dy) of every row of an eval or integrate answer."""
    if out.startswith("{"):
        records = json.loads(out)["rows"]
    else:
        records = list(csv.DictReader(io.StringIO(out)))
    return [(complex(float(r["z_re"]), float(r["z_im"])),
             complex(float(r["y_re"]), float(r["y_im"])),
             complex(float(r["dy_re"]), float(r["dy_im"]))) for r in records]


@dataclass
class Verdict:
    #: None when the answer is correct, else why it is not
    failure: Optional[str] = None
    unreachable: bool = False
    rows: int = 0
    #: digits of the worst checked value
    digits: float = reference.MAX_DIGITS
    checked: int = 0


def check(req: workloads.Request, reply: Reply) -> Verdict:
    """Judge one answer: a value within tolerance of the mpmath reference,
    or the documented exit 3 where the request allows it."""
    if reply.error is not None:
        return Verdict(failure=reply.error)
    if reply.code == EXIT_UNREACHABLE and req.may_be_unreachable and not reply.out:
        return Verdict(unreachable=True)
    if reply.code != 0:
        return Verdict(failure=f"exit {reply.code}")
    try:
        rows = _rows(reply.out)
    except (ValueError, KeyError, TypeError):
        return Verdict(failure="unparsable output")
    if [z for z, _, _ in rows] != list(req.points):
        return Verdict(failure="wrong points")
    indices = range(len(rows)) if req.checked_rows is None else req.checked_rows
    worst = reference.MAX_DIGITS
    for i in indices:
        z, y, dy = rows[i]
        if req.start is not None and i == 0:
            ref = req.start
        else:
            ref = reference.solution(req.a, req.b, req.c, 1, req.c2, z)
        worst = min(worst, reference.digits(y, ref.y, ref.y_scale),
                    reference.digits(dy, ref.dy, ref.dy_scale))
    verdict = Verdict(rows=len(rows), digits=worst, checked=2 * len(indices))
    if worst < req.tol_digits:
        verdict.failure = "outside tolerance"
    return verdict


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    failed: int = 0
    unreachable: int = 0
    rows: int = 0
    checked: int = 0
    digits: float = reference.MAX_DIGITS
    failures: Counter = field(default_factory=Counter)
    exit_codes: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def add(self, reply: Reply, verdict: Verdict):
        self.latencies.append(reply.seconds)
        self.exit_codes[reply.error or str(reply.code)] += 1
        self.unreachable += verdict.unreachable
        self.rows += verdict.rows
        self.checked += verdict.checked
        self.digits = min(self.digits, verdict.digits)
        if verdict.failure is not None:
            self.failed += 1
            self.failures[verdict.failure] += 1


class Client:
    """Materialises requests (the eval_batch point files) and sends them."""

    def __init__(self, cli, work_dir: Path, speed: Optional[SpeedProbe] = None):
        self.cli = cli
        self.work_dir = work_dir
        self.sent = 0
        self.speed = speed or SpeedProbe()

    def argv(self, req: workloads.Request):
        if req.points_csv is None:
            return req.argv
        self.sent += 1
        path = self.work_dir / f"points-{self.sent}.csv"
        path.write_bytes(req.points_csv)
        return req.argv + ("--points", str(path))

    def closed_loop(self, stream, seconds: float, passes: int = PASSES,
                    min_requests: int = 1):
        """Send requests one after another until their summed latency
        reaches seconds / passes and at least min_requests are sent, then
        send the same requests again in passes - 1 more passes, each in a
        freshly imported program, so a cache can only serve what one pass
        asks for.  The first request is
        also sent once untimed beforehand, so lazy set-up inside the process
        is not timed.  The first pass's answers are checked against mpmath,
        a share of them after each pass, which spreads the passes over more
        of the host's speed changes; the later passes' answers are checked
        against the first byte for byte.  Returns the tally and (request,
        argv, reply, verdict) of each request, where the reply is the first
        pass's with the least latency of all passes."""
        first = next(stream)
        send(self.cli, self.argv(first))
        sent, busy = [], 0.0
        for req in itertools.chain([first], stream):
            argv = self.argv(req)
            reply = send(self.cli, argv)
            sent.append((req, argv, reply))
            busy += reply.seconds
            self.speed.after(reply.seconds)
            if busy >= seconds / passes and len(sent) >= min_requests:
                break
        best = [reply.seconds for _, _, reply in sent]
        same = [True] * len(sent)
        verdicts = [None] * len(sent)
        for k in range(passes):
            if k:
                self.cli = fresh_cli()
                for i, (_, argv, reply) in enumerate(sent):
                    again = send(self.cli, argv)
                    self.speed.after(again.seconds)
                    best[i] = min(best[i], again.seconds)
                    same[i] &= ((again.code, again.error, again.out)
                                == (reply.code, reply.error, reply.out))
            for i in range(k, len(sent), passes):
                verdicts[i] = check(sent[i][0], sent[i][2])
        tally, kept = Tally(), []
        for (req, argv, reply), seconds_, repeatable, verdict in zip(sent, best, same, verdicts):
            if not repeatable and verdict.failure is None:
                verdict.failure = "answer differs between passes"
            reply = dataclasses.replace(reply, seconds=seconds_)
            tally.add(reply, verdict)
            kept.append((req, argv, reply, verdict))
        return tally, kept


def tail(latencies, highest: float = 100.0):
    """(percentile, value) of the highest TAIL_LADDER percentile up to
    `highest` with at least ten samples beyond it, by nearest rank; the
    median when fewer than twenty samples leave no such percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = (50.0, statistics.median(ordered))
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if p <= highest and n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def end_to_end(tally: Tally, setup_s: float, speed: SpeedProbe, tail_percentile: float):
    """(metrics, notes) of an untraced run.  Times are scaled to the
    reference host speed; the notes give them as timed."""
    wall = sum(tally.latencies)
    evaluated = tally.attempted - tally.unreachable
    pct, tail_s = tail(tally.latencies, tail_percentile)
    timed = {
        "setup_s": setup_s,
        "requests_per_s": (tally.attempted - tally.failed) / wall,
        "points_per_s": tally.rows / wall,
        "request_p50_ms": 1e3 * statistics.median(tally.latencies),
        "request_tail_ms": 1e3 * tail_s,
    }
    scale = speed.scale()
    metrics = {name: value / scale if name.endswith("_per_s") else value * scale
               for name, value in timed.items()}
    metrics.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "evaluated_frac": evaluated / tally.attempted,
        "accuracy_digits": tally.digits,
    })
    notes = {"timed": timed, "probe_low_ms": 1e3 * speed.low_s(),
             "probes": len(speed.times), "passes": PASSES,
             "requests": tally.attempted, "failed_frac": tally.failed / tally.attempted,
             "unreachable_frac": tally.unreachable / tally.attempted,
             "tail_percentile": pct, "checked_values": tally.checked,
             "failures": dict(tally.failures), "exits": dict(tally.exit_codes)}
    return metrics, notes


def static_counts() -> dict:
    src_lines = sum(1 for path in sorted((SRC / "papperitz").rglob("*.py"))
                    for line in path.read_text().splitlines() if line.strip())
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"].get("dependencies", [])
    return {"static.src_lines": src_lines, "static.runtime_deps": len(deps)}


def per_layer(tracer, requests: int, points: int, overhead: float) -> dict:
    """Per-layer metrics of a traced replay, per request where not stated."""
    calls, busy, own = tracer.calls, tracer.busy, tracer.self_time

    def mobius(table):
        return sum(v for k, v in table.items() if k.startswith("mobius."))

    jets = calls["hypergeom.gauss_2f1_jet"]
    metrics = {
        "cli.self_s": own["cli.main"] / requests,
        "cli.self_share": own["cli.main"] / busy["cli.main"],
        "closed_form.derive_params.calls": calls["closed_form.derive_params"] / requests,
        "closed_form.derive_params.busy_s": busy["closed_form.derive_params"] / requests,
        "closed_form.eval_basis.calls": calls["closed_form.eval_basis"] / requests,
        "closed_form.eval_basis.self_s": own["closed_form.eval_basis"] / requests,
        "mobius.calls_per_point": mobius(calls) / points,
        "mobius.busy_s": mobius(busy) / requests,
        "hypergeom.gauss_2f1_jet.calls": jets / requests,
        "hypergeom.gauss_2f1_jet.busy_s": busy["hypergeom.gauss_2f1_jet"] / requests,
        "hypergeom.raw_series.calls": calls["hypergeom.raw_series"] / requests,
        "hypergeom.raw_series.busy_s": busy["hypergeom.raw_series"] / requests,
        "hypergeom.series_per_jet": calls["hypergeom.raw_series"] / jets if jets else 0.0,
        "oracle.integrate_ivp.calls": calls["oracle.integrate_ivp"] / requests,
        "oracle.integrate_ivp.busy_s": busy["oracle.integrate_ivp"] / requests,
        "oracle.residual_z.calls": calls["oracle.residual_z"] / requests,
        "oracle.residual_z.busy_s": busy["oracle.residual_z"] / requests,
        "trace.overhead_frac": overhead,
    }
    for s in STRATEGIES:
        metrics[f"hypergeom.gauss_2f1.calls.{s}"] = calls[f"hypergeom.gauss_2f1.{s}"] / requests
        metrics[f"hypergeom.gauss_2f1.busy_s.{s}"] = busy[f"hypergeom.gauss_2f1.{s}"] / requests
    for e in HYPERGEOM_ERRORS:
        metrics[f"hypergeom.errors.{e}"] = tracer.errors["hypergeom", e] / requests
    metrics.update(static_counts())
    return metrics


def traced_run(client, stream, seconds: float, spans_path: Path):
    """Untraced closed loop of one pass over a quarter of the time, then a
    traced replay of the same requests in a freshly imported program, whose
    outputs must match the untraced ones byte for byte.  Returns the
    per-layer metrics and the number of failed requests."""
    tally, kept = client.closed_loop(stream, seconds / 4, passes=1)
    client.cli = fresh_cli()
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, failed = 0.0, 0
        for _, argv, first, verdict in kept:
            reply = send(client.cli, argv)
            traced_wall += reply.seconds
            differs = (reply.code, reply.error, reply.out) != (first.code, first.error, first.out)
            failed += verdict.failure is not None or differs
    finally:
        tracer.restore()
    roots = tracer.busy[ROOT_SPAN]
    if abs(sum(tracer.self_time.values()) - roots) > 1e-6 * roots:
        raise SystemExit("bench: span self times do not add up to the request times")
    tracer.dump(spans_path)
    points = sum(len(req.points) for req, _, _, _ in kept)
    overhead = traced_wall / sum(tally.latencies) - 1
    metrics = per_layer(tracer, len(kept), points, overhead)
    notes = {"requests": len(kept), "spans": tracer.span_count(),
             "spans_file": str(spans_path.relative_to(ROOT)),
             "absent": tracer.absent,
             "errors": {f"{layer}.{cls}": n for (layer, cls), n in tracer.errors.items()}}
    return metrics, notes, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        wanted = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    cli = import_cli()
    speed = SpeedProbe()
    setup_s = None if args.trace else measure_setup(speed)
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        client = Client(cli, work_dir, speed)
        stream = workloads.requests(args.workload, args.seed)
        if args.trace:
            spans = WORK / f"spans-{args.workload}.npz"
            metrics, notes, failed = traced_run(client, stream, args.seconds, spans)
        else:
            pct = workloads.TAIL_PERCENTILE[args.workload]
            # enough requests for ten beyond the tail percentile
            tally, _ = client.closed_loop(stream, args.seconds,
                                          min_requests=round(1000 / (100 - pct)))
            metrics, notes = end_to_end(tally, setup_s, speed, pct)
            failed = tally.failed
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise SystemExit(f"bench: metrics {sorted(metrics)} do not match BENCHMARK.json")
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for m in wanted:
        print(f"  {m['name']:<44} {metrics[m['name']]:.6g} {m['unit']}")
    print("  " + json.dumps(notes, sort_keys=True))
    attempted = notes["requests"]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
