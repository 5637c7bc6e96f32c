"""Checks of the benchmark itself: seeded inputs, the mpmath checker,
failure accounting and the tracer.

    python -m pytest bench
"""

import itertools

import pytest

import reference
import run
import speed
import tracer
import workloads

cli = run.import_cli()


def _first(workload, seed, n=3):
    return list(itertools.islice(workloads.requests(workload, seed), n))


def _request_bytes(req):
    return "\0".join(req.argv).encode(), req.points_csv


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_fixes_requests_and_point_files(workload):
    first = [_request_bytes(r) for r in _first(workload, 7)]
    again = [_request_bytes(r) for r in _first(workload, 7)]
    other = [_request_bytes(r) for r in _first(workload, 8)]
    assert first == again
    assert first != other
    if workload == "eval_batch":
        assert all(len(csv.splitlines()) == workloads.BATCH_POINTS + 1
                   for _, csv in first)
        assert first[0][1] != other[0][1]


def _negate_c(argv):
    i = argv.index("--c") + 1
    re, im = (float(x) for x in argv[i].split(","))
    return argv[:i] + (workloads.fmt_complex(complex(-re, -im)),) + argv[i + 1:]


@pytest.mark.parametrize("workload", ["eval_batch", "integrate_path"])
def test_checker_catches_negated_c(workload, tmp_path):
    client = run.Client(cli, tmp_path)
    req = _first(workload, 3, 1)[0]
    good = run.check(req, run.send(cli, client.argv(req)))
    assert good.failure is None and good.checked > 0
    bad = run.check(req, run.send(cli, _negate_c(client.argv(req))))
    assert bad.failure == "outside tolerance"


def test_unreachable_exit_is_an_answer_only_where_allowed():
    reply = run.Reply(run.EXIT_UNREACHABLE, None, "", "not evaluable", 0.001)
    single = _first("eval_single", 1, 1)[0]
    batch = _first("eval_batch", 1, 1)[0]
    assert run.check(single, reply).unreachable
    assert run.check(batch, reply).failure == "exit 3"


def test_escaping_exception_is_counted_not_raised(tmp_path):
    points = tmp_path / "bad.csv"
    points.write_text("z_re,z_im\nnot-a-number,1.0\n")
    argv = ("eval", "--a", "0,0", "--b", "0,0", "--c", "0,0", "--points", str(points))
    reply = run.send(cli, argv)
    assert reply.error == "ValueError"
    usage = run.send(cli, ("eval", "--bogus"))
    assert (usage.code, usage.error) == (1, None)
    tally = run.Tally()
    req = _first("eval_single", 1, 1)[0]
    for r in (reply, usage):
        tally.add(r, run.check(req, r))
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.failures == {"ValueError": 1, "exit 1": 1}


def test_passes_reimport_the_program_and_flag_changed_answers(monkeypatch, tmp_path):
    class Altered:
        """A fresh program whose answers gain a trailing blank line."""

        def main(self, argv):
            code = cli.main(argv)
            print()
            return code

    fresh = []
    monkeypatch.setattr(run, "fresh_cli", lambda: fresh.append(Altered()) or fresh[-1])
    client = run.Client(cli, tmp_path)
    tally, kept = client.closed_loop(workloads.requests("integrate_path", 4), 0.0, passes=3)
    assert len(fresh) == 2 and client.cli is fresh[-1]
    assert (tally.attempted, tally.failed) == (1, 1)
    assert kept[0][3].failure == "answer differs between passes"
    assert kept[0][3].checked > 0


def test_tracer_self_times_add_up_and_restore(monkeypatch, tmp_path):
    monkeypatch.setitem(tracer.LAYERS, "mobius",
                        tracer.LAYERS["mobius"] + ("no_such_function",))
    original = cli.main
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main is not original
        client = run.Client(cli, tmp_path)
        for req in _first("eval_single", 2, 20):
            run.send(cli, client.argv(req))
    finally:
        t.restore()
    assert cli.main is original
    assert t.absent == ["mobius.no_such_function"]
    assert t.calls[tracer.ROOT] == 20
    assert sum(t.self_time.values()) == pytest.approx(t.busy[tracer.ROOT], rel=1e-9)
    assert sum(n for k, n in t.calls.items() if k.startswith("hypergeom.gauss_2f1.")) > 0
    t.dump(tmp_path / "spans.npz")
    assert (tmp_path / "spans.npz").stat().st_size > 0


def test_non_finite_value_has_no_digits():
    assert reference.digits(complex("nan"), 1.0, 1.0) == 0.0
    assert reference.digits(1.0 + 1e-9, 1.0, 1.0) == pytest.approx(9.0, abs=1e-6)


def test_speed_probe_samples_by_request_time_and_scales_to_reference():
    probe = speed.SpeedProbe()
    for _ in range(3):
        probe.after(speed.PROBE_EVERY / 2)
    assert len(probe.times) == 1
    probe.times = [2 * speed.REFERENCE_S] * 10
    assert probe.scale() == pytest.approx(0.5)


def test_tail_has_ten_samples_beyond_it():
    ms = [float(i) for i in range(1, 101)]
    assert run.tail(ms) == (90.0, 90.0)
    assert run.tail(ms[:30]) == (50.0, 15.5)
    assert run.tail(ms, 75.0) == (75.0, 75.0)
