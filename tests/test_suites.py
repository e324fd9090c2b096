"""Named check suites: determinism, schema conformance, outcomes."""

import contextlib
import gc
import json
import os
import signal
import threading
import time

import jsonschema
import pytest
from click.testing import CliRunner

from nearnormal import suites, thompson
from nearnormal.cli import GC_THRESHOLD, main
from nearnormal.suites import SUITES, UnknownSuiteError, report_failures, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes(name):
    report = run_suite(name, seed=0)
    assert report["suite"] == name
    assert report["seed"] == 0
    assert report["timing"] is None
    assert report["checks"]
    assert report_failures(report) == []


def test_report_shape_and_ordering():
    report = run_suite("all", seed=0)
    ids = [c["id"] for c in report["checks"]]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    for check in report["checks"]:
        assert set(check) == {"id", "law", "inputs", "outcome", "witness"}
        assert check["outcome"] in ("pass", "fail", "unknown")
        if check["outcome"] == "fail":
            assert check["witness"] is not None


def test_schema_validation(report_schema):
    jsonschema.Draft7Validator.check_schema(report_schema)
    report = run_suite("words", seed=0)
    jsonschema.validate(report, report_schema)
    timed = run_suite("words", seed=0, timing=True)
    assert timed["timing"] is not None and timed["timing"]["seconds"] >= 0
    assert timed["timing"]["workers"] == 1
    assert list(timed["timing"]["suites"]) == ["words"]
    jsonschema.validate(timed, report_schema)
    timed_all = run_suite("all", seed=0, timing=True)
    assert set(timed_all["timing"]["suites"]) == set(SUITES)
    jsonschema.validate(timed_all, report_schema)
    assert all(isinstance(spent["collections"], int) and spent["collections"] >= 0
               for spent in timed_all["timing"]["suites"].values())
    del timed_all["timing"]["suites"]["thompson"]["collections"]  # optional
    jsonschema.validate(timed_all, report_schema)
    timed_all["timing"]["suites"]["groups"]["collections"] = -1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(timed_all, report_schema)
    timed_all["timing"]["suites"]["groups"]["collections"] = 0
    del timed_all["timing"]["suites"]["words"]["seconds"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(timed_all, report_schema)


def test_schema_rejects_malformed_reports(report_schema):
    bad = run_suite("words", seed=0)
    bad["checks"][0]["outcome"] = "maybe"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, report_schema)
    failing_without_witness = run_suite("words", seed=0)
    failing_without_witness["checks"][0]["outcome"] = "fail"
    failing_without_witness["checks"][0]["witness"] = None
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(failing_without_witness, report_schema)


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("nope")
    assert issubclass(UnknownSuiteError, ValueError)


def test_byte_determinism():
    first = json.dumps(run_suite("all", seed=7), sort_keys=True)
    second = json.dumps(run_suite("all", seed=7), sort_keys=True)
    assert first == second


def test_all_runs_every_suite():
    report = run_suite("all", seed=0)
    prefixes = {c["id"].split("/")[0] for c in report["checks"]}
    assert prefixes == set(SUITES)


def test_report_failures_picks_failing_records():
    report = {"suite": "x", "seed": 0, "timing": None, "checks": [
        {"id": "x/a", "law": "l", "inputs": {}, "outcome": "pass", "witness": None},
        {"id": "x/b", "law": "l", "inputs": {}, "outcome": "fail", "witness": "w"},
        {"id": "x/c", "law": "l", "inputs": {}, "outcome": "unknown", "witness": None},
    ]}
    assert [c["id"] for c in report_failures(report)] == ["x/b"]


def _thompson_outcomes(monkeypatch, name, fake):
    monkeypatch.setattr(thompson, name, fake)
    return {c["id"]: c for c in run_suite("thompson")["checks"]}


def test_thompson_suite_fails_the_grid_on_a_failing_identity(monkeypatch):
    real = thompson.verify_conjugation_identity
    checks = _thompson_outcomes(monkeypatch, "verify_conjugation_identity",
                                lambda m, n: (m, n) != (0, 3) and real(m, n))
    assert checks["thompson/conjugation-grid"]["outcome"] == "fail"
    assert [c for c in checks.values() if c["outcome"] != "pass"] == [
        checks["thompson/conjugation-grid"]]


def test_thompson_suite_keeps_the_intersection_bound_text(monkeypatch):
    # A_m lies in A^(x0^2) from m = 2 on, so an m bound of 1 certifies none
    real = thompson.am_in_conjugate_intersection
    checks = _thompson_outcomes(monkeypatch, "am_in_conjugate_intersection",
                                lambda gs, m_bound: real(gs, 1))
    record = checks["thompson/conjugate-intersection"]
    assert record["outcome"] == "fail"
    assert record["witness"] == "no m <= 1"


# -- the suites on worker processes ------------------------------------------


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in this process if the block runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_suites_are_listed_longest_first():
    assert list(SUITES)[:2] == ["thompson", "ends"]
    assert sorted(SUITES) == ["bs", "completion", "ends", "families", "groups", "subgroups",
                              "thompson", "words"]


@pytest.mark.parametrize("seed", [0, 7])
def test_all_is_byte_identical_on_one_process(monkeypatch, seed):
    fanned = run_suite("all", seed=seed, timing=True)
    assert fanned["timing"]["workers"] == (2 if suites._forks_a_worker(len(SUITES)) else 1)
    monkeypatch.setattr(suites, "_forks_a_worker", lambda jobs: False)
    alone = run_suite("all", seed=seed, timing=True)
    assert alone["timing"]["workers"] == 1
    for report in (fanned, alone):
        report["timing"] = None
    assert json.dumps(fanned, sort_keys=True) == json.dumps(alone, sort_keys=True)
    assert_no_children()


def test_the_forked_worker_runs_under_the_cli_gc_threshold(monkeypatch):
    def threshold(seed):
        return [{"id": "toy/threshold", "law": "the worker runs under the command's policy",
                 "inputs": {"pid": os.getpid()}, "outcome": "pass",
                 "witness": gc.get_threshold()[0]}]

    monkeypatch.setattr(suites, "SUITES", {"first": lambda seed: [], "later": threshold})
    forks = suites._forks_a_worker(2)
    result = CliRunner().invoke(main, ["suite", "all"])
    assert result.exit_code == 0, result.output
    (check,) = json.loads(result.output)["checks"]
    assert check["witness"] == GC_THRESHOLD != gc.get_threshold()[0]
    assert (check["inputs"]["pid"] != os.getpid()) is forks
    assert_no_children()


def test_a_worker_is_forked_for_two_suites_on_two_cpus(monkeypatch):
    for cpus in ({5}, {0, 1}, {0, 1, 2, 3}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert [suites._forks_a_worker(jobs) for jobs in (1, 2, 8)] \
            == [False, len(cpus) > 1, len(cpus) > 1], cpus
    monkeypatch.delattr(os, "sched_getaffinity")
    for count, forks in ((None, False), (1, False), (2, True), (4, True)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert suites._forks_a_worker(8) is forks, count
    monkeypatch.delattr(os, "fork")
    assert suites._forks_a_worker(8) is False


def never_fork():
    raise AssertionError("os.fork was called")


def test_one_cpu_never_forks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", never_fork)
    report = run_suite("all", seed=0, timing=True)
    assert report["timing"]["workers"] == 1 and not report_failures(report)
    assert_no_children()


def test_one_suite_never_forks(monkeypatch):
    monkeypatch.setattr(os, "fork", never_fork)
    assert run_suite("ends", seed=0, timing=True)["timing"]["workers"] == 1
    assert_no_children()


def test_a_live_thread_means_no_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", never_fork)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait, args=(30,))
    waiter.start()
    try:
        report = run_suite("all", seed=0, timing=True)
    finally:
        stop.set()
        waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert report["timing"]["workers"] == 1 and not report_failures(report)
    assert_no_children()


def two_suites(monkeypatch, tmp_path, second):
    """SUITES of two on two processes: this process takes "first", which
    returns once "second" has started in the forked worker."""
    parent, started = os.getpid(), tmp_path / "started"

    def first(seed):
        limit = time.monotonic() + 30
        while not started.exists():
            assert time.monotonic() < limit, "the second suite never started"
            time.sleep(0.005)
        return []

    def in_worker(seed):
        assert os.getpid() != parent, "the second suite ran in the parent"
        started.touch()
        return second(seed)

    monkeypatch.setattr(suites, "SUITES", {"first": first, "second": in_worker})
    monkeypatch.setattr(suites, "_forks_a_worker", lambda jobs: True)


def test_a_worker_exception_keeps_its_type_and_message(monkeypatch, tmp_path):
    def bad(seed):
        raise ValueError(f"no check at seed {seed}")

    two_suites(monkeypatch, tmp_path, bad)
    with deadline(60), pytest.raises(ValueError) as info:
        run_suite("all", seed=3)
    assert type(info.value) is ValueError and str(info.value) == "no check at seed 3"
    assert_no_children()


def test_an_unpicklable_worker_exception_keeps_its_text(monkeypatch, tmp_path):
    class Local(Exception):
        pass

    def bad(seed):
        raise Local("local class")

    two_suites(monkeypatch, tmp_path, bad)
    with deadline(60), pytest.raises(RuntimeError, match="^Local: local class$"):
        run_suite("all")
    assert_no_children()


def test_a_worker_that_exits_without_a_result_is_an_error(monkeypatch, tmp_path):
    two_suites(monkeypatch, tmp_path, lambda seed: os._exit(3))
    with deadline(60), pytest.raises(RuntimeError, match="suites not run: second$"):
        run_suite("all")
    assert_no_children()


def test_the_parent_reaps_its_workers_when_its_own_suite_raises(monkeypatch, tmp_path):
    # the worker's result is larger than a pipe holds, so it blocks until read
    def big(seed):
        return [{"id": f"second/{i:06d}", "law": "l", "inputs": {}, "outcome": "pass",
                 "witness": "w" * 64} for i in range(4000)]

    two_suites(monkeypatch, tmp_path, big)
    first = suites.SUITES["first"]

    def first_then_raise(seed):
        first(seed)
        raise KeyError("parent share")

    monkeypatch.setitem(suites.SUITES, "first", first_then_raise)
    with deadline(60), pytest.raises(KeyError, match="parent share"):
        run_suite("all")
    assert_no_children()


def logged_suites(monkeypatch, tmp_path, count):
    """SUITES of ``count`` suites that each log "index pid" to a file; the
    returned function reads {index: pid} off that log."""
    log = tmp_path / "ran"

    def suite(i):
        def run(seed):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{i} {os.getpid()}\n".encode())
            finally:
                os.close(fd)
            return [{"id": f"s{i:02d}/ran", "law": "l", "inputs": {}, "outcome": "pass",
                     "witness": None}]
        return run

    monkeypatch.setattr(suites, "SUITES", {f"s{i:02d}": suite(i) for i in range(count)})

    def ran():
        lines = [line.split() for line in log.read_text().splitlines()]
        log.unlink()
        by_index = {int(i): int(pid) for i, pid in lines}
        assert len(by_index) == len(lines) == count, "a suite ran twice or not at all"
        return by_index
    return ran


def shares_by_process(by_index):
    """{pid: the set of suite indices that process ran}."""
    shares = {}
    for i, pid in by_index.items():
        shares.setdefault(pid, set()).add(i)
    return shares


def test_each_process_runs_the_same_share_on_every_run(monkeypatch, tmp_path):
    ran = logged_suites(monkeypatch, tmp_path, 40)
    monkeypatch.setattr(suites, "_forks_a_worker", lambda jobs: True)
    for _ in range(2):
        with deadline(60):
            report = run_suite("all", timing=True)
        assert [c["id"] for c in report["checks"]] == [f"s{i:02d}/ran" for i in range(40)]
        assert report["timing"]["workers"] == 2
        shares = shares_by_process(ran())
        assert shares.pop(os.getpid()) == {0}
        assert list(shares.values()) == [set(range(1, 40))]
        assert_no_children()


def test_four_cpus_fork_one_worker(monkeypatch):
    real_fork, forks = os.fork, []

    def counted_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    alone = run_suite("all", seed=7, timing=True)
    assert alone["timing"]["workers"] == 1
    alone["timing"] = None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "fork", counted_fork)
    with deadline(60):
        report = run_suite("all", seed=7, timing=True)
    assert len(forks) == 1 and report["timing"]["workers"] == 2
    report["timing"] = None
    assert json.dumps(report, sort_keys=True) == json.dumps(alone, sort_keys=True)
    assert_no_children()


def test_a_failed_fork_runs_every_suite_in_the_caller(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    alone = run_suite("all", seed=7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    report = run_suite("all", seed=7, timing=True)
    assert report["timing"]["workers"] == 1
    assert set(report["timing"]["suites"]) == set(SUITES)
    report["timing"] = None
    assert json.dumps(report, sort_keys=True) == json.dumps(alone, sort_keys=True)
    assert_no_children()


def test_a_failed_pipe_runs_every_suite_in_the_caller(monkeypatch):
    def no_pipe():
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "pipe", no_pipe)
    monkeypatch.setattr(os, "fork", never_fork)
    report = run_suite("all", seed=0, timing=True)
    assert report["timing"]["workers"] == 1 and not report_failures(report)
    assert set(report["timing"]["suites"]) == set(SUITES)
    assert_no_children()
