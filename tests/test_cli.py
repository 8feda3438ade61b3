from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fourlines import graph as graphmod
from fourlines import search as searchmod
from fourlines.certify import certify
from fourlines.cli import main

from conftest import FIXTURES


def fixture_path(name: str) -> str:
    return str(FIXTURES / f"{name}.graph")


def source_env() -> dict:
    """The environment with the checkout's sources first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_optimized(*args, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run ``python -O`` on the checkout's sources; -O strips every assert."""
    return subprocess.run(
        [sys.executable, "-O", *args], capture_output=True, text=True, timeout=timeout, env=source_env(),
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_certified_fixture(capsys):
    code, out, _ = run(capsys, "verify", fixture_path("p78"))
    assert code == 0
    assert "status    big_nef" in out
    assert "volume    1/78" in out
    assert "epsilon1  7/78" in out
    assert "delta1    1/7" in out


def test_verify_under_python_O():
    proc = run_optimized("-m", "fourlines.cli", "verify", fixture_path("p48983"))
    assert proc.returncode == 0, proc.stderr
    assert "volume    1/48983" in proc.stdout


def test_discrepancy_residual_check_survives_python_O():
    """With wrong continuants the integer residual check still raises under -O."""
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "from fourlines import graph, singularities\n"
        "singularities._continuants = lambda marks: [1] * (len(marks) + 1)\n"
        "g = graph.parse(Path(sys.argv[1]).read_text())\n"
        "try:\n"
        "    singularities.solve_discrepancies(g)\n"
        "except ArithmeticError:\n"
        "    print('raised', sys.flags.optimize)\n"
    )
    proc = run_optimized("-c", script, fixture_path("p48983"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "1"]


def test_search_out_files_identical_under_python_O(capsys, tmp_path):
    """The glue-judged searches write the same --out files with asserts
    stripped: with a unit boundary (every edge CY), in the interior record
    search, where one edge steps a white up, and in a generic walk that
    certifies 3 forms; each with its number of winners."""
    for name, options, winners in (
        ("boundary", ["--weights", "1,2,3,5", "--boundary", "--max-blowups", "12"], 2),
        ("interior", ["--weights", "1,2,3,5", "--max-blowups", "22"], 3),
        ("generic", ["--mode", "generic", "--weights", "0,1,1,1", "--boundary", "--max-blowups", "7"], 1),
    ):
        argv = ["search", *options, "--out"]
        assert run(capsys, *argv, str(tmp_path / name / "plain"))[0] == 0
        proc = run_optimized("-m", "fourlines.cli", *argv, str(tmp_path / name / "optimized"))
        assert proc.returncode == 0, proc.stderr
        plain, optimized = (
            {p.name: p.read_bytes() for p in (tmp_path / name / d).iterdir()} for d in ("plain", "optimized")
        )
        assert len(plain) == 2 * winners
        assert optimized == plain


def test_glue_disagreement_raises_under_python_O():
    """A survivor whose glue volume differs from certify's stops the search,
    with asserts stripped, in the CY scan and in the generic walk."""
    script = (
        "import sys\n"
        "from fourlines import search\n"
        "real = search.glue\n"
        "def wrong(*args):\n"
        "    verdict = real(*args)\n"
        "    return verdict if verdict.failed else verdict._replace(volume=verdict.volume + 1)\n"
        "search.glue = wrong\n"
        "for config in (\n"
        "    search.SearchConfig((1, 2, 3, 5), boundary=True, max_blowups=12),\n"
        "    search.SearchConfig((0, 1, 1, 1), boundary=True, max_blowups=7, mode='generic'),\n"
        "):\n"
        "    try:\n"
        "        search.run_search(config)\n"
        "    except ArithmeticError as exc:\n"
        "        print('raised', sys.flags.optimize, 'glue certified volume' in str(exc))\n"
    )
    proc = run_optimized("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "1", "True"] * 2


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--json", fixture_path("p48983"))
    assert code == 0
    report = json.loads(out)
    assert Fraction(report["volume"]["num"], report["volume"]["den"]) == Fraction(1, 48983)
    assert report["status"] == "big_nef"

    code, out, _ = run(capsys, "verify", "--json", fixture_path("base"))
    assert code == 2
    assert json.loads(out)["status"] == "not_certified"
    assert run(capsys, "verify", "--json", fixture_path("missing"))[0] == 1


def test_weight_literals_are_bounded(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--weights", "1e2000000,1,1,1", "--max-blowups", "4")
    assert time.perf_counter() - start < 0.1
    assert code == 1 and out == ""
    assert f"exponent too large (limit {graphmod.MAX_WEIGHT_DIGITS})" in err
    code, out, _ = run(capsys, "search", "--weights", "1/2,3,0,1", "--max-blowups", "2")
    assert code == 0 and "minimum" in out


def test_verify_not_certified_exits_2(capsys):
    code, out, _ = run(capsys, "verify", fixture_path("base"))
    assert code == 2
    assert "status    not_certified" in out


def test_verify_weight_override(capsys):
    code, out, _ = run(capsys, "verify", fixture_path("kollar60"), "--weights", "0,1,1,1")
    assert code == 0
    assert "volume    1/60" in out
    assert "near_cy   one_step(F13)" in out


@pytest.mark.parametrize("weights", ["--weights=0,0,0,0", "--weights=-1,0,0,0"])
def test_verify_nonpositive_total_weight_exits_2(capsys, weights):
    """The weight test's coefficients w_v/n - 1 need n > 0, so a total
    weight n <= 0 is reported as a failed weight condition."""
    code, out, _ = run(capsys, "verify", fixture_path("kollar60"), weights)
    assert code == 2
    assert "status    not_certified" in out
    assert "total weight" in out


def test_verify_input_errors_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.graph"))
    assert code == 1 and "error:" in err

    bad = tmp_path / "bad.graph"
    bad.write_text("corners A B\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 1 and "error:" in err


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "search", "--weights", "1,2", "--max-blowups", "3")[0] == 1
    assert run(capsys, "search", "--weights", "1,2,3,5")[0] == 1  # budget missing
    assert run(capsys, "bound")[0] == 1
    assert run(capsys)[0] == 1


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_tsurf_exact_lines(capsys):
    code, out, _ = run(capsys, "tsurf", "2", "2", "4", "10")
    assert code == 0
    assert out == "A=1 B1=87 B2=73 K2=1/6351 ample\n"

    code, out, _ = run(capsys, "tsurf", "2", "2", "2", "2")
    assert code == 0
    assert out == "A=-5 B1=5 B2=5 K2=1 not_ample\n"

    assert run(capsys, "tsurf", "1", "2", "3", "4")[0] == 1


def test_hypersurface_output(capsys):
    code, out, _ = run(capsys, "hypersurface", "159", "49", "61", "37", "11")
    assert code == 0
    assert out == "159/1216523\n"
    assert run(capsys, "hypersurface", "10", "0", "1", "1", "1")[0] == 1


def test_bound_output(capsys):
    code, out, _ = run(capsys, "bound", "--delta", "1/42")
    assert code == 0
    value = float(out.strip())
    assert -3.23e10 < value < -3.21e10
    assert run(capsys, "bound", "--delta", "0")[0] == 1
    assert run(capsys, "bound", "--delta", "x")[0] == 1


def test_search_prints_minimum(capsys):
    code, out, _ = run(
        capsys,
        "search", "--weights", "0,1,1,1", "--boundary", "--mode", "cy",
        "--max-blowups", "8",
    )
    assert code == 0
    assert "minimum 1/60" in out.splitlines()


def test_search_empty_result(capsys):
    code, out, _ = run(
        capsys,
        "search", "--weights", "1,1,1,1", "--mode", "generic", "--max-blowups", "0",
    )
    assert code == 0
    assert "minimum none" in out


def test_search_writes_reverifiable_files(capsys, tmp_path):
    out_dir = tmp_path / "best"
    code, out, _ = run(
        capsys,
        "search", "--weights", "1,2,3,5", "--boundary", "--mode", "cy",
        "--max-blowups", "12", "--out", str(out_dir),
    )
    assert code == 0
    assert "minimum 1/462" in out
    graphs = sorted(out_dir.glob("*.graph"))
    reports = sorted(out_dir.glob("*.json"))
    assert len(graphs) == len(reports) >= 2
    for gpath, jpath in zip(graphs, reports):
        g = graphmod.parse(gpath.read_text())
        fresh = certify(g)
        assert fresh.to_dict() == json.loads(jpath.read_text())
        assert fresh.volume == Fraction(1, 462)


def test_search_deterministic_across_jobs(capsys, tmp_path):
    outputs = []
    files = []
    for jobs in ("1", "4"):
        out_dir = tmp_path / f"jobs{jobs}"
        code, out, _ = run(
            capsys,
            "search", "--weights", "1,2,3,5", "--boundary", "--mode", "cy",
            "--max-blowups", "12", "--jobs", jobs, "--out", str(out_dir),
        )
        assert code == 0
        outputs.append(out.replace(str(out_dir), "OUT"))
        files.append(
            {p.name: p.read_text() for p in sorted(out_dir.iterdir())}
        )
    assert outputs[0] == outputs[1]
    assert files[0] == files[1]


def test_search_with_a_pool_exits_cleanly():
    """The worker pool outlives each search but not the interpreter: a
    --jobs 2 search exits within the timeout and prints what --jobs 1 prints."""
    argv = ("-m", "fourlines.cli", "search", "--weights", "1,2,3,5", "--max-blowups", "16", "--jobs")
    inline, pooled = (run_optimized(*argv, jobs, timeout=60) for jobs in ("1", "2"))
    assert (pooled.returncode, pooled.stderr) == (0, "")
    assert inline.returncode == 0 and "minimum" in inline.stdout
    assert pooled.stdout == inline.stdout


def test_a_search_that_does_not_fan_out_loads_no_multiprocessing():
    """The pool module, and the multiprocessing it loads, is imported only
    when a search first fans out."""
    script = (
        "import sys\n"
        "import fourlines, fourlines.cli\n"
        "result = fourlines.run_search(fourlines.SearchConfig((1, 2, 3, 5), boundary=True, max_blowups=12))\n"
        "print(result.minimum, 'multiprocessing' in sys.modules)\n"
    )
    proc = run_optimized("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1/462", "False"]


def _die(args):
    os._exit(1)


def test_a_dead_worker_ends_search_with_an_error_line(capsys, monkeypatch, fresh_pool):
    """A worker that dies breaks the pool: the search exits 1 with one
    ``error:`` line and no traceback, and the next search starts afresh."""
    monkeypatch.setattr(searchmod.os, "cpu_count", lambda: 2)
    argv = ("search", "--weights", "1,2,3,5", "--max-blowups", "12", "--jobs", "2")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(searchmod, "_cy_worker", _die)  # set before the pool forks
        code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and "minimum" in out


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a process that has not ended (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_workers_end_when_their_owner_is_killed():
    """A pool's workers end themselves within seconds of a SIGKILL on the
    process that owns the pool."""
    script = (
        "import os, time\n"
        "from fourlines import search\n"
        "os.cpu_count = lambda: 2\n"
        "search.run_search(search.SearchConfig((1, 2, 3, 5), max_blowups=12, jobs=2))\n"
        "print(*search._pool[1]._processes, flush=True)\n"
        "time.sleep(120)\n"
    )
    owner = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=source_env())
    stuck = threading.Timer(60, owner.kill)  # bounds the read of the worker pids
    stuck.start()
    workers = []
    try:
        workers = [int(pid) for pid in owner.stdout.readline().split()]
        assert len(workers) == 2 and all(map(_alive, workers))
        owner.kill()
        owner.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not any(map(_alive, workers))
    finally:
        stuck.cancel()
        owner.kill()
        owner.wait(timeout=10)
        owner.stdout.close()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_invisible_finds_the_462_class(capsys):
    code, out, _ = run(capsys, "invisible", fixture_path("p462a"), "--d-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "support L1 L2 F13_4 F15_6 F23_5 F23_8"
    assert lines[1] == (
        "basis H F13_4 F13_7 F13_11 F15_6 F15_11 F23_5 F23_8 F23_11 F25_7 F25_9 F25_11"
    )
    assert lines[2] == (
        "lattice candidate 3 -2 -1 -1 -1 -1 0 0 0 -1 -1 -1  D2=-2 KD=0"
        "  hits F13_11:1 F15_11:1 F25_11:1"
    )
    assert lines[3] == "candidates 1"


def test_invisible_rejects_d_max_before_printing(capsys):
    code, out, err = run(capsys, "invisible", fixture_path("p462a"), "--d-max", "0")
    assert code == 1
    assert out == ""
    assert "d_max must be at least 1" in err


def test_invisible_rejects_a_huge_d_max_at_once():
    """A d_max past the limit is bad input: it exits 1 before the hunt
    starts, instead of scanning a box it could never finish."""
    proc = run_optimized("-m", "fourlines.cli", "invisible", fixture_path("p48983"), "--d-max", "1000000", timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: d_max must be at most 100"]


def test_invisible_under_python_O(capsys):
    argv = ("invisible", fixture_path("p462a"), "--d-max", "5")
    code, out, _ = run(capsys, *argv)
    proc = run_optimized("-m", "fourlines.cli", *argv)
    assert code == 0 and out.endswith("candidates 1\n")
    assert (proc.returncode, proc.stdout) == (code, out)


def test_search_zero_total_weight_exits_1(capsys):
    code, out, err = run(capsys, "search", "--weights", "0,0,0,0", "--max-blowups", "14")
    assert code == 1
    assert out == ""
    assert "total weight" in err


@pytest.mark.parametrize(
    "argv", [("--weights", "0,0,0,0", "--boundary", "--max-blowups", "7"), ("--weights=-1,0,0,1", "--max-blowups", "7")]
)
def test_generic_search_nonpositive_total_weight_exits_1(capsys, argv):
    """The weight test's coefficients w_v/n - 1 need n > 0, in the generic
    mode as in the CY mode, so a walk at n <= 0 would certify nothing."""
    code, out, err = run(capsys, "search", *argv, "--mode", "generic")
    assert code == 1
    assert out == ""
    assert "total weight" in err


def test_search_too_deep_a_descent_exits_1(capsys):
    """A 1:1000 corner ratio lets one edge's Stern-Brocot descent run as
    deep as the budget; past the recursion limit that is a usage error."""
    code, out, err = run(capsys, "search", "--weights", "1,1000,1000,1000", "--max-blowups", "1000")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: edge with corner weights 1 and 1000: budget 1000 descends past")


def test_invisible_requires_certified_graph(capsys):
    code, out, err = run(capsys, "invisible", fixture_path("base"))
    assert code == 2
    assert "not_certified" in err
    assert out == ""
