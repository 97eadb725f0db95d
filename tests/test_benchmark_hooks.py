"""The benchmark's calls into the package: the tracer's hook points and every
workload's query pool."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_hook_point():
    # `tracer.install` looks each traced function up by name, so a rename or
    # deletion in `src/` raises here instead of breaking the benchmark; the
    # grid oracle is imported first because its hooks are only installed
    # where it is loaded; one hull distance of an appreciable cover pair must
    # reach the `extended_distance` wrapper once
    check = (
        "import sys; sys.path[:0] = sys.argv[1:3]; "
        "import ihull.gridoracle, tracer; t = tracer.Tracer(); tracer.install(t); "
        "from ihull import hull, spaces; s = spaces.get_space('cover'); "
        "t.enabled = True; "
        "x, y = hull.halo(s, s.point(1, 0)), hull.halo(s, s.point(2, 1)); "
        "hull.hull_distance(s, x, y); "
        "print(t.counts['hull.distances_in_hull_distance'])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", check, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_benchmark_pools_build_run_and_check():
    # every workload builds its pool from the package as the benchmark does;
    # the hull-query and series-expand queries then run once each through the
    # worker's loop and must pass their output checks, so a name the benchmark
    # calls cannot be deleted or re-signatured without failing here
    check = (
        "import importlib, sys; sys.path[:0] = sys.argv[1:3]\n"
        "import worker\n"
        "for name in worker.MODULES.values():\n"
        "    queries = importlib.import_module(name).build(101)\n"
        "    if name in ('hull_query', 'series_expand'):\n"
        "        outputs = worker._serve(queries, 0, None, None)[0]\n"
        "        failed, _, messages = worker._check_all(queries, outputs)\n"
        "        assert not failed, messages\n"
        "        print(name)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", check, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["hull_query", "series_expand"]


def test_cli_cold_pool_runs_and_checks_in_process():
    # the cli-cold queries call the CLI in a child process each; here each
    # runs `cli.main` in process instead, and must pass its own output check
    check = (
        "import contextlib, io, json, sys; sys.path[:0] = sys.argv[1:3]\n"
        "import cli_cold, worker\n"
        "from ihull import cli\n"
        "def run_in_process(argv, tracer):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = cli.main([*argv, '--json'])\n"
        "    return code, json.loads(out.getvalue()) if out.getvalue().strip() else None\n"
        "cli_cold._run_child = run_in_process\n"
        "for seed in (101, 7777):\n"
        "    queries = cli_cold.build(seed)\n"
        "    outputs = worker._serve(queries, 0, None, None)[0]\n"
        "    failed, unknown, messages = worker._check_all(queries, outputs)\n"
        "    assert not failed and not unknown, messages\n"
        "    print(len(queries))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", check, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["19", "19"]


def test_cover_hull_distances_run_on_standard_points():
    # every hull distance of the hull-query pool (cover and line pairs and
    # the flagship) makes one distance call, on each representative's
    # standard point where it has one, so a change that loses that path
    # fails here and not only in the benchmark
    check = (
        "import sys; sys.path[:0] = sys.argv[1:3]\n"
        "import hull_query\n"
        "from ihull import hull\n"
        "calls, seen = [], []\n"
        "distance, hull_distance = hull.extended_distance, hull.hull_distance\n"
        "def counted(s, a, b):\n"
        "    calls.append((a, b))\n"
        "    return distance(s, a, b)\n"
        "def recorded(s, a, b):\n"
        "    seen.append((s, a, b))\n"
        "    return hull_distance(s, a, b)\n"
        "hull.extended_distance, hull.hull_distance = counted, recorded\n"
        "for seed in (7777, 101):\n"
        "    queries = [q for q in hull_query.build(seed) if q.kind.startswith('hull_distance.')]\n"
        "    kinds = {}\n"
        "    for q in queries:\n"
        "        calls.clear(); seen.clear()\n"
        "        q.run()\n"
        "        (s, a, b), = seen\n"
        "        near = [hull.locate(s, p).nearstandard for p in (a, b)]\n"
        "        expected = tuple(p if n is None else n for p, n in zip((a, b), near))\n"
        "        assert calls == [expected], (a, b, calls)\n"
        "        assert q.kind != 'hull_distance.cover' or None not in near, (a, b)\n"
        "        kinds[q.kind] = kinds.get(q.kind, 0) + 1\n"
        "    print(*(f'{k}={v}' for k, v in sorted(kinds.items())))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", check, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for line in proc.stdout.splitlines():
        kinds = dict(item.split("=") for item in line.split())
        assert kinds["hull_distance.cover"] == "80"
        assert kinds["hull_distance.flagship"] == "1"
        assert kinds["hull_distance.rationals-line"] == "11"
    assert len(proc.stdout.splitlines()) == 2
