"""Command line front end, run in process through main(argv)."""
import csv
import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import vapep
from vapep import AuthCost, Instance, WspInstance, dump_instance, dump_wsp, must_differ
from vapep.cli import main

import helpers

DATA = pathlib.Path(__file__).parent / "data"
SPANS = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"


def run(*argv) -> int:
    return main(list(argv))


def test_generate_writes_loadable_instance(tmp_path):
    out = tmp_path / "inst.json"
    assert run("generate", "--n", "12", "--k", "2", "--seed", "3", "-o", str(out)) == 0
    inst = vapep.load_instance(str(out))
    assert inst.n == 12 and inst.k == 2
    assert inst.meta["generator"]["seed"] == 3


def test_generate_stdout_matches_file(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert run("generate", "--n", "8", "--seed", "1", "-o", str(out)) == 0
    assert run("generate", "--n", "8", "--seed", "1") == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ("generate", "--n", "20", "--k", "3", "--alpha", "2", "--seed", "9")
    assert run(*args, "-o", str(a)) == 0
    assert run(*args, "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_usage_and_value_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("generate")
    assert exc.value.code == 2
    assert run("generate", "--n", "1") == 2
    with pytest.raises(SystemExit) as exc:
        run("nonsense")
    assert exc.value.code == 2


def test_solve_profile_vs_brute(tmp_path):
    inst_file = tmp_path / "inst.json"
    rng = random.Random(5150)
    inst = helpers.rand_instance(
        rng, n_max=4, k_max=2, n_min=3, k_min=2, linear_only=True
    )
    dump_instance(inst, str(inst_file))
    prof = tmp_path / "prof.json"
    brute = tmp_path / "brute.json"
    assert run("solve", "--in", str(inst_file), "--solver", "profile",
               "--ell", str(inst.n), "-o", str(prof)) == 0
    assert run("solve", "--in", str(inst_file), "--solver", "brute",
               "-o", str(brute)) == 0
    dp = json.loads(prof.read_text())
    db = json.loads(brute.read_text())
    assert dp["total_weight"] == db["total_weight"]
    assert dp["assignment"] == db["assignment"]
    assert dp["meta"]["solver"] == "profile"
    assert db["meta"]["solver"] == "brute"


def test_solve_flag_combinations(tmp_path):
    inst_file = tmp_path / "inst.json"
    rng = random.Random(5151)
    dump_instance(
        helpers.rand_instance(rng, n_max=3, k_max=2, linear_only=True),
        str(inst_file),
    )
    assert run("solve", "--in", str(inst_file), "--solver", "brute", "--ell", "2") == 2
    assert run("solve", "--in", str(inst_file), "--solver", "brute", "--threads", "4") == 2
    assert run("solve", "--in", str(inst_file), "--solver", "wsp", "--ell", "2") == 2
    assert run("solve", "--in", str(inst_file), "--solver", "wsp",
               "--backend", "python") == 2


def test_solve_wsp_matches_profile(tmp_path):
    rng = random.Random(5152)
    done = 0
    for _ in range(12):
        inst = helpers.rand_instance(
            rng,
            n_max=4,
            k_max=3,
            families=("sod_u", "bod_u"),
            n_min=2,
            k_min=2,
            linear_only=True,
        )
        inst_file = tmp_path / f"i{done}.json"
        dump_instance(inst, str(inst_file))
        wout = tmp_path / f"w{done}.json"
        pout = tmp_path / f"p{done}.json"
        assert run("solve", "--in", str(inst_file), "--solver", "wsp",
                   "-o", str(wout)) == 0
        assert run("solve", "--in", str(inst_file), "--solver", "profile",
                   "--ell", str(inst.n), "-o", str(pout)) == 0
        dw = json.loads(wout.read_text())
        dp = json.loads(pout.read_text())
        assert dw["total_weight"] == dp["total_weight"]
        assert dw["meta"]["solver"] == "wsp"
        assert dw["meta"]["reduction"] == "duty_pairs"
        done += 1
    assert done == 12


@pytest.mark.parametrize("name", ["exist_k6_n20_seed11", "duty_k12_n16_seed11"])
def test_solve_wsp_pinned_output(tmp_path, name):
    # The instances are relation documents of the plan workloads: a 10-step
    # existence-binding reduction (bod_e/sod_u) and a 12-step duty-pair
    # reduction (sod_u/bod_u, 16 users, 22 pairs).  The expected files hold
    # the output of the flat scan over every set partition, which took about
    # 20 s for the 12-step instance on a 2-vCPU machine; the pruned scan must
    # give the same bytes in well under a second.
    out = tmp_path / "out.json"
    t0 = time.perf_counter()
    assert run("solve", "--solver", "wsp", "--in", str(DATA / f"plan_{name}.json"),
               "-o", str(out)) == 0
    assert time.perf_counter() - t0 < 10.0
    expected = (DATA / f"solve_wsp_{name}.json").read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8") == expected


def test_solve_wsp_rejects_mixed_families(tmp_path):
    inst = Instance(
        ("r1",),
        ("u1",),
        (vapep.card_lb("r1", 1, 5),),
        AuthCost({"u1": frozenset(["r1"])}, 1),
    )
    inst_file = tmp_path / "inst.json"
    dump_instance(inst, str(inst_file))
    assert run("solve", "--in", str(inst_file), "--solver", "wsp") == 2


def test_solve_threads_byte_identical(tmp_path):
    inst_file = tmp_path / "inst.json"
    assert run("generate", "--n", "10", "--k", "3", "--seed", "7",
               "-o", str(inst_file)) == 0
    one = tmp_path / "t1.json"
    eight = tmp_path / "t8.json"
    assert run("solve", "--in", str(inst_file), "--threads", "1", "-o", str(one)) == 0
    assert run("solve", "--in", str(inst_file), "--threads", "8", "-o", str(eight)) == 0
    assert one.read_bytes() == eight.read_bytes()


def test_solve_missing_and_malformed_files(tmp_path):
    assert run("solve", "--in", str(tmp_path / "absent.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert run("solve", "--in", str(bad)) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"resources": 5}', encoding="utf-8")
    assert run("solve", "--in", str(wrong)) == 2


def test_solve_guard_exit_code(tmp_path):
    inst_file = tmp_path / "inst.json"
    assert run("generate", "--n", "30", "--k", "1", "--seed", "2",
               "-o", str(inst_file)) == 0
    assert run("solve", "--in", str(inst_file), "--solver", "brute") == 3


def test_solve_profile_guard_exit_code(tmp_path):
    # the default ell of 26 at k=5 gives about 1.2e16 profiles
    inst_file = tmp_path / "inst.json"
    assert run("generate", "--n", "200", "--k", "5", "-o", str(inst_file)) == 0
    t0 = time.perf_counter()
    assert run("solve", "--in", str(inst_file)) == 3
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("seed", [0, 1])
def test_solve_profile_pinned_output(tmp_path, seed):
    # The expected files hold the output of the reconstruction that matched
    # every slot against all n users; matching against candidate columns must
    # give the same bytes.  Seed 1 repeats a separation pair, so the optimum
    # holds 9 users and the tie-break chooses among tied users; seed 0 has
    # three distinct pairs.  Without the compiled kernel only the backend
    # name differs.
    inst_file = tmp_path / "inst.json"
    out = tmp_path / "out.json"
    assert run("generate", "--n", "5000", "--k", "3", "--seed", str(seed),
               "-o", str(inst_file)) == 0
    assert run("solve", "--in", str(inst_file), "-o", str(out)) == 0
    expected = (DATA / f"solve_profile_k3_n5000_seed{seed}.json").read_text(
        encoding="utf-8")
    backend = vapep.default_backend_name()
    expected = expected.replace('"backend": "cython"', f'"backend": "{backend}"')
    got = out.read_text(encoding="utf-8")
    assert got == expected
    want = json.loads(expected)["meta"]["profiles_enumerated"]
    assert json.loads(got)["meta"]["profiles_enumerated"] == want


def test_export_mip_forms(tmp_path):
    inst_file = tmp_path / "inst.json"
    assert run("generate", "--n", "6", "--k", "2", "--seed", "4",
               "-o", str(inst_file)) == 0
    naive = tmp_path / "naive.lp"
    up = tmp_path / "up.lp"
    assert run("export-mip", "--in", str(inst_file), "-o", str(naive)) == 0
    assert run("export-mip", "--in", str(inst_file), "--form", "up",
               "-o", str(up)) == 0
    f = vapep.parse_lp(naive.read_text(encoding="utf-8"))
    assert len([v for v in f.var_names() if v.startswith("x_r")]) == 12
    g = vapep.parse_lp(up.read_text(encoding="utf-8"))
    assert len([v for v in g.var_names() if v.startswith("xT")]) == 24


def test_export_mip_guard(tmp_path):
    inst_file = tmp_path / "inst.json"
    assert run("generate", "--n", "10", "--k", "30", "--q-sod", "0", "--seed", "1",
               "-o", str(inst_file)) == 0
    assert run("export-mip", "--in", str(inst_file), "--form", "up") == 3


def wsp_files(tmp_path):
    steps = ("s1", "s2")
    users = ("u1", "u2", "u3", "u4")
    base = {u: frozenset(steps) for u in users}
    w = WspInstance(steps, users, (must_differ("s1", "s2"),), AuthCost(base, 1))
    wsp_file = tmp_path / "wsp.json"
    dump_wsp(w, str(wsp_file))
    return w, wsp_file


def test_check_resilience_true_and_false(tmp_path):
    _, wsp_file = wsp_files(tmp_path)
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(
        json.dumps({"s1": ["u1", "u2"], "s2": ["u3", "u4"]}), encoding="utf-8"
    )
    out = tmp_path / "report.json"
    assert run("check-resilience", "--wsp", str(wsp_file), "--plan", str(plan_file),
               "--tau", "1", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc == {"resilient": True, "tau": 1, "witness": None}
    assert run("check-resilience", "--wsp", str(wsp_file), "--plan", str(plan_file),
               "--tau", "3", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["resilient"] is False
    assert doc["tau"] == 3
    assert isinstance(doc["witness"], list) and len(doc["witness"]) == 3


def test_check_resilience_bad_plan_document(tmp_path):
    _, wsp_file = wsp_files(tmp_path)
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({"s1": "u1"}), encoding="utf-8")
    assert run("check-resilience", "--wsp", str(wsp_file),
               "--plan", str(plan_file), "--tau", "0") == 2


def test_bench_grid(tmp_path):
    out = tmp_path / "bench.csv"
    assert run("bench", "--grid", "n=6,8;k=2;seeds=2;solvers=profile,brute",
               "-o", str(out)) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "n", "k", "tau", "alpha", "seed", "solver", "time_ms", "objective",
        "users", "sod_penalty", "card_penalty", "usercount_penalty",
        "auth_penalty",
    ]
    data = rows[1:]
    assert len(data) == 12
    means = [r for r in data if r[4] == "mean"]
    assert len(means) == 4
    # per-seed objectives agree between the two exact solvers
    per_seed = {}
    for r in data:
        if r[4] == "mean":
            continue
        per_seed.setdefault((r[0], r[4]), set()).add(r[7])
    assert all(len(objs) == 1 for objs in per_seed.values())
    # the mean row averages its group's objective column
    for n in ("6", "8"):
        group = [r for r in data if r[0] == n and r[4] != "mean" and r[5] == "profile"]
        mean_row = next(
            r for r in data if r[0] == n and r[4] == "mean" and r[5] == "profile"
        )
        want = sum(float(r[7]) for r in group) / len(group)
        assert float(mean_row[7]) == pytest.approx(want)


def test_bench_thirty_row_grid(tmp_path):
    out = tmp_path / "bench.csv"
    assert run("bench", "--grid", "n=20,40,80;k=3;seeds=10", "-o", str(out)) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    data = rows[1:]
    per_seed = [r for r in data if r[4] != "mean"]
    means = [r for r in data if r[4] == "mean"]
    assert len(per_seed) == 30
    assert len(means) == 3
    assert [r[0] for r in means] == ["20", "40", "80"]


def test_bench_grid_errors(tmp_path):
    assert run("bench", "--grid", "k=3") == 2
    assert run("bench", "--grid", "n=abc") == 2
    assert run("bench", "--grid", "n=6;seeds=0") == 2
    assert run("bench", "--grid", "n=6;solvers=magic") == 2
    assert run("bench", "--grid", "n=6;oops=1") == 2


def test_console_entry_point(tmp_path):
    out = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "vapep.cli", "generate", "--n", "6", "-o", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    vapep.load_instance(str(out))
    proc = subprocess.run(
        [sys.executable, "-m", "vapep.cli", "solve", "--in", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, APEP_LOG="info"),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["meta"]["solver"] == "profile"


def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys):
    # main() keeps one parser per process; a run of subcommands, usage
    # errors and help through it must give the exit codes, output and
    # files of a fresh parser per call
    script = [
        ("generate", "--n", "12", "--k", "3", "--seed", "4", "-o", "a.json"),
        ("solve", "--in", "a.json"),
        ("generate",),
        ("solve", "--in", "a.json", "--solver", "nope"),
        ("generate", "--n", "1"),
        ("solve", "--in", "missing.json"),
        ("solve", "--in", "a.json", "--solver", "brute", "--ell", "2"),
        ("export-mip", "--in", "a.json", "--form", "up", "-o", "a.lp"),
        ("nonsense",),
        ("solve", "--help"),
        ("generate", "--n", "9", "--k", "2", "--alpha", "3"),
        ("solve", "--in", "a.json", "--ell", "3", "-o", "b.json"),
        ("check-resilience", "--wsp", "a.json"),
        ("bench", "--grid", "n=6;k=2;seeds=1"),
        ("export-mip", "--in", "a.json"),
    ]

    def play(where):
        where.mkdir()
        monkeypatch.chdir(where)
        seen = []
        for argv in script:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            out, err = capsys.readouterr()
            if argv[0] == "bench":  # drop the timing column
                out = [row[:6] + row[7:] for row in csv.reader(out.splitlines())]
            seen.append((argv, code, out, err))
        files = {p.name: p.read_text(encoding="utf-8") for p in sorted(where.iterdir())}
        return seen, files

    cached = play(tmp_path / "cached")
    import vapep.cli
    monkeypatch.setattr(vapep.cli, "_parser", vapep.cli.build_parser)
    fresh = play(tmp_path / "fresh")
    assert cached == fresh
    codes = [code for _, code, _, _ in cached[0]]
    assert codes == [0, 0, ("exit", 2), ("exit", 2), 2, 2, 2, 0, ("exit", 2),
                     ("exit", 0), 0, 0, ("exit", 2), 0, 0]
    assert sorted(cached[1]) == ["a.json", "a.lp", "b.json"]


def test_perfbench_tracer_records_solver_spans(tmp_path):
    # `perfbench/run.py --trace 1` patches functions of the package by name;
    # a rename or a changed call path would otherwise break it silently
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    inst = helpers.rand_instance(
        random.Random(5152), n_max=4, k_max=3, families=("sod_u", "bod_u"),
        n_min=2, k_min=2, linear_only=True,
    )
    inst_file = tmp_path / "inst.json"
    dump_instance(inst, str(inst_file))
    original = vapep.matching.min_cost_assignment
    tracer = spans.Tracer()
    tracer.install()
    try:
        for solver in ("profile", "wsp", "brute"):
            assert run("solve", "--in", str(inst_file), "--solver", solver,
                       "-o", str(tmp_path / f"{solver}.json")) == 0
    finally:
        tracer.uninstall()
    assert vapep.matching.min_cost_assignment is original
    calls = tracer.totals()[2]
    assert calls["solver_profile.solve"] == 1
    assert calls["wsp.solve_wsp"] == 1
    assert calls["solver_brute.solve_exhaustive"] == 1
    assert calls["matching.min_cost_assignment"] >= 3
    assert calls["solver_profile.best_relation_for_profile"] >= 2
