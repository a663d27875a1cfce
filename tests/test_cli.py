"""Command-line surface: spec building, reports, verification, sweeps."""

import csv
import io
import json
import time
import weakref
from dataclasses import replace

import pytest

from repart import cli, offline


def _spec(**kw):
    base = dict(alg="greedy", source="random", n=8, k=2, l=4)
    base.update(kw)
    return cli.RunSpec(**base)


def test_build_spec_merges_config_and_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alg=greedy\nsource=pair_chase\nn=4\nk=2\nl=2\n"
                   "# comment line\nlambda=5\nalpha=1\n")
    rc = cli.main(["run", "--config", str(cfg), "--alpha", "2",
                   "--oracle", "none"])
    assert rc == 0


def test_build_spec_requires_core_fields():
    with pytest.raises(SystemExit):
        cli.main([])                       # no subcommand
    assert cli.main(["run", "--alg", "greedy", "--source", "random"]) == 2


def test_defaults_depend_on_algorithm(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("alg=components\nsource=random\nn=4\nk=2\nl=2\n")

    class Args:
        config = str(cfg)
        alg = source = n = k = l = alpha = delta = seed = None
        steps = oracle = trace = out = p_in = p_out = lam = None

    spec = cli.build_spec(Args())
    assert spec.delta is None              # left to the algorithm
    assert spec.params().delta == 4        # components defaults to augmented
    cfg.write_text("alg=greedy\nsource=random\nn=4\nk=2\nl=2\n")
    assert cli.build_spec(Args()).params().delta == 1
    cfg.write_text("alg=components\nsource=random\nn=4\nk=2\nl=2\ndelta=5\n")
    spec = cli.build_spec(Args())
    assert spec.delta == 5 and spec.params().delta == 5
    assert cli.cmd_run(replace(spec, steps=3))["delta"] == 5
    assert cli.cmd_run(replace(spec, delta=None, steps=3))["delta"] == 4


def test_validation_rejects_bad_combinations():
    with pytest.raises(ValueError):
        _spec(k=3, n=12).validate()        # greedy needs pairs
    with pytest.raises(ValueError):
        _spec(alg="components", delta=2).validate()
    with pytest.raises(ValueError):
        _spec(source="group_phases", l=4).validate()
    with pytest.raises(ValueError):
        _spec(source="trace").validate()   # no trace file given
    with pytest.raises(ValueError):
        _spec(alg="unknown").validate()
    with pytest.raises(ValueError):
        _spec(oracle="magic").validate()
    assert cli.main(["run", "--alg", "greedy", "--source", "random",
                     "--n", "12", "--k", "3", "--l", "4"]) == 2


def test_run_report_is_deterministic_and_frozen():
    spec = _spec(source="pair_chase", n=4, l=2, lam=10, steps=400)
    a = cli.cmd_run(spec)
    b = cli.cmd_run(spec)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["steps_served"] == 100
    assert a["on_total"] == 120            # 10 phases of 10 serves + a swap
    assert a["profile"] == [10] * 10
    assert a["reference_costs"] == {
        "never_move": 50, "move_first": 52, "move_each_phase": 20}
    assert a["off_total"] == 20
    assert a["ratio"] == "6/1"
    assert a["ratio_decimal"] == 6.0


def test_run_writes_report_and_steps(tmp_path):
    out = tmp_path / "report.json"
    spec = _spec(steps=40, seed=3, out=str(out))
    report = cli.cmd_run(spec)
    on_disk = json.loads(out.read_text())
    assert on_disk == report
    steps_path = tmp_path / "report.json.steps"
    assert report["steps_path"] == str(steps_path)
    lines = steps_path.read_text().splitlines()
    assert len(lines) == report["steps_served"] == 40
    assert lines[0].startswith("1,")


def test_run_omits_ratio_when_the_state_space_is_too_large():
    # 2627625 and 15400 partition states, both above the state cap
    for n, k, l in ((16, 4, 4), (12, 3, 4)):
        spec = _spec(alg="components", source="random", n=n, k=k, l=l,
                     delta=4, steps=30)
        report = cli.cmd_run(spec)
        assert report["off_total"] is None
        assert report["ratio"] is None
        assert report["invariants"]["status"] == "pass"
    text = cli.cmd_sweep(spec, ks=[3], ls=[4], alphas=[1], seeds=[0])
    (row,) = csv.DictReader(io.StringIO(text))
    assert (row["off_cost"], row["ratio"], row["error"]) == ("", "", "")


def test_run_static_oracle_bounds_dp():
    dyn = cli.cmd_run(_spec(steps=60, seed=5))
    stat = cli.cmd_run(_spec(steps=60, seed=5, oracle="static"))
    assert dyn["off_total"] <= stat["off_total"]
    none = cli.cmd_run(_spec(steps=60, seed=5, oracle="none"))
    assert none["off_total"] is None and none["ratio"] is None


def test_dp_totals_are_pushed_through_the_work_function(monkeypatch):
    # the total needs no schedule, so the report keeps no vector per request
    spec = _spec(steps=200, seed=4)
    transcript, _, _ = cli.execute(spec)
    want, _ = offline.optimal_cost(transcript.requests(), spec.params(),
                                   cli.initial_for(spec))

    def refuse(*args, **kw):
        raise AssertionError("optimal_cost keeps the served vectors")

    monkeypatch.setattr(offline, "optimal_cost", refuse)
    assert cli.cmd_run(spec)["off_total"] == want


def test_verify_passes_clean_runs():
    code, text = cli.cmd_verify(_spec(alg="components", source="planted",
                                      n=12, k=3, l=4, delta=4, steps=400,
                                      seed=3))
    assert code == 0 and text.startswith("PASS components: 400 steps")
    code, text = cli.cmd_verify(_spec(steps=300, seed=8))
    assert code == 0 and text.startswith("PASS greedy")
    with pytest.raises(ValueError):
        cli.cmd_verify(_spec(alg="null"))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: through _merge's relocations a node moves more than "
    "ceil(log2 size) times in an epoch"))
@pytest.mark.parametrize("n, k, seed", [(28, 7, 0), (32, 8, 1)])
def test_verify_passes_component_runs_at_alpha_1(n, k, seed):
    # two of the six verify commands that fail the per-node migration check,
    # at steps 28 and 19; they pass, and so go red here, once that is mended
    spec = _spec(alg="components", source="random", n=n, k=k, l=4, alpha=1,
                 seed=seed, steps=600)
    code, text = cli.cmd_verify(spec)
    assert code == 0, text.split("\n")[:3]


def test_verify_reports_corrupted_state():
    def tamper(t, alg):
        if t == 7:
            cid = next(iter(alg.comp_nodes))
            alg.comp_reserved[cid] = 99

    spec = _spec(alg="components", source="random", n=8, k=2, l=4,
                 delta=4, steps=50, seed=1)
    code, text = cli.cmd_verify(spec, tamper=tamper)
    assert code == 1
    assert text.startswith("FAIL components")
    assert "step 7" in text
    assert "component" in text             # the state dump is attached

    def tamper_greedy(t, alg):
        if t == 9:
            alg.out_counts[0] = 99

    code, text = cli.cmd_verify(_spec(steps=50, seed=1),
                                tamper=tamper_greedy)
    assert code == 1 and "step 9" in text


def test_sweep_grid_and_error_column():
    base = _spec(steps=30)
    text = cli.cmd_sweep(base, ks=[2, 3], ls=[2, 3], alphas=[1], seeds=[0, 1])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 8
    header = text.splitlines()[0]
    assert header == "alg,source,n,k,l,alpha,seed,on_cost,off_cost,ratio,error"
    by_k = {r["k"] for r in rows}
    assert by_k == {"2", "3"}
    for row in rows:
        if row["k"] == "3":                # greedy cannot run there
            assert row["error"].startswith("ValueError")
            assert row["on_cost"] == ""
        else:
            assert row["error"] == ""
            assert int(row["on_cost"]) >= 0
            assert row["n"] == str(2 * int(row["l"]))
    assert cli.cmd_sweep(base, [2], [2], [1], [0]) == \
        cli.cmd_sweep(base, [2], [2], [1], [0])


def test_sweep_and_compare_build_one_space_per_shape(monkeypatch):
    built, spaces = [], []
    near = offline.PartitionSpace.near

    def counted(space):
        if space._near is None:
            # the previous shape's space and its masks are already freed
            assert all(ref() is None for ref in spaces)
            built.append(space.params)
            spaces.append(weakref.ref(space))
        return near(space)

    monkeypatch.setattr(offline.PartitionSpace, "near", counted)
    base = _spec(alg="naive", steps=30)
    text = cli.cmd_sweep(base, [2], [2, 4], [1], [0, 1, 2, 3])
    assert [(p.n, p.k, p.ell) for p in built] == [(4, 2, 2), (8, 2, 4)]
    # the same rows as one sweep per cell, each building its own space
    rows = [cli.cmd_sweep(base, [2], [l], [1], [seed]).splitlines()[1]
            for l in (2, 4) for seed in range(4)]
    assert text.splitlines()[1:] == rows
    assert len(built) == 2 + 8

    built.clear()
    algs = ["greedy", "naive", "components"]
    report = cli.cmd_compare(_spec(steps=40, seed=2), algs)
    assert len(built) == 1
    for alg in algs:
        alone = cli.cmd_compare(_spec(steps=40, seed=2), [alg])
        assert alone["runs"][alg] == report["runs"][alg]
    assert all(run["off_total"] is not None for run in report["runs"].values())


def test_sweep_and_compare_output_is_frozen():
    # byte for byte: a priced cell, a TooLarge cell with no optimum, and
    # ValueError cells, then a compare of three algorithms
    base = _spec(n=4, l=2, steps=12)
    assert cli.cmd_sweep(base, [2, 3], [2, 8], [1, 2], [0]) == (
        "alg,source,n,k,l,alpha,seed,on_cost,off_cost,ratio,error\r\n"
        "greedy,random,4,2,2,1,0,15,7,15/7,\r\n"
        "greedy,random,4,2,2,2,0,10,8,5/4,\r\n"
        "greedy,random,16,2,8,1,0,19,,,\r\n"
        "greedy,random,16,2,8,2,0,20,,,\r\n"
        "greedy,random,6,3,2,1,0,,,,ValueError: greedy needs clusters of size 2\r\n"
        "greedy,random,6,3,2,2,0,,,,ValueError: greedy needs clusters of size 2\r\n"
        "greedy,random,24,3,8,1,0,,,,ValueError: greedy needs clusters of size 2\r\n"
        "greedy,random,24,3,8,2,0,,,,ValueError: greedy needs clusters of size 2\r\n")
    report = cli.cmd_compare(_spec(n=6, l=3, steps=30, seed=4),
                             ["greedy", "components", "naive"])
    assert json.dumps(report, sort_keys=True) == (
        '{"alpha": 1, "k": 2, "l": 3, "n": 6, "runs": {"components": '
        '{"off_total": 22, "on_comm": 17, "on_mig": 9, "on_total": 26, '
        '"ratio": "13/11"}, "greedy": {"off_total": 22, "on_comm": 22, '
        '"on_mig": 16, "on_total": 38, "ratio": "19/11"}, "naive": '
        '{"off_total": 22, "on_comm": 28, "on_mig": 14, "on_total": 42, '
        '"ratio": "21/11"}}, "seed": 4, "source": "random", "steps": 30}')


_COMPARE = ["--source", "random", "--n", "8", "--k", "2", "--l", "4"]


def test_compare_gives_each_algorithm_its_own_delta(capsys):
    # components runs augmented and greedy unaugmented, whichever comes first
    assert cli.main(["compare", "--alg", "components,greedy"] + _COMPARE) == 0
    first = json.loads(capsys.readouterr().out)
    assert cli.main(["compare", "--alg", "greedy,components"] + _COMPARE) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["runs"] == second["runs"]
    assert set(first["runs"]) == {"components", "greedy"}


def test_an_explicit_delta_reaches_every_compare_cell(capsys, monkeypatch):
    assert cli.main(["compare", "--delta", "1", "--alg", "greedy,components"]
                    + _COMPARE) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: components needs delta >= 4\n"
    seen = []
    cmd_run = cli.cmd_run

    def record(spec, spaces=None):
        seen.append((spec.alg, spec.params().delta))
        return cmd_run(spec, spaces)

    monkeypatch.setattr(cli, "cmd_run", record)
    assert cli.main(["compare", "--delta", "5", "--alg", "components,naive,null",
                     "--steps", "20"] + _COMPARE) == 0
    assert seen == [("components", 5), ("naive", 5), ("null", 5)]
    seen.clear()
    assert cli.main(["compare", "--alg", "naive,components", "--steps", "20"]
                    + _COMPARE) == 0
    assert seen == [("naive", 1), ("components", 4)]


def test_sweep_via_main_writes_csv(tmp_path):
    out = tmp_path / "grid.csv"
    rc = cli.main(["sweep", "--alg", "greedy", "--source", "random",
                   "--ks", "2", "--ls", "2,4", "--alphas", "1",
                   "--seeds", "0", "--steps", "25", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["l"] for r in rows] == ["2", "4"]


def test_sweep_validates_only_its_cells(tmp_path, capsys):
    argv = ["sweep", "--alg", "greedy", "--source", "random", "--ls", "2",
            "--steps", "10"]
    # an invalid first list value, or a --k no cell uses, aborts nothing
    assert cli.main(argv + ["--ks", "1,2"]) == 0
    text = capsys.readouterr().out
    assert cli.main(argv + ["--ks", "2,1"]) == 0
    assert capsys.readouterr().out == text
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [(r["k"], r["error"]) for r in rows] == [
        ("1", "ValueError: greedy needs clusters of size 2"), ("2", "")]
    assert cli.main(argv + ["--k", "3", "--ks", "2"]) == 0
    lines = text.splitlines()
    assert capsys.readouterr().out.splitlines() == [lines[0], lines[2]]
    # missing and unknown settings are no cell's fault
    assert cli.main(["sweep", "--source", "random", "--ks", "2",
                     "--ls", "2"]) == 2
    assert cli.main(["sweep", "--alg", "greedy", "--ks", "2",
                     "--ls", "2"]) == 2
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("alg=null\nsource=random\nks=2\n")
    assert cli.main(["sweep", "--config", str(cfg), "--ks", "2",
                     "--ls", "2"]) == 2
    assert capsys.readouterr().out == ""


def test_compare_runs_each_algorithm(capsys):
    rc = cli.main(["compare", "--alg", "greedy,naive,null",
                   "--source", "random", "--n", "8", "--k", "2", "--l", "4",
                   "--steps", "40", "--seed", "2"])
    assert rc == 0
    event = json.loads(capsys.readouterr().out)
    assert set(event["runs"]) == {"greedy", "naive", "null"}
    naive, null = event["runs"]["naive"], event["runs"]["null"]
    assert null["on_mig"] == 0
    assert naive["on_total"] <= null["on_total"] + 100  # both ran end to end


def test_compare_writes_the_report_it_prints(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    assert cli.main(["compare", "--alg", "greedy,null", "--out", str(out)]
                    + _COMPARE) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    assert set(json.loads(printed)["runs"]) == {"greedy", "null"}


def test_compare_takes_its_algorithms_from_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text("alg=naive,null\nsource=random\nn=8\nk=2\nl=4\nsteps=20\n")
    assert cli.main(["compare", "--config", str(cfg)]) == 0
    assert set(json.loads(capsys.readouterr().out)["runs"]) == {"naive", "null"}
    # the flag still overrides the file
    assert cli.main(["compare", "--config", str(cfg), "--alg", "greedy"]) == 0
    assert set(json.loads(capsys.readouterr().out)["runs"]) == {"greedy"}


def test_verify_via_main_prints_its_verdict(capsys):
    assert cli.main(["verify", "--alg", "components", "--source", "random",
                     "--n", "9", "--k", "3", "--l", "3", "--alpha", "2",
                     "--seed", "1", "--steps", "300"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "PASS components: 300 steps, all per-step checks hold\n")
    assert captured.err == ""


def test_verify_reports_a_surviving_merge_set():
    # Three singletons with pair weights 2, 2 and 2 at k = 3, alpha = 3:
    # com = 6 = (3 - 1) * 3 makes them a merge set, while every pair stays
    # below alpha, so check_invariants is clean and only the residual check
    # finds it.
    def tamper(t, alg):
        if t == 1:
            assert all(len(alg.comp_nodes[c]) == 1 for c in (6, 7, 8))
            for key in ((6, 7), (6, 8), (7, 8)):
                alg.weights[key] = 2

    spec = _spec(alg="components", source="random", n=9, k=3, l=3,
                 alpha=3, delta=4, steps=20, seed=1)
    code, text = cli.cmd_verify(spec, tamper=tamper)
    assert code == 1
    assert text.startswith(
        "FAIL components\nstep 1\nqualifying merge set survived the step\n")


@pytest.mark.parametrize("w", [2, 3])
def test_verify_reports_a_surviving_epoch_set(w):
    # Three components of two nodes each at k = 2, alpha = 1, with pair
    # weights w: com = 3w reaches alpha*vol = 6 (at w = 3 it passes it, so
    # the cut's minimum is below 0), while each pair stays below its bound
    # vol*alpha = 4 and no two of them fit a merge set, so only the
    # residual epoch check finds them.
    planted = []

    def tamper(t, alg):
        pairs = sorted(c for c, nodes in alg.comp_nodes.items()
                       if len(nodes) == 2)
        if not planted and len(pairs) >= 3:
            planted.append(t)
            a, b, c = pairs[:3]
            for key in ((a, b), (a, c), (b, c)):
                alg.weights[key] = w

    spec = _spec(alg="components", source="random", n=16, k=2, l=8,
                 alpha=1, delta=4, steps=400, seed=1)
    code, text = cli.cmd_verify(spec, tamper=tamper)
    assert code == 1 and planted
    assert text.startswith("FAIL components\nstep %d\nepoch set survived "
                           "the step\n" % planted[0])


def test_config_file_errors(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for text, err in (
            ("alg=null\nsource random\n",
             "error: config line 'source random' is not key=value\n"),
            ("alg=null\nsource=bogus\nn=4\nk=2\nl=2\n",
             "error: unknown source 'bogus'\n")):
        cfg.write_text(text)
        assert cli.main(["run", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)


def test_verify_with_out_is_an_error(tmp_path, capsys):
    # verify writes no report, so --out would be silently dropped
    out = tmp_path / "ver.json"
    assert cli.main(["verify", "--alg", "greedy", "--source", "random",
                     "--n", "8", "--k", "2", "--l", "4", "--steps", "20",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: verify writes no report; drop --out\n"
    assert not out.exists()


def test_pair_chase_without_a_cluster_mate_is_an_error(capsys):
    # the component algorithm's doubled clusters are half empty, so the
    # chased node can sit alone and the chase has no mate to follow
    rc = cli.main(["run", "--alg", "components", "--source", "pair_chase",
                   "--n", "4", "--k", "2", "--l", "2", "--oracle", "none"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: pair chase: node 3 has no cluster mate to chase\n")


def test_naive_never_migrates_at_k_1(capsys):
    # no cluster holds a pair, so naive has no mate to evict and stays put,
    # as null and components do
    rc = cli.main(["run", "--alg", "naive", "--source", "group_phases",
                   "--n", "2", "--k", "1", "--l", "2", "--steps", "20"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["on_mig"], report["ratio"]) == (0, "1/1")


@pytest.mark.parametrize("oracle", ("dp", "static"))
def test_k_1_spaces_are_priced_or_refused_at_once(oracle):
    # one state of n one-node blocks, which splits every request; pricing
    # it costs O(n^2), so above the cap the oracle gives up before it starts
    spec = _spec(alg="null", n=1000, k=1, l=1000, steps=10, oracle=oracle)
    assert cli.cmd_run(spec)["off_total"] == 10
    started = time.perf_counter()
    assert cli.cmd_run(replace(spec, n=100000, l=100000))["off_total"] is None
    assert time.perf_counter() - started < 1.0


def test_run_via_main_prints_json(capsys):
    rc = cli.main(["run", "--alg", "null", "--source", "ring", "--n", "6",
                   "--k", "2", "--l", "3", "--steps", "12"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["alg"] == "null"
    assert report["on_total"] == 12        # every ring request stays split


def _run_trace(tmp_path, text):
    trace = tmp_path / "requests.csv"
    trace.write_text(text)
    return cli.main(["run", "--alg", "null", "--source", "trace", "--n", "4",
                     "--k", "2", "--l", "2", "--trace", str(trace)])


def test_trace_with_a_non_integer_field_is_an_error(tmp_path, capsys):
    assert _run_trace(tmp_path, "0,1\n0,x\n") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: non-integer field\n"


def test_trace_with_a_node_out_of_range_is_an_error(tmp_path, capsys):
    assert _run_trace(tmp_path, "0,9\n") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: node 9 outside [0, 4)\n"


def test_paging_file_with_a_non_integer_item_is_an_error(tmp_path, capsys):
    pages = tmp_path / "pages.txt"
    pages.write_text("0 1\n2 x\n")
    assert cli.main(["run", "--alg", "null", "--source", "paging", "--n", "6",
                     "--k", "3", "--l", "2", "--trace", str(pages)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: item 4 ('x') is not an int\n" % pages


_INPUT_FILES = {
    "bad_p.cfg": "alg=null\nsource=planted\nn=4\nk=2\nl=2\np_in=2\n",
    "typo.cfg": "alg=null\nsource=random\nn=4\nk=2\nl=2\nseeds=3\n",
    "pages.txt": "0 1 5\n",
    "words.txt": "0 1 x\n",
}


@pytest.mark.parametrize("argv", [
    ["run", "--alg", "null", "--source", "random", "--n", "5", "--k", "2",
     "--l", "2"],                                      # n != k * l
    ["run", "--alg", "null", "--source", "random", "--n", "4", "--k", "2",
     "--l", "2", "--alpha", "0"],
    ["run", "--alg", "greedy", "--source", "random", "--n", "4", "--k", "2",
     "--l", "2", "--lambda", "0"],
    ["run", "--alg", "naive", "--source", "pair_chase", "--n", "6", "--k",
     "3", "--l", "2"],                                 # the chase needs k=2
    ["run", "--config", "bad_p.cfg"],                  # a probability of 2
    ["run", "--config", "typo.cfg"],                   # no such setting
    ["run", "--alg", "null", "--source", "paging", "--n", "6", "--k", "3",
     "--l", "2", "--trace", "pages.txt"],              # item 5 of 3
    ["run", "--alg", "null", "--source", "trace", "--n", "4", "--k", "2",
     "--l", "2", "--trace", "absent.csv"],
    ["run", "--config", "absent.cfg"],
    ["run", "--alg", "null", "--source", "random", "--n", "4", "--k", "2",
     "--l", "2", "--steps", "-5"],
    ["run", "--alg", "null", "--source", "paging", "--n", "6", "--k", "3",
     "--l", "2", "--trace", "words.txt"],              # item x
    ["run", "--alg", "null", "--source", "random", "--n", "1", "--k", "1",
     "--l", "1"],                                      # one node, no pair
    ["run", "--alg", "null", "--source", "paging", "--n", "9", "--k", "3",
     "--l", "3", "--trace", "pages.txt"],              # three clusters
])
def test_bad_input_is_an_error(argv, tmp_path, monkeypatch, capsys):
    for name, text in _INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
