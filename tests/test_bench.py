"""Sweep harness, CSV emission, complexity table, CLI behaviour."""

import ast
import pathlib
import re

import numpy as np
import pytest

from spinbp import bench, linalg, metrics, qbp, spinchain, trotter
from spinbp.bench import (
    SweepConfig,
    SweepRecord,
    complexity_table,
    emit_csv,
    format_csv,
    main,
    run_sweep,
)

# snapshot generated by the first verified run of this configuration
GOLDEN_BETA_ZERO = """\
beta,method,n_slices,fidelity,trace_distance,iterations,wall_time_ms,opcount,status
0,exact,,1,0,0,0,0,ok
0,qbp,,1,7.40727117932e-17,1,0,112,ok
0,st,20,1,7.40727117932e-17,20,0,2584,ok
"""


def quick_config(**overrides):
    base = dict(
        sites=3,
        beta_min=0.0,
        beta_max=0.0,
        beta_steps=1,
        st_slices=(20,),
        time_repeats=0,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_beta_zero_rows_are_exact():
    records = run_sweep(quick_config())
    assert len(records) == 3
    for r in records:
        assert r.status == "ok"
        assert r.fidelity == pytest.approx(1.0, abs=1e-9)
        assert r.trace_distance == pytest.approx(0.0, abs=1e-9)


def test_opcount_columns():
    records = run_sweep(quick_config())
    by_method = {r.method: r for r in records}
    assert by_method["qbp"].opcount == 112
    assert by_method["st"].opcount == 2584
    assert by_method["st"].n_slices == 20
    assert by_method["exact"].opcount == 0


def test_rows_are_sorted():
    cfg = quick_config(beta_min=0.0, beta_max=1.0, beta_steps=2, st_slices=(20, 10))
    records = run_sweep(cfg)
    keys = [(r.beta, r.method, r.n_slices or 0) for r in records]
    assert keys == sorted(keys)


def test_iterations_column_semantics():
    records = run_sweep(quick_config(beta_min=1.0, beta_max=1.0))
    by_method = {r.method: r for r in records}
    assert by_method["exact"].iterations == 0
    assert by_method["st"].iterations == 20
    assert by_method["qbp"].iterations >= 1


def test_monotone_trotter_fidelity_in_slices():
    cfg = quick_config(beta_min=1.0, beta_max=1.0, methods=("st",),
                       st_slices=(10, 20, 40, 80, 100))
    records = run_sweep(cfg)
    fids = [r.fidelity for r in sorted(records, key=lambda r: r.n_slices)]
    assert all(b >= a - 1e-9 for a, b in zip(fids, fids[1:]))


def test_single_site_keep_uses_qbp_single_belief():
    records = run_sweep(quick_config(beta_min=1.0, beta_max=1.0, keep=(1,)))
    assert all(r.status == "ok" for r in records)


def test_qbp_cannot_reduce_distant_pairs():
    records = run_sweep(quick_config(methods=("qbp",), keep=(0, 2)))
    assert len(records) == 1
    assert records[0].status.startswith("error:")
    assert records[0].fidelity is None


# --- CSV ------------------------------------------------------------------------


def test_emit_csv_single_record(tmp_path):
    record = SweepRecord(0.5, "exact", None, 1.0, 0.0, 0, 0.0, 0)
    path = tmp_path / "one.csv"
    emit_csv([record], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert lines[0] == bench.CSV_HEADER
    assert lines[1] == "0.5,exact,,1,0,0,0,0,ok"


def test_emit_csv_refuses_empty(tmp_path):
    path = tmp_path / "none.csv"
    with pytest.raises(ValueError):
        emit_csv([], path)
    assert not path.exists()


def test_emit_csv_reports_path_on_io_error(tmp_path):
    record = SweepRecord(0.5, "exact", None, 1.0, 0.0, 0, 0.0, 0)
    bad = tmp_path / "missing_dir" / "out.csv"
    with pytest.raises(OSError, match="missing_dir"):
        emit_csv([record], bad)


def test_golden_beta_zero_snapshot():
    assert format_csv(run_sweep(quick_config())) == GOLDEN_BETA_ZERO


def test_identical_configs_reproduce_bytes(tmp_path):
    cfg1 = quick_config(beta_min=0.3, beta_max=1.7, beta_steps=4)
    cfg2 = quick_config(beta_min=0.3, beta_max=1.7, beta_steps=4)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(cfg1), a)
    emit_csv(run_sweep(cfg2), b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_uses_lf_and_utf8(tmp_path):
    path = tmp_path / "lf.csv"
    emit_csv(run_sweep(quick_config()), path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    raw.decode("utf-8")


# --- complexity table -------------------------------------------------------------


def complexity_lines(sites_list, slices_list):
    """complexity_table's lines below its header as (sites, slices, qbp/sweep,
    qbp total, st ops) ints, after checking that no line failed."""
    text, failures = complexity_table(sites_list, slices_list, 1.0, 0)
    assert failures == []
    header, *lines = text.splitlines()
    assert header.split() == ["sites", "slices", "qbp/sweep", "qbp", "total", "st", "ops",
                              "qbp", "ms", "st", "ms"]
    return [tuple(int(v) for v in line.split()[:5]) for line in lines]


def test_complexity_totals():
    ((sites, slices, per_sweep, total, st_ops),) = complexity_lines([3], [20])
    assert (sites, slices, per_sweep) == (3, 20, 112)
    assert total == 112  # qbp stops after one sweep on the Heisenberg chain
    assert st_ops == 2584
    assert st_ops > per_sweep


def test_complexity_growth_with_sites():
    st_ops = [line[4] for line in complexity_lines([3, 4, 5], [20])]
    for a, b in zip(st_ops, st_ops[1:]):
        assert 3.5 < b / a < 4.5


def test_complexity_times_the_sweep_rows_call(monkeypatch):
    # the Trotter plan is built inside the timed call in both tables
    calls = []
    plan = trotter.trotter_plan

    def counting_plan(model, n_slices):
        calls.append(n_slices)
        return plan(model, n_slices)

    monkeypatch.setattr(trotter, "trotter_plan", counting_plan)
    complexity_table([3], [20], 1.0, 2)
    in_complexity = len(calls)
    calls.clear()
    run_sweep(quick_config(methods=("st",), time_repeats=2))
    assert in_complexity == len(calls) == 3  # one untimed call, two timed


def test_complexity_rows_are_read_off_sweep_records():
    for slices in ((2, 20), (40, 10)):
        lines = complexity_lines([3, 4], slices)
        # site counts in turn, each with its slice counts in the order given, not sorted
        assert [line[:2] for line in lines] == [(s, n) for s in (3, 4) for n in slices]
        for sites in (3, 4):
            records = {
                (r.method, r.n_slices): r
                for r in run_sweep(SweepConfig(sites=sites, beta_min=1.0, beta_steps=1,
                                               st_slices=slices, time_repeats=0))
            }
            q = records[("qbp", None)]
            for line in (line for line in lines if line[0] == sites):
                st = records[("st", line[1])]
                assert line[2:4] == (q.opcount, q.iterations * q.opcount)
                assert line[4] == st.opcount


def test_timed_is_called_only_from_run_row():
    """One timing path: only bench._run_row calls _timed, so the sweep and
    complexity tables time the same calls."""
    inside, outside = [], []
    for path in sorted(pathlib.Path(bench.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "bench.py":
            (run_row,) = [n for n in tree.body
                          if isinstance(n, ast.FunctionDef) and n.name == "_run_row"]
            allowed = {id(n) for n in ast.walk(run_row)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            # bare name (_timed) or attribute (bench._timed)
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name == "_timed":
                (inside if id(node) in allowed else outside).append(f"{path.name}:{node.lineno}")
    assert inside, "bench._run_row no longer calls _timed"
    assert outside == []


# --- config validation ---------------------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(ValueError):
        run_sweep(quick_config(sites=1))
    with pytest.raises(ValueError):
        run_sweep(quick_config(methods=("magic",)))
    with pytest.raises(ValueError):
        run_sweep(quick_config(st_slices=(0,)))
    with pytest.raises(ValueError):
        run_sweep(quick_config(keep=(5,)))
    with pytest.raises(ValueError):
        run_sweep(quick_config(beta_min=-1.0))
    with pytest.raises(ValueError):
        run_sweep(quick_config(beta_min=2.0, beta_max=1.0, beta_steps=3))
    with pytest.raises(ValueError, match="beta-steps must be >= 1, got 0"):
        run_sweep(quick_config(beta_steps=0))
    with pytest.raises(ValueError, match="at least one method is required"):
        run_sweep(quick_config(methods=()))
    with pytest.raises(ValueError, match="method 'st' requires at least one slice count"):
        run_sweep(quick_config(methods=("st",), st_slices=()))


@pytest.mark.parametrize("overrides, message", [
    (dict(sites=3.0), "sites=3.0"),
    (dict(beta_steps=2.5), "beta-steps=2.5"),
    (dict(time_repeats=0.5), "time-repeats=0.5"),
    (dict(st_slices=(20.5,)), "st-slices=20.5"),
    (dict(keep=(0.0, 1.0)), "keep=0.0"),
    (dict(st_slices=(True, 20)), "st-slices=True"),
    (dict(st_slices=(np.True_, 20)), f"st-slices={np.True_!r}"),
])
def test_config_counts_are_checked_as_integers(overrides, message, monkeypatch):
    # beta_steps=2.5 failed in np.linspace with a bare TypeError; the floats
    # passed validation, and then every row of the sweep failed; st_slices=(True, 20)
    # ran, and wrote True into its rows' n_slices and iterations columns
    calls = count_timed_calls(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(f"{message} is not an integer")):
        run_sweep(quick_config(**overrides))
    assert calls == []


# --- CLI ----------------------------------------------------------------------------


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--sites", "3", "--beta-min", "0", "--beta-max", "0",
        "--beta-steps", "1", "--st-slices", "20", "--time-repeats", "0",
        "--out", str(out),
    ])
    assert code == 0
    assert out.read_text(encoding="utf-8") == GOLDEN_BETA_ZERO
    assert "wrote 3 rows" in capsys.readouterr().out


def test_cli_keep_labels_are_one_based(tmp_path):
    out = tmp_path / "keep.csv"
    code = main([
        "sweep", "--sites", "4", "--beta-min", "1", "--beta-max", "1",
        "--beta-steps", "1", "--methods", "exact,qbp", "--keep", "1,2",
        "--time-repeats", "0", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert "ok" in text and "error" not in text


def test_cli_stdout_when_no_out(capsys):
    code = main([
        "sweep", "--sites", "3", "--beta-min", "0", "--beta-max", "0",
        "--beta-steps", "1", "--st-slices", "20", "--time-repeats", "0",
    ])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN_BETA_ZERO


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model=heisenberg\nsites=3\nbeta=0.0\nmethods=exact,st\n"
        "st-slices=20\ntime-repeats=0\n",
        encoding="utf-8",
    )
    out = tmp_path / "cfg.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3  # header + exact + st


def test_cli_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites=3\nbeta=0.0\nmethods=exact,st,qbp\ntime-repeats=0\n", encoding="utf-8")
    code = main(["sweep", "--config", str(cfg), "--methods", "exact"])
    assert code == 0
    out = capsys.readouterr().out
    assert "qbp" not in out and "st" not in out.splitlines()[1]


def test_cli_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("sites=3\nwhatever=1\n", encoding="utf-8")
    assert main(["sweep", "--config", str(bad)]) == 2
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["sweep", "--sites", "1"]) == 2
    assert main(["sweep", "--methods", "exact,magic"]) == 2
    capsys.readouterr()


def test_cli_sweep_checks_sites_before_the_model_keys(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("J_1 = 0.5\n", encoding="utf-8")
    assert main(["sweep", "--sites", "0", "--config", str(cfg)]) == 2
    assert "spinbp: config error: sites must be >= 2, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--sites", "13"],
    ["sweep", "--sites", "40", "--methods", "qbp"],
    ["complexity", "--sites", "13"],
])
def test_cli_refuses_more_sites_than_the_exact_state_holds(argv, capsys, monkeypatch):
    # refused before any model is built: every row is scored against the dense
    # exact state, whose H alone is 512 MiB at 13 sites
    calls = []

    def refuse(*args):
        calls.append(args)
        raise RuntimeError("no model may be built")

    monkeypatch.setattr(spinchain, "exact_gibbs", refuse)
    monkeypatch.setattr(spinchain, "model_from_keys", refuse)
    assert main([*argv, "--time-repeats", "0"]) == 2
    err = capsys.readouterr().err
    assert f"spinbp: config error: sites must be <= {bench.MAX_SITES}, got {argv[2]}" in err
    assert calls == []


def test_the_longest_sweep_chain_validates():
    SweepConfig(sites=bench.MAX_SITES).validate()
    with pytest.raises(ValueError, match=f"sites must be <= {bench.MAX_SITES}"):
        SweepConfig(sites=bench.MAX_SITES + 1).validate()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_non_finite_coupling_exits_2(value, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sites=3\nJ_1={value}\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--time-repeats", "0"]) == 2
    assert "spinbp: config error: field 'J_1': coupling must be finite" in capsys.readouterr().err


def test_cli_bond_named_twice_exits_2(tmp_path, capsys):
    # an alias of J_1 is rejected alone and beside J_1
    cfg = tmp_path / "run.cfg"
    for text in ("sites=3\nJ_01=2.0\n", "sites=3\nJ_1=0.5\nJ_01=2.0\n"):
        cfg.write_text(text, encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--time-repeats", "0"]) == 2
        captured = capsys.readouterr()
        assert "spinbp: config error: field 'J_01': bond 1 must be spelled J_1" in captured.err
        assert captured.out == ""


def test_cli_sweep_at_beta_5000_scores_every_row(capsys):
    # beta/n * |h| = 750 on the n = 20 st row, past exp's range without a shift
    assert main(["sweep", "--sites", "3", "--beta-min", "5000", "--beta-steps", "1",
                 "--time-repeats", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[1:3] for r in rows] == [["exact", ""], ["qbp", ""], ["st", "20"],
                                                 ["st", "100"]]
    assert all(r.endswith(",ok") for r in rows)


def test_cli_engine_failures_exit_3(capsys):
    code = main([
        "sweep", "--sites", "4", "--beta-min", "1", "--beta-max", "1",
        "--beta-steps", "1", "--methods", "qbp", "--keep", "1,3",
        "--time-repeats", "0",
    ])
    assert code == 3
    captured = capsys.readouterr()
    assert "error" in captured.out  # row still written, status set
    assert "spinbp: row" in captured.err


def test_cli_complexity(capsys):
    assert main(["complexity", "--sites", "3-4", "--slices", "20",
                 "--time-repeats", "0"]) == 0
    out = capsys.readouterr().out
    assert "112" in out and "2584" in out


def count_timed_calls(monkeypatch):
    calls = []
    timed = bench._timed

    def counting_timed(fn, repeats):
        calls.append(repeats)
        return timed(fn, repeats)

    monkeypatch.setattr(bench, "_timed", counting_timed)
    return calls


@pytest.mark.parametrize("flags", [
    ["--sites", "6-2"],
    ["--beta", "-1"],
    ["--beta", "nan"],
    ["--time-repeats", "-1"],
    ["--slices", "0"],
    ["--sites", "1-2"],
    ["--sites", ""],
    ["--sites", ","],
    ["--sites", " "],
    ["--slices", ","],
])
def test_cli_complexity_bad_range(flags, capsys, monkeypatch):
    calls = count_timed_calls(monkeypatch)
    assert main(["complexity", *flags]) == 2
    err = capsys.readouterr().err
    assert "spinbp: config error" in err
    if flags[0] == "--beta":
        assert f"--beta must be finite and >= 0, got {float(flags[1])}" in err
    if not flags[1].strip(" ,"):
        assert f"{flags[0]}: empty range {flags[1].strip()!r}" in err
    elif flags[0] == "--slices":
        assert "--slices must all be >= 1, got (0,)" in err
    assert calls == []


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--methods", "exact,st,st"], "methods must not repeat a value, got ['st']"),
    (["sweep", "--st-slices", "20,20"], "st-slices must not repeat a value, got [20]"),
    (["sweep", "--keep", "1,1"], "keep (1-based site labels) must not repeat a value, got [1]"),
    (["complexity", "--slices", "20,20"], "--slices must not repeat a value, got [20]"),
    (["complexity", "--sites", "3,4,3"], "--sites must not repeat a value, got [3]"),
])
def test_cli_repeated_values_exit_2_before_any_row(argv, message, capsys, monkeypatch):
    # a repeated value would run and write its rows once per repeat
    calls = count_timed_calls(monkeypatch)
    assert main([*argv, "--time-repeats", "0"]) == 2
    assert f"spinbp: config error: {message} more than once" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("out", ["missing/x.csv", "."])
def test_cli_unwritable_out_exits_2_before_any_row(out, tmp_path, capsys, monkeypatch):
    calls = count_timed_calls(monkeypatch)
    argv = ["sweep", "--sites", "3", "--beta-steps", "1", "--time-repeats", "0"]
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    assert "spinbp: config error: out must name a writable file" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_each_row_is_scored_with_one_density_check(monkeypatch):
    calls, check = [], metrics._check_pair

    def counting_check(rho, sigma, **private):
        calls.append(1)
        return check(rho, sigma, **private)

    monkeypatch.setattr(metrics, "_check_pair", counting_check)
    records = run_sweep(quick_config())
    assert len(calls) == len(records) == 3


def test_cli_complexity_validates_every_site_count_before_timing(capsys, monkeypatch):
    # the bad site count comes last; the first one must not be run either
    calls = count_timed_calls(monkeypatch)
    assert main(["complexity", "--sites", "3,1", "--time-repeats", "0"]) == 2
    assert "spinbp: config error" in capsys.readouterr().err
    assert calls == []


def test_cli_complexity_failed_row_exits_3(capsys, monkeypatch):
    def failing_run(model, **options):
        raise RuntimeError("engine broke")

    monkeypatch.setattr(qbp, "qbp_run", failing_run)
    assert main(["complexity", "--sites", "3", "--slices", "20", "--time-repeats", "0"]) == 3
    captured = capsys.readouterr()
    assert "2584" in captured.out  # the table is still printed
    assert "spinbp: row (sites=3, slices=20): qbp: error: engine broke" in captured.err


# --- one config path: file keys are the sweep flags ----------------------------------


def sweep_config(argv):
    parser, sweep_parser = bench._make_parser()
    return bench._build_sweep_config(sweep_parser, parser.parse_args(["sweep", *argv]))


def sweep_flags():
    _, sweep_parser = bench._make_parser()
    return [
        opt
        for action in sweep_parser._actions
        if action.dest not in ("help", "config")
        for opt in action.option_strings
        if opt.startswith("--")
    ]


@pytest.mark.parametrize("flag", sweep_flags())
def test_every_sweep_flag_is_a_config_key(tmp_path, flag):
    # "4" and "6" convert under every flag's type and differ from every default
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]}=4\n", encoding="utf-8")
    from_file = sweep_config(["--config", str(cfg)])
    assert from_file == sweep_config([flag, "4"])
    assert from_file != SweepConfig()
    assert sweep_config(["--config", str(cfg), flag, "6"]) == sweep_config([flag, "6"])


def test_cli_config_model_key_fails_as_in_model_from_keys(tmp_path, capsys):
    cfg = tmp_path / "ising.cfg"
    cfg.write_text("model=ising\nsites=3\nbeta=0.0\ntime-repeats=0\n", encoding="utf-8")
    with pytest.raises(ValueError) as expected:
        spinchain.model_from_keys(spinchain.parse_key_values(cfg.read_text(encoding="utf-8")))
    assert "unsupported model" in str(expected.value)
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert str(expected.value) in capsys.readouterr().err


def test_cli_config_methods_parse_as_the_flag(tmp_path, capsys):
    grid = ["--sites", "3", "--beta-min", "0", "--beta-max", "0", "--beta-steps", "1",
            "--time-repeats", "0"]
    assert main(["sweep", *grid, "--methods", "exact,"]) == 0
    from_flag = capsys.readouterr().out
    cfg = tmp_path / "run.cfg"
    cfg.write_text("methods=exact,\n", encoding="utf-8")
    assert main(["sweep", *grid, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == from_flag
    assert from_flag.splitlines()[1:] == ["0,exact,,1,0,0,0,0,ok"]


def test_cli_config_bad_beta_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sites=3\nbeta=abc\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'beta'" in err and "'abc'" in err


def test_keep_zero_names_one_based_labels(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--keep", "0"])
    assert exit_info.value.code == 2
    assert "1-based" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("keep=0\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "1-based" in capsys.readouterr().err


# --- config errors exit 2 --------------------------------------------------------


def test_cli_config_unknown_model_key_fails_as_in_model_from_keys(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("sites=3\nJ2=0.5\n", encoding="utf-8")
    with pytest.raises(ValueError) as expected:
        spinchain.model_from_keys(spinchain.parse_key_values(cfg.read_text(encoding="utf-8")))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert str(expected.value) in capsys.readouterr().err


def test_st_slices_parse_error_names_the_expected_format(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--st-slices", "x"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--st-slices: expected comma-separated integers: 'x'" in err
    assert main(["complexity", "--sites", "x"]) == 2
    assert "--sites: expected a range (2-6) or a list (3,5), got 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--beta-min", "nan", "--beta-steps", "1"],
    ["--beta-max", "inf"],
])
def test_cli_bad_grid_and_qbp_options_exit_2(flags, capsys):
    # each used to pass validation, then fail or mislabel every row
    assert main(["sweep", *flags, "--time-repeats", "0"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--qbp-tol", "1e-8"), ("--qbp-max-iters", "500"), ("--qbp-damping", "0.5"),
    ("--qbp-damping", "0"), ("--qbp-max-iters", "0"), ("--qbp-tol", "-1"),
])
def test_removed_qbp_settings_exit_2_before_any_row(flag, value, tmp_path, capsys, monkeypatch):
    # the sweep runs qbp at qbp_run's defaults; an old flag or key is an error, not ignored
    assert not [f for f in sweep_flags() if f.startswith("--qbp-")]
    calls = count_timed_calls(monkeypatch)
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", flag, value, "--time-repeats", "0"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    key = flag[2:]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--time-repeats", "0"]) == 2
    assert f"spinbp: config error: unknown key '{key}'" in capsys.readouterr().err
    assert calls == []


def count_exact_calls(monkeypatch):
    calls, exact_gibbs = [], spinchain.exact_gibbs

    def counting(model):
        calls.append(model.beta)
        return exact_gibbs(model)

    monkeypatch.setattr(spinchain, "exact_gibbs", counting)
    return calls


@pytest.mark.parametrize("methods", [("st", "exact", "qbp"), ("st", "qbp")])
def test_each_beta_computes_the_exact_state_once(methods, monkeypatch):
    # the exact row's own state is the reference; without an exact row, one untimed call
    calls = count_exact_calls(monkeypatch)
    config = SweepConfig(beta_steps=4, methods=methods, time_repeats=0)
    records = run_sweep(config)
    assert calls == config.beta_grid()
    assert all(r.status == "ok" for r in records)


def test_exact_row_state_scores_the_sweep_as_a_separate_reference_call():
    with_exact = {(r.beta, r.method, r.n_slices): r for r in run_sweep(SweepConfig(time_repeats=0))}
    without = run_sweep(SweepConfig(methods=("st", "qbp"), time_repeats=0))
    assert without
    for r in without:
        assert r == with_exact[(r.beta, r.method, r.n_slices)]


def test_cli_exact_failure_fails_every_row_and_exits_3(monkeypatch, capsys):
    # with an exact row its own error fails it; without one the untimed reference
    # call's error, whatever its type, fails every row and names the exact error
    cases = [("qbp,exact", RuntimeError), ("qbp", RuntimeError), ("st,qbp", RuntimeError),
             ("st,qbp", linalg.NotHermitianError), ("qbp", MemoryError)]
    for methods, error in cases:
        def failing_exact(model):
            raise error("exact broke")

        monkeypatch.setattr(spinchain, "exact_gibbs", failing_exact)
        argv = ["sweep", "--beta-steps", "2", "--methods", methods, "--time-repeats", "0"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        rows = captured.out.splitlines()[1:]
        assert len(rows) == 2 * (1 + ("exact" in methods) + 2 * ("st" in methods))
        assert all(",error: exact broke" in r for r in rows if ",exact," in r)
        other = [r for r in rows if ",exact," not in r]
        reason = "the exact row failed" if "exact" in methods else "exact broke"
        assert all(r.endswith(f",error: no exact reference state: {reason}") for r in other)
        assert captured.err.count("spinbp: row") == len(rows)


# --- model keys: every sweep model is built by spinchain.model_from_keys ----------

XXZ_CONFIG = (
    "model=xxz\ndelta=0.5\nfield=0.3\nsites=8\n"
    "beta-min=0.5\nbeta-max=2\nbeta-steps=3\ntime-repeats=0\n"
)


HEISENBERG_CONFIG = "sites=8\nbeta-min=0.5\nbeta-max=2\nbeta-steps=3\ntime-repeats=0\n"


def test_cli_xxz_config_sweep_rows_are_the_library_calls(tmp_path, capsys):
    # an XXZ chain in a field, whose first-order st rows fail, and the Heisenberg
    # chain, which scores every row: (delta, field) of the xxz_chain each config reads
    for text, delta, field in [(XXZ_CONFIG, 0.5, 0.3), (HEISENBERG_CONFIG, 1.0, 0.0)]:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        heisenberg = text == HEISENBERG_CONFIG
        assert main(["sweep", "--config", str(cfg)]) == (0 if heisenberg else 3)
        captured = capsys.readouterr()
        records = run_sweep(sweep_config(["--config", str(cfg)]))
        assert captured.out == format_csv(records)
        assert [r.beta for r in records if r.method == "qbp"] == [0.5, 1.25, 2.0]
        st_rows = [r for r in records if r.method == "st"]
        assert len(st_rows) == 6
        for r in records:
            model = spinchain.xxz_chain(8, r.beta, None, delta, field)
            exact = linalg.partial_trace(spinchain.exact_gibbs(model), [2] * 8, (0, 1))
            if r.method == "st" and not heisenberg:
                # first-order st is non-Hermitian here until a second-order splitting lands
                assert "Hermiticity residue" in r.status
                line = f"spinbp: row (beta={r.beta:g}, st, n={r.n_slices}): {r.status}"
                assert line in captured.err
                continue
            if r.method == "exact":
                state, iterations = exact, 0
            elif r.method == "st":
                plan = trotter.trotter_plan(model, r.n_slices)
                state, iterations = trotter.st_reduced(plan, (0, 1)), r.n_slices
            else:
                result = qbp.qbp_run(model)
                state, iterations = result.beliefs_pair[(0, 1)], result.iterations
                # off the SU(2) chain the qbp iteration runs; on it, one evaluation
                assert (iterations == 1) if heisenberg else (iterations > 1)
            fid, dist = metrics.scores(state, exact)
            assert (r.fidelity, r.trace_distance, r.iterations) == (fid, dist, iterations)
            assert r.status == "ok"


@pytest.mark.parametrize("model_keys", [{}, {"model": "xxz", "delta": "0.5", "field": "0.3"}])
def test_couplings_give_the_records_of_their_j_keys(model_keys):
    # np.float64 couplings, whose repr under numpy 2 is not a float literal
    couplings = tuple(np.random.default_rng(7).uniform(0.9, 1.1, 3))
    grid = dict(sites=4, beta_min=0.5, beta_max=2.0, beta_steps=2, time_repeats=0)
    from_couplings = run_sweep(SweepConfig(**grid, model_keys=model_keys, couplings=couplings))
    j_keys = {f"J_{k}": repr(float(j)) for k, j in enumerate(couplings, 1)}
    assert from_couplings == run_sweep(SweepConfig(**grid, model_keys={**model_keys, **j_keys}))
    assert from_couplings != run_sweep(SweepConfig(**grid, model_keys=model_keys))
    for wrong in (couplings[:2], couplings + (1.0,)):
        with pytest.raises(ValueError, match=f"expected 3 couplings, got {len(wrong)}"):
            run_sweep(SweepConfig(**grid, model_keys=model_keys, couplings=wrong))


@pytest.mark.parametrize("text, message", [
    ("delta=0.5\n", "unknown key 'delta'; heisenberg keys are model, sites, beta, J_<i>"),
    ("model=heisenberg\nfield=0.3\n", "unknown key 'field'"),
    ("model=xxz\ndelta=nan\n", "delta must be finite, got nan"),
    ("model=xxz\nfield=strong\n", "field 'field': not a number: 'strong'"),
    ("model=ising\n", "unsupported model 'ising'; choose from ['heisenberg', 'xxz']"),
    ("J_x=1\n", "field 'J_x': bond index is not an integer"),
    ("J_1=abc\n", "field 'J_1': not a number: 'abc'"),
])
def test_cli_model_key_errors_exit_2_before_any_row(text, message, tmp_path, capsys, monkeypatch):
    calls = count_timed_calls(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--time-repeats", "0"]) == 2
    assert f"spinbp: config error: {message}" in capsys.readouterr().err
    assert calls == []
