"""Exit codes and artifacts of the console entry point."""

import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcduality
from mcduality import experiments
from mcduality.cli import main
from mcduality.rng import WORKERS_ENV
from mcduality.utility import logistic_claim

TINY_KW = {"version": 1, "kind": "kw", "paths": 300, "steps": 8,
           "kw": {"mode": "nondegenerate", "n_values": [1, 4]}}


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_validate_ok(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json", TINY_KW)
    assert main(["validate", "--config", cfg]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_reports_violations(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json",
                    {"version": 1, "kind": "sweep",
                     "sweep": {"rho_values": [1.5]}})
    assert main(["validate", "--config", cfg]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid config"
    assert any(v["field"] == "sweep.rho_values" for v in err["violations"])


@pytest.mark.parametrize("cfg, field", [
    ({"kind": "sweep", "sweep": {"rho_values": ["a"]}}, "sweep.rho_values"),
    ({"kind": "sweep", "sweep": {"x": "z"}}, "sweep.x"),
    ({"kind": "sweep", "sweep": [0.4, 0.1]}, "sweep"),
    ({"kind": "degenerate", "degenerate": {"alpha": None}},
     "degenerate.alpha"),
    ({"kind": "sweep", "sweep": {"hedge_buckets": "x"}},
     "sweep.hedge_buckets"),
    ({"kind": "degenerate", "degenerate": {"buckets": True}},
     "degenerate.buckets"),
    ({"kind": "degenerate", "steps": 8}, "degenerate.buckets"),
    ({"kind": "degenerate", "degenerate": {"x": "zero"}}, "degenerate.x"),
    ({"kind": "oracle-check", "oracle": [0.4]}, "oracle"),
    ({"kind": "oracle-check", "oracle": {"a_values": ["a"]}},
     "oracle.a_values"),
    ({"kind": "sweep", "sweep": {"w_budgte": 5}}, "sweep.w_budgte"),
    ({"kind": "oracle-check", "oracle": {"q_value": [1.0]}},
     "oracle.q_value"),
    ({"kind": "subreplication", "subreplication": {"t_prime": "x"}},
     "subreplication.t_prime"),
    ({"kind": "subreplication", "subreplication": {"t_prime": 0.123456}},
     "subreplication.t_prime"),
    ({"kind": "subreplication", "subreplication": {"t_prime": 1.0}},
     "subreplication.t_prime"),
    ({"kind": "subreplication", "subreplication": {"t_prime": True}},
     "subreplication.t_prime"),
    ({"version": True}, "version"),
    ({"seed": True}, "seed"),
    ({"paths": True}, "paths"),
    ({"steps": True}, "steps"),
    ({"market": {"sigma": 1e200}}, "market"),
    ({"market": {"kappa": math.nan}}, "market"),
    ({"market": {"mu": math.nan}}, "market"),
    ({"market": {"v0": math.inf}}, "market"),
    ({"kind": "oracle-check", "oracle": {"a_values": [0.0, math.inf]}},
     "oracle.a_values"),
    ({"kind": "oracle-check", "oracle": {"b_values": [-math.inf]}},
     "oracle.b_values"),
    ({"kind": "kw", "kw": {"n_values": [0]}}, "kw.n_values"),
    ({"kind": "kw", "kw": {"n_values": [3, -1]}}, "kw.n_values"),
    ({"kind": "degenerate", "degenerate": {"n_values": [0]}},
     "degenerate.n_values"),
    ({"kind": "degenerate", "degenerate": {"n_values": [-2]}},
     "degenerate.n_values"),
    ({"kind": "degenerate", "degenerate": {"n_values": [math.inf]}},
     "degenerate.n_values"),
    ({"kind": "degenerate", "degenerate": {"n_values": [2, math.inf]}},
     "degenerate.n_values"),
    ({"utility": {"kind": "power", "p": math.nan}}, "utility"),
    ({"utility": {"kind": "power", "p": -math.inf}}, "utility"),
    ({"utility": {"kind": "exponential", "alpha": math.nan}}, "utility"),
    ({"utility": {"kind": "exponential", "alpha": math.inf}}, "utility"),
    ({"kind": "sweep", "sweep": {"x": math.inf}}, "sweep.x"),
    ({"kind": "sweep", "sweep": {"y_grid": [math.inf]}}, "sweep.y_grid"),
    ({"kind": "degenerate", "degenerate": {"alpha": math.inf}},
     "degenerate.alpha"),
    ({"kind": "subreplication", "subreplication": {"shifts": [math.inf]}},
     "subreplication.shifts"),
], ids=["rho_values_text", "x_text", "sweep_not_object", "alpha_null",
        "hedge_buckets_text", "buckets_bool", "buckets_over_steps",
        "degenerate_x_text", "oracle_not_object", "oracle_values_text",
        "sweep_unknown_key", "oracle_unknown_key", "t_prime_text",
        "t_prime_off_grid", "t_prime_at_horizon", "t_prime_bool",
        "version_bool", "seed_bool", "paths_bool", "steps_bool",
        "sigma_overflow", "kappa_nan", "mu_nan", "v0_inf", "a_inf",
        "b_neg_inf", "kw_n_zero", "kw_n_negative", "degenerate_n_zero",
        "degenerate_n_negative", "degenerate_n_inf",
        "degenerate_n_inf_among_finite", "utility_p_nan", "utility_p_neg_inf",
        "utility_alpha_nan", "utility_alpha_inf", "sweep_x_inf",
        "sweep_y_inf", "degenerate_alpha_inf", "subrep_shift_inf"])
def test_validate_malformed_values_exit_2(tmp_path, capsys, cfg, field):
    path = write_cfg(tmp_path / "c.json", {"version": 1, **cfg})
    assert main(["validate", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert [v["field"] for v in err["violations"]] == [field]


def test_validate_accepts_retired_price_tol(tmp_path, capsys):
    path = write_cfg(tmp_path / "c.json", {"version": 1, "kind": "sweep",
                                           "sweep": {"price_tol": 0.05}})
    assert main(["validate", "--config", path]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_accepts_retired_q_values(tmp_path, capsys):
    path = write_cfg(tmp_path / "c.json",
                     {"version": 1, "kind": "oracle-check",
                      "oracle": {"q_values": [-1.0, 0.5, 2.0]}})
    assert main(["validate", "--config", path]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_accepts_kw_limit_market(tmp_path, capsys):
    # the kw diagnostic reports the limit market n = inf as a row of its own
    path = write_cfg(tmp_path / "c.json",
                     {**TINY_KW, "kw": {"mode": "nondegenerate",
                                        "n_values": [1, math.inf]}})
    assert main(["validate", "--config", path]) == 0
    assert "OK" in capsys.readouterr().out


def test_run_malformed_integer_exit_2(tmp_path, capsys):
    # the run stops at validation, not inside int() during the sweep
    cfg = write_cfg(tmp_path / "c.json",
                    {"version": 1, "kind": "sweep",
                     "sweep": {"hedge_buckets": "x"}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert [v["field"] for v in err["violations"]] == ["sweep.hedge_buckets"]


@pytest.mark.parametrize("cfg, override, field", [
    ({"kind": "degenerate"}, ["--steps", "8"], "degenerate.buckets"),
    ({"kind": "subreplication", "subreplication": {"t_prime": 0.5}},
     ["--steps", "7"], "subreplication.t_prime"),
    (TINY_KW, ["--seed", "-1"], "seed"),
    (TINY_KW, ["--paths", "0"], "paths"),
], ids=["buckets_over_steps", "t_prime_off_grid", "seed_negative",
        "paths_zero"])
def test_run_checks_overrides_exit_2(tmp_path, capsys, cfg, override, field):
    # the overrides are part of the config the run validates
    path = write_cfg(tmp_path / "c.json", {"version": 1, **cfg})
    out = tmp_path / "o"
    assert main(["run", "--config", path, "--out", str(out), *override]) == 2
    err = json.loads(capsys.readouterr().err)
    assert [v["field"] for v in err["violations"]] == [field]
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run", "oracle-check"])
@pytest.mark.parametrize("text, workers, field", [
    (None, None, "config"),
    ("{not json", None, "config"),
    ("[1, 2]", None, "config"),
    ("[" * 100000 + "]" * 100000, None, "config"),
    (json.dumps({**TINY_KW, "claim": "x"}), None, "claim"),
    (json.dumps({**TINY_KW, "claim": {"kind": "table"}}), None, "claim"),
    (json.dumps({**TINY_KW, "claim": {"kind": "table", "path": 5}}), None,
     "claim"),
    (json.dumps({**TINY_KW, "claim": {"kind": "table",
                                      "path": "absent.txt"}}), None, "claim"),
    (json.dumps(TINY_KW), "abc", WORKERS_ENV),
    (json.dumps(TINY_KW), "0", WORKERS_ENV),
    (json.dumps(TINY_KW), "-3", WORKERS_ENV),
], ids=["missing_file", "not_json", "top_level_list", "nested_too_deep",
        "claim_text", "table_no_path", "table_path_number",
        "table_file_missing", "workers_text", "workers_zero",
        "workers_negative"])
def test_malformed_input_exit_2(tmp_path, capsys, monkeypatch, command, text,
                                workers, field):
    # every subcommand reads and checks its input the same way: one
    # violation record, no traceback and no output directory
    path = tmp_path / "c.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    if workers is not None:
        monkeypatch.setenv(WORKERS_ENV, workers)
    out = tmp_path / "o"
    sizes = ([] if command == "validate" else
             ["--paths", "50", "--steps", "4", "--out", str(out)])
    assert main([command, "--config", str(path), *sizes]) == 2
    err = json.loads(capsys.readouterr().err)
    assert [v["field"] for v in err["violations"]] == [field]
    assert not out.exists()


# any JSON document, at the top level too; keys are often config fields,
# and texts avoid path separators, so a table claim path names nothing
# outside the config's directory
_TEXT = st.text(alphabet=st.characters(blacklist_characters="/\\"),
                max_size=8)
_DOCUMENT = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_TEXT | st.sampled_from(
        sorted(experiments.default_config())), inner, max_size=4),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(doc=_DOCUMENT)
def test_validate_any_document_exits_0_or_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_cfg(Path(tmp) / "c.json", doc)
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = main(["validate", "--config", path])
    assert code in (0, 2)
    if code == 2:
        assert json.loads(err.getvalue())["error"] == "invalid config"


def test_run_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json", TINY_KW)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--seed", "9"]) == 0
    assert (out / "energies.csv").exists()
    man = json.loads((out / "manifest.json").read_text())
    assert man["seed"] == 9
    screen = capsys.readouterr().out
    assert "wrote:" in screen and "energies.csv" in screen


def test_run_invalid_config_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.json", {"version": 1, "kind": "nope"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_runtime_failure_exit_1(tmp_path, capsys):
    # a valid config whose output directory cannot be created (its parent
    # is a regular file) passes validation but fails inside the run
    cfg = write_cfg(tmp_path / "c.json",
                    {"version": 1, "kind": "subreplication", "paths": 300,
                     "steps": 16,
                     "subreplication": {"rho": 0.3, "shifts": [0.0]}})
    (tmp_path / "f").write_text("", encoding="utf-8")
    assert main(["run", "--config", cfg, "--out",
                 str(tmp_path / "f" / "o")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "run failed"


def test_oracle_check_nan_market_exit_2(tmp_path):
    # a NaN kappa must stop the run at validation, before the moment oracle
    # sees it; a child process bounds a regression that hangs
    path = write_cfg(tmp_path / "c.json", {"market": {"kappa": math.nan}})
    out = tmp_path / "o"
    env = dict(os.environ,
               PYTHONPATH=str(Path(mcduality.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "mcduality.cli", "oracle-check", "--config",
         path, "--paths", "500", "--steps", "8", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert [v["field"] for v in err["violations"]] == ["market"]
    assert not out.exists()


def test_import_and_runs_load_no_scipy(tmp_path):
    # numpy is the package's only runtime dependency: importing scipy would
    # cost every run about 0.4 s and 45 MiB of start-up, and
    # importlib.metadata about 30 ms
    cfg = write_cfg(tmp_path / "c.json",
                    {"version": 1, "kind": "sweep", "paths": 200, "steps": 8,
                     "sweep": {"rho_values": [0.3], "y_grid": [0.8, 1.2],
                               "hedge_buckets": 2, "budget": 10,
                               "w_budget": 8}})
    code = "\n".join([
        "import sys",
        "import mcduality, mcduality.cli",
        "argv = sys.argv[1:]",
        "assert mcduality.cli.main(['run', '--config', argv[0], '--out',"
        " argv[1]]) == 0",
        "assert mcduality.cli.main(['oracle-check', '--paths', '400',"
        " '--steps', '16', '--out', argv[2]]) == 0",
        "sys.stderr.write(repr(sorted(m for m in sys.modules"
        " if m.partition('.')[0] == 'scipy'"
        " or m == 'importlib.metadata')))",
    ])
    env = dict(os.environ,
               PYTHONPATH=str(Path(mcduality.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code, cfg, str(tmp_path / "sweep"),
         str(tmp_path / "oracle")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[]"
    assert (tmp_path / "sweep" / "sweep.csv").exists()
    assert (tmp_path / "oracle" / "oracle.csv").exists()


def test_oracle_check_needs_no_config(tmp_path):
    out = tmp_path / "o"
    assert main(["oracle-check", "--paths", "500", "--steps", "8",
                 "--out", str(out)]) == 0
    assert (out / "oracle.csv").exists()
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["validate", "run", "oracle-check"])
def test_table_claim_resolved_relative_to_config(tmp_path, capsys,
                                                 monkeypatch, command):
    # the config and its table sit in sub/, the cwd is its parent; the run
    # validates once, and that validation builds the market once
    claim = logistic_claim(rate=-2.0, scale=2.0)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "payoff.txt").write_text("".join(
        f"{z:.17g} {v:.17g}\n" for z, v in zip(claim.knots, claim.values)))
    write_cfg(tmp_path / "sub" / "c.json",
              {"version": 1, "kind": "subreplication", "paths": 400,
               "steps": 8, "claim": {"kind": "table", "path": "payoff.txt"},
               "subreplication": {"rho": 0.3, "t_prime": 0.5,
                                  "shifts": [-1.0, 0.0]}})
    monkeypatch.chdir(tmp_path)
    markets, per_validation = [], []
    build_market, validate_config = (experiments.build_market,
                                     experiments.validate_config)

    def counted_market(cfg):
        markets.append(cfg)
        return build_market(cfg)

    def counted_validate(cfg):
        start = len(markets)
        errs = validate_config(cfg)
        per_validation.append(len(markets) - start)
        return errs

    monkeypatch.setattr(experiments, "build_market", counted_market)
    monkeypatch.setattr(experiments, "validate_config", counted_validate)
    out = tmp_path / "o"
    sizes = [] if command == "validate" else ["--out", str(out)]
    assert main([command, "--config", "sub/c.json", *sizes]) == 0, \
        capsys.readouterr().err
    assert per_validation == [1]
    if command != "validate":
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["claim"]["path"] == str(
            tmp_path.resolve() / "sub" / "payoff.txt")


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()
