import json

import pytest

from agestruct.cli import main

CFG = {
    "model": {"family": "classical", "birth": 0.0, "death": 1.0,
              "life_law": {"kind": "deterministic", "k": 0},
              "split_law": {"kind": "deterministic", "k": 2}},
    "initial": {"kind": "atoms", "ages": [0.0], "masses": [1.0]},
    "horizon": 1.0, "dt": 0.004, "dt_out": 0.5,
    "k_values": [60], "replicates": 12, "panel": ["1"], "seed": 5,
}


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(CFG))
    return p


def test_cli_lln(cfg_path, tmp_path, capsys):
    code = main(["lln", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "summary.csv").exists()
    assert (tmp_path / "o" / "manifest.json").exists()
    assert "lln" in capsys.readouterr().out


def test_cli_simulate_with_events(cfg_path, tmp_path):
    code = main(["simulate", "--config", str(cfg_path),
                 "--out", str(tmp_path / "s"), "--emit-events"])
    assert code == 0
    assert any((tmp_path / "s").glob("events_K60_r*.csv"))


def test_cli_limit_fields(cfg_path, tmp_path):
    code = main(["limit", "--config", str(cfg_path),
                 "--out", str(tmp_path / "l"), "--emit-fields"])
    assert code == 0
    assert (tmp_path / "l" / "plotdata" / "totals.csv").exists()
    assert any((tmp_path / "l").glob("limit_frame_*.csv"))


def test_cli_fluctuate(cfg_path, tmp_path):
    cfg = dict(CFG)
    cfg["initial"] = {"kind": "grid", "profile": "uniform",
                      "support": [0.0, 1.0], "mass": 1.0}
    cfg["n_spde_paths"] = 50
    cfg["spde_block"] = 25
    p = tmp_path / "cfg2.json"
    p.write_text(json.dumps(cfg))
    code = main(["fluctuate", "--config", str(p), "--out", str(tmp_path / "f")])
    assert code == 0
    assert (tmp_path / "f" / "plotdata" / "path_stats.csv").exists()


def test_cli_seed_override(cfg_path, tmp_path):
    a = main(["lln", "--config", str(cfg_path), "--out", str(tmp_path / "a"),
              "--seed", "99"])
    b = main(["lln", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
              "--seed", "99"])
    assert a == 0 and b == 0
    assert (tmp_path / "a" / "samples.csv").read_bytes() == \
        (tmp_path / "b" / "samples.csv").read_bytes()


def test_cli_validate_has_no_out_flag(monkeypatch, capsys):
    from agestruct.acceptance import AcceptanceSuite

    def must_not_run(self):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(AcceptanceSuite, "run_all", must_not_run)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--out", "x"])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


DROPPED_FLAGS = [(cmd, "--workers") for cmd in ("limit", "fluctuate", "converge")] \
    + [(cmd, "--emit-events")
       for cmd in ("limit", "fluctuate", "qv", "lln", "clt", "converge")] \
    + [(cmd, "--emit-fields") for cmd in ("qv", "lln", "clt", "converge")]


@pytest.mark.parametrize("command, flag", DROPPED_FLAGS)
def test_cli_rejects_flags_the_study_ignores(command, flag, cfg_path, monkeypatch, capsys):
    import agestruct.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("a study ran")

    for name in ("run_simulate", "run_limit", "run_fluctuate", "run_qv_check",
                 "run_lln", "run_clt", "run_convergence"):
        monkeypatch.setattr(cli, name, must_not_run)
    argv = [command, "--config", str(cfg_path), flag] + (["2"] if flag == "--workers" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
