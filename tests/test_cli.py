import csv
import hashlib
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


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_validate_rejects_a_worker_count_below_one(workers, monkeypatch, capsys):
    import agestruct.acceptance as acceptance

    def must_not_run(*args, **kwargs):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(acceptance, "run_lln", must_not_run)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--workers", workers])
    assert exc.value.code == 2
    assert f"agestruct: error: workers must be at least 1, got {workers}\n" \
        in capsys.readouterr().err


BAD_VALUES = [
    (["lln", "--seed", "-1"], None, "seed must be an integer in [0, 2^64), got -1"),
    (["lln", "--workers", "0"], None, "workers must be at least 1, got 0"),
    (["simulate", "--workers", "-2"], None, "workers must be at least 1, got -2"),
    (["clt"], {"replicates": 1}, "replicates must be at least 2, got 1"),
    (["limit"], {"dt": "0.004"}, "dt must be a real number, got '0.004'"),
    (["qv"], {"model": dict(CFG["model"], death=-1.0)},
     "model.death must be nonnegative, got -1.0"),
]


@pytest.mark.parametrize("argv, fields, message", BAD_VALUES,
                         ids=["seed", "workers", "simulate-workers", "replicates", "dt", "death"])
def test_cli_rejects_a_value_the_config_rejects_as_a_bad_flag(argv, fields, message, tmp_path,
                                                              monkeypatch, capsys):
    import agestruct.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("a study ran")

    for name in ("run_simulate", "run_limit", "run_qv_check", "run_lln", "run_clt"):
        monkeypatch.setattr(cli, name, must_not_run)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(CFG, **(fields or {}))))
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--config", str(p), "--out", str(tmp_path / "o")] + argv[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("agestruct: error:")] \
        == [f"agestruct: error: {message}"]
    assert not (tmp_path / "o").exists()


def test_cli_names_a_missing_config_file(tmp_path, capsys):
    missing = tmp_path / "nowhere.json"
    with pytest.raises(SystemExit) as exc:
        main(["lln", "--config", str(missing)])
    assert exc.value.code == 2
    assert f"agestruct: error: --config {missing}: No such file or directory\n" \
        in capsys.readouterr().err


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


GRID = {"kind": "grid", "profile": "uniform", "support": [0.0, 1.0], "mass": 1.0}
FIELD_MODELS = {
    "classical": CFG["model"],
    "kernel_linear": {"family": "kernel_linear", "birth": 1.0,
                      "death": {"kernel": {"kind": "exp_decay", "alpha": 1.0},
                                "phi": "affine", "c0": 0.2, "cy": 0.3, "cz": 0.5},
                      "death_sup": 4.0, "life_law": {"kind": "deterministic", "k": 1},
                      "split_law": {"kind": "deterministic", "k": 0}},
}
# sha256 of each mean-field file `fluctuate --emit-fields` writes, one per dt_out multiple;
# kernel_linear's re-recorded when the grid step became one operator (cells moved <= 2.5e-15)
MEAN_FIELDS = {
    "classical": {
        "mean_field_t0.csv": "ee405e47e7592641a14a09fb55a7d31bcd0b0d721d773ddbb10fc839d0637e1e",
        "mean_field_t0.25.csv": "5149a739b864affc210ab954ce13e9bfb5e4cab1f8d56413c343c4274b960d1d",
        "mean_field_t0.5.csv": "c3cdd26ff0c3ffbd2ef3ae9c9c637673bf3c482a2e9b558db8ff566fe0ad3156",
        "mean_field_t0.75.csv": "e3f6d6cba0983c70a355db16c19b8fc1c2c2aaf8d4fabc6cf4430cf29ec2e945",
        "mean_field_t1.csv": "f3b984f007b24e60208ccc8780f05dacab1f8a66d8e8a4dca23475d3c192b896",
    },
    "kernel_linear": {
        "mean_field_t0.csv": "ee405e47e7592641a14a09fb55a7d31bcd0b0d721d773ddbb10fc839d0637e1e",
        "mean_field_t0.25.csv": "6e872140d12261cb7d7b26069da730d0c1988d89e4770bfe32853c7d74300660",
        "mean_field_t0.5.csv": "78a15d71937885be677d33379df909e9345543f45d0ed6026c4b98d671c6a794",
        "mean_field_t0.75.csv": "d518ce40bafb4a0fc3fd42f3ee173add5c95d14a8013aec92af65598b5be41c1",
        "mean_field_t1.csv": "52a088ab3fe423bda471f95d694c67e5e6add195d34f3e624f8431833780a197",
    },
}


@pytest.mark.parametrize("name", MEAN_FIELDS)
def test_cli_fluctuate_emits_the_mean_field_at_every_output_time(name, tmp_path):
    cfg = dict(CFG, model=FIELD_MODELS[name], initial=GRID, perturbation=GRID, dt=0.01,
               dt_out=0.25, n_spde_paths=20, spde_block=10)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "f"
    assert main(["fluctuate", "--config", str(p), "--out", str(out), "--emit-fields"]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in out.glob("mean_field_t*.csv")}
    assert digests == MEAN_FIELDS[name]


def test_cli_names_the_file_of_a_json_syntax_error(tmp_path, capsys):
    # once "Expecting property name ...", naming neither the file nor --config
    p = tmp_path / "bad.json"
    p.write_text("{bad")
    with pytest.raises(SystemExit) as exc:
        main(["lln", "--config", str(p)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("agestruct: error:")] == [
        f"agestruct: error: config {p} is not valid JSON: Expecting property name enclosed "
        f"in double quotes: line 1 column 2 (char 1)"]


def test_cli_reports_a_rate_past_its_bound_in_one_line(tmp_path, capsys):
    # the mass passes 5 by t = 1.2, where the death rate 0.5 + 0.3 X passes its sup 2;
    # this once ended in a ModelError traceback and exit 1
    model = {"family": "density_dependent", "birth": 0.4,
             "death": {"kind": "affine", "a": 0.5, "b": 0.3}, "death_sup": 2.0,
             "life_law": {"kind": "deterministic", "k": 1},
             "split_law": {"kind": "deterministic", "k": 2}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(CFG, model=model, initial=GRID, perturbation=GRID,
                                 horizon=1.2, dt=0.02, dt_out=1.2, k_values=[20],
                                 replicates=2, n_spde_paths=2, spde_block=2)))
    with pytest.raises(SystemExit) as exc:
        main(["clt", "--config", str(p), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("agestruct: error:")]
    assert len(lines) == 1 and "Traceback" not in err
    assert lines[0].startswith(f"agestruct: error: clt --config {p}: death rate ")
    assert lines[0].endswith(" violates declared bound 2.0")


# tiny non-classical studies: sha256 of what `clt` writes, so that a change to the
# rates cannot move a bit of the simulator, solver or law sweep unseen; re-recorded
# when the grid step became one operator (summary cells moved <= 4.5e-15 relative)
PINNED_MODELS = {
    "special_gaussian": {
        "family": "kernel_linear", "birth": 0.3, "birth_sup": 2.0,
        "death": {"kernel": {"kind": "gaussian", "c": 1.0, "sigma": 0.4},
                  "age": {"kind": "exp_decay", "alpha": 0.3}, "phi": "special",
                  "d0": 0.4, "d1": 0.8},
        "death_sup": 3.0, "life_law": {"kind": "deterministic", "k": 1},
        "split_law": {"kind": "deterministic", "k": 1}},
    "age_density": {
        "family": "age_density", "birth_sup": 2.0, "death_sup": 1.0,
        "birth": {"age": {"kind": "gaussian", "c": 1.0, "center": 0.5, "sigma": 0.3},
                  "mass": {"kind": "affine", "a": 0.6, "b": -0.1}},
        "death": {"age": {"kind": "exp_decay", "alpha": 0.5}, "mass": 0.7},
        "life_law": {"kind": "two_point", "p": 0.5, "k1": 0, "k2": 2},
        "split_law": {"kind": "deterministic", "k": 1}},
}
PINNED_CLT = {
    "special_gaussian": {
        "summary.csv": "7b39c5336ee5da5ff73f3492810f2d06e8b64d394dabbee152614829a499ca89",
        "samples.csv": "7d666cdaff16880092fd9a6c411b6d79507fc377a8168dd5007e8f304d1cda61"},
    "age_density": {
        "summary.csv": "2f616a45cc320c508ad1ac2ac10912d2a1fcce42e70c654f40197da3a444c603",
        "samples.csv": "27946a00c309fc2af8de6939fca12c118e5242b13ace0f5264bdeba56a0b5f31"},
}


@pytest.mark.parametrize("name", PINNED_MODELS)
def test_cli_clt_outputs_of_non_classical_models_are_pinned(name, tmp_path):
    cfg = dict(CFG, model=PINNED_MODELS[name], initial=GRID, perturbation=GRID, dt=0.02,
               dt_out=1.0, k_values=[50], replicates=8, panel=["1", "exp:0.5", "x"],
               n_spde_paths=16, spde_block=8)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "c"
    main(["clt", "--config", str(p), "--out", str(out)])
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("summary.csv", "samples.csv")}
    assert digests == PINNED_CLT[name]


@pytest.mark.parametrize("spec, message", [
    ("x^-1", "test function spec 'x^-1' (form x^k): a test function takes an integer power "
             "k >= 0, a finite lam and finite lo < hi; got k=-1,"),
    ("exp:nan", "test function spec 'exp:nan' (form exp:lam): a test function takes"),
    ("exp:inf", "(form exp:lam): a test function takes an integer power k >= 0, a finite lam "
                "and finite lo < hi; got k=1, lam=inf,"),
    ("bump:0.2", "test function spec 'bump:0.2' (form bump:lo:hi): bump() missing 1 required "
                 "positional argument: 'hi'"),
    ("x^1.5", "test function spec 'x^1.5' (form x^k): invalid literal for int()")],
    ids=["negative_power", "nan_rate", "inf_rate", "bump_one_end", "fractional_power"])
def test_cli_rejects_a_bad_panel_spec_at_load(spec, message, tmp_path, capsys):
    # the first three once loaded, and lln died in a quadrature traceback; the last
    # two said "not enough values to unpack" or "invalid literal for int()"
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(CFG, panel=["1", spec])))
    with pytest.raises(SystemExit) as exc:
        main(["lln", "--config", str(p), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("agestruct: error:")]
    assert len(lines) == 1 and "Traceback" not in err
    assert lines[0].startswith(f"agestruct: error: panel ['1', {spec!r}]: ")
    assert message in lines[0]


def test_cli_fluctuate_on_an_atoms_start_is_one_error_line(cfg_path, tmp_path, capsys):
    # this once ended in a ValueError traceback and exit 1
    with pytest.raises(SystemExit) as exc:
        main(["fluctuate", "--config", str(cfg_path), "--out", str(tmp_path / "f")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("agestruct: error:")] == [
        f"agestruct: error: fluctuate --config {cfg_path}: fluctuation paths need a "
        f"grid-kind initial target"]


@pytest.mark.parametrize("command", ["limit", "clt"])
def test_cli_solves_from_an_atom_at_a_multiple_of_dt(command, tmp_path):
    # the atom at age 0.5 = 50 dt lies in cell 50, one past the 50 cells of room the
    # start once had, so every study that solved the background stopped with exit 2
    cfg = dict(CFG, initial={"kind": "atoms", "ages": [0.0, 0.5], "masses": [0.5, 0.5]},
               horizon=0.5, dt=0.01, dt_out=0.5)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main([command, "--config", str(p), "--out", str(tmp_path / "o")]) == 0


# every kind of file the commands write, on tiny configs: sha256 over each command's
# files (name and bytes; the manifest's wall clock aside), recorded before the CSV
# writers shared one cell format, so that no byte of an artifact moves unseen; the
# bump runs re-recorded when a cell holding a comma came to be quoted, and fluctuate and
# clt when the grid step became one operator (cells moved <= 5.2e-15 relative)
ARTIFACT_RUNS = {
    "simulate": ("classical", ["simulate", "--emit-events", "--emit-fields"]),
    "simulate_gauss_legendre": ("kernel", ["simulate", "--emit-events", "--emit-fields"]),
    "limit": ("classical", ["limit", "--emit-fields"]),
    "fluctuate": ("kernel", ["fluctuate", "--emit-fields"]),
    "lln": ("classical", ["lln"]),
    "qv": ("kernel", ["qv"]),
    "clt": ("kernel", ["clt"]),
    "converge": ("kernel", ["converge"]),
}
ARTIFACT_MODELS = {"classical": (CFG["model"], ["1", "x", "exp:-1"]),
                   "kernel": (FIELD_MODELS["kernel_linear"], ["1", "exp:0.5", "bump:0.1:0.4"])}
ARTIFACTS = {
    "simulate": (18, "dc1bcea381a7cbfbd78e0fbe88ae62b59a9b31ea613081422b32c1704f5193b1"),
    "simulate_gauss_legendre": (
        18, "ab9a4d7725ac1b9a7961934b20f049ac5362099f3c472a091f048bfd8816dc20"),
    "limit": (6, "90552624b77a34ba3ce903a79342660c9537e7049efe8c5d7e46f7001b3846f5"),
    "fluctuate": (6, "fff38767b2ba234c16d04811b58e0d061cd8763c6247edfd9ff21ce6ca813c49"),
    "lln": (3, "ff1662541a6cf391d928f47e11801ce223e09008c88a8706971c3d0935fa9f2e"),
    "qv": (3, "4c4e9a332009b83e5eaeceb517c1a0804ad8b3372aa8036f6c71951782e3a925"),
    "clt": (3, "d792f6eac1e42f98d8382bb6fb56f57be2fbcc74889c0907d6c38e52aaf84a95"),
    "converge": (3, "7e258daa3f378bafb8b88049ab57ef05faecbcbdb4eb2f58deb7bee267509de9"),
}


def artifact_files(run, tmp_path):
    """Run one of ``ARTIFACT_RUNS`` and return the files it writes, the manifest aside."""
    model, argv = ARTIFACT_RUNS[run]
    model, panel = ARTIFACT_MODELS[model]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(CFG, model=model, initial=GRID, perturbation=GRID, dt=0.05,
                                 horizon=0.5, dt_out=0.25, k_values=[20, 40], replicates=2,
                                 panel=panel, n_spde_paths=8, spde_block=4)))
    out = tmp_path / "o"
    main(argv[:1] + ["--config", str(p), "--out", str(out)] + argv[1:])
    return out, sorted(f for f in out.rglob("*") if f.is_file() and f.name != "manifest.json")


@pytest.mark.parametrize("run", ARTIFACT_RUNS)
def test_every_artifact_kind_is_pinned(run, tmp_path):
    out, files = artifact_files(run, tmp_path)
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.relative_to(out).as_posix().encode() + b"\0" + f.read_bytes())
    assert (len(files), digest.hexdigest()) == ARTIFACTS[run]


@pytest.mark.parametrize("run", ARTIFACT_RUNS)
def test_every_artifact_csv_has_rows_as_wide_as_its_header(run, tmp_path):
    # a bump's label, bump(lo,hi), holds a comma: unquoted, its rows had one field more
    csvs = [f for f in artifact_files(run, tmp_path)[1] if f.suffix == ".csv"]
    assert csvs
    for f in csvs:
        with f.open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert {len(row) for row in rows} <= {len(header)}, f.name
