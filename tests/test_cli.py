import dataclasses
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import povmix
from povmix.cli import main
from povmix.config import Config
from povmix.decompose import ExtremalMixture, MixtureComponent
from povmix.serialize import (
    ParseError,
    dumps,
    mixture_to_jsonable,
    povm_to_jsonable,
    state_to_jsonable,
    trace_density_from_jsonable,
)
from povmix.model import DensityState, FinitePOVM
from povmix.outcomes import bloch_effect


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def ea_file(tmp_path, capsys):
    path = tmp_path / "ea.json"
    code, _, _ = run(capsys, "gen", "--kind", "ea", "--a", "0.5", "-o", str(path))
    assert code == 0
    return str(path)


def test_gen_and_validate(tmp_path, capsys):
    path = tmp_path / "sic.json"
    code, out, err = run(capsys, "gen", "--kind", "sic", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "valid" in out


def test_gen_to_stdout(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "trine")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2 and len(doc["outcomes"]) == 3


def test_extremal_check_exit_codes(tmp_path, capsys, ea_file):
    code, out, _ = run(capsys, "extremal-check", ea_file)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["extreme"] is True
    assert set(verdict) >= {"extreme", "margin", "kernel_dim", "domain_dim"}

    flat = tmp_path / "flat.json"
    code, _, _ = run(capsys, "gen", "--kind", "ea", "--a", "0", "-o", str(flat))
    assert code == 0
    code, out, _ = run(capsys, "extremal-check", str(flat))
    assert code == 2
    assert json.loads(out)["extreme"] is False


def test_decompose_and_verify(tmp_path, capsys):
    povm = tmp_path / "p.json"
    mix = tmp_path / "m.json"
    run(capsys, "gen", "--kind", "random", "--d", "2", "--k", "5", "--seed", "3", "-o", str(povm))
    code, _, _ = run(capsys, "decompose", str(povm), "-o", str(mix))
    assert code == 0
    doc = json.loads(mix.read_text())
    assert doc["complete"] is True
    assert abs(sum(c["weight"] for c in doc["components"]) - 1) < 1e-12

    code, out, _ = run(capsys, "verify-barycenter", str(povm), str(mix), "--trials", "8")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["max_functional_residual"] < 1e-9


def test_decompose_budget_exit_code(tmp_path, capsys):
    povm = tmp_path / "p.json"
    run(capsys, "gen", "--kind", "random", "--d", "2", "--k", "6", "--seed", "4", "-o", str(povm))
    code, _, _ = run(capsys, "decompose", str(povm), "-o", str(tmp_path / "m.json"), "--max-leaves", "2")
    assert code == 3


@pytest.mark.parametrize("value", ["0", "-1"])
def test_decompose_rejects_max_leaves_below_one(tmp_path, capsys, value):
    povm = tmp_path / "p.json"
    run(capsys, "gen", "--kind", "random", "--d", "2", "--k", "6", "--seed", "4", "-o", str(povm))
    code, out, err = run(capsys, "decompose", str(povm), "--max-leaves", value)
    assert code == 1 and out == ""
    assert f"'max_leaves' must be >= 1, got {value}" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_barycenter_rejects_trials_below_one(tmp_path, capsys, value):
    povm, mix = tmp_path / "p.json", tmp_path / "m.json"
    run(capsys, "gen", "--kind", "random", "--d", "2", "--k", "4", "--seed", "2", "-o", str(povm))
    run(capsys, "decompose", str(povm), "-o", str(mix))
    code, out, err = run(capsys, "verify-barycenter", str(povm), str(mix), "--trials", value)
    assert code == 1 and out == ""
    assert f"trials must be >= 1, got {value}" in err


def test_density_output(tmp_path, capsys):
    povm = tmp_path / "p.json"
    run(capsys, "gen", "--kind", "random", "--d", "3", "--k", "4", "--seed", "5", "-o", str(povm))
    code, out, _ = run(capsys, "density", str(povm))
    assert code == 0
    doc = json.loads(out)
    assert doc["weight_sum"] == pytest.approx(3.0, abs=1e-9)
    assert all(r < 1e-12 for r in doc["trace_residuals"])


def test_density_round_trips_repeated_labels(tmp_path, capsys):
    # repeated labels are merged, as decompose does; a zero effect stays as
    # weight 0 with no density
    povm = tmp_path / "p.json"
    half = np.eye(2) / 2
    povm.write_text(dumps(povm_to_jsonable(FinitePOVM(2, (0, 0, 1), [half, half, 0 * half]))))
    code, out, _ = run(capsys, "density", str(povm))
    assert code == 0
    td = trace_density_from_jsonable(json.loads(out))
    assert td.labels == (0, 1)
    assert list(td.weights) == [2.0, 0.0]
    assert np.array_equal(td.densities[0], half) and td.densities[1] is None


def test_density_output_parses_at_any_label_tol(tmp_path, capsys, monkeypatch):
    # 1e-10 apart, the two points are one label at the default label_tol and
    # two at 1e-12; the parser takes the two-entry document that gives
    povm = tmp_path / "p.json"
    half = np.eye(2) / 2
    labels = ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0 + 1e-10))
    povm.write_text(dumps(povm_to_jsonable(FinitePOVM(2, labels, [half, half]))))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"label_tol": 1e-12}))
    monkeypatch.setenv("POVMIX_CONFIG", str(cfg))
    code, out, _ = run(capsys, "density", str(povm))
    assert code == 0
    doc = json.loads(out)
    td = trace_density_from_jsonable(doc)
    assert td.labels == labels
    assert list(td.weights) == [1.0, 1.0]
    # an exact repeat is still rejected
    doc["labels"][1] = doc["labels"][0]
    with pytest.raises(ParseError, match=r"repeats labels\[0\]"):
        trace_density_from_jsonable(doc)


def test_postprocess_warns_on_merge(tmp_path, capsys):
    povm = tmp_path / "t.json"
    run(capsys, "gen", "--kind", "trine", "-o", str(povm))
    table = tmp_path / "map.json"
    table.write_text(json.dumps({"map": [{"from": 0, "to": 5}, {"from": 1, "to": 5}, {"from": 2, "to": 6}]}))
    out_file = tmp_path / "out.json"
    code, _, err = run(capsys, "postprocess", str(povm), "--map", str(table), "-o", str(out_file))
    assert code == 0
    assert "not injective" in err
    doc = json.loads(out_file.read_text())
    assert [o["label"] for o in doc["outcomes"]] == [5, 6]


def test_sample_commands(tmp_path, capsys):
    povm = tmp_path / "p.json"
    mix = tmp_path / "m.json"
    state = tmp_path / "rho.json"
    run(capsys, "gen", "--kind", "random", "--d", "2", "--k", "4", "--seed", "6", "-o", str(povm))
    run(capsys, "decompose", str(povm), "-o", str(mix))
    state.write_text(dumps(state_to_jsonable(DensityState(2, np.eye(2) / 2))))

    code, out, _ = run(capsys, "sample", "direct", str(povm), "--state", str(state), "--n", "500", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 500
    assert sum(c["count"] for c in doc["counts"]) == 500

    code, out, _ = run(capsys, "sample", "two-stage", str(mix), "--state", str(state), "--n", "500", "--seed", "1")
    assert code == 0
    assert sum(c["count"] for c in json.loads(out)["counts"]) == 500

    # --shards is gone: pieces come from --n alone
    code, _, err = run(
        capsys, "sample", "direct", str(povm), "--state", str(state), "--n", "500", "--shards", "2"
    )
    assert code == 1 and "--shards" in err


@pytest.mark.parametrize("d", [0, -1])
def test_gen_pvm_rejects_an_empty_dimension(capsys, d):
    code, out, err = run(capsys, "gen", "--kind", "pvm", "--d", str(d))
    assert code == 1 and out == ""
    assert "--d" in err


@pytest.mark.parametrize("a", ["inf", "-inf", "nan"])
def test_gen_ea_rejects_a_non_finite_angle(capsys, a):
    """A non-finite --a is a usage error that names the flag, raised before
    numpy sees the angle, so no RuntimeWarning escapes."""
    code, out, err = run(capsys, "gen", "--kind", "ea", f"--a={a}")
    assert code == 1 and out == ""
    assert f"--a must be finite, got {float(a)}" in err


def seeded_commands(tmp_path, capsys):
    """Argument lists of every command that draws from a seed, without --seed."""
    povm, mix, state = tmp_path / "p.json", tmp_path / "m.json", tmp_path / "rho.json"
    run(capsys, "gen", "--kind", "random", "--d", "2", "--k", "4", "--seed", "6", "-o", str(povm))
    run(capsys, "decompose", str(povm), "-o", str(mix))
    state.write_text(dumps(state_to_jsonable(DensityState(2, np.eye(2) / 2))))
    return [
        ["gen", "--kind", "random", "--d", "2", "--k", "4"],
        ["gen", "--kind", "covariant-sphere", "--n", "6"],
        ["sample", "direct", str(povm), "--state", str(state), "--n", "50"],
        ["sample", "two-stage", str(mix), "--state", str(state), "--n", "50"],
        ["verify-barycenter", str(povm), str(mix), "--trials", "2"],
    ]


def test_seed_flag_out_of_range_is_a_usage_error(tmp_path, capsys):
    """One rule for --seed on every command: 0 <= seed < 2**128, the Philox
    key's range; outside it the message names the flag, not numpy's check."""
    commands = seeded_commands(tmp_path, capsys) + [["gen", "--kind", "pvm", "--d", "2"]]
    for argv in commands:
        for seed in (-1, 2**128):
            code, out, err = run(capsys, *argv, "--seed", str(seed))
            assert code == 1 and out == "", argv
            assert "--seed must be in [0, 2**128)" in err, argv
        code, _, err = run(capsys, *argv, "--seed", str(2**128 - 1))
        assert code == 0, (argv, err)


def test_config_seed_out_of_range_names_the_key(tmp_path, capsys, monkeypatch):
    commands = seeded_commands(tmp_path, capsys)
    cfg = tmp_path / "cfg.json"
    monkeypatch.setenv("POVMIX_CONFIG", str(cfg))
    for seed in (-1, 2**128):
        cfg.write_text(json.dumps({"seed": seed}))
        for argv in commands:
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", argv
            assert "config key 'seed' must be in [0, 2**128)" in err, argv
    cfg.write_text(json.dumps({"seed": 2**128 - 1}))
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv


def test_verify_barycenter_stdin_modes(tmp_path, capsys, monkeypatch):
    povm = tmp_path / "p.json"
    mix = tmp_path / "m.json"
    run(capsys, "gen", "--kind", "random", "--d", "2", "--k", "4", "--seed", "8", "-o", str(povm))
    run(capsys, "decompose", str(povm), "-o", str(mix))

    # one positional: mixture arrives on stdin
    monkeypatch.setattr(sys, "stdin", io.StringIO(mix.read_text()))
    code, out, _ = run(capsys, "verify-barycenter", str(povm), "--trials", "4")
    assert code == 0 and json.loads(out)["pass"] is True

    # zero positionals: self-consistency check of the mixture itself
    monkeypatch.setattr(sys, "stdin", io.StringIO(mix.read_text()))
    code, out, _ = run(capsys, "verify-barycenter", "--trials", "4")
    assert code == 0 and json.loads(out)["pass"] is True


def test_error_paths(tmp_path, capsys):
    code, _, err = run(capsys, "extremal-check", str(tmp_path / "missing.json"))
    assert code == 1 and "error" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "outcomes": [{"label": 0, "effect": [[[1,0],[0,0]],[[0,0],"x"]]}]}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "outcomes[0].effect[1][1]" in err

    code, _, err = run(capsys, "gen", "--kind", "nope")
    assert code == 1

    code, _, err = run(capsys, "gen", "--kind", "ea")  # missing --a
    assert code == 1
    assert "--a" in err


def test_invalid_povm_fails_validation(tmp_path, capsys):
    doc = {
        "dim": 2,
        "outcomes": [
            {"label": 0, "effect": [[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
            {"label": 1, "effect": [[[0, 0], [0, 0]], [[0, 0], [0.25, 0]]]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "Hermitian" in out or "identity" in out


def test_config_file_defaults(tmp_path, capsys, monkeypatch):
    povm = tmp_path / "p.json"
    run(capsys, "gen", "--kind", "random", "--d", "2", "--k", "6", "--seed", "4", "-o", str(povm))

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_leaves": 2}))
    monkeypatch.setenv("POVMIX_CONFIG", str(cfg))
    code, _, _ = run(capsys, "decompose", str(povm), "-o", str(tmp_path / "m.json"))
    assert code == 3  # config cap makes it incomplete
    # explicit flag wins over the config file
    code, _, _ = run(capsys, "decompose", str(povm), "-o", str(tmp_path / "m2.json"), "--max-leaves", "64")
    assert code == 0

    cfg.write_text(json.dumps({"max_leafs": 2}))
    code, _, err = run(capsys, "decompose", str(povm), "-o", str(tmp_path / "m3.json"))
    assert code == 1
    assert "unknown keys" in err


def test_readme_configuration_lists_every_config_key():
    """The JSON block under README "Configuration" names exactly the Config
    keys, with their defaults, so the two cannot drift apart."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    documented = json.loads(block)
    assert list(documented) == [f.name for f in dataclasses.fields(Config)]
    assert Config(**documented) == Config()


def test_public_surface_exports_every_documented_entry_point():
    """Every name in povmix.__all__ resolves, and every entry point named
    under README "Library" is exported."""
    missing = [name for name in povmix.__all__ if not hasattr(povmix, name)]
    assert missing == []
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"povmix\.(\w+)", section)) | set(re.findall(r"`(\w+)`", section))
    assert len(named) > 10
    assert sorted(named - set(povmix.__all__)) == []


def test_config_label_tol_reaches_extremal_check_and_two_stage(tmp_path, capsys, monkeypatch):
    # (0, 0, 1) and (0, 0, 1 + 1e-7) are two outcomes under the default
    # label_tol and one under label_tol = 1e-6
    up, near_up, down = (0.0, 0.0, 1.0), (0.0, 0.0, 1.0 + 1e-7), (0.0, 0.0, -1.0)
    p0 = np.diag([1.0, 0.0]).astype(np.complex128)
    p1 = np.diag([0.0, 1.0]).astype(np.complex128)
    povm = tmp_path / "p.json"
    povm.write_text(
        dumps(povm_to_jsonable(FinitePOVM(2, (up, near_up, down), np.array([p0 / 2, p0 / 2, p1]))))
    )
    mixture = ExtremalMixture(
        2,
        tuple(
            MixtureComponent(0.5, FinitePOVM(2, (label, down), np.array([p0, p1])))
            for label in (up, near_up)
        ),
        True,
    )
    mix = tmp_path / "mix.json"
    mix.write_text(dumps(mixture_to_jsonable(mixture)))
    state = tmp_path / "rho.json"
    state.write_text(dumps(state_to_jsonable(DensityState(2, np.eye(2) / 2))))
    cfg = tmp_path / "cfg.json"
    monkeypatch.setenv("POVMIX_CONFIG", str(cfg))

    for label_tol, verdict_code, n_labels in ((None, 2, 3), (1e-6, 0, 2)):
        if label_tol is None:
            cfg.unlink(missing_ok=True)
        else:
            cfg.write_text(json.dumps({"label_tol": label_tol}))
        code, _, _ = run(capsys, "extremal-check", str(povm))
        assert code == verdict_code
        code, out, _ = run(
            capsys, "sample", "two-stage", str(mix), "--state", str(state), "--n", "1000"
        )
        assert code == 0
        assert len(json.loads(out)["counts"]) == n_labels


def _write_povm(path, effects):
    path.write_text(dumps(povm_to_jsonable(FinitePOVM(2, range(len(effects)), np.array(effects)))))
    return str(path)


def _rank_tol_case(tmp_path):
    # diag(1, 1e-12) has rank 1 under the default rank_tol and rank 2 under
    # 1e-13, which makes the block dimension 5 > d^2
    effects = [np.diag([1.0, 1e-12]), np.diag([0.0, 1.0 - 1e-12])]
    return ["extremal-check", _write_povm(tmp_path / "p.json", effects)]


def _margin_case(tmp_path):
    # two rank-one effects with Bloch vectors 2e-4 rad apart: the map's
    # smallest singular value is 5e-5, above the default cut, below 1e-3's
    eps = 1e-4
    c = 1.0 / (2.0 + 2.0 * np.cos(eps))
    effects = [
        bloch_effect((np.sin(eps), 0.0, np.cos(eps)), c),
        bloch_effect((-np.sin(eps), 0.0, np.cos(eps)), c),
        bloch_effect((0.0, 0.0, -1.0), 2.0 * c * np.cos(eps)),
    ]
    return ["extremal-check", _write_povm(tmp_path / "p.json", effects)]


def _psd_case(tmp_path):
    # smallest eigenvalue -1e-8: rejected at psd_tol 1e-10, accepted at 1e-6
    effects = [np.diag([1.0 + 1e-8, 0.0]), np.diag([-1e-8, 1.0])]
    return ["validate", _write_povm(tmp_path / "p.json", effects)]


@pytest.mark.parametrize("command", ["validate", "extremal-check", "decompose"])
@pytest.mark.parametrize("psd_tol, code", [(None, 1), (1e-6, 0)], ids=["default", "1e-6"])
def test_psd_tol_reaches_every_effect_check(tmp_path, capsys, monkeypatch, command, psd_tol, code):
    """validate, extremal-check and decompose accept the same effects at
    every psd_tol: the configured key reaches the map's PSD rule, not only
    validate's."""
    cfg = tmp_path / "cfg.json"
    if psd_tol is not None:
        cfg.write_text(json.dumps({"psd_tol": psd_tol}))
    monkeypatch.setenv("POVMIX_CONFIG", str(cfg))
    got, out, err = run(capsys, command, _psd_case(tmp_path)[1])
    assert got == code
    assert ("not PSD" in out + err) == bool(code)


def _seed_case(tmp_path):
    return ["gen", "--kind", "random", "--d", "2", "--k", "3"]


@pytest.mark.parametrize(
    "key, value, case, codes",
    [
        ("rank_tol", 1e-13, _rank_tol_case, (0, 2)),
        ("extremality_margin_factor", 1e-3, _margin_case, (0, 2)),
        ("psd_tol", 1e-6, _psd_case, (1, 0)),
        ("seed", 1, _seed_case, (0, 0)),
    ],
)
def test_config_key_changes_its_command(tmp_path, capsys, monkeypatch, key, value, case, codes):
    """Each config key reaches its command: the same command gives another
    result with the key set in the config file."""
    argv = case(tmp_path)
    cfg = tmp_path / "cfg.json"
    monkeypatch.setenv("POVMIX_CONFIG", str(cfg))
    default = run(capsys, *argv)
    cfg.write_text(json.dumps({key: value}))
    configured = run(capsys, *argv)
    assert (default[0], configured[0]) == codes
    assert default[1] != configured[1]


def _pipeline(tmp_path, povmix_cmd, a):
    """Run ``gen --kind ea --a <a> | extremal-check -`` through a real sh pipe.

    The child processes import the same povmix package as this process and
    see a config path that does not exist, so they run on pure defaults.
    """
    env = dict(os.environ)
    src = str(Path(povmix.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["POVMIX_CONFIG"] = str(tmp_path / "absent-config.json")
    pipeline = f"{povmix_cmd} gen --kind ea --a {a} | {povmix_cmd} extremal-check -"
    return subprocess.run(
        ["sh", "-c", pipeline], capture_output=True, text=True, timeout=60, env=env
    )


MODULE_CMD = f"{shlex.quote(sys.executable)} -m povmix"

# One round of the library on a point-labelled and an integer-labelled input;
# prints the modules it imports after povmix itself.
_ROUND = """
import sys
import povmix
from povmix import serialize as ser
before = set(sys.modules)
rho = povmix.gen_random_state(2, seed=0)
for povm in (povmix.gen_covariant_sphere(20, seed=0), povmix.gen_random_povm(2, 6, seed=1)):
    assert povmix.validate_povm(povm).is_valid
    povmix.is_extreme(povm)
    mixture = povmix.decompose_extremal(povm)
    povmix.verify_barycenter(povm, mixture)
    povmix.sample_direct(povm, rho, 1000, seed=1)
    povmix.sample_two_stage(mixture, rho, 1000, seed=1)
    ser.mixture_from_jsonable(ser.loads(ser.dumps(ser.mixture_to_jsonable(mixture))))
print(*sorted(set(sys.modules) - before))
"""


def test_a_round_imports_no_numpy_module_but_random():
    # numpy loads some submodules on first use (np.unique loads numpy.ma);
    # each one lands in the benchmark's peak_rss_mb
    env = dict(os.environ)
    src = str(Path(povmix.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _ROUND], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    late = [m for m in proc.stdout.split() if m.startswith("numpy.")]
    assert all(m.startswith("numpy.random") for m in late), late


def test_console_script_pipeline(tmp_path):
    # `python -m povmix` composes through a shell pipe without being installed
    proc = _pipeline(tmp_path, MODULE_CMD, 0.8)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout)["extreme"] is True


def test_module_pipeline_passes_exit_code(tmp_path):
    # a non-extreme verdict must reach the shell as exit code 2
    proc = _pipeline(tmp_path, MODULE_CMD, 0)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout)["extreme"] is False


@pytest.mark.skipif(shutil.which("povmix") is None, reason="povmix console script not on PATH")
def test_installed_console_script_pipeline(tmp_path):
    # the installed entry point composes through a shell pipe
    proc = _pipeline(tmp_path, "povmix", 0.8)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout)["extreme"] is True
