"""CLI contract tests: values, exit codes, file formats, reproducibility."""
import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entkit import channel, cli, cloning, protocols, statezoo
from entkit.qcore import DomainError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def test_measure_werner_concurrence(capsys):
    code, out, _ = run_cli(capsys, "measure", "--state", "werner:F=0.75",
                           "--kind", "concurrence")
    assert code == 0
    assert out.strip() == "0.5"


def test_measure_bell_negativity(capsys):
    code, out, _ = run_cli(capsys, "measure", "--state", "bell:1",
                           "--kind", "negativity")
    assert code == 0
    assert out.strip() == "1"


def test_measure_nmems_above_root_is_unentangled(capsys):
    code, out, _ = run_cli(capsys, "measure", "--state", "nmems:p=0.3",
                           "--kind", "concurrence")
    assert code == 0
    assert float(out) == 0.0


def test_measure_prints_twelve_significant_digits(capsys):
    code, out, _ = run_cli(capsys, "measure", "--state", "mjwk:C=0.3",
                           "--kind", "eof")
    assert code == 0
    assert len(out.strip().replace("0.", "")) >= 11


def test_measure_exit_codes(capsys):
    code, _, err = run_cli(capsys, "measure", "--state", "werner:F=2",
                           "--kind", "concurrence")
    assert code == 3 and "domain error" in err
    code, _, err = run_cli(capsys, "measure", "--state", "unknown:x=1",
                           "--kind", "concurrence")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "measure", "--state", "werner:F",
                           "--kind", "concurrence")
    assert code == 2


def test_measure_matrix_file(tmp_path, capsys):
    rho = statezoo.werner(0.8).matrix
    payload = {"dims": [2, 2],
               "entries": [[z.real, z.imag] for z in rho.reshape(-1)]}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "measure", "--state", f"matrix:{path}",
                           "--kind", "concurrence")
    assert code == 0
    assert float(out) == pytest.approx(0.6, abs=1e-10)


@pytest.mark.parametrize("option", [("--seed", "1"), ("--restarts", "0")])
def test_measure_seed_and_restarts_are_usage_errors(capsys, option):
    # singlet_fraction and fidelity_opt print the FEF, which reads neither
    code, out, err = run_cli(capsys, "measure", "--state", "gme:n=3",
                             "--kind", "singlet_fraction", *option)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {' '.join(option)}\n")


@pytest.mark.parametrize("argv", [
    ("protocol", "cdc", "--family", "ghz", "--theta", "0.6", "--montecarlo", "10"),
    ("protocol", "secret-share", "--montecarlo", "10"),
    ("measure", "--state", "gme:n=3", "--kind", "singlet_fraction")])
def test_a_negative_seed_is_one_domain_error_line(capsys, argv):
    # measure takes no --seed, so there it is a usage error
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    if argv[0] == "measure":
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --seed -1\n")
    else:
        assert (code, out, err) == (3, "", "domain error: seed must be >= 0, got -1\n")


def test_measure_separable_negativity_prints_plain_zero(capsys):
    code, out, _ = run_cli(capsys, "measure", "--state", "cloned_mems:c2=0.2", "--kind", "negativity")
    assert (code, out) == (0, "0\n")


def test_measure_entropy_of_entanglement_on_mixed_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "measure", "--state", "werner:F=0.8",
                           "--kind", "entropy_of_entanglement")
    assert code == 3


@pytest.mark.parametrize("spec", ["liqiu_w:n=2", "bell:1", "ghz3", "w3_prototype", "gme:n=3",
                                  "pati:l=0.5", "qutrit_ghz3"])
def test_measure_entropy_of_pure_state_prints_plain_zero(capsys, spec):
    code, out, _ = run_cli(capsys, "measure", "--state", spec, "--kind", "entropy_vn")
    assert code == 0
    assert out == "0\n"


@pytest.mark.parametrize("spec", ["gme:n=3", "liqiu_w:n=3.0"])
def test_linear_entropy_of_pure_state_prints_plain_zero(capsys, spec):
    code, out, err = run_cli(capsys, "measure", "--state", spec, "--kind", "entropy_linear")
    assert code == 0, err
    assert out == "0\n"


# ---------------------------------------------------------------------------
# state specs
# ---------------------------------------------------------------------------

# documented parameters of every statezoo family
STATE_PARAMS = {
    "werner": {"F": 0.8},
    "mjwk": {"C": 0.5},
    "wei": {"x": 0.1, "y": 0.1, "a": 0.1, "b": 0.1, "gamma": 0.6},
    "werner_derivative": {"F": 0.8, "a": 0.7},
    "nmems": {"p": 0.2},
    "ih_mems": {"p1": 0.4, "p2": 0.3, "p3": 0.2, "p4": 0.1},
    "cloned_mems": {"c2": 0.6},
    "bell": {"k": 3},
    "ghz3": {},
    "ghz4": {},
    "ghz_class": {"i": 3},
    "w3_prototype": {},
    "w3_nonprototype": {},
    "pati": {"l": 2.0},
    "liqiu_w": {"n": 3},
    "qutrit_ghz3": {},
    "generalized_max_entangled": {"n": 3},
}


def _entries(state):
    return state.vector if hasattr(state, "vector") else state.matrix


def test_every_registered_family_parses_with_its_documented_parameters():
    builders = {**statezoo.PURE_FAMILIES, **statezoo.MIXED_FAMILIES}
    assert set(STATE_PARAMS) == set(builders)
    for family, params in STATE_PARAMS.items():
        if family == "bell":
            spec = f"bell:{params['k']}"
        else:
            spec = f"{family}:" + ",".join(f"{k}={v}" for k, v in params.items())
        state = cli.parse_state(spec)
        expected = builders[family](**params)
        assert state.dims == expected.dims, spec
        assert np.array_equal(_entries(state), _entries(expected)), spec


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_every_real_state_parameter_rejects_non_finite_values(bad):
    for family, params in STATE_PARAMS.items():
        for key in [k for k, v in params.items() if isinstance(v, float)]:
            spec = f"{family}:" + ",".join(
                f"{k}={bad if k == key else v}" for k, v in params.items())
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(DomainError, match=bad.lstrip("-")):
                    cli.parse_state(spec)


def test_gme_alias_matches_full_family_name(capsys):
    outputs = []
    for family in ("gme", "generalized_max_entangled"):
        code, out, err = run_cli(capsys, "measure", "--state", f"{family}:n=3",
                                 "--kind", "entropy_linear")
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("spec,message", [
    ("werner:F=0.75,typo=3", "has no parameter 'typo'"),
    ("ghz3:x=1", "has no parameter 'x'"),
    ("werner:C=0.5", "missing parameter 'F'"),
    ("liqiu_w:n=2.7", "'n' must be an integer"),
    ("ghz_class:i=1.9", "'i' must be an integer"),
    ("gme:n=inf", "'n' must be an integer"),
])
def test_state_spec_keys_must_match_the_family_parameters(capsys, spec, message):
    code, out, err = run_cli(capsys, "measure", "--state", spec, "--kind", "entropy_linear")
    assert code == 2
    assert out == ""
    assert message in err


def test_integer_parameter_accepts_an_integral_float():
    assert np.array_equal(cli.parse_state("liqiu_w:n=3.0").vector,
                          statezoo.liqiu_w(3).vector)


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------

def test_figure_unknown_id(capsys):
    code, _, err = run_cli(capsys, "figure", "9.9")
    assert code == 2


def test_figure_nmems_csv_revalidates(tmp_path, capsys):
    path = tmp_path / "fig31.csv"
    code, _, _ = run_cli(capsys, "figure", "3.1", "--points", "101",
                         "--out", str(path))
    assert code == 0
    text = path.read_bytes()
    assert b"\r" not in text
    lines = text.decode().strip().split("\n")
    assert lines[0] == "p,concurrence,n_value,m_value"
    assert len(lines) == 102
    for line in lines[1:]:
        p, con, n, m = map(float, line.split(","))
        forms = channel.closed_forms("nmems", p=p)
        assert con == pytest.approx(forms["concurrence"], abs=1e-9)
        assert n == pytest.approx(forms["n_value"], abs=1e-9)
        assert m == pytest.approx(forms["m_value"], abs=1e-9)
        assert m <= 1.0 + 1e-9


def test_figure_rows_sorted_and_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "figure", "5.3", "--points", "51",
                             "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    rows = [list(map(float, line.split(",")))
            for line in a.read_text().strip().split("\n")[1:]]
    thetas = [r[0] for r in rows]
    assert thetas == sorted(thetas)
    for theta, conc in rows:
        assert conc == pytest.approx(abs(np.sin(2 * theta)), abs=1e-9)


def test_figure_json_format(capsys):
    code, out, _ = run_cli(capsys, "figure", "5.2", "--points", "11",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["l", "theta"]
    assert payload["rows"][0][1] == pytest.approx(np.pi / 2)      # l = 0
    assert payload["rows"][-1][1] == pytest.approx(np.pi / 4)     # l = 1


@pytest.mark.parametrize("points", ["0", "1"])
def test_figure_too_few_points_is_domain_error(capsys, points):
    code, out, err = run_cli(capsys, "figure", "5.2", "--points", points)
    assert code == 3
    assert out == ""
    assert "step count must be >= 2" in err


@pytest.mark.parametrize("fig", sorted(cli.FIGURES))
def test_every_figure_renders(tmp_path, capsys, fig):
    path = tmp_path / f"fig{fig}.csv"
    code, _, _ = run_cli(capsys, "figure", fig, "--points",
                         "9" if fig in ("5.4", "5.6") else "17",
                         "--out", str(path))
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert len(lines) > 2


@pytest.mark.parametrize("module,name,figure_id", [
    (channel, "closed_forms", "3.1"), (protocols, "cdc_closed_forms", "5.4")])
def test_closed_form_figure_calls_its_closed_form_once(monkeypatch, tmp_path, module, name,
                                                       figure_id):
    calls, form = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return form(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    assert cli.main(["figure", figure_id, "--out", str(tmp_path / "fig.csv")]) == 0
    assert len(calls) == 1


def test_figure_4_1_builds_the_whole_d_grid_at_once(monkeypatch, capsys):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cloning, "qutrit_cloned_pairs",
                        counted("qutrit_cloned_pairs", cloning.qutrit_cloned_pairs))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    counts = []
    for points in (("--points", "7"), ()):
        calls.clear()
        assert run_cli(capsys, "figure", "4.1", *points)[0] == 0
        counts.append({name: calls.count(name) for name in ("qutrit_cloned_pairs", "eigvalsh")})
    # the pairs' validation and their b marginals'
    assert counts[0] == counts[1] == {"qutrit_cloned_pairs": 1, "eigvalsh": 2}


def test_two_main_calls_build_the_parser_once(monkeypatch, capsys):
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run_cli(capsys, "measure", "--state", "bell:1", "--kind", "negativity")[0] == 0
    assert run_cli(capsys, "figure", "5.2", "--points", "3")[0] == 0
    assert built.count("entkit") == 1


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

def test_protocol_cdc_ghz(capsys):
    code, out, _ = run_cli(capsys, "protocol", "cdc", "--family", "ghz",
                           "--theta", "0.7853981633974483")
    assert code == 0
    payload = json.loads(out)
    assert payload["bits_transmitted_avg"] == pytest.approx(2.0, abs=1e-9)
    assert payload["success_probability"] == pytest.approx(1.0, abs=1e-9)


def test_protocol_cdc_w3(capsys):
    code, out, _ = run_cli(capsys, "protocol", "cdc", "--family", "w3",
                           "--theta", "0.7853981633974483")
    assert code == 0
    payload = json.loads(out)
    assert payload["maximally_entangled"] is False
    assert payload["shared_concurrence"] == pytest.approx(np.sqrt(2) / 2, abs=1e-9)


def test_protocol_secret_share(capsys):
    code, out, _ = run_cli(capsys, "protocol", "secret-share",
                           "--c2", "0.6666666666666666")
    assert code == 0
    payload = json.loads(out)
    assert payload["success_probability"] == pytest.approx(4 / 9, abs=1e-9)


def test_protocol_domain_error_propagates_as_exit_three(capsys):
    code, _, err = run_cli(capsys, "protocol", "cdc", "--family", "w3",
                           "--theta", "1.2")
    assert code == 3
    code, _, err = run_cli(capsys, "protocol", "secret-share", "--c2", "0.2")
    assert code == 3


def test_protocol_unknown_name_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "protocol", "bogus")
    assert code == 2
    assert out == ""
    assert "invalid choice: 'bogus'" in err


@pytest.mark.parametrize("c2,named", [("-1", "got -1.0"), ("-inf", "got -inf"), ("nan", "got nan"),
                                      ("0.3", "c^2 must lie in (1/3, 1], got 0.3"),
                                      ("0.3333333333333333", "got 0.3333333333333333"),
                                      ("1.0000000000000002", "got 1.0000000000000002")])
def test_secret_share_c2_outside_its_domain_is_a_domain_error_naming_it(capsys, c2, named):
    code, out, err = _run_without_runtime_warnings(capsys, "protocol", "secret-share", f"--c2={c2}")
    assert code == 3
    assert out == ""
    assert named in err


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0 / 3.0, 1.0, exclude_min=True))
# sqrt(c^2) of the first c^2 above 1/3 rounds to c = 1/sqrt(3)
@example(0.33333333333333337)
def test_every_c2_the_cli_accepts_runs(c2):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["protocol", "secret-share", f"--c2={c2!r}"])
    assert code == 0, err.getvalue()
    assert json.loads(out.getvalue())["c"] == np.sqrt(c2)


@pytest.mark.parametrize("head,option,value", [
    (["protocol", "cdc"], "--theta", "-1e-3"),
    (["protocol", "cdc"], "--theta", "-inf"),
    (["protocol", "cdc", "--montecarlo", "10"], "--theta", "0.6"),
    (["protocol", "cdc", "--family", "ghz4", "--theta", "0.6"], "--epsilon", "-1e-3"),
    (["protocol", "cdc", "--family", "pati"], "--l", "-1e-3"),
    (["protocol", "secret-share"], "--c2", "-inf"),
    (["measure", "--state", "bell:1", "--kind", "entropy_vn"], "--base", "-1e-3"),
])
def test_float_option_value_spaced_or_joined_gives_the_same_bytes(capsys, head, option, value):
    spaced = _run_without_runtime_warnings(capsys, *head, option, value)
    assert spaced == _run_without_runtime_warnings(capsys, *head, f"{option}={value}")
    assert spaced[0] != 2, spaced


@pytest.mark.parametrize("head,option,value,code", [
    (["protocol", "cdc"], "--the", "-1e-3", 0),
    (["protocol", "cdc", "--family", "ghz4", "--theta", "0.6"], "--eps", "-1e-3", 0),
    # ambiguous: --c2, --class-index and --charlie-bit
    (["protocol", "cdc"], "--c", "-0.5", 2),
])
def test_float_option_prefix_spaced_or_joined_gives_the_same_bytes(capsys, head, option, value,
                                                                   code):
    spaced = _run_without_runtime_warnings(capsys, *head, option, value)
    assert spaced == _run_without_runtime_warnings(capsys, *head, f"{option}={value}")
    assert spaced[0] == code, spaced


def test_protocol_montecarlo_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "protocol", "cdc", "--family", "ghz",
                             "--theta", "0.6", "--montecarlo", "500",
                             "--seed", "9", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["montecarlo"]["exact_success"] == pytest.approx(
        2 * np.sin(0.6) ** 2, abs=1e-12)


CDC_FAMILY_ARGS = [
    ["--family", "ghz", "--theta", "0.6"],
    ["--family", "ghz_class", "--theta", "0.6", "--class-index", "1"],
    ["--family", "pati", "--l", "0.5"],
    ["--family", "ghz4", "--theta", "0.6", "--epsilon", "0.5"],
    ["--family", "w3", "--theta", "0.6"],
    ["--family", "w4", "--theta", "1.0", "--epsilon", "1.0"],
    ["--family", "liqiu_w", "--n", "3"],
    ["--family", "qutrit_ghz", "--theta", "0.9"],
]


@pytest.mark.parametrize("family_args", CDC_FAMILY_ARGS, ids=lambda a: a[1])
def test_protocol_montecarlo_bytes_repeat_for_every_family(tmp_path, capsys, family_args):
    outputs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, err = run_cli(capsys, "protocol", "cdc", *family_args, "--montecarlo", "500",
                               "--seed", "9", "--out", str(path))
        assert code == 0, err
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert sum(json.loads(outputs[0])["montecarlo"]["counts"].values()) == 500


@pytest.mark.parametrize("family_args", [a for a in CDC_FAMILY_ARGS if "--theta" in a],
                         ids=lambda a: a[1])
def test_protocol_cdc_without_theta_is_a_domain_error_naming_it(capsys, family_args):
    at = family_args.index("--theta")
    argv = family_args[:at] + family_args[at + 2:]
    code, out, err = run_cli(capsys, "protocol", "cdc", *argv, "--montecarlo", "100")
    assert code == 3
    assert out == ""
    assert f"{family_args[1]} needs the controller angle theta" in err


@pytest.mark.parametrize("argv", [
    ["cdc", "--family", "ghz", "--theta", "0.6", "--montecarlo", "-5"],
    ["secret-share", "--montecarlo", "-5"],
])
def test_protocol_negative_montecarlo_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, "protocol", *argv)
    assert code == 3
    assert out == ""
    assert "sample count" in err


def _run_without_runtime_warnings(capsys, *argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return run_cli(capsys, *argv)


@pytest.mark.parametrize("argv,named", [
    (["measure", "--state", "wei:x=nan,y=0.1,a=0.2,b=0.2,gamma=0.4", "--kind", "concurrence"],
     "wei parameter x must be >= 0, got nan"),
    (["measure", "--state", "pati:l=nan", "--kind", "entropy_vn"], "l must be finite and > 0, got nan"),
    (["measure", "--state", "pati:l=inf", "--kind", "entropy_vn"], "l must be finite and > 0, got inf"),
    (["measure", "--state", "bell:1", "--kind", "entropy_vn", "--base", "nan"], "got nan"),
    (["protocol", "cdc", "--theta", "nan"], "theta must be finite, got nan"),
    (["protocol", "cdc", "--theta", "inf"], "theta must be finite, got inf"),
    (["protocol", "cdc", "--theta", "nan", "--montecarlo", "10"], "theta must be finite, got nan"),
    (["protocol", "cdc", "--family", "ghz4", "--theta", "0.6", "--epsilon", "inf"],
     "epsilon must be finite, got inf"),
    (["protocol", "cdc", "--family", "pati", "--l", "nan"], "l must be finite, got nan"),
    (["protocol", "cdc", "--family", "qutrit_ghz", "--theta", "inf"], "theta must be finite, got inf"),
])
def test_non_finite_parameters_are_domain_errors_naming_the_value(capsys, argv, named):
    code, out, err = _run_without_runtime_warnings(capsys, *argv)
    assert code == 3
    assert out == ""
    assert named in err


@pytest.mark.parametrize("entry", [float("nan"), float("inf")])
def test_non_finite_matrix_file_entry_is_a_domain_error(tmp_path, capsys, entry):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps({"dims": [2], "entries": [[0.5, 0], [entry, 0], [entry, 0],
                                                        [0.5, 0]]}))
    code, out, err = _run_without_runtime_warnings(
        capsys, "measure", "--state", f"matrix:{path}", "--kind", "entropy_vn")
    assert code == 3
    assert f"non-finite entry ({entry}+0j)" in err


def test_protocol_montecarlo_zero_means_off(capsys):
    code, out, _ = run_cli(capsys, "protocol", "cdc", "--family", "ghz", "--theta", "0.6",
                           "--montecarlo", "0")
    assert code == 0
    assert "montecarlo" not in json.loads(out)


@pytest.mark.parametrize("family_args,outcome", [
    (["--family", "ghz", "--theta", "0.6"], "x"),
    (["--family", "ghz4", "--theta", "0.6", "--epsilon", "0.5"], "xy"),
    (["--family", "liqiu_w", "--n", "3"], "q"),
])
def test_protocol_unknown_controller_outcome_is_domain_error(capsys, family_args, outcome):
    code, out, err = run_cli(capsys, "protocol", "cdc", *family_args, "--outcome", outcome)
    assert code == 3
    assert out == ""
    assert "unknown controller outcome" in err


# ---------------------------------------------------------------------------
# cold commands: each runs in a fresh interpreter
# ---------------------------------------------------------------------------

def _fresh_python(*args) -> subprocess.CompletedProcess:
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


def _loaded_after(code: str) -> set:
    """The entkit modules a fresh interpreter has loaded after running code."""
    code += "\nimport sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'entkit'))"
    done = _fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split("\n")[-2].split())


def _run_quietly(argv: list) -> str:
    return ("import contextlib, io\nfrom entkit import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n")


# the modules `entkit.cli` loads before it runs a command
_CLI = {"qcore", "statezoo", "measures", "cli"}


# one case per row of README's table of the modules a command loads
@pytest.mark.parametrize("code,modules", [
    ("import entkit", {"qcore"}),
    (_run_quietly(["measure", "--state", "werner:F=0.75", "--kind", "concurrence"]), _CLI),
    (_run_quietly(["measure", "--state", "werner:F=0.75", "--kind", "m_value"]),
     _CLI | {"channel"}),
    (_run_quietly(["figure", "3.1", "--points", "3"]), _CLI | {"channel"}),
    (_run_quietly(["figure", "4.2", "--points", "2"]), _CLI | {"cloning"}),
    (_run_quietly(["figure", "5.4", "--points", "2"]), _CLI | {"protocols"}),
    (_run_quietly(["protocol", "cdc", "--theta", "0.6", "--montecarlo", "10"]),
     _CLI | {"protocols"}),
    (_run_quietly(["protocol", "secret-share", "--montecarlo", "10"]),
     _CLI | {"protocols", "cloning"}),
], ids=["import", "measure", "measure-channel", "figure-3.1", "figure-4.2", "figure-5.4",
        "protocol-cdc", "protocol-secret-share"])
def test_a_cold_command_loads_only_the_modules_it_runs(code, modules):
    assert _loaded_after(code) == {"entkit", *(f"entkit.{name}" for name in modules)}


def test_submodules_load_on_first_access():
    loaded = _loaded_after(
        "import entkit\n"
        "assert entkit.channel.closed_forms('werner', C=0.5)['concurrence'] == 0.5\n"
        "from entkit import cloning\n"
        "assert entkit.cloning is cloning\n"
        "assert set(entkit.__all__) <= set(dir(entkit))\n")
    assert {"entkit.channel", "entkit.cloning"} <= loaded


COLD_COMMANDS = [
    ["measure", "--state", "mjwk:C=0.4", "--kind", "fidelity_opt"],
    ["figure", "3.3", "--points", "5"],
    ["figure", "4.3", "--points", "3"],
    ["figure", "5.6", "--points", "3", "--format", "json"],
    ["protocol", "cdc", "--family", "pati", "--l", "0.5", "--montecarlo", "50", "--seed", "2"],
    ["protocol", "secret-share", "--c2", "0.8", "--charlie-bit", "1", "--montecarlo", "50"],
    ["measure", "--state", "werner:F=0.75", "--kind", "bogus"],
    ["protocol", "cdc", "--family", "w3", "--theta", "1.0"],
]


@pytest.mark.parametrize("argv", COLD_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_a_cold_command_gives_the_bytes_of_an_in_process_one(capsys, argv):
    cold = _fresh_python("-m", "entkit.cli", *argv)
    assert (cold.returncode, cold.stdout, cold.stderr) == run_cli(capsys, *argv)
