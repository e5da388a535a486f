"""CLI contract tests: values, exit codes, file formats, reproducibility."""
import json
import pathlib
import warnings

import numpy as np
import pytest

from entkit import channel, cli, statezoo
from entkit.qcore import DomainError
from fixtures import make_command_digests, make_figure_digests

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PINNED_FIGURE_DIGESTS = json.loads((FIXTURES / "figure_digests.json").read_text())
PINNED_COMMAND_DIGESTS = json.loads((FIXTURES / "command_digests.json").read_text())


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


def test_measure_negative_restarts_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "measure", "--state", "mjwk:C=0.5",
                             "--kind", "singlet_fraction", "--restarts", "-3")
    assert code == 3 and out == ""
    assert "restarts" in err


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


def test_figure_bytes_match_pinned_digests():
    assert make_figure_digests.digests() == PINNED_FIGURE_DIGESTS


def test_measure_and_protocol_bytes_match_pinned_digests():
    got = make_command_digests.digests()
    assert got.keys() == PINNED_COMMAND_DIGESTS.keys()
    assert [cmd for cmd, digest in got.items() if digest != PINNED_COMMAND_DIGESTS[cmd]] == []


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


@pytest.mark.parametrize("c2,named", [("-1", "got -1.0"), ("-inf", "got -inf"), ("nan", "got nan")])
def test_secret_share_c2_outside_its_domain_is_a_domain_error_naming_it(capsys, c2, named):
    code, out, err = _run_without_runtime_warnings(capsys, "protocol", "secret-share", f"--c2={c2}")
    assert code == 3
    assert out == ""
    assert named in err


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
