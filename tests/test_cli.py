import argparse
import hashlib
import json
import os
import re
import timeit
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from mdpgeo import cli
from mdpgeo.cli import (
    EX_CANTCREAT,
    EX_CAP,
    EX_DATAERR,
    EX_NOINPUT,
    EX_OK,
    EX_USAGE,
    main,
    mdp_from_json,
    mdp_to_json,
    trace_from_csv,
    trace_to_csv,
)
from mdpgeo.core import Action, Mdp, ModelError
from mdpgeo.fixtures import m2, m2_mix
from mdpgeo.gen import GenSpec, generate
from mdpgeo.solvers import ViConfig, solve_exact, value_iteration
from mdpgeo.transforms import normalize

from conftest import loop_spans


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(mdp_to_json(m2_mix()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


class TestModelFile:
    def test_round_trip_identity(self, tmp_path):
        first = mdp_to_json(m2())
        reparsed = mdp_from_json(first)
        assert mdp_to_json(reparsed) == first
        assert reparsed.gamma == 0.9
        np.testing.assert_array_equal(reparsed.P, m2().P)

    def test_full_precision_floats(self):
        mdp = m2_mix()
        text = mdp_to_json(mdp)
        again = mdp_from_json(text)
        assert all(
            np.array_equal(a.probs, b.probs) and a.reward == b.reward
            for a, b in zip(mdp.actions, again.actions)
        )

    @pytest.mark.parametrize("aid", ["s0", 'say "hi"', "back\\slash", "naïve", "日本\t"])
    def test_writer_matches_json_dumps(self, aid):
        odd = (5e-324, -0.0, 1e16, 0.0, float("nan"), float("inf"), -1e-300, 0.1)
        sparse = (0.0,) * 5 + (-0.0, 0.0, 5e-324) + (0.0,) * 8 + (1.0,)
        mdp = Mdp(len(sparse), (
            Action(aid, 0, sparse, -0.0),
            Action(aid + "2", 1, odd + (0.0,) * (len(sparse) - len(odd)), 1e16),
            Action("x", -3, (0.0,) * len(sparse), float("nan")),
        ), 5e-324)
        doc = {
            "version": 1,
            "n_states": mdp.n_states,
            "gamma": mdp.gamma,
            "actions": [
                {"id": a.id, "state": a.state, "probs": [float(p) for p in a.probs],
                 "reward": a.reward}
                for a in mdp.actions
            ],
        }
        assert mdp_to_json(mdp) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize(
        "mdp", [Mdp(0, (), 0.9), Mdp(2, (), 0.9), Mdp(0, (Action("a", 0, (), 1.0),), 0.9)]
    )
    def test_writer_matches_json_dumps_when_empty(self, mdp):
        doc = {"version": 1, "n_states": mdp.n_states, "gamma": mdp.gamma,
               "actions": [{"id": a.id, "state": a.state, "probs": [], "reward": a.reward}
                           for a in mdp.actions]}
        assert mdp_to_json(mdp) == json.dumps(doc, indent=2) + "\n"

    def test_unknown_field_rejected(self):
        doc = json.loads(mdp_to_json(m2()))
        doc["comment"] = "nope"
        with pytest.raises(Exception, match="unknown fields"):
            mdp_from_json(json.dumps(doc))

    def test_unknown_action_field_rejected(self):
        doc = json.loads(mdp_to_json(m2()))
        doc["actions"][0]["label"] = "x"
        with pytest.raises(Exception, match="unknown fields"):
            mdp_from_json(json.dumps(doc))

    def test_version_checked(self):
        doc = json.loads(mdp_to_json(m2()))
        doc["version"] = 2
        with pytest.raises(Exception, match="version"):
            mdp_from_json(json.dumps(doc))


class TestTraceFile:
    def test_round_trip_exact(self):
        trace = value_iteration(m2_mix(), ViConfig(stop="time", t_max=7))
        text = trace_to_csv(trace)
        back = trace_from_csv(text)
        np.testing.assert_array_equal(back.values, trace.values)
        np.testing.assert_array_equal(back.active_counts, trace.active_counts)
        assert back.stop_reason == trace.stop_reason
        assert back.content_hash() == trace.content_hash()
        assert back.rows.shape == (0, 2) and back.policies == ()

    @pytest.mark.parametrize("cfg", [
        ViConfig(stop="time", t_max=30),
        ViConfig(stop="span", epsilon=1e-6),
        ViConfig(stop="span", epsilon=1e-6, v0="given", v0_values=(-0.0, 0.0, -0.0, 0.0)),
        ViConfig(stop="value_span", epsilon=1e-3),
        ViConfig(alpha=0.5, stop="span", epsilon=1e-6),
        ViConfig(stop="time", t_max=40, schedule="round_robin", round_robin_k=3),
        ViConfig(stop="span", epsilon=1e-6, schedule="explicit", explicit_sets=((0, 1), (2, 3))),
        ViConfig(stop="actions", filter="appendix", v0="upper_bound"),
        ViConfig(stop="span", epsilon=1e-6, filter="appendix", v0="upper_bound"),
    ], ids=repr)
    def test_writer_prints_the_per_row_loop_spans(self, cfg):
        mdp = generate(GenSpec(n_states=4, gamma=0.9, seed=17, max_actions=3))
        # a normalized model's values lie near 0, of either sign; the filter needs rewards in [0, 1]
        for model in (mdp,) if cfg.filter == "appendix" else (mdp, normalize(mdp)[0]):
            trace = value_iteration(model, cfg)
            span_v, span_dv = loop_spans(trace.values)
            assert trace_to_csv(trace) == _reference_trace_csv(trace, span_v, span_dv)

    def test_row_count_and_endings(self):
        trace = value_iteration(m2_mix(), ViConfig(stop="time", t_max=3))
        text = trace_to_csv(trace)
        assert "\r" not in text
        lines = text.strip().split("\n")
        assert len(lines) == 1 + 4  # header + V_0..V_3


class TestCommands:
    def test_generate_is_deterministic(self, tmp_path, capsys):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        code1, cap1 = run(capsys, "generate", "--seed", "5", "--n-states", "3",
                          "--gamma", "0.9", "--out", out1)
        code2, cap2 = run(capsys, "generate", "--seed", "5", "--n-states", "3",
                          "--gamma", "0.9", "--out", out2)
        assert code1 == code2 == EX_OK
        assert open(out1).read() == open(out2).read()
        assert cap1.out == cap2.out

    def test_solve_vi_matches_library(self, model_path, tmp_path, capsys):
        trace_path = str(tmp_path / "t.csv")
        code, cap = run(capsys, "solve-vi", "--mdp", model_path,
                        "--stop", "span:1e-8", "--trace", trace_path)
        assert code == EX_OK
        doc = json.loads(cap.out)
        assert doc["policy"] == list(solve_exact(m2_mix()).policy.choice)
        assert doc["stop_reason"] == "span"
        assert os.path.exists(trace_path)

    def test_solve_vi_time_zero(self, model_path, tmp_path, capsys):
        trace_path = str(tmp_path / "t.csv")
        code, cap = run(capsys, "solve-vi", "--mdp", model_path,
                        "--stop", "time:0", "--trace", trace_path)
        assert code == EX_OK
        assert len(open(trace_path).read().strip().split("\n")) == 2  # header + row 0

    def test_cap_exit_code(self, tmp_path, capsys):
        # the value span converges to span(V*) > 0, so a vspan stop at 1e-30
        # can never fire and the run must abort at the iteration cap
        path = tmp_path / "flat.json"
        path.write_text(mdp_to_json(m2()))
        code, cap = run(capsys, "solve-vi", "--mdp", str(path), "--stop", "vspan:1e-30",
                        "--v0", "file:" + _values_file(tmp_path, [0.0, 5.0]))
        assert code == EX_CAP
        assert json.loads(cap.out)["stop_reason"] == "cap"

    def test_usage_errors(self, model_path, capsys):
        code, cap = run(capsys, "solve-vi", "--mdp", model_path, "--stop", "bogus")
        assert code == EX_USAGE
        code, cap = run(capsys, "solve-vi", "--mdp", model_path, "--stop", "actions")
        assert code == EX_USAGE  # action stop without the filter
        code, cap = run(capsys)
        assert code == EX_USAGE

    def test_missing_input(self, capsys, tmp_path):
        code, cap = run(capsys, "solve-vi", "--mdp", str(tmp_path / "absent.json"))
        assert code == EX_NOINPUT
        assert cap.err.startswith("error:input:")

    def test_invalid_model_data(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = json.loads(mdp_to_json(m2()))
        doc["gamma"] = 1.5
        bad.write_text(json.dumps(doc))
        code, cap = run(capsys, "solve-vi", "--mdp", str(bad))
        assert code == EX_DATAERR

    def test_unwritable_output(self, model_path, tmp_path, capsys):
        target = str(tmp_path / "no" / "such" / "dir" / "out.json")
        code, cap = run(capsys, "normalize", "--mdp", model_path, "--out", target)
        assert code == EX_CANTCREAT
        assert cap.err.startswith("error:output:")

    def test_gamma_eff_uniform_clamps(self, tmp_path, capsys):
        from mdpgeo.core import Action, Mdp

        uni = Mdp(2, (Action("a", 0, (0.5, 0.5), 0.2), Action("b", 1, (0.5, 0.5), 0.1)), 0.9)
        path = tmp_path / "uni.json"
        path.write_text(mdp_to_json(uni))
        code, cap = run(capsys, "gamma-eff", "--mdp", str(path))
        assert code == EX_OK
        doc = json.loads(cap.out)
        assert doc["gamma_eff"] == pytest.approx(1e-6)
        assert doc["clamped"] is True

    def test_normalize_command(self, model_path, tmp_path, capsys):
        out = str(tmp_path / "norm.json")
        code, cap = run(capsys, "normalize", "--mdp", model_path, "--out", out)
        assert code == EX_OK
        norm = mdp_from_json(open(out).read())
        rewards = {a.id: a.reward for a in norm.actions}
        assert rewards["a2"] == pytest.approx(-0.01, abs=1e-9)

    def test_certify_command(self, tmp_path, capsys):
        norm, _, _ = normalize(m2_mix())
        model = tmp_path / "norm.json"
        model.write_text(mdp_to_json(norm))
        trace = value_iteration(
            norm, ViConfig(stop="time", t_max=10, v0="given", v0_values=(1.0, 0.0))
        )
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(trace_to_csv(trace))
        code, cap = run(capsys, "certify", "--mdp", str(model), "--trace", str(trace_path))
        assert code == EX_OK
        doc = json.loads(cap.out)
        assert doc["N"] == 1
        assert doc["omega"] == pytest.approx(0.5)
        assert doc["delta"] == pytest.approx(0.01, abs=1e-9)
        assert doc["margin"] >= 0

    def test_solve_pi_command(self, model_path, capsys):
        code, cap = run(capsys, "solve-pi", "--mdp", model_path, "--pi0", "first")
        assert code == EX_OK
        doc = json.loads(cap.out)
        assert doc["policy"] == ["a1", "b1"]
        np.testing.assert_allclose(doc["values"], [9.1, 8.9], atol=1e-9)

    def test_twostate_single_model(self, tmp_path, capsys):
        path = tmp_path / "m2.json"
        path.write_text(mdp_to_json(m2()))
        code, cap = run(capsys, "twostate", "--mdp", str(path))
        assert code == EX_OK
        doc = json.loads(cap.out)
        assert doc["violations"] == 0
        assert doc["max_pi_iterations"] <= 4

    def test_twostate_suite(self, capsys):
        code, cap = run(capsys, "twostate", "--suite", "50", "--seed", "3")
        assert code == EX_OK
        doc = json.loads(cap.out)
        assert doc["violations"] == 0
        assert doc["instances"] == 50

    def test_twostate_needs_mode(self, capsys):
        code, cap = run(capsys, "twostate")
        assert code == EX_USAGE

    @pytest.mark.parametrize("k", ["0", "-1", "3"])
    def test_round_robin_count_outside_the_states(self, model_path, capsys, k):
        code, cap = run(capsys, "solve-vi", "--mdp", model_path, "--schedule", f"rr:{k}")
        assert (code, cap.out) == (EX_USAGE, "")
        assert cap.err == "error:config:round_robin_k must lie in [1, n_states]\n"

    @pytest.mark.parametrize("suite", ["0", "-5"])
    def test_twostate_suite_below_one(self, capsys, monkeypatch, suite):
        code, cap = run(capsys, "twostate", "--suite", suite)
        assert (code, cap.out) == (EX_USAGE, "")
        monkeypatch.setenv("MDPGEO_SUITE", suite)
        code, cap = run(capsys, "twostate")
        assert (code, cap.out) == (EX_USAGE, "")

    @pytest.mark.parametrize("alpha", [[], ["--alpha", "0.5"]])
    @pytest.mark.parametrize("epsilon", ["0", "-1", "nan", "inf"])
    def test_certify_epsilon_must_be_finite_and_positive(self, tmp_path, capsys, epsilon,
                                                         alpha):
        norm, _, _ = normalize(m2_mix())
        model = tmp_path / "norm.json"
        model.write_text(mdp_to_json(norm))
        cfg = ViConfig(alpha=0.5 if alpha else 1.0, stop="time", t_max=20, v0="given",
                       v0_values=(1.0, 0.0))
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(trace_to_csv(value_iteration(norm, cfg)))
        code, cap = run(capsys, "certify", "--mdp", str(model), "--trace", str(trace_path),
                        "--epsilon", epsilon, *alpha)
        assert (code, cap.out) == (EX_DATAERR, "")
        assert cap.err == ("error:CertificationError:epsilon must be finite and > 0, "
                           f"got {float(epsilon)}\n")

    def test_env_variables_supply_flags(self, model_path, capsys, monkeypatch):
        monkeypatch.setenv("MDPGEO_MDP", model_path)
        monkeypatch.setenv("MDPGEO_STOP", "time:2")
        code, cap = run(capsys, "solve-vi")
        assert code == EX_OK
        assert json.loads(cap.out)["iterations"] == 2

    def test_flag_beats_env(self, model_path, capsys, monkeypatch):
        monkeypatch.setenv("MDPGEO_STOP", "time:2")
        code, cap = run(capsys, "solve-vi", "--mdp", model_path, "--stop", "time:4")
        assert code == EX_OK
        assert json.loads(cap.out)["iterations"] == 4

    def test_deterministic_stdout(self, model_path, capsys):
        code1, cap1 = run(capsys, "solve-vi", "--mdp", model_path, "--stop", "time:5")
        code2, cap2 = run(capsys, "solve-vi", "--mdp", model_path, "--stop", "time:5")
        assert cap1.out == cap2.out

    def test_round_robin_schedule_flag(self, model_path, capsys):
        code, cap = run(capsys, "solve-vi", "--mdp", model_path,
                        "--stop", "time:4", "--schedule", "rr:1")
        assert code == EX_OK
        assert json.loads(cap.out)["iterations"] == 4

    def test_filtered_run_through_cli(self, tmp_path, capsys):
        path = tmp_path / "m2.json"
        path.write_text(mdp_to_json(m2()))
        code, cap = run(capsys, "solve-vi", "--mdp", str(path), "--stop", "actions",
                        "--filter", "appendix", "--v0", "upper")
        assert code == EX_OK
        doc = json.loads(cap.out)
        assert doc["stop_reason"] == "actions"
        assert doc["active_actions"] == 2
        assert doc["policy"] == ["a2", "b1"]

    def test_generate_from_spec_file(self, tmp_path, capsys):
        spec = {"n_states": 3, "gamma": 0.9, "structure": "planted_optimal",
                "min_actions": 2, "max_actions": 3, "bonus_beta": 0.4}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = str(tmp_path / "gen.json")
        code, cap = run(capsys, "generate", "--seed", "9", "--spec", str(spec_path),
                        "--out", out)
        assert code == EX_OK
        mdp = mdp_from_json(open(out).read())
        assert mdp.n_states == 3
        assert solve_exact(mdp, brute_check=False).policy.choice == (
            "s00a00", "s01a00", "s02a00"
        )

    def test_overflowing_values_exit_65(self, tmp_path, capsys):
        # a valid model whose values overflow: every solver says so as VI does
        big = Mdp(2, (Action("a", 0, (1.0, 0.0), 1e308), Action("b", 1, (0.0, 1.0), 0.0)), 0.9)
        model = tmp_path / "big.json"
        model.write_text(mdp_to_json(big))
        for argv in (["solve-vi", "--stop", "span:1e-6"], ["solve-pi"],
                     ["normalize", "--out", str(tmp_path / "norm.json")]):
            code, cap = run(capsys, *argv, "--mdp", str(model))
            assert (code, cap.out) == (EX_DATAERR, "")
            assert cap.err == "error:ModelError:value vector has non-finite entries\n"
        code, cap = run(capsys, "gamma-eff", "--mdp", str(model))
        assert code == EX_OK
        assert json.loads(cap.out)["gamma_eff"] == 0.9

    @pytest.mark.parametrize("stop", ["time:50", "span:1e-6"])
    def test_overflowing_backup_exits_65_under_every_stop(self, stop, tmp_path, capsys):
        # the second backup is -inf in every row: the loop's greedy and the
        # final one (reached first by the span stop) report it the same way
        low = Mdp(2, (Action("a", 0, (1.0, 0.0), -1e308), Action("b", 1, (0.0, 1.0), -1e308)), 0.9)
        model = tmp_path / "low.json"
        model.write_text(mdp_to_json(low))
        code, cap = run(capsys, "solve-vi", "--mdp", str(model), "--stop", stop)
        assert (code, cap.out) == (EX_DATAERR, "")
        assert cap.err == "error:ModelError:value vector has non-finite entries\n"

    def test_disagreeing_solvers_exit_65(self, tmp_path, capsys):
        # rewards of 1e300 leave Howard and the brute-force oracle ~3e287 apart
        mdp = generate(GenSpec(n_states=3, gamma=0.99, seed=1))
        big = Mdp.from_arrays(3, 0.99, mdp.ids, mdp.state_of, mdp.P, np.full(mdp.m, 1e300))
        model = tmp_path / "big.json"
        model.write_text(mdp_to_json(big))
        code, cap = run(capsys, "normalize", "--mdp", str(model), "--out", str(tmp_path / "n"))
        assert (code, cap.out) == (EX_DATAERR, "")
        assert cap.err.startswith(
            "error:ConsistencyError:policy iteration and brute force disagree by ")

    def test_certify_underflow_exit_code(self, tmp_path, capsys):
        half = (0.5, 0.5)
        mdp = Mdp(2, (Action("a1", 0, half, 0.0), Action("a2", 0, (1.0, 0.0), -0.01),
                      Action("b1", 1, half, 0.0), Action("b2", 1, (0.0, 1.0), -0.01)), 0.9)
        model = tmp_path / "norm.json"
        model.write_text(mdp_to_json(mdp))
        trace_path = str(tmp_path / "trace.csv")
        code, _ = run(capsys, "solve-vi", "--mdp", str(model), "--stop", "time:3",
                      "--v0", f"file:{_values_file(tmp_path, [1e-310, 0.0])}",
                      "--trace", trace_path)
        assert code == EX_OK
        code, cap = run(capsys, "certify", "--mdp", str(model), "--trace", trace_path)
        assert code == EX_DATAERR
        assert cap.err.startswith("error:CertificationError:")
        assert "N=1" in cap.err

    def test_certify_alpha_through_cli(self, tmp_path, capsys):
        norm, _, _ = normalize(m2_mix())
        model = tmp_path / "norm.json"
        model.write_text(mdp_to_json(norm))
        trace = value_iteration(
            norm,
            ViConfig(alpha=0.5, stop="time", t_max=20, v0="given", v0_values=(1.0, 0.0)),
        )
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(trace_to_csv(trace))
        code, cap = run(capsys, "certify", "--mdp", str(model),
                        "--trace", str(trace_path), "--alpha", "0.5")
        assert code == EX_OK
        doc = json.loads(cap.out)
        assert doc["N_alpha"] == 1
        assert doc["margin"] >= 0


_ENV_NAMES = {f"MDPGEO_{name}" for name in (
    "SEED N_STATES GAMMA STRUCTURE MIN_ACTIONS MAX_ACTIONS SPARSE_K BETA SPEC OUT MDP ALPHA "
    "STOP FILTER SCHEDULE V0 TRACE PI0 CERT_ALPHA EPSILON SUITE").split()}
# two values each flag parses, by the flag's type
_SAMPLES = {int: ("3", "5"), float: ("0.25", "0.5"), None: ("a.json", "b.json"),
            cli._stop_spec: ("time:3", "vspan:0.5"), cli._schedule_spec: ("rr:2", "sync"),
            cli._v0_spec: ("file:v.json", "upper")}


def _value_flags():
    """(command, action) for every value-taking flag of every subcommand."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, a) for name, p in sub.choices.items() for a in p._actions
            if a.option_strings and a.nargs != 0]


def _samples(action):
    return (action.choices[-1], action.choices[0]) if action.choices else _SAMPLES[action.type]


@pytest.mark.parametrize("command,action", _value_flags(),
                         ids=lambda x: x.option_strings[0] if hasattr(x, "dest") else x)
def test_environment_variable_parses_as_its_flag(command, action, monkeypatch):
    for name in [n for n in os.environ if n.startswith("MDPGEO_")]:
        monkeypatch.delenv(name)
    required = [arg for name, other in _value_flags()
                if name == command and other.required and other.dest != action.dest
                for arg in (other.option_strings[0], _samples(other)[0])]

    def parse(*argv):
        return vars(cli._build_parser().parse_args([command, *required, *argv]))

    flag, (value, other) = action.option_strings[0], _samples(action)
    by_flag, by_other = parse(flag, value), parse(flag, other)
    assert by_flag[action.dest] != by_other[action.dest]
    if action.required:
        with pytest.raises(SystemExit):
            parse()
    monkeypatch.setenv(f"MDPGEO_{action.dest.upper()}", value)
    assert parse() == by_flag  # and the variable satisfies a required flag
    assert parse(flag, other) == by_other  # an explicit flag wins


@pytest.mark.parametrize("command,action", [(c, a) for c, a in _value_flags() if a.choices],
                         ids=lambda x: x.option_strings[0] if hasattr(x, "dest") else x)
def test_environment_value_outside_the_choices_is_the_flags_usage_error(command, action,
                                                                         monkeypatch, capsys):
    for name in [n for n in os.environ if n.startswith("MDPGEO_")]:
        monkeypatch.delenv(name)
    by_flag = run(capsys, command, action.option_strings[0], "bogus")
    monkeypatch.setenv(f"MDPGEO_{action.dest.upper()}", "bogus")
    assert run(capsys, command) == by_flag
    assert by_flag[0] == EX_USAGE and "invalid choice: 'bogus'" in by_flag[1].err


def test_generate_refuses_dense_rows_wider_than_a_thousand(tmp_path, capsys):
    code, cap = run(capsys, "generate", "--seed", "1", "--n-states", "1001",
                    "--out", str(tmp_path / "x.json"))
    assert code == EX_DATAERR
    assert cap.err == ("error:ValueError:a dense row of 1001 entries cannot keep every entry "
                       ">= 0.001\n")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("route", ["flag", "env", "spec"])
def test_generate_refuses_a_planted_bonus_below_the_reward_grid(route, tmp_path, capsys,
                                                                monkeypatch):
    argv = ["generate", "--seed", "1", "--structure", "planted_optimal",
            "--out", str(tmp_path / "x.json")]
    if route == "flag":
        argv += ["--beta", "5e-7"]
    elif route == "env":
        monkeypatch.setenv("MDPGEO_BETA", "5e-7")
    else:
        (tmp_path / "spec.json").write_text(json.dumps(
            {"n_states": 3, "gamma": 0.9, "structure": "planted_optimal", "bonus_beta": 5e-7}))
        argv += ["--spec", str(tmp_path / "spec.json")]
    code, cap = run(capsys, *argv)
    assert (code, cap.out) == (EX_DATAERR, "")
    assert cap.err == ("error:ValueError:bonus_beta must be at least 1e-06, the reward grid, "
                       "got 5e-07\n")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("gamma", [1e-310, 5e-324])
def test_solve_vi_on_a_subnormal_gamma_stops_by_span(gamma, tmp_path, capsys):
    model = tmp_path / "tiny.json"
    model.write_text(mdp_to_json(Mdp(2, (Action("a", 0, (0.5, 0.5), 1.0),
                                         Action("b", 1, (1.0, 0.0), 0.0)), gamma)))
    code, cap = run(capsys, "solve-vi", "--mdp", str(model))
    assert code == EX_OK
    doc = json.loads(cap.out)
    assert (doc["stop_reason"], doc["iterations"]) == ("span", 1)


def test_environment_variables_are_the_documented_names():
    assert {f"MDPGEO_{a.dest.upper()}" for _, a in _value_flags()} == _ENV_NAMES
    with mock.patch.object(os.environ, "get", wraps=os.environ.get) as get:
        cli._build_parser()
    assert {c.args[0] for c in get.call_args_list if c.args[0].startswith("MDPGEO_")} == _ENV_NAMES


def _values_file(tmp_path, values):
    path = tmp_path / "v0.json"
    path.write_text(json.dumps(values))
    return str(path)


DOCUMENTED_CODES = {EX_OK, EX_CAP, EX_USAGE, EX_DATAERR, EX_NOINPUT, EX_CANTCREAT}


def _model_text(edit) -> str:
    doc = json.loads(mdp_to_json(m2_mix()))
    edit(doc)
    return json.dumps(doc)


MALFORMED_MODELS = {
    "actions_not_a_list": lambda: _model_text(lambda d: d.update(actions=5)),
    "reward_is_a_list": lambda: _model_text(lambda d: d["actions"][0].update(reward=[1.0])),
    "n_states_null": lambda: _model_text(lambda d: d.update(n_states=None)),
    "n_states_infinite": lambda: _model_text(lambda d: d.update(n_states=float("inf"))),
    "state_is_an_object": lambda: _model_text(lambda d: d["actions"][1].update(state={})),
    "probs_ragged": lambda: _model_text(lambda d: d["actions"][0].update(probs=[[1.0], []])),
    "no_actions_for_a_huge_model": lambda: _model_text(
        lambda d: d.update(n_states=10**12, actions=[])),
    "no_actions_for_a_model_numpy_cannot_shape": lambda: _model_text(
        lambda d: d.update(n_states=2**63, actions=[])),
    "nested_too_deep_for_the_parser": lambda: "[" * 100_000 + "]" * 100_000,
    "probs_nested_in_every_action": lambda: _model_text(
        lambda d: [a.update(probs=[[0.5], [0.5]]) for a in d["actions"]]),
    "state_is_a_fraction": lambda: _model_text(lambda d: d["actions"][1].update(state=0.9)),
    "state_is_a_bool": lambda: _model_text(lambda d: d["actions"][0].update(state=True)),
    "n_states_is_a_fraction": lambda: _model_text(lambda d: d.update(n_states=2.5)),
    "gamma_is_a_string": lambda: _model_text(lambda d: d.update(gamma="0.9")),
    "reward_is_a_string": lambda: _model_text(lambda d: d["actions"][0].update(reward="1.0")),
    "probs_are_strings": lambda: _model_text(
        lambda d: d["actions"][0].update(probs=["0.5", "0.5"])),
    "probs_are_bools": lambda: _model_text(
        lambda d: [a.update(probs=[True, False]) for a in d["actions"]]),
    "state_out_of_range_for_an_index": lambda: _model_text(
        lambda d: d["actions"][0].update(state=10**30)),
    "reward_out_of_range_for_a_float": lambda: _model_text(
        lambda d: d["actions"][0].update(reward=10**400)),
}


def _small_model(first: str, second: str, pad: int = 0) -> str:
    """A compact model over n = 3 + pad states whose first two probs lists hold
    ``first`` and ``second`` followed by ``pad`` zeros; action k >= 2 moves to state k."""
    rows = [first + ",0" * pad, second + ",0" * pad]
    rows += [",".join("1" if j == k else "0" for j in range(3 + pad)) for k in range(2, 3 + pad)]
    actions = ",".join(f'{{"id":"a{k}","state":{k},"probs":[{body}],"reward":0.5}}'
                       for k, body in enumerate(rows))
    return f'{{"version":1,"n_states":{3 + pad},"gamma":0.9,"actions":[{actions}]}}'


# the second action's probs; a plain json reader takes "0,true,0" as 0,1,0
MALFORMED_PROBS = {
    "bool_among_numbers": "0,true,0",
    "leading_zero": "0,01,0",
    "trailing_point": "0,1.,0",
    "leading_point": ".5,.5,0",
    "plus_sign": "0,+1,0",
    "space_for_a_comma": "0,0.5 0.5",
    "zero_split_by_a_space": "0,1,0 .0",
    "nan": "NaN,1,0",
    "infinity": "0,Infinity,0",
    "null": "null,1,0",
    "string_holding_a_bracket": '0,"0]",0',
    "empty_field": "0,,1",
    "non_ascii_space": "0,1,\u00a00",
    "too_few_fields": "0,1",
}
# numpy reads the rows of a model that is mostly zeros, json those of others: try both;
# the zero-heavy model pads every row with 9 zeros, so 11 of 12 fields are zeros
FIRST_ROWS = {"zero_heavy": ("1,0,0", 9), "dense": ("0.5,0.25,0.25", 0)}
MALFORMED_MODELS.update({
    f"probs_{case}_{order}": lambda body=body, row=row, pad=pad: _small_model(row, body, pad)
    for case, body in MALFORMED_PROBS.items() for order, (row, pad) in FIRST_ROWS.items()
})
MALFORMED_MODELS["id_missing_its_closing_quote"] = lambda: _small_model(
    "1,0,0", "0,1,0").replace('"id":"a0"', '"id":"a0', 1)
MALFORMED_MODELS.update({  # 4 + 2 + 3 fields, each row padded alike: m * n in all, not n per row
    f"probs_ragged_rows_fill_the_matrix_{order}": lambda row=row, pad=pad: _small_model(
        row + ",0", "0.00,1", pad)
    for order, (row, pad) in FIRST_ROWS.items()
})


def _trace_lines(tmp_path) -> tuple[str, list[str]]:
    norm, _, _ = normalize(m2_mix())
    model = tmp_path / "norm.json"
    model.write_text(mdp_to_json(norm))
    trace = value_iteration(
        norm, ViConfig(stop="time", t_max=10, v0="given", v0_values=(1.0, 0.0))
    )
    return str(model), trace_to_csv(trace).splitlines()


def _set_field(lines, row, col, text):
    parts = lines[row].split(",")
    parts[col] = text
    lines[row] = ",".join(parts)
    return lines


MALFORMED_TRACES = {
    "truncated_row": lambda ls: ls[:2] + [",".join(ls[2].split(",")[:3])] + ls[3:],
    "width_is_not_n_states": lambda ls: [ls[0] + ",value_2"] + [ln + ",0.0" for ln in ls[1:]],
    "infinite_value": lambda ls: _set_field(ls, 3, -1, "inf"),
    "nan_value": lambda ls: _set_field(ls, 3, 5, "nan"),
    "non_numeric_value": lambda ls: _set_field(ls, 2, -1, "abc"),
    "non_numeric_span": lambda ls: _set_field(ls, 2, 1, "wide"),
    "non_numeric_step": lambda ls: _set_field(ls, 4, 0, "x3"),
    "oversized_action_count": lambda ls: _set_field(ls, 1, 3, "9" * 30),
    "empty_file": lambda ls: [],
}


MALFORMED_SIDE_INPUTS = {
    "v0_not_a_list": ("v0", "5"),
    "v0_null_entry": ("v0", "[null, 1]"),
    "v0_string_entry": ("v0", '["a", 1]'),
    "v0_bool_entry": ("v0", "[true, 1]"),
    "v0_out_of_range_entry": ("v0", "[1" + "0" * 400 + ", 0]"),
    "v0_bad_json": ("v0", "[1.0,"),
    "pi0_not_a_list": ("pi0", "5"),
    "pi0_number_entry": ("pi0", '["a1", 2]'),
    "pi0_bad_json": ("pi0", "{"),
    "spec_is_a_list": ("spec", "[3, 0.9]"),
    "spec_unknown_key": ("spec", '{"n_states": 3, "gamma": 0.9, "colour": "red"}'),
    "spec_missing_gamma": ("spec", '{"n_states": 3}'),
    "spec_n_states_string": ("spec", '{"n_states": "3", "gamma": 0.9}'),
    "spec_n_states_fraction": ("spec", '{"n_states": 3.5, "gamma": 0.9}'),
    "spec_gamma_null": ("spec", '{"n_states": 3, "gamma": null}'),
    "spec_seed_string": ("spec", '{"n_states": 3, "gamma": 0.9, "seed": "x"}'),
    "spec_structure_number": ("spec", '{"n_states": 3, "gamma": 0.9, "structure": 1}'),
    "spec_bad_json": ("spec", "{'n_states': 3}"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED_SIDE_INPUTS))
    def test_side_input_exits_65_with_model_error(self, case, model_path, tmp_path, capsys):
        kind, text = MALFORMED_SIDE_INPUTS[case]
        path = tmp_path / "side.json"
        path.write_text(text)
        argv = {
            "v0": ["solve-vi", "--mdp", model_path, "--v0", f"file:{path}"],
            "pi0": ["solve-pi", "--mdp", model_path, "--pi0", str(path)],
            "spec": ["generate", "--seed", "1", "--spec", str(path),
                     "--out", str(tmp_path / "out.json")],
        }[kind]
        code, cap = run(capsys, *argv)
        assert code == EX_DATAERR
        assert cap.err.startswith("error:ModelError:")

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_model_exits_65_with_model_error(self, case, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(MALFORMED_MODELS[case]())
        code, cap = run(capsys, "gamma-eff", "--mdp", str(path))
        assert code == EX_DATAERR
        assert cap.err.startswith("error:ModelError:")

    @pytest.mark.parametrize("case", sorted(MALFORMED_TRACES))
    def test_trace_exits_65_with_model_error(self, case, tmp_path, capsys):
        model, lines = _trace_lines(tmp_path)
        path = tmp_path / "bad.csv"
        path.write_text("".join(ln + "\n" for ln in MALFORMED_TRACES[case](lines)))
        code, cap = run(capsys, "certify", "--mdp", model, "--trace", str(path))
        assert code == EX_DATAERR
        assert cap.err.startswith("error:ModelError:")

    @pytest.mark.parametrize("col, text", [(1, "inf"), (1, "nan"), (2, "-inf"), (2, "nan")])
    def test_non_finite_span_field_certifies_as_the_genuine_file(self, col, text, tmp_path,
                                                                 capsys):
        model, lines = _trace_lines(tmp_path)
        genuine, edited = tmp_path / "genuine.csv", tmp_path / "edited.csv"
        genuine.write_text("".join(ln + "\n" for ln in lines))
        edited.write_text("".join(ln + "\n" for ln in _set_field(lines, 2, col, text)))
        outs = []
        for path in (genuine, edited):
            code, cap = run(capsys, "certify", "--mdp", model, "--trace", str(path))
            trace_hash = hashlib.sha256(path.read_bytes()).hexdigest()
            assert code == EX_OK and trace_hash in cap.out
            outs.append(cap.out.replace(trace_hash, "<trace>"))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("col", [1, 2])
    def test_non_numeric_span_field_names_its_row(self, col, tmp_path, capsys):
        model, lines = _trace_lines(tmp_path)
        path = tmp_path / "bad.csv"
        path.write_text("".join(ln + "\n" for ln in _set_field(lines, 2, col, "wide")))
        code, cap = run(capsys, "certify", "--mdp", model, "--trace", str(path))
        assert (code, cap.out) == (EX_DATAERR, "")
        assert cap.err == ("error:ModelError:trace row 1 is malformed: "
                           "could not convert string to float: 'wide'\n")

    def test_well_formed_trace_still_certifies(self, tmp_path, capsys):
        model, lines = _trace_lines(tmp_path)
        path = tmp_path / "good.csv"
        path.write_text("".join(ln + "\n" for ln in lines))
        code, _ = run(capsys, "certify", "--mdp", model, "--trace", str(path))
        assert code == EX_OK

    @settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        field=st.sampled_from(["version", "n_states", "gamma", "actions",
                               "id", "state", "probs", "reward"]),
        action=st.integers(0, 3),
        junk=st.one_of(
            st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
            st.lists(st.one_of(st.none(), st.integers(-2, 2), st.floats()), max_size=3),
            st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
        ),
    )
    def test_junk_in_any_field_gives_a_documented_code(self, tmp_path, capsys,
                                                        field, action, junk):
        doc = json.loads(mdp_to_json(m2_mix()))
        (doc if field in doc else doc["actions"][action])[field] = junk
        path = tmp_path / "junk.json"
        path.write_text(json.dumps(doc))
        for argv in (["gamma-eff"], ["solve-vi", "--stop", "time:3"]):
            code, cap = run(capsys, *argv, "--mdp", str(path))
            assert code in DOCUMENTED_CODES
            assert code == EX_OK or cap.err.startswith("error:")


def _reference_arrays(text: str):
    """The model's arrays as a plain ``json.loads`` plus ``np.array`` reader builds them."""
    doc = json.loads(text)
    P = np.array([a["probs"] for a in doc["actions"]]).astype(np.float64)
    return ([a["id"] for a in doc["actions"]], np.array([a["state"] for a in doc["actions"]]),
            P, np.array([a["reward"] for a in doc["actions"]], dtype=np.float64))


_ZERO_TOKENS = ("0", "0.0", "-0", "-0.0", "0.00", "0e0", "0E+3", "-0.0e-2", "5e-324", "1e-16")
_ODD_IDS = ('"probs": [', 'x"probs": [0.5]', "probs", 'p\\"q', "naïve", "日本\t", "]", "")


@st.composite
def model_texts(draw):
    """A valid model written with varied number spellings and whitespace, in the
    compact layout or the indented one."""
    n = draw(st.integers(1, 12))
    states = list(range(n)) + draw(st.lists(st.integers(0, n - 1), max_size=4))
    space = draw(st.sampled_from([("",), ("", " ", "\n", "\t", "\r\n  ", "\n        ")]))
    ws = lambda: draw(st.sampled_from(space))  # noqa: E731
    splits = draw(st.sampled_from([1, 2 * n]))  # few splits leave rows mostly zeros
    zeros = draw(st.sampled_from([("0", "0.0"), _ZERO_TOKENS]))  # which numpy skips, or any
    actions = []
    for k, s in enumerate(draw(st.permutations(states))):
        row = [0.0] * n
        row[draw(st.integers(0, n - 1))] = 1.0
        for _ in range(draw(st.integers(0, splits))):  # move half of one entry: stays exact
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            half = row[i] / 2
            row[i] -= half
            row[j] += half
        spellings = lambda x: [repr(x), "%.17g" % x, "%.25e" % x, repr(x).upper()] + (  # noqa: E731
            ["1", "1.0", "1e0", "10E-1"] if x == 1.0 else [])
        tokens = [draw(st.sampled_from(zeros if x == 0.0 else spellings(x))) for x in row]
        body = ",".join(ws() + t + ws() for t in tokens)
        aid = json.dumps(draw(st.sampled_from(_ODD_IDS)) + str(k), ensure_ascii=draw(st.booleans()))
        reward = draw(st.sampled_from(["1e16", "-0.0", "0", "5e-324", "-2.5", "3"]))
        actions.append(f'{ws()}{{{ws()}"id"{ws()}:{ws()}{aid},{ws()}"state":{ws()}{s},{ws()}'
                       f'"probs"{ws()}:{ws()}[{body}]{ws()},"reward":{reward}{ws()}}}')
    return (f'{{{ws()}"version":1,{ws()}"n_states":{n},"gamma":{ws()}0.9,"actions":'
            f'{ws()}[{",".join(actions)}]{ws()}}}')


class TestModelReader:
    @settings(max_examples=300, deadline=None)
    @given(text=model_texts(), chunk=st.sampled_from([1, 5, 1 << 17]))
    def test_matches_the_plain_json_reader(self, text, chunk):
        with mock.patch.object(cli, "_CHUNK", chunk):  # several chunks, both kinds of fill
            mdp = mdp_from_json(text)
        ids, states, P, rewards = _reference_arrays(text)
        assert list(mdp.ids) == ids
        assert mdp.state_of.dtype == np.intp and np.array_equal(mdp.state_of, states)
        assert mdp.P.shape == P.shape and mdp.P.tobytes() == P.tobytes()
        assert mdp.rewards.tobytes() == rewards.tobytes()
        written = mdp_to_json(mdp)
        again = mdp_from_json(written)
        assert again.P.tobytes() == mdp.P.tobytes() and mdp_to_json(again) == written

    @pytest.mark.parametrize("key", ['"prob\\u0073"', '"\\u0070robs"', '"pr\\u006Fbs"',
                                     '"\\u0070\\u0072\\u006f\\u0062\\u0073"'])
    def test_probs_key_spelled_with_an_escape(self, key):
        assert json.loads(key) == "probs"
        text = mdp_to_json(m2_mix()).replace('"probs"', key, 2)
        assert mdp_from_json(text).P.tobytes() == m2_mix().P.tobytes()

    def test_escaped_keys_read_in_linear_time(self):
        # each key spelled with an escape: finding the next probs list must not rescan
        # the rest of the text, so 8 times the actions take about 8 times as long
        def text(m: int, n: int = 100) -> str:
            row = ",".join(["1"] + ["0"] * (n - 1))
            actions = ",".join(f'{{"i\\u0064":"a{k}","stat\\u0065":{k % n},"prob\\u0073":[{row}],'
                               f'"rewar\\u0064":0}}' for k in range(m))
            return f'{{"version":1,"n_states":{n},"gamma":0.9,"actions":[{actions}]}}'

        small, large = text(1000), text(8000)
        assert mdp_from_json(large).m == 8000
        seconds = [min(timeit.repeat(lambda t=t: mdp_from_json(t), number=1, repeat=5))
                   for t in (small, large)]
        assert seconds[1] < 24 * seconds[0]

    @pytest.mark.parametrize("key", ['"probs"', '"prob\\u0073"'])
    def test_duplicate_probs_field_rejected(self, key):
        # a plain json reader keeps the last list; the model reader refuses the action
        text = _model_text(lambda d: None).replace(
            '"probs": [0.5, 0.5]', f'"probs": [0.5, 0.5], {key}: [1.0, 0.0]', 1)
        assert json.loads(text)["actions"][0]["probs"] == [1.0, 0.0]
        with pytest.raises(ModelError, match="a1.*one JSON list"):
            mdp_from_json(text)


# ---------------------------------------------------------------------------
# the word-level reader


def _word_model(rows: list[list[str]], pad: int = 0, zero: str = "0.0") -> str:
    """A compact model over as many states as ``rows[0]`` has fields: action k of
    state k has the fields ``rows[k]``, each other state one action that stays,
    its other fields ``zero``.  ``pad`` spaces before the actions move every body
    ``pad`` bytes on."""
    n = ",".join(rows[0]).count(",") + 1
    rows = rows + [["1" if j == s else zero for j in range(n)] for s in range(len(rows), n)]
    actions = ",".join(f'{{"id":"a{k:03d}","state":{k},"probs":[{",".join(r)}],"reward":0.5}}'
                       for k, r in enumerate(rows))
    return f'{{"version":1,"n_states":{n},"gamma":0.9,{" " * pad}"actions":[{actions}]}}'


def _json_error_on_kept_fields(text: str) -> str:
    """The message of a reader that hands json the fields of all bodies that are
    not exactly ``0`` or ``0.0``, in order."""
    bodies = [part[:part.index("]")] for part in text.split('"probs":[')[1:]]
    kept = [f for f in (f.strip(" \t\n\r") for b in bodies for f in b.split(","))
            if f not in ("0", "0.0")]
    try:
        json.loads("[" + ",".join(kept) + "]")
    except ValueError as exc:
        return f"action probs must be JSON numbers: {exc}"
    raise AssertionError("json reads the kept fields")


def _skeleton_error(text: str) -> str:
    """The message of a reader that parses ``text`` with each probs body, up to
    its first ``]``, replaced by the body's index."""
    head, *parts = text.split('"probs":[')
    skeleton = head + "".join(f'"probs":[{k}{part[part.index("]"):]}'
                              for k, part in enumerate(parts))
    try:
        json.loads(skeleton)
    except ValueError as exc:
        return f"model file is not valid JSON: {exc}"
    raise AssertionError("json reads the skeleton")


_BETWEEN_COMMAS = "action probs must hold one number between commas"
_N_STATES_80 = "every action's probs must hold n_states=80 numbers"


def _empty_field_error(text: str) -> str:
    """An empty field's message, or the field count's where the first body is
    shorter than the 2n - 1 bytes that n numbers take."""
    body = text.split('"probs":[')[1]
    return _BETWEEN_COMMAS if body.index("]") >= 2 * 80 - 1 else _N_STATES_80


# spellings of one or more fields, put deep in a run of zeros: None where json reads
# them, else the message (or a function of the text giving it)
_ODD_IN_A_RUN = {
    "00": _json_error_on_kept_fields,
    "0.": _json_error_on_kept_fields,
    ".0": _json_error_on_kept_fields,
    "0..0": _json_error_on_kept_fields,
    "0.0.0": _json_error_on_kept_fields,
    "0.00": None,
    "-0.0": None,
    "-0": None,
    "0e0": None,
    "0E-7": None,
    " 0.0 ": None,
    "0\n,\t0.0": None,
    "0,,0": _empty_field_error,
    "0.0,,0.0": _BETWEEN_COMMAS,
    "0 .0": _BETWEEN_COMMAS,
    "0. 0": _BETWEEN_COMMAS,
    "0.0 0.0": _BETWEEN_COMMAS,
    "0;0": _N_STATES_80,
    '"0"': "action probs may hold only JSON numbers, commas and whitespace",
    "0]": _skeleton_error,
}


class _Runs:
    """``cli._zero_runs``, counting the fields it proves zero."""

    def __init__(self, find):
        self.find, self.fields = find, 0

    def __call__(self, words, spans):
        found = self.find(words, spans)
        self.fields += int(found[3].sum())
        return found


def _counting_runs(monkeypatch) -> _Runs:
    runs = _Runs(cli._zero_runs)
    monkeypatch.setattr(cli, "_zero_runs", runs)
    return runs


class TestWordReader:
    @pytest.mark.parametrize("chunk", [1, 300, 1 << 17])
    @pytest.mark.parametrize("zero", ["0.0", "0"])
    @pytest.mark.parametrize("pad", range(8))
    def test_zero_runs_of_every_length_read_as_json_does(self, pad, zero, chunk, monkeypatch):
        n, rows = 80, []
        for k in range(40):  # runs of every length mod 8 before, between and after
            lead, gap = k % 24, (3 * k) % 17
            row = [zero] * n
            row[lead], row[lead + gap + 1] = "0.25", "0.75"
            rows.append(row)
        rows.append([zero] * (n - 1) + ["1.0"])
        rows.append(["-0.0"] + [zero] * (n - 2) + ["1"])
        text = _word_model(rows, pad, zero)
        runs = _counting_runs(monkeypatch)
        monkeypatch.setattr(cli, "_CHUNK", chunk)  # one, three or all rows a step
        mdp = mdp_from_json(text)
        _, _, P, _ = _reference_arrays(text)
        assert mdp.P.tobytes() == P.tobytes()
        # most "0.0" zeros were proven, not read; "0" runs are read through the byte checks
        assert runs.fields > n * n // 2 if zero == "0.0" else runs.fields == 0

    @pytest.mark.parametrize("zero", ["0.0", "0"])
    @pytest.mark.parametrize("pad", range(8))
    @pytest.mark.parametrize("spelling", sorted(_ODD_IN_A_RUN))
    def test_odd_spelling_deep_in_a_run(self, spelling, pad, zero, tmp_path, capsys):
        n = 80
        row = ["1"] + [zero] * (n - 1)
        row[40:41 + spelling.count(",")] = [spelling]  # as many fields as it replaces
        text = _word_model([row], pad, zero)
        path = tmp_path / "model.json"
        path.write_text(text)
        code, cap = run(capsys, "solve-pi", "--mdp", str(path))
        expected = _ODD_IN_A_RUN[spelling]
        if expected is None:
            assert code == EX_OK
            assert mdp_from_json(text).P.tobytes() == _reference_arrays(text)[2].tobytes()
        else:
            message = expected(text) if callable(expected) else expected
            assert (code, cap.err) == (EX_DATAERR, f"error:ModelError:{message}\n")

    def test_a_zero_run_in_a_string_is_not_a_body(self):
        rows = [["1"] + ["0.0"] * 79]
        text = _word_model(rows).replace('"a001"', '"' + ",0.0" * 40 + '"')
        mdp = mdp_from_json(text)
        assert mdp.ids[1] == ",0.0" * 40
        assert mdp.P.tobytes() == _reference_arrays(text)[2].tobytes()

    def test_the_model_read_is_validated_once(self):
        mdp = mdp_from_json(_word_model([["1"] + ["0.0"] * 79]))
        with mock.patch("mdpgeo.core.ROW_SUM_TOL", -1.0):  # a new check fails every row
            cli.validate(mdp)
            with pytest.raises(ModelError, match="row sums"):
                cli.validate(Mdp.from_arrays(80, 0.9, mdp.ids, mdp.state_of, mdp.P.copy(),
                                             mdp.rewards))


class TestInputHashes:
    def test_crlf_inputs_hash_as_their_bytes(self, tmp_path, capsys):
        model, lines = _trace_lines(tmp_path)
        lf = {"model": (tmp_path / "norm.json").read_text(), "trace": "\n".join(lines) + "\n"}
        results = {}
        for eol in ("\n", "\r\n"):
            paths = {}
            for kind, text in lf.items():
                paths[kind] = tmp_path / f"{kind}{len(eol)}"
                paths[kind].write_bytes(text.replace("\n", eol).encode())
            digest = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in paths.items()}
            docs = []
            for argv in (["certify", "--trace", str(paths["trace"])], ["solve-vi"]):
                code, cap = run(capsys, *argv, "--mdp", str(paths["model"]))
                doc = json.loads(cap.out)
                assert doc.pop("input_hashes") == {
                    "mdp": digest["model"], **({"trace": digest["trace"]} if "--trace" in argv
                                               else {})}
                docs.append((code, doc))
            results[eol] = docs
        assert results["\n"] == results["\r\n"]
        assert results["\n"][0][0] == EX_OK


# ---------------------------------------------------------------------------
# streamed writers


def _reference_trace_read(text: str):
    """The row-by-row trace reader: every field converted where it stands.  The
    first problem's message, or the value matrix."""
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    values = []
    for t, ln in enumerate(lines[1:]):
        parts = ln.split(",")
        if len(parts) != len(header):
            return f"trace row {t} has {len(parts)} fields, expected {len(header)}"
        try:
            if int(parts[0]) != t:
                raise ValueError(f"t={parts[0]}, expected {t}")
            float(parts[1]), float(parts[2]), np.intp(parts[3])
            values.append([float(x) for x in parts[5:]])
        except (ValueError, OverflowError) as exc:
            return f"trace row {t} is malformed: {exc}"
    return np.array(values)


def _reference_trace_csv(trace, span_v, span_dv) -> str:
    """The trace writer of runs that stored their spans, given those spans."""
    n = trace.values.shape[1]
    head = ["t", "span_v", "span_dv", "active_actions", "stop_reason_final"]
    text = ",".join(head + [f"value_{i}" for i in range(n)]) + "\n"
    row = ",".join(["%d", "%.17g", "%.17g", "%d", "%s"] + ["%.17g"] * n) + "\n"
    for t, (sv, sdv, active, values) in enumerate(zip(
            span_v.tolist(), span_dv.tolist(), trace.active_counts.tolist(), trace.values)):
        text += row % (t, sv, sdv, active, trace.stop_reason, *values.tolist())
    return text


def _generate_argv(out, n: int, *extra: str) -> list[str]:
    return ["generate", "--seed", "3", "--structure", "sparse", "--n-states", str(n),
            "--sparse-k", "3", "--max-actions", "8", *extra, "--out", str(out)]


class _Writes:
    """A binary file handle that records the size of each ``write`` and raises
    ``exc`` at the write numbered ``fail_at`` (from 1)."""

    def __init__(self, fh, exc: BaseException | None = None, fail_at: int = 0):
        self.fh, self.exc, self.fail_at, self.sizes = fh, exc, fail_at, []

    def write(self, block: bytes) -> int:
        self.sizes.append(len(block))
        if len(self.sizes) == self.fail_at:
            raise self.exc
        return self.fh.write(block)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


def _watch_writes(monkeypatch, **failure) -> list[_Writes]:
    """Make every file the CLI opens for writing a :class:`_Writes`; returns them."""
    handles, fdopen = [], os.fdopen

    def opened(fd, mode):
        handles.append(_Writes(fdopen(fd, mode), **failure))
        return handles[-1]

    monkeypatch.setattr(cli.os, "fdopen", opened)
    return handles


class TestStreamedWriters:
    @pytest.mark.parametrize("block", [1, 2, 64])
    def test_blocks_join_to_the_whole_file(self, block, tmp_path, monkeypatch):
        mdp = generate(GenSpec(n_states=5, gamma=0.9, seed=2, structure="sparse",
                               min_actions=3, max_actions=3))
        trace = value_iteration(mdp, ViConfig(stop="time", t_max=70))
        doc = {"version": 1, "n_states": 5, "gamma": 0.9, "actions": [
            {"id": i, "state": s, "probs": p, "reward": r} for i, s, p, r in zip(
                mdp.ids, mdp.state_of.tolist(), mdp.P.tolist(), mdp.rewards.tolist())]}
        model, rows = tmp_path / "model.json", tmp_path / "trace.csv"
        handles = _watch_writes(monkeypatch)
        monkeypatch.setattr(cli, "_BLOCK", block)
        model_hash = cli._write_chunks(str(model), cli._mdp_json_pieces(mdp))
        cli._write_chunks(str(rows), cli._trace_csv_lines(trace))
        text = model.read_bytes()
        assert text == (json.dumps(doc, indent=2) + "\n").encode() == mdp_to_json(mdp).encode()
        assert model_hash == hashlib.sha256(text).hexdigest()
        assert rows.read_text() == trace_to_csv(trace) and trace_to_csv(trace).count("\n") == 72
        # head, 15 actions and tail; header and 71 rows
        assert [len(h.sizes) for h in handles] == [-(-17 // block), -(-72 // block)]

    @settings(max_examples=200, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(1, 11), st.integers(0, 6),
                                    st.sampled_from(["abc", "", "x3", "1_0", " 2", "0.5", "7"])),
                          max_size=3),
           cut=st.none() | st.integers(1, 11))
    def test_trace_reader_reports_what_a_row_by_row_read_does(self, edits, cut):
        trace = value_iteration(m2_mix(), ViConfig(stop="time", t_max=10))
        lines = trace_to_csv(trace).splitlines()
        for row, col, text in edits:
            _set_field(lines, row, col, text)
        if cut is not None:  # one row loses its last field
            lines[cut] = lines[cut].rsplit(",", 1)[0]
        text = "".join(ln + "\n" for ln in lines)
        expected = _reference_trace_read(text)
        if isinstance(expected, str):
            with pytest.raises(ModelError, match=f"^{re.escape(expected)}$"):
                trace_from_csv(text)
        else:
            assert trace_from_csv(text).values.tobytes() == expected.tobytes()

    def test_output_hash_is_the_hash_of_the_file(self, tmp_path, capsys):
        model, normalized = tmp_path / "model.json", tmp_path / "normalized.json"
        for argv, path in ((_generate_argv(model, 12), model),
                           (["normalize", "--mdp", str(model), "--out", str(normalized)],
                            normalized)):
            code, cap = run(capsys, *argv)
            assert code == EX_OK
            assert json.loads(cap.out)["output_hash"] == hashlib.sha256(
                path.read_bytes()).hexdigest()

    def test_generate_peak_memory_is_below_the_file_size(self, tmp_path, capsys):
        # the whole text of the model is never held: the peak is P and one block
        out = tmp_path / "big.json"
        tracemalloc.start()
        try:
            code = main(_generate_argv(out, 400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        size = out.stat().st_size
        assert code == EX_OK and size > 5_000_000
        assert peak < size

    @pytest.mark.parametrize("command", ["generate", "normalize", "solve-vi"])
    @pytest.mark.parametrize("exc", [OSError(28, "No space left on device"),
                                     RuntimeError("interrupted")])
    def test_a_failed_block_write_leaves_the_target_alone(self, command, exc, tmp_path,
                                                          capsys, monkeypatch):
        model = tmp_path / "model.json"
        assert main(_generate_argv(model, 40)) == EX_OK  # over 64 actions
        target = tmp_path / "target"
        target.write_bytes(b"the previous file\n")
        argv = {"generate": _generate_argv(target, 40),
                "normalize": ["normalize", "--mdp", str(model), "--out", str(target)],
                "solve-vi": ["solve-vi", "--mdp", str(model), "--stop", "time:100",
                             "--trace", str(target)]}[command]
        handles = _watch_writes(monkeypatch, exc=exc, fail_at=2)
        if isinstance(exc, OSError):
            code, cap = run(capsys, *argv)
            assert code == EX_CANTCREAT
            assert cap.err.startswith(f"error:output:cannot write {target}:")
        else:
            with pytest.raises(RuntimeError, match="interrupted"):
                main(argv)
        assert [len(h.sizes) for h in handles] == [2]  # the first block went to the temp file
        assert target.read_bytes() == b"the previous file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "target"]
