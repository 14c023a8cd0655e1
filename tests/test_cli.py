import argparse
import collections
import hashlib
import io
import json
import os
import re
import tempfile
import threading
import timeit
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from mdpgeo import cli, gen, solvers
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

from conftest import loop_spans, time_limit


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

    @pytest.mark.parametrize("m", ["1", "0", "-3"])
    def test_twostate_suite_below_two_actions(self, capsys, m):
        # the suite draws 1 to min(M // 2, 6) actions per state: M < 2 would still draw one
        code, cap = run(capsys, "twostate", "--suite", "5", "--max-actions", m)
        assert (code, cap.out) == (EX_USAGE, "")
        assert cap.err == "error:usage:twostate --suite needs --max-actions M with M >= 2\n"

    @pytest.mark.parametrize("via_env", [False, True])
    def test_twostate_suite_negative_seed(self, capsys, monkeypatch, via_env):
        if via_env:
            monkeypatch.setenv("MDPGEO_SEED", "-1")
        code, cap = run(capsys, "twostate", "--suite", "5", *([] if via_env else ["--seed", "-1"]))
        assert (code, cap.out) == (EX_USAGE, "")
        assert cap.err == "error:usage:twostate --suite needs --seed S with S >= 0\n"

    def test_generate_negative_seed_exits_65(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"n_states": 2, "gamma": 0.9, "seed": -3}))
        for argv, seed in ((["--seed", "-1"], -1), (["--seed", "1", "--spec", str(spec_path)], -3)):
            code, cap = run(capsys, "generate", *argv, "--out", str(tmp_path / "m.json"))
            assert (code, cap.out) == (EX_DATAERR, "")
            assert cap.err == f"error:ValueError:seed must be >= 0, got {seed}\n"
        assert not (tmp_path / "m.json").exists()

    def test_twostate_suite_of_two_actions(self, capsys):
        code, cap = run(capsys, "twostate", "--suite", "5", "--max-actions", "2")
        assert code == EX_OK
        assert json.loads(cap.out)["max_actions"] == 2

    def test_twostate_suite_draws_at_most_six_actions_a_state(self, capsys):
        docs = [json.loads(run(capsys, "twostate", "--suite", "20", "--max-actions", m)[1].out)
                for m in ("13", "40")]
        assert [doc.pop("max_actions") for doc in docs] == [13, 40] and docs[0] == docs[1]

    # numpy's "Unable to allocate" error is a subclass of MemoryError
    @pytest.mark.parametrize("error", [MemoryError, type("_ArrayMemoryError", (MemoryError,), {})])
    def test_a_model_too_large_to_allocate_exits_65(self, tmp_path, capsys, error):
        # the draw is patched to fail: nothing large is allocated
        out = tmp_path / "model.json"
        with mock.patch.object(gen, "_draw", side_effect=error("Unable to allocate 745. GiB")):
            code, cap = run(capsys, "generate", "--seed", "1", "--n-states", "100000000000",
                            "--out", str(out))
        assert (code, cap.out) == (EX_DATAERR, "")
        assert cap.err == "error:MemoryError:Unable to allocate 745. GiB\n"
        assert not out.exists()

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

    def test_revisiting_policy_iteration_exits_65(self, tmp_path, capsys):
        # rewards of 1e300 let rounding decide Howard's ties, and it cycles
        mdp = generate(GenSpec(n_states=3, gamma=0.99, seed=0))
        big = Mdp.from_arrays(3, 0.99, mdp.ids, mdp.state_of, mdp.P, np.full(mdp.m, 1e300))
        model = tmp_path / "big.json"
        model.write_text(mdp_to_json(big))
        with time_limit(10):
            code, cap = run(capsys, "normalize", "--mdp", str(model), "--out", str(tmp_path / "n"))
        assert (code, cap.out) == (EX_DATAERR, "")
        assert re.fullmatch(r"error:SolverError:round \d+ of policy iteration improves back to "
                            r"the policy of round \d+: rounding decided a tie\n", cap.err)

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
    # Python's int and float read these as 10, 1, 12 and 2
    "underscore_in_a_value": lambda ls: _set_field(ls, 3, -1, "1_0"),
    "underscore_in_a_span": lambda ls: _set_field(ls, 3, 2, "1_0"),
    "underscore_in_t": lambda ls: _set_field(ls, 2, 0, "0_1"),
    "other_script_digits_in_a_value": lambda ls: _set_field(ls, 3, -1, "\u0661\u0662"),
    "other_script_digit_as_a_count": lambda ls: _set_field(ls, 2, 3, "\u0662"),
    # more digits than Python's int reads from a string
    "huge_t_on_the_last_row": lambda ls: _set_field(ls, -1, 0, "9" * 5000),
    "huge_t_alone": lambda ls: ls + ["9" * 5000],
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

    @pytest.mark.parametrize("col, text", [(0, "0_1"), (1, "1_0"), (3, "\u0662"), (5, "1_0"),
                                           (-1, "\u0661\u0662")])
    def test_odd_digits_name_their_row(self, col, text, tmp_path, capsys):
        model, lines = _trace_lines(tmp_path)
        path = tmp_path / "bad.csv"
        path.write_text("".join(ln + "\n" for ln in _set_field(lines, 2, col, text)))
        code, cap = run(capsys, "certify", "--mdp", model, "--trace", str(path))
        assert (code, cap.out) == (EX_DATAERR, "")
        assert cap.err == (f"error:ModelError:trace row 1 is malformed: {text!r} is not a "
                           "number in ASCII\n")

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

    @pytest.mark.parametrize("tail", ["", "\n", "\n\n\n"])
    def test_a_header_alone_has_no_data_rows(self, tail, tmp_path):
        _, lines = _trace_lines(tmp_path)
        with pytest.raises(ModelError, match="^trace file has no data rows$"):
            trace_from_csv(lines[0] + tail)

    def test_blank_lines_between_rows_are_skipped(self, tmp_path):
        _, lines = _trace_lines(tmp_path)
        plain = trace_from_csv("".join(ln + "\n" for ln in lines))
        spaced = trace_from_csv("\n\n".join(lines) + "\n\n\n")
        assert spaced.values.tobytes() == plain.values.tobytes()
        assert spaced.active_counts.tolist() == plain.active_counts.tolist()
        assert spaced.stop_reason == plain.stop_reason

    @pytest.mark.parametrize("t", ["0", "3", "x", ""])
    def test_a_last_row_whose_t_undercounts_fails_as_row_by_row(self, t, tmp_path):
        """The arrays are sized from the last row's t, and grow past a wrong one."""
        _, lines = _trace_lines(tmp_path)
        text = "".join(ln + "\n" for ln in _set_field(lines, len(lines) - 1, 0, t))
        with pytest.raises(ModelError, match=f"^{re.escape(_reference_trace_read(text))}$"):
            trace_from_csv(text)

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
    @given(text=model_texts(), chunk=st.sampled_from([1, 64, 1 << 17]))
    def test_matches_the_plain_json_reader(self, text, chunk):
        with mock.patch.object(cli, "_CHUNK", chunk):  # bytes: one row, a few or all a chunk
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


def _file_json_error(text: str) -> str:
    """json's message on the whole of ``text``: its places are in the file, not
    in the skeleton that is left when each body is cut at its first ``]``."""
    try:
        json.loads(text)
    except ValueError as exc:
        return f"model file is not valid JSON: {exc}"
    raise AssertionError("json reads the file")


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
    "0]": _file_json_error,
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
    @pytest.mark.parametrize("chunk", [1, 300, 1200, 1 << 17])
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
        monkeypatch.setattr(cli, "_CHUNK", chunk)  # bytes: one row (1, 300), a few or all
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


def _ascii(field: str) -> str:
    """``field`` as the trace reader takes it: one holding an underscore or a
    character outside ASCII, which Python's number parsers accept, is refused."""
    if "_" in field or not field.isascii():
        raise ValueError(f"{field!r} is not a number in ASCII")
    return field


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
            if int(_ascii(parts[0])) != t:
                raise ValueError(f"t={parts[0]}, expected {t}")
            float(_ascii(parts[1])), float(_ascii(parts[2])), np.intp(_ascii(parts[3]))
            values.append([float(_ascii(x)) for x in parts[5:]])
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


_ODD_FLOATS = (-0.0, 5e-324, -5e-324, 1e16, 1e-300, 0.1, 1.0, 1 / 3, float("nan"),
               float("inf"), float("-inf"))
_ODD_IDS = ('say "hi"', "back\\slash", "naïve", "日本\t", "\x00\x1f\x7f", "", "s00a00")


@st.composite
def odd_models(draw):
    """A model of odd floats, ids and states, whose rows mix full, partly zero and
    all-zero rows and rows whose one nonzero is the first or the last entry, with a
    block size and a number of actions on either side of a multiple of it."""
    block = draw(st.sampled_from([1, 3, 64]))
    m = draw(st.sampled_from(sorted({0, 1, block - 1, block, block + 1, 2 * block + 1})))
    n = draw(st.sampled_from([0, 1, 2, 5, 17]))
    ids = draw(st.lists(st.text(max_size=5), min_size=1, max_size=4)) + list(_ODD_IDS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(_ODD_FLOATS + tuple(rng.uniform(-1e3, 1e3, size=4)))
    P = rng.choice(pool, size=(m, n))
    for row, kind in zip(P, rng.integers(0, 5, size=m)):  # 0: left full
        if kind == 1:
            row[rng.random(n) < 0.6] = 0.0
        elif kind > 1:
            row[[k for k in range(n) if (kind, k) not in ((3, 0), (4, n - 1))]] = 0.0
    mdp = Mdp.from_arrays(n, float(rng.choice(pool)), [ids[k] for k in rng.integers(
        0, len(ids), size=m)], rng.integers(-5, 10**12, size=m), P,
        rng.choice(np.append(pool, [0.0, 1e16, -0.0]), size=m))
    return mdp, block


class TestStreamedWriters:
    @settings(max_examples=300, deadline=None)
    @given(model=odd_models())
    def test_writer_prints_what_json_dumps_does(self, model):
        mdp, block = model
        doc = {"version": 1, "n_states": mdp.n_states, "gamma": mdp.gamma, "actions": [
            {"id": i, "state": s, "probs": p, "reward": r} for i, s, p, r in zip(
                mdp.ids, mdp.state_of.tolist(), mdp.P.tolist(), mdp.rewards.tolist())]}
        with mock.patch.object(cli, "_BLOCK", block), tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "model.json")
            digest = cli._write_chunks(path, cli._mdp_json_blocks(mdp))
            with open(path, "rb") as fh:
                data = fh.read()
        assert data == (json.dumps(doc, indent=2) + "\n").encode()
        assert digest == hashlib.sha256(data).hexdigest()
        assert mdp_to_json(mdp) == data.decode()

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
        model_hash = cli._write_chunks(str(model), cli._mdp_json_blocks(mdp))
        cli._write_chunks(str(rows), cli._trace_csv_blocks(trace))
        text = model.read_bytes()
        assert text == (json.dumps(doc, indent=2) + "\n").encode() == mdp_to_json(mdp).encode()
        assert model_hash == hashlib.sha256(text).hexdigest()
        assert rows.read_text() == trace_to_csv(trace) and trace_to_csv(trace).count("\n") == 72
        # head, 15 actions in blocks and tail; header and 71 rows
        assert [len(h.sizes) for h in handles] == [2 + -(-15 // block), -(-72 // block)]

    @settings(max_examples=200, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(1, 11), st.integers(0, 6),
                                    st.sampled_from(["abc", "", "x3", "1_0", " 2", "0.5", "7",
                                                     "\u0662"])),
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


# ---------------------------------------------------------------------------
# readers that hold no Python object per number


def _peak(fn) -> int:
    """The tracemalloc peak of ``fn()``, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def certify_trace() -> str:
    """The trace ``certify`` reads for a Wielandt n = 50 model: 2,402 steps, 2,403 rows."""
    wiel, _, _ = normalize(generate(GenSpec(n_states=50, gamma=0.999, seed=7,
                                            structure="wielandt", min_actions=3,
                                            max_actions=3)))
    v0 = np.random.default_rng([7, 3]).uniform(0.0, 1.0, size=50)
    run = value_iteration(wiel, ViConfig(stop="time", t_max=2402, v0="given",
                                         v0_values=tuple(v0)))
    return trace_to_csv(run)


def _dense_model_bytes(n: int = 200, m: int = 800) -> bytes:
    """A compact model with every probability positive, as numpy writes it."""
    rng = np.random.default_rng([7, 2])
    P = rng.uniform(1e-3, 1.0, size=(m, n))
    P /= P.sum(axis=1, keepdims=True)
    actions = [{"id": f"a{k}", "state": k * n // m, "probs": p, "reward": 0.5}
               for k, p in enumerate(P.tolist())]
    return json.dumps({"version": 1, "n_states": n, "gamma": 0.95, "actions": actions},
                      separators=(",", ":")).encode()


# spellings a trace value field may hold, read or refused as float does
_VALUE_FIELDS = ("1e", ".5", "+1", "1.", "1_0", " 2", "nan", "inf", "-0", "1e-400", "1e400",
                 "", "-", ".", "e5", "1e+", "1..2", "0.30000000000000004", "5e-324",
                 "\u0661\u0662", "1\u00b2")


class TestReadersHoldNoObjectPerNumber:
    def test_trace_read_peaks_below_the_text(self, certify_trace):
        assert certify_trace.count("\n") == 2404
        peak = _peak(lambda: trace_from_csv(certify_trace))
        assert peak < len(certify_trace)

    def test_dense_read_peaks_below_the_file_size(self):
        # mdp_from_json and the CLI read a model through its bytes; what the read holds
        # beyond them stays below their size
        data = _dense_model_bytes()
        mdp = mdp_from_json(io.BytesIO(data))
        assert mdp.P.tobytes() == _reference_arrays(data.decode())[2].tobytes()
        assert _peak(lambda: mdp_from_json(io.BytesIO(data))) < len(data)

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from(_VALUE_FIELDS) | st.text("0123456789+-.eE", max_size=6)
                 | st.floats().map(repr) | st.floats().map("%.17g".__mod__),
                 min_size=n, max_size=n), min_size=1, max_size=5)))
    def test_trace_values_read_as_float_does(self, rows):
        # the shortest rows a reader can be given: one-character fields, no stop reason
        header = ",".join(cli._TRACE_HEADER + [f"value_{i}" for i in range(len(rows[0]))])
        text = header + "".join(f"\n{t},0,0,0,," + ",".join(r) for t, r in enumerate(rows))
        expected, message = np.empty((len(rows), len(rows[0]))), None
        for t, r in enumerate(rows):
            try:
                expected[t] = [float(_ascii(x)) for x in r]
            except ValueError as exc:
                message = f"trace row {t} is malformed: {exc}"
                break
        if message is None and not np.isfinite(expected).all():
            message = "trace file has non-finite values"
        if message is None:
            assert trace_from_csv(text).values.tobytes() == expected.tobytes()
        else:
            with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
                trace_from_csv(text)

    def test_a_wide_header_over_short_rows_allocates_for_the_text(self):
        # 100,000 columns over 100,000 rows of "0": sized by its lines, the value array
        # would take 80 GB; the first row is reported as a row-by-row read reports it,
        # holding the header line and its last field
        header = ",".join(cli._TRACE_HEADER + [f"value_{i}" for i in range(100_000)])
        text = header + "\n0" * 100_000

        def read():
            with pytest.raises(ModelError, match="^trace row 0 has 1 fields, expected 100005$"):
                trace_from_csv(text)

        assert _peak(read) < 2 * len(text)

    @pytest.mark.parametrize("probs, message", [
        ("[[0.5], 0.5]", "action 'b' probs must be one JSON list of numbers"),
        ('["]", 0.5]', "action 'b' probs must be one JSON list of numbers"),
        ("[0.5], 0.5]", "model file is not valid JSON: Expecting property name enclosed in "
                        "double quotes: line 1 column 135 (char 134)"),
    ])
    def test_a_bracket_in_a_body_is_reported_from_the_file(self, probs, message):
        text = ('{"version":1,"n_states":2,"gamma":0.9,"actions":[{"id":"a","state":0,'
                f'"probs":[0.5,0.5],"reward":0}},{{"id":"b","state":1,"probs":{probs},'
                '"reward":0}]}')
        if "not valid" in message:  # the place is the file's
            with pytest.raises(ValueError) as exc:
                json.loads(text)
            assert message.endswith(str(exc.value))
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            mdp_from_json(text)

    def test_a_repeated_key_that_hides_a_bracket_is_named(self):
        text = ('{"version":1,"n_states":1,"gamma":0.9,"actions":[{"id":{"probs":[[1]]},'
                '"id":"a","state":0,"probs":[1],"reward":0}]}')
        with pytest.raises(ModelError, match="repeats a key"):
            mdp_from_json(text)

    def test_a_model_cut_short_is_read_one_probs_list_at_a_time(self):
        # the skeleton does not parse, so json reads the file: the decoded text and one
        # row, no float per probability
        data = _dense_model_bytes()
        data = data[:data.rindex(b"]", 0, data.rindex(b'"reward"')) + 1]
        with pytest.raises(ValueError) as exc:
            json.loads(data)
        message = f"model file is not valid JSON: {exc.value}"

        def read():
            with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
                mdp_from_json(io.BytesIO(data))

        assert _peak(read) < 1.2 * len(data)

    def test_text_inputs_hold_one_copy_of_the_file(self, tmp_path):
        # CRLF line ends are rewritten after the bytes are dropped: two copies at most
        lf = "".join(f"{k},{k * 0.25!r}\n" for k in range(100_000))
        path = tmp_path / "crlf.csv"
        path.write_bytes(lf.replace("\n", "\r\n").encode())
        result = []
        peak = _peak(lambda: result.append(cli._read_text(str(path))))
        assert result[0] == (lf, hashlib.sha256(path.read_bytes()).hexdigest())
        assert peak < 2.2 * path.stat().st_size


# ---------------------------------------------------------------------------
# the model reader's two passes in blocks


def _load_outcome(path) -> tuple:
    """What the CLI's model read makes of ``path``: its arrays and hash, or its error."""
    try:
        mdp, digest = cli._load_mdp(str(path))
    except ValueError as exc:  # ModelError, UnicodeDecodeError
        return type(exc).__name__, str(exc)
    return list(mdp.ids), mdp.state_of.tobytes(), mdp.P.tobytes(), mdp.rewards.tobytes(), digest


def _with_id(raw: bytes) -> bytes:
    return _small_model("1,0,0", "0,1,0").encode().replace(b'"a1"', b'"' + raw + b'"')


# files the reader refuses for their bytes or before their skeleton parses
_BAD_BYTES = {
    "invalid_start_byte": lambda: _with_id(b"a\xff"),
    "encoded_surrogate": lambda: _with_id(b"a\xed\xa0\x80"),
    "character_cut_at_the_end": lambda: _with_id("é".encode()) + "é".encode()[:1],
    "cut_inside_a_string": lambda: _small_model("1,0,0", "0,1,0").encode()[:-40],
    "last_probs_list_not_closed": lambda: (lambda t: t[:t.rindex(b"[") + 4])(
        _small_model("1,0,0", "0,1,0").encode()),
    "bracket_in_a_body": lambda: _small_model("1,0,0", '"]",1,0').encode(),
    "nested_body": lambda: _small_model("1,0,0", "[0],1,0").encode(),
}
_BLOCK_SIZES = [1, 7, 64]
_SLACK = 6 * 2**20  # beyond P: 5.3 MB measured on the indented model, 3.4 MB on the compact


class TestTwoPassReader:
    @settings(max_examples=200, deadline=None)
    @given(text=model_texts(), block=st.sampled_from(_BLOCK_SIZES),
           chunk=st.sampled_from([1, 64, 1 << 17]))
    def test_blocks_of_any_size_read_the_plain_json_model(self, text, block, chunk):
        data = text.encode()
        with mock.patch.object(cli, "_READ", block), mock.patch.object(cli, "_CHUNK", chunk):
            mdp = mdp_from_json(io.BytesIO(data), digest := hashlib.sha256())
        ids, states, P, rewards = _reference_arrays(text)
        assert digest.hexdigest() == hashlib.sha256(data).hexdigest()
        assert list(mdp.ids) == ids and np.array_equal(mdp.state_of, states)
        assert mdp.P.tobytes() == P.tobytes() and mdp.rewards.tobytes() == rewards.tobytes()

    @pytest.mark.parametrize("block", _BLOCK_SIZES)
    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS) + sorted(_BAD_BYTES))
    def test_messages_do_not_depend_on_the_block_size(self, case, block, tmp_path,
                                                      monkeypatch):
        data = _BAD_BYTES[case]() if case in _BAD_BYTES else MALFORMED_MODELS[case]().encode()
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        whole = _load_outcome(path)  # the file is one block
        assert len(whole) == 2
        monkeypatch.setattr(cli, "_READ", block)
        assert _load_outcome(path) == whole
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:  # the message names the place in the whole file
            assert whole == ("UnicodeDecodeError", str(exc))

    @pytest.mark.parametrize("block", _BLOCK_SIZES)
    @pytest.mark.parametrize("spelling", ["0.0 0.0", "0]", '"0"', "0,,0", "00"])
    def test_odd_spelling_deep_in_a_run_under_small_blocks(self, spelling, block, tmp_path,
                                                           monkeypatch):
        row = ["1"] + ["0.0"] * 79
        row[40:41 + spelling.count(",")] = [spelling]
        path = tmp_path / "model.json"
        path.write_text(_word_model([row], 3))
        whole = _load_outcome(path)
        monkeypatch.setattr(cli, "_READ", block)
        assert _load_outcome(path) == whole

    def test_compact_sparse_read_holds_p_and_a_fixed_slack(self, tmp_path):
        mdp = generate(GenSpec(n_states=600, gamma=0.9, seed=3, structure="sparse",
                               sparse_k=3, max_actions=8))
        path = tmp_path / "compact.json"
        path.write_text(json.dumps({"version": 1, "n_states": 600, "gamma": 0.9, "actions": [
            {"id": i, "state": s, "probs": p, "reward": r} for i, s, p, r in zip(
                mdp.ids, mdp.state_of.tolist(), mdp.P.tolist(), mdp.rewards.tolist())]},
            separators=(",", ":")))
        assert path.stat().st_size > 5_000_000
        result = []
        peak = _peak(lambda: result.append(cli._load_mdp(str(path))))
        assert result[0][0].P.tobytes() == mdp.P.tobytes()
        assert peak < mdp.P.nbytes + _SLACK

    def test_indented_read_holds_p_and_a_fixed_slack(self, tmp_path, capsys):
        path = tmp_path / "indented.json"
        assert main(_generate_argv(path, 400)) == EX_OK
        capsys.readouterr()
        result = []
        peak = _peak(lambda: result.append(cli._load_mdp(str(path))))
        assert result[0][1] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert peak < result[0][0].P.nbytes + _SLACK

    @pytest.mark.parametrize("change", ["appended", "rewritten_in_place"])
    def test_a_file_changed_between_the_passes_exits_65(self, change, tmp_path, capsys,
                                                        monkeypatch):
        path = tmp_path / "model.json"
        assert main(_generate_argv(path, 12)) == EX_OK
        capsys.readouterr()
        fill = cli._probs_matrix

        def changed(fh, spans, n):
            data = path.read_bytes()
            if change == "appended":
                path.write_bytes(data + b"\n")
            else:  # same size; the mtime moves on
                path.write_bytes(data.replace(b'"reward": ', b'"reward":-', 1))
                stat = path.stat()
                os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1000))
            return fill(fh, spans, n)

        monkeypatch.setattr(cli, "_probs_matrix", changed)
        code, cap = run(capsys, "solve-pi", "--mdp", str(path))
        assert (code, cap.out) == (EX_DATAERR, "")
        assert cap.err == f"error:ModelError:model file {path} changed while it was read\n"

    def test_a_fifo_is_read_once_and_gives_the_files_outputs(self, tmp_path, capsys):
        path, fifo = tmp_path / "model.json", tmp_path / "model.fifo"
        assert main(_generate_argv(path, 12)) == EX_OK
        capsys.readouterr()
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),),
                                  daemon=True)
        writer.start()  # it waits for the reader to open the FIFO
        piped = run(capsys, "solve-pi", "--mdp", str(fifo))
        writer.join(10)
        assert not writer.is_alive()
        code, cap = run(capsys, "solve-pi", "--mdp", str(path))
        assert code == EX_OK and (piped[0], piped[1].out) == (code, cap.out)


class TestOneImplementationPerJob:
    def test_commands_read_and_evaluate_through_the_public_functions(self, tmp_path, capsys,
                                                                     monkeypatch):
        # each wrapper replaces the module binding, as perfbench's tracer does
        calls = collections.Counter()
        for module, name in ((cli, "mdp_from_json"), (solvers, "evaluate_rows")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        path = tmp_path / "model.json"
        path.write_text(mdp_to_json(generate(GenSpec(n_states=4, gamma=0.9, seed=2))))
        for argv in (["solve-pi", "--mdp", str(path)],
                     ["normalize", "--mdp", str(path), "--out", str(tmp_path / "norm.json")]):
            calls.clear()
            assert run(capsys, *argv)[0] == EX_OK
            assert calls["mdp_from_json"] == 1 and calls["evaluate_rows"] >= 1

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_text_and_file_are_refused_alike(self, case, tmp_path):
        text = MALFORMED_MODELS[case]()
        path = tmp_path / "bad.json"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as exc:
            mdp_from_json(text)
        assert _load_outcome(path) == (type(exc.value).__name__, str(exc.value))
