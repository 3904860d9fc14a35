import json

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import BLOCK_CROSSING, invariant_battery_reference
from nrigid import cli, csvtext
from nrigid.cli import load_config, load_trajectory_csv, main, write_trajectory_csv
from nrigid.errors import CertificationError
from nrigid.matcore import expm, skew_defect
from nrigid.body import InertiaSpec, hat
from nrigid.integrate import (
    IntegratorConfig,
    Trajectory,
    integrate_euler,
    integrate_euler_poisson,
    integrate_symrep,
)
from nrigid.lift import solve_lift


def write_config(path, **overrides):
    config = {
        "n": 3,
        "lambda": [1.0, 2.0, 3.0],
        "q0": "identity",
        "pi0": [0.5, 0.6, 0.7],
        "integrator": {"scheme": "rk4", "step": 0.01, "t_final": 2.0},
        "seed": 42,
        "outputs": {"trajectory": "traj.csv", "report": "report.txt"},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def with_out(command, path):
    # `lift` prints and writes no file, so it takes no --out
    return command if command == ["lift"] else command + ["--out", str(path)]


class TestSimulate:
    def test_euler_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["simulate", "euler", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, rows = load_trajectory_csv(tmp_path / "traj.csv")
        assert header[0] == "t"
        assert header[-1] == "defect"
        assert "H" in header
        assert rows.shape == (201, len(header))

    def test_all_kinds_run(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        for kind in ("euler", "symrep", "euler-poisson"):
            assert main(["simulate", kind, "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        main(["simulate", "symrep", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["simulate", "symrep", "--config", str(cfg), "--out", str(tmp_path / "b")])
        for name in ("traj.csv", "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_csv_round_trip_exact(self, tmp_path):
        from nrigid.body import InertiaSpec
        from nrigid.integrate import IntegratorConfig, integrate_euler

        cfg = write_config(tmp_path / "cfg.json")
        main(["simulate", "euler", "--config", str(cfg), "--out", str(tmp_path)])
        header, rows = load_trajectory_csv(tmp_path / "traj.csv")
        traj = integrate_euler(
            InertiaSpec([1.0, 2.0, 3.0]),
            hat([0.5, 0.6, 0.7]),
            IntegratorConfig("rk4", 0.01, 2.0),
        )
        for i in (0, 57, 200):
            np.testing.assert_array_equal(rows[i][1:10], traj.states[i].ravel())

    def test_invalid_lambda_pair_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{"lambda": [1.0, 5.0, -1.5]})
        assert main(["simulate", "euler", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "lambda[0] + lambda[2]" in err

    def test_non_skew_pi0_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", pi0=[[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert main(["simulate", "euler", "--config", str(cfg)]) == 2

    def test_matrix_momentum_matches_vector_form(self, tmp_path):
        matrix_form = hat([0.5, 0.6, 0.7]).tolist()
        cfg_v = write_config(tmp_path / "v.json")
        cfg_m = write_config(tmp_path / "m.json", pi0=matrix_form)
        main(["simulate", "euler", "--config", str(cfg_v), "--out", str(tmp_path / "v")])
        main(["simulate", "euler", "--config", str(cfg_m), "--out", str(tmp_path / "m")])
        assert (tmp_path / "v" / "traj.csv").read_bytes() == (
            tmp_path / "m" / "traj.csv"
        ).read_bytes()

    def test_divergence_exit_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            pi0=[5.0, 6.0, 7.0],
            integrator={"scheme": "rk4", "step": 5.0, "t_final": 500.0},
        )
        assert main(["simulate", "euler-poisson", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "step" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["simulate", "euler", "--config", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize(
        "command", [["simulate", "symrep"], ["verify-reduction"], ["lift"], ["solve-bvp"]]
    )
    def test_seed_rejected_where_unused(self, tmp_path, command):
        # these runs take no --seed: the first three have no random input,
        # and solve-bvp's restarts are seeded by the config's "seed"
        cfg = write_config(tmp_path / "cfg.json")
        with pytest.raises(SystemExit) as exc:
            main(with_out(command, tmp_path) + ["--config", str(cfg), "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("report", ["t.csv", "./t.csv"])
    def test_report_onto_trajectory_exit_2(self, tmp_path, capsys, report):
        cfg = write_config(tmp_path / "cfg.json", outputs={"trajectory": "t.csv", "report": report})
        out = tmp_path / "o"
        assert main(["simulate", "euler", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "outputs.trajectory" in err and "outputs.report" in err
        assert not out.exists()

    def test_lift_rejects_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        with pytest.raises(SystemExit) as exc:
            main(["lift", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err


class TestVerifyReduction:
    def test_standard_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            integrator={"scheme": "rk4", "step": 0.001, "t_final": 2.0},
        )
        assert main(["verify-reduction", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "e_equiv" in out
        report = (tmp_path / "report.txt").read_text()
        assert "e_equiv" in report

    def test_zero_momentum_exact(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", pi0=[0.0, 0.0, 0.0])
        assert main(["verify-reduction", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert "e_equiv = 0" in capsys.readouterr().out

    def test_zero_tolerance_exit_4(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            tolerances={"e_equiv": 0.0},
        )
        assert main(["verify-reduction", "--config", str(cfg), "--out", str(tmp_path)]) == 4


class TestLift:
    def test_prints_sixth_turn(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", pi0=[0.0, 0.0, 1.0])
        assert main(["lift", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        p0 = np.array(
            [[float(tok) for tok in line.split()] for line in out.splitlines()[1:4]]
        )
        expected = expm((np.pi / 6.0) * hat([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(p0, expected, atol=1e-12)
        assert "momentum_residual" in out

    def test_out_of_range_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", pi0=[0.0, 0.0, 2.1])
        assert main(["lift", "--config", str(cfg)]) == 2


class TestSolveBvp:
    def test_spherical_geodesic_report(self, tmp_path, capsys):
        q_target = expm(0.3 * hat([0.0, 0.0, 1.0]))
        cfg = write_config(
            tmp_path / "cfg.json",
            **{
                "lambda": [1.0, 1.0, 1.0],
                "integrator": {"scheme": "rk4", "step": 0.005, "t_final": 1.0},
                "bvp": {"q_target": q_target.tolist(), "tol": 1e-7, "max_iter": 30},
            },
        )
        assert main(["solve-bvp", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        cost = float(next(line.split("=")[1] for line in out.splitlines() if line.startswith("cost")))
        assert abs(cost - 0.09) <= 1e-5
        assert "terminal_error" in (tmp_path / "report.txt").read_text()

    def test_target_beyond_lift_bound_exit_0(self, tmp_path, capsys):
        # the extremal needs |pi0|_2 ~ 2.08, beyond the lift bound
        q_target = expm(hat([0.3, -0.2, 0.4]))
        cfg = write_config(
            tmp_path / "cfg.json",
            **{
                "integrator": {"scheme": "rk4", "step": 0.005, "t_final": 1.0},
                "bvp": {"q_target": q_target.tolist(), "tol": 1e-6, "max_iter": 30},
            },
        )
        assert main(["solve-bvp", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        error = float(next(line.split("=")[1] for line in out.splitlines()
                           if line.startswith("terminal_error")))
        assert error <= 1e-6

    def test_nonconvergence_exit_5(self, tmp_path):
        q_target = expm(0.3 * hat([0.0, 0.0, 1.0]))
        cfg = write_config(
            tmp_path / "cfg.json",
            **{
                "lambda": [1.0, 1.0, 1.0],
                "integrator": {"scheme": "rk4", "step": 0.01, "t_final": 1.0},
                "bvp": {"q_target": q_target.tolist(), "tol": 1e-13, "max_iter": 1},
            },
        )
        assert main(["solve-bvp", "--config", str(cfg), "--out", str(tmp_path)]) == 5

    def test_one_step_exit_0(self, tmp_path, capsys):
        # the cost of a single interval is its trapezoid
        cfg = write_config(tmp_path / "cfg.json",
                           integrator={"scheme": "rk4", "step": 0.5, "t_final": 0.5},
                           bvp={"q_target": "identity"})
        assert main(["solve-bvp", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "terminal_error = 0\n" in out and "cost = 0\n" in out

    @pytest.mark.parametrize("overrides, message", [
        ({"bvp": {"q_target": "identity", "max_iter": 0}}, "max_iter must be at least 1, got 0"),
        ({"seed": -1, "bvp": {"q_target": "identity"}}, "seed must be non-negative, got -1"),
        ({"bvp": {"q_target": "identity", "tol": 0.0}}, "bvp.tol must be positive and finite, got 0.0"),
    ], ids=["max_iter", "seed", "tol"])
    def test_invalid_search_setting_exit_2(self, tmp_path, capsys, overrides, message):
        # refused as input, not reported as a solver failure
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["solve-bvp", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text", ["1e400", "Infinity"])
    def test_infinite_tol_exit_2(self, tmp_path, capsys, text):
        # JSON's 1e400 reads as inf, which every residual meets: the search
        # would report its start at rest, 0 iterations away from the target,
        # as converged
        q_target = expm(0.3 * hat([0.0, 0.0, 1.0]))
        cfg = write_config(tmp_path / "cfg.json", bvp={"q_target": q_target.tolist(), "tol": 0.5})
        cfg.write_text(cfg.read_text().replace('"tol": 0.5', f'"tol": {text}'))
        assert main(["solve-bvp", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: bvp.tol must be positive and finite, got inf\n"
        assert not (tmp_path / "report.txt").exists()


class TestCheckInvariants:
    def test_battery_passes(self, capsys):
        assert main(["check-invariants", "--seed", "42", "--trials", "200"]) == 0
        out = capsys.readouterr().out
        assert "all invariants passed" in out
        assert out.count("200/200") == 8
        # no trials is no evidence, and a negative count no invariant failure
        for trials in ("0", "-3"):
            assert main(["check-invariants", "--trials", trials]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"--trials must be at least 1, got {trials}" in captured.err

    def test_negative_seed_rejected(self, capsys):
        assert main(["check-invariants", "--seed", "-1", "--trials", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("seed, trials", [(0, 7), (42, BLOCK_CROSSING)])
    def test_output_matches_per_trial_loop(self, capsys, seed, trials):
        counts, _ = invariant_battery_reference(seed, trials)
        expected = "".join(f"{name}: {passed}/{trials}\n" for name, passed in counts.items())
        expected += "all invariants passed\n"
        assert main(["check-invariants", "--seed", str(seed), "--trials", str(trials)]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == ""


def refuse(*args):
    raise CertificationError("lift certification failed")


class TestFailureExits:
    """Exit 4 for a failed check, exit 2 for a config missing a section the
    command needs."""

    @pytest.mark.parametrize("command, name, replacement, message", [
        (["check-invariants", "--trials", "5"], "invariant_battery",
         lambda seed, trials: {"momentum_identity_sp": trials - 1}, "invariant battery failed"),
        (["lift"], "solve_lift", refuse, "error: lift certification failed"),
    ], ids=["failing-battery", "certification"])
    def test_failed_check_exit_4(self, tmp_path, capsys, monkeypatch, command, name,
                                 replacement, message):
        monkeypatch.setattr(cli, name, replacement)
        if command == ["lift"]:
            command = command + ["--config", str(write_config(tmp_path / "cfg.json"))]
        assert main(command) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, drop", [
        (["simulate", "euler"], "integrator"),
        (["verify-reduction"], "integrator"),
        (["solve-bvp"], "bvp"),
        (["simulate", "euler"], "n"),
        (["verify-reduction"], "lambda"),
        (["lift"], "integrator.step"),
        (["verify-reduction"], "integrator.t_final"),
    ])
    def test_missing_section_exit_2(self, tmp_path, capsys, command, drop):
        cfg = write_config(tmp_path / "cfg.json", bvp={"q_target": "identity"})
        raw = json.loads(cfg.read_text())
        section, _, key = drop.rpartition(".")
        del (raw[section] if section else raw)[key]
        cfg.write_text(json.dumps(raw))
        assert main(with_out(command, tmp_path) + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config must provide") and f"'{drop}'" in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("kind", ["euler", "euler-poisson"])
    def test_overflowing_audit_exit_3(self, tmp_path, capsys, kind):
        # the states stay finite, the energy of step 4 overflows
        cfg = write_config(tmp_path / "cfg.json", pi0=[-114.76, 12.62, 88.59],
                           integrator={"scheme": "rk4", "step": 0.25, "t_final": 1.0})
        assert main(["simulate", kind, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "error: audit hamiltonian is not finite at step 4\n"
        assert not (tmp_path / "out").exists()


class TestConfigTypes:
    INTEGRATOR = {"scheme": "rk4", "step": 0.01, "t_final": 2.0}

    @pytest.mark.parametrize("key, overrides", [
        ("integrator.step", {"integrator": {**INTEGRATOR, "step": None}}),
        ("n", {"n": None}),
        ("tolerances.e_equiv", {"tolerances": {"e_equiv": None}}),
        ("outputs.report", {"outputs": {"report": None}}),
        ("integrator", {"integrator": None}),
        ("tolerances", {"tolerances": None}),
        ("outputs", {"outputs": 5}),
        ("bvp", {"bvp": None}),
        # JSON strings and booleans are never numbers, and NaN is no bound
        ("n", {"n": "3"}),
        ("seed", {"seed": "7"}),
        ("integrator.step", {"integrator": {**INTEGRATOR, "step": "0.01"}}),
        ("tolerances.e_equiv", {"tolerances": {"e_equiv": "1e-6"}}),
        ("tolerances.e_equiv", {"tolerances": {"e_equiv": float("nan")}}),
        ("bvp.tol", {"bvp": {"tol": float("nan")}}),
        ("lambda", {"lambda": ["1.0", 2.0, 3.0]}),
        ("lambda", {"lambda": [1.0, True, 3.0]}),
        ("pi0", {"pi0": [0.5, "0.6", 0.7]}),
        ("pi0", {"pi0": [0.5, 0.6, True]}),
        ("pi0", {"pi0": [[0.0, 1.0, 0.0], [-1.0, 0.0], [0.0, 0.0, 0.0]]}),
        ("q0", {"q0": [["1", 0, 0], [0, 1, 0], [0, 0, 1]]}),
        ("q0", {"q0": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        ("q0", {"q0": "eye"}),
        ("bvp.q_target", {"bvp": {"q_target": [[1, 0, 0], [0, 1, 0], [0, 0, "1"]]}}),
        ("bvp.tol", {"bvp": {"tol": True}}),
    ])
    def test_wrong_type_exit_2_names_key(self, tmp_path, capsys, key, overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["verify-reduction", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"error: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, overrides", [
        ("tolerances", "e_equv", {"tolerances": {"e_equv": 0.0}}),
        ("integrator", "stepsize", {"integrator": {**INTEGRATOR, "stepsize": 0.001}}),
        ("outputs", "reprot", {"outputs": {"trajectory": "traj.csv", "reprot": "r.txt"}}),
        ("bvp", "maxiter", {"bvp": {"q_target": "identity", "maxiter": 5}}),
        # midpoint's fixed-point budget is a constant
        ("integrator", "midpoint_max_iter",
         {"integrator": {**INTEGRATOR, "midpoint_max_iter": 50}}),
        ("config", "pio", {"pio": [0.5, 0.6, 0.7]}),
        # a misspelt section would leave every default of its keys in force
        ("config", "tolerance", {"tolerance": {"e_equiv": 0.0}}),
        # the attitude is stepped, never projected
        ("integrator", "project_attitude", {"integrator": {**INTEGRATOR, "project_attitude": True}}),
    ])
    def test_unknown_key_exit_2_names_it(self, tmp_path, capsys, section, key, overrides):
        # a misspelt key would otherwise leave its default in force
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["verify-reduction", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"error: {section}: unknown key {key!r}" in capsys.readouterr().err

    def test_unknown_integrator_key_lists_known_keys(self, tmp_path, capsys):
        # midpoint's fixed-point tolerance is a constant
        given = {**self.INTEGRATOR, "midpoint_tol": 1e-12}
        cfg = write_config(tmp_path / "cfg.json", integrator=given)
        assert main(["simulate", "euler", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: integrator: unknown key 'midpoint_tol'; "
            "known keys: scheme, step, t_final\n")

    @pytest.mark.parametrize("top", [[1, 2], 5, "config", None])
    def test_config_must_be_object(self, tmp_path, capsys, top):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(top))
        assert main(["lift", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: config: expected an object, got {top!r}\n"

    def test_non_multiple_horizon_exit_2_in_lift(self, tmp_path, capsys):
        # the step count is checked when the config is read, also by lift,
        # which does not integrate
        cfg = write_config(tmp_path / "cfg.json",
                           integrator={**self.INTEGRATOR, "step": 0.3, "t_final": 1.0})
        assert main(["lift", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: t_final 1.0 is not an integer multiple of step 0.3\n")

    @pytest.mark.parametrize("key, overrides", [
        ("n", {"n": 3.7}),
        ("n", {"n": True}),
        ("seed", {"seed": 2.5}),
        ("seed", {"seed": True}),
        ("seed", {"seed": float("inf")}),
        ("n", {"n": float("inf")}),
        ("seed", {"seed": float("nan")}),
        ("bvp.max_iter", {"bvp": {"max_iter": 2.9}}),
        ("bvp.max_iter", {"bvp": {"max_iter": False}}),
    ])
    def test_non_integral_integer_exit_2_names_key(self, tmp_path, capsys, key, overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["verify-reduction", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"error: {key}: expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        ({"q0": np.eye(2).tolist()}, "q0 must be an 3x3 matrix of rows, got shape (2, 2)"),
        ({"pi0": [0.5, 0.6]}, "pi0 must be an 3x3 matrix of rows, got shape (2,)"),
        ({"lambda": [1.0, 2.0, 3.0, 4.0]}, "lambda has 4 entries, expected n = 3"),
    ])
    def test_wrong_shape_exit_2(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["simulate", "euler-poisson", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", [["simulate", "euler-poisson"], ["verify-reduction"],
                                         ["solve-bvp"]])
    def test_stacked_lambda_exit_2(self, tmp_path, capsys, command):
        # one body per row; the integrators, and so steering, take one body
        cfg = write_config(tmp_path / "cfg.json", bvp={"q_target": "identity"},
                           **{"lambda": [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]})
        assert main(command + ["--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: the integrators step one body, got lambda of shape (2, 3)\n")

    def test_integral_floats_accepted_as_integers(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path / "cfg.json", n=3.0, seed=42.0,
            bvp={"max_iter": 30.0},
        ))
        values = (cfg["n"], cfg["seed"], cfg["bvp"]["max_iter"])
        assert values == (3, 42, 30)
        assert all(type(v) is int for v in values)



class TestNonFiniteConfig:
    # json.load accepts NaN and Infinity; they are validation errors, named
    @pytest.mark.parametrize("command", [["simulate", "euler"], ["simulate", "symrep"],
                                         ["simulate", "euler-poisson"], ["lift"]])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_pi0_vector_exit_2(self, tmp_path, capfd, command, bad):
        cfg = write_config(tmp_path / "cfg.json", pi0=[bad, 0.0, 0.0])
        assert main(with_out(command, tmp_path) + ["--config", str(cfg)]) == 2
        err = capfd.readouterr().err
        assert "pi0" in err and "non-finite" in err
        assert "DLASCL" not in err

    def test_pi0_matrix_exit_2(self, tmp_path, capsys):
        pi0 = hat([0.5, 0.6, 0.7]).tolist()
        pi0[0][1] = float("nan")
        cfg = write_config(tmp_path / "cfg.json", pi0=pi0)
        assert main(["simulate", "euler", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "pi0" in err and "non-finite" in err

    @pytest.mark.parametrize("command", [["simulate", "euler-poisson"], ["lift"]])
    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_q0_exit_2(self, tmp_path, capfd, command, bad):
        q0 = np.eye(3).tolist()
        q0[1][1] = bad
        cfg = write_config(tmp_path / "cfg.json", q0=q0)
        assert main(with_out(command, tmp_path) + ["--config", str(cfg)]) == 2
        err = capfd.readouterr().err
        assert "q0" in err and "non-finite" in err
        assert "DLASCL" not in err


class TestTrajectoryCsvFormat:
    """The CSV layout, pinned against a per-value writer and parser."""

    @staticmethod
    def trajectory(kind):
        spec, pi0 = InertiaSpec([1.0, 2.0, 3.0]), hat([0.5, 0.6, 0.7])
        q0 = expm(hat([0.1, -0.2, 0.3]))
        # 301 states: three blocks of the writer, the last one partial
        cfg = IntegratorConfig("rk4", 0.01, 3.0)
        if kind == "euler":
            return integrate_euler(spec, pi0, cfg)
        if kind == "symrep":
            return integrate_symrep(spec, solve_lift(q0, pi0), cfg)
        return integrate_euler_poisson(spec, np.vstack([q0, pi0]), cfg)

    @staticmethod
    def reference_text(traj):
        n = 3
        cols = {
            "euler": [f"pi_{i}_{j}" for i in range(n) for j in range(n)],
            "symrep": [f"z_{i}_{j}" for i in range(2 * n) for j in range(n)],
            "euler-poisson": [f"q_{i}_{j}" for i in range(n) for j in range(n)]
            + [f"pi_{i}_{j}" for i in range(n) for j in range(n)],
        }[traj.kind]
        header = ["t"] + cols + ["H", "casimir_1", "casimir_2", "casimir_3", "defect"]
        lines = [",".join(header)]
        for i, t in enumerate(traj.times):
            # an euler-poisson state [Q; pi] flattens to the q_* then pi_* columns
            state = traj.states[i]
            flat = list(state.ravel())
            if traj.kind == "euler":
                defect = skew_defect(state)
            else:
                defect = traj.audits["orthogonality_defect"][i]
            row = ([t] + flat + [traj.audits["hamiltonian"][i]]
                   + list(traj.audits["casimir_spectrum"][i]) + [defect])
            lines.append(",".join(format(float(v), ".17g") for v in row))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("kind", ["euler", "symrep", "euler-poisson"])
    def test_bytes_match_per_value_format(self, tmp_path, kind):
        traj = self.trajectory(kind)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        assert path.read_bytes() == self.reference_text(traj).encode("utf-8")

    @pytest.mark.parametrize("kind", ["euler", "symrep", "euler-poisson"])
    def test_load_matches_float_parse(self, tmp_path, kind):
        path = tmp_path / "traj.csv"
        path.write_text(self.reference_text(self.trajectory(kind)), encoding="utf-8")
        lines = path.read_text(encoding="utf-8").splitlines()
        expected = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
        header, rows = load_trajectory_csv(path)
        assert header == lines[0].split(",")
        assert rows.dtype == np.float64 and rows.shape == expected.shape
        np.testing.assert_array_equal(rows.view(np.uint64), expected.view(np.uint64))

    # A symrep Trajectory with n = 1 has five value columns after t (z_0_0,
    # z_1_0, H, casimir_1, defect), none of them computed by the writer, so
    # any double can be put in a column and its bytes checked.
    HAND_BUILT_HEADER = "t,z_0_0,z_1_0,H,casimir_1,defect"

    @staticmethod
    def hand_built(values):
        values = np.asarray(values, dtype=float)
        table = np.concatenate([values, np.zeros(-len(values) % 5)]).reshape(-1, 5)
        return Trajectory("symrep", np.arange(float(len(table))), table[:, :2, None], {
            "hamiltonian": table[:, 2],
            "casimir_spectrum": table[:, 3:4],
            "orthogonality_defect": table[:, 4],
        })

    def assert_per_value_bytes(self, path, values):
        traj = self.hand_built(values)
        write_trajectory_csv(path, traj)
        table = np.column_stack([traj.times, traj.states[:, :, 0], traj.audits["hamiltonian"],
                                 traj.audits["casimir_spectrum"], traj.audits["orthogonality_defect"]])
        lines = [self.HAND_BUILT_HEADER] + [",".join(format(v, ".17g") for v in row)
                                            for row in table.tolist()]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_special_values(self, tmp_path):
        tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
        values = [0.0, -0.0, tiny, -tiny, huge, -huge, np.inf, -np.inf, np.nan,
                  np.finfo(float).tiny, np.nextafter(np.finfo(float).tiny, 0.0)]
        self.assert_per_value_bytes(tmp_path / "traj.csv", values)

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        powers = np.array([float(f"1e{e}") for e in range(-30, 23)])
        neighbours = [np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)]
        values = np.concatenate(neighbours + [-v for v in neighbours])
        self.assert_per_value_bytes(tmp_path / "traj.csv", values)

    def test_g_switch_points(self, tmp_path):
        # %g turns to exponent form below 1e-4 and from 1e17 on
        edges = np.array([1e-5, 1e-4, 1e16, 1e17, 9.99995e-5, 0.000099999999999999995,
                          99999999999999999.0, 9999999999999999.0, 1e16 - 2.0, 1e17 - 16.0])
        values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        self.assert_per_value_bytes(tmp_path / "traj.csv", np.concatenate([values, -values]))

    def test_ties_round_half_even(self, tmp_path):
        # m / 4 with m odd in [2**52, 2**53) lies halfway between two 17-digit decimals
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, self.hand_built([1234567890123456.25, 1234567890123456.75]))
        assert path.read_text().splitlines()[1] == "0,1234567890123456.2,1234567890123456.8,0,0,0"
        m = np.random.default_rng(3).integers(2 ** 51, 2 ** 52, 400) * 2 + 1
        self.assert_per_value_bytes(path, m / 4.0)

    @pytest.mark.parametrize("rows", ["one", "block-1", "block", "block+1"])
    def test_row_counts_around_the_chunk(self, tmp_path, rows):
        count = {"one": 1, "block-1": cli._CSV_BLOCK - 1, "block": cli._CSV_BLOCK,
                 "block+1": cli._CSV_BLOCK + 1}[rows]
        patterns = np.random.default_rng(count).integers(0, 2 ** 64, 5 * count, dtype=np.uint64)
        values = np.where(np.arange(5 * count) % 2 == 0, patterns.view(float),
                          np.random.default_rng(count).standard_normal(5 * count))
        path = tmp_path / "traj.csv"
        self.assert_per_value_bytes(path, values)
        assert len(path.read_text().splitlines()) == count + 1

    @seed(28)
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=30))
    def test_floats_property(self, tmp_path_factory, values):
        self.assert_per_value_bytes(tmp_path_factory.mktemp("csv") / "traj.csv", values)

    @seed(28)
    @settings(max_examples=200, deadline=None)
    @given(patterns=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=30))
    def test_bit_patterns_property(self, tmp_path_factory, patterns):
        values = np.array(patterns, dtype=np.uint64).view(float)
        self.assert_per_value_bytes(tmp_path_factory.mktemp("csv") / "traj.csv", values)


def loadtxt_reference(path):
    # load_trajectory_csv as it was: the header line, then np.loadtxt on the rest
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        return header, np.loadtxt(fh, delimiter=",", ndmin=2)


def rows_of_length(size, rng):
    """Whole CSV rows of five fields, ``size`` bytes in all (``size`` > 200)."""
    lines, used = [], 0
    while size - used > 190:
        lines.append(",".join(format(v, ".17g") for v in rng.standard_normal(5)) + "\n")
        used += len(lines[-1])
    rest = size - used  # under 190 bytes, above 190 less a row: three rows of integers
    for length in (rest // 3, rest // 3, rest - 2 * (rest // 3)):
        widths = [(length - 5 + i) // 5 for i in range(5)]  # digits of each field, at most 13
        lines.append(",".join(str(rng.integers(1, 10)) * w for w in widths) + "\n")
    return "".join(lines)


class TestTrajectoryCsvReader:
    """`load_trajectory_csv` returns exactly what np.loadtxt returns, and raises as it raises."""

    def assert_reads_as_loadtxt(self, path, by_reader=True):
        header, rows = load_trajectory_csv(path)
        want_header, want = loadtxt_reference(path)
        assert header == want_header
        assert rows.dtype == np.float64 and rows.shape == want.shape and rows.flags.c_contiguous
        np.testing.assert_array_equal(rows.view(np.uint64), want.view(np.uint64))
        with open(path, "rb") as fh:
            fh.readline()
            # whether csv_rows reads the body itself, not np.loadtxt
            assert (csvtext.csv_rows(fh) is not None) == by_reader

    def assert_written_values_read_back(self, path, values):
        write_trajectory_csv(path, TestTrajectoryCsvFormat.hand_built(values))
        self.assert_reads_as_loadtxt(path)

    def test_special_values(self, tmp_path):
        tiny, huge = np.nextafter(0.0, 1.0), np.finfo(float).max
        smallest = np.finfo(float).tiny
        values = [0.0, -0.0, tiny, -tiny, 3 * tiny, np.nextafter(smallest, 0.0), smallest,
                  huge, -huge, np.inf, -np.inf, np.nan]
        path = tmp_path / "traj.csv"
        self.assert_written_values_read_back(path, values)
        assert b"\n0,0,-0,4.9406564584124654e-324," in path.read_bytes()

    def test_g_switch_points(self, tmp_path):
        edges = np.array([1e-5, 1e-4, 1e16, 1e17, 9.99995e-5, 0.000099999999999999995,
                          99999999999999999.0, 9999999999999999.0, 1e16 - 2.0, 1e17 - 16.0])
        values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        self.assert_written_values_read_back(tmp_path / "traj.csv", np.concatenate([values, -values]))

    def test_integers_and_powers_of_ten(self, tmp_path):
        integers = [1.0, 7.0, 10.0, 123456789.0, 2.0 ** 52, 2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 60]
        powers = np.array([float(f"1e{e}") for e in range(-30, 23)])
        values = np.concatenate([integers, powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf)])
        self.assert_written_values_read_back(tmp_path / "traj.csv", np.concatenate([values, -values]))

    def test_ties_and_seventeen_digit_mantissas(self, tmp_path):
        # m / 4 with m odd in [2**52, 2**53) lies halfway between two 17-digit decimals,
        # and every normal value's 17 digits reach past 2**53
        rng = np.random.default_rng(29)
        m = rng.integers(2 ** 51, 2 ** 52, 300) * 2 + 1
        values = np.concatenate([m / 4.0, rng.standard_normal(300) * 10.0 ** rng.integers(-8, 12, 300)])
        self.assert_written_values_read_back(tmp_path / "traj.csv", values)

    @pytest.mark.parametrize("size", ["one", "block-1", "block", "block+1"])
    def test_body_sizes_around_the_block(self, tmp_path, size):
        # a body of whole rows ending one byte before, at and one byte after a read block
        rng = np.random.default_rng(3)
        path = tmp_path / "traj.csv"
        if size == "one":
            body = ",".join(format(v, ".17g") for v in rng.standard_normal(5)) + "\n"
        else:
            length = csvtext._READ_BLOCK + {"block-1": -1, "block": 0, "block+1": 1}[size]
            body = rows_of_length(length, rng)
            assert len(body) == length
        path.write_text("a,b,c,d,e\n" + body)
        self.assert_reads_as_loadtxt(path)

    def test_row_longer_than_a_block(self, tmp_path):
        values = np.random.default_rng(5).standard_normal((2, csvtext._READ_BLOCK // 12))
        path = tmp_path / "traj.csv"
        path.write_text("h\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n"
                                         for row in values.tolist()))
        assert len(path.read_bytes()) > 2 * csvtext._READ_BLOCK
        self.assert_reads_as_loadtxt(path)

    def test_missing_final_newline(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, TestTrajectoryCsvFormat.hand_built(
            np.random.default_rng(7).standard_normal(40)))
        path.write_bytes(path.read_bytes()[:-1])
        self.assert_reads_as_loadtxt(path)

    @pytest.mark.parametrize("body, by_reader", [
        (b"0.1,2\n", True), (b"007,-0.000\n", True), (b"1e-05,inf\n", True),
        (b".5,2\n", False), (b"1.,2\n", False), (b"1e5,2\n", False), (b"1E5,2\n", False),
        (b"+1,2\n", False), (b" 1,2\n", False), (b"1,2\r\n3,4\r\n", False),
        (b"1,2\n\n3,4\n", False), (b"# note\n1,2\n", False), (b"1,2 # note\n", False),
        (b"-nan,2\n", False), (b"Infinity,2\n", False),
        (b"12345678901234567890,0.0000000000000000000001\n", True),
        (b"123456789012345678.5,99999999999999999999999\n", True),
        (b"18446744073709551617,-0.18446744073709551617\n", True),  # 2**64 + 1
    ], ids=["0.1", "leading-zeros", "exponent-form", ".5", "1.", "1e5", "1E5", "+1", "space",
            "CRLF", "blank-line", "comment-line", "comment", "-nan", "Infinity", "long-digits",
            "long-digits-2", "digits-past-2**64"])
    def test_valid_non_canonical_files(self, tmp_path, body, by_reader):
        path = tmp_path / "traj.csv"
        path.write_bytes(b"a,b\n" + body)
        self.assert_reads_as_loadtxt(path, by_reader)

    def test_cr_in_header_line(self, tmp_path):
        # text mode ends the header line at the CR, so the body begins there
        path = tmp_path / "traj.csv"
        path.write_bytes(b"a,b\r1,2\n3,4\n")
        header, rows = load_trajectory_csv(path)
        assert (header, rows.tolist()) == (["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        want_header, want = loadtxt_reference(path)
        assert header == want_header and np.array_equal(rows, want)

    @pytest.mark.parametrize("body", [
        b"1,2\n3\n", b"1,2\n3\n4,5,6\n", b"1\n2,3\n", b"1_0,2\n", b"1.2.3,4\n", b"1,,2\n",
        b"1,\xc3\xa9\n", b"1,\xff\n", b"1,-\n", b"1,.\n", b"1,2\n3,4,\n",
    ], ids=["ragged", "ragged-same-count", "ragged-first-short", "1_0", "1.2.3", "empty-field",
            "non-ascii", "not-utf-8", "minus", "dot", "trailing-comma"])
    def test_malformed_files_raise_as_loadtxt(self, tmp_path, body):
        path = tmp_path / "traj.csv"
        path.write_bytes(b"a,b\n" + body)
        with pytest.raises(Exception) as want:
            loadtxt_reference(path)
        with pytest.raises(want.type) as got:
            load_trajectory_csv(path)
        assert str(got.value) == str(want.value)
        with open(path, "rb") as fh:
            fh.readline()
            assert csvtext.csv_rows(fh) is None

    @pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
    @pytest.mark.parametrize("text", [b"", b"a,b", b"a,b\n"], ids=["empty", "no-newline", "header"])
    def test_no_rows(self, tmp_path, text):
        path = tmp_path / "traj.csv"
        path.write_bytes(text)
        self.assert_reads_as_loadtxt(path, by_reader=False)

    @seed(29)
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=30))
    def test_floats_property(self, tmp_path_factory, values):
        self.assert_written_values_read_back(tmp_path_factory.mktemp("csv") / "traj.csv", values)

    @seed(29)
    @settings(max_examples=200, deadline=None)
    @given(patterns=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=30))
    def test_bit_patterns_property(self, tmp_path_factory, patterns):
        values = np.array(patterns, dtype=np.uint64).view(float)
        self.assert_written_values_read_back(tmp_path_factory.mktemp("csv") / "traj.csv", values)
