import json

import numpy as np
import pytest

from nrigid.cli import load_trajectory_csv, main
from nrigid.matcore import expm
from nrigid.body import hat


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
        "command", [["simulate", "symrep"], ["verify-reduction"], ["lift"]]
    )
    def test_seed_rejected_where_unused(self, tmp_path, command):
        # these runs have no random input, so they take no --seed
        cfg = write_config(tmp_path / "cfg.json")
        with pytest.raises(SystemExit) as exc:
            main(command + ["--config", str(cfg), "--out", str(tmp_path), "--seed", "1"])
        assert exc.value.code == 2


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


class TestCheckInvariants:
    def test_battery_passes(self, capsys):
        assert main(["check-invariants", "--seed", "42", "--trials", "200"]) == 0
        out = capsys.readouterr().out
        assert "all invariants passed" in out
        assert out.count("200/200") == 8


class TestNonFiniteConfig:
    # json.load accepts NaN and Infinity; they are validation errors, named
    @pytest.mark.parametrize("command", [["simulate", "euler"], ["simulate", "symrep"],
                                         ["simulate", "euler-poisson"], ["lift"]])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_pi0_vector_exit_2(self, tmp_path, capfd, command, bad):
        cfg = write_config(tmp_path / "cfg.json", pi0=[bad, 0.0, 0.0])
        assert main(command + ["--config", str(cfg), "--out", str(tmp_path)]) == 2
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
        assert main(command + ["--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capfd.readouterr().err
        assert "q0" in err and "non-finite" in err
        assert "DLASCL" not in err
