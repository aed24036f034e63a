import json
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from mpckit import cli, feasibility
from mpckit.cli import (DEMOS, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK,
                        EXIT_SOLVER, demo_config, emit_plot, main, parse_config, read_csv,
                        run_experiment, write_csv)
from mpckit.controller import Trajectory, run_closed_loop
from mpckit.exceptions import ConfigError
from mpckit.model import LtiModel, empty_polytope

SMALL_CONFIG = {
    "name": "small",
    "model": {"kind": "lti", "A": [[0.9, 0.2], [-0.4, 0.8]], "B": [[0.1], [0.01]]},
    "horizon": {"N": 3, "N_T": 5},
    "weights": {"Q": [[1, 0], [0, 1]], "R": [[1]]},
    "constraints": {"F_x": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                    "g_x": [10, 10, 10, 10],
                    "F_u": [[1], [-1]], "g_u": [1, 1]},
    "initial_state": [10, 5],
}


class TestParseConfig:
    def test_bundled_stabilize_demo(self):
        cfg = demo_config("lmpc-stabilize")
        assert cfg.mpc.N == 5
        assert cfg.mpc.N_T == 50
        assert isinstance(cfg.model, LtiModel)

    def test_all_demos_parse(self):
        for name in DEMOS:
            cfg = demo_config(name)
            assert cfg.mpc.N >= 2

    def test_qn_defaults_to_q(self):
        cfg = parse_config(json.dumps(SMALL_CONFIG))
        assert np.allclose(cfg.mpc.Q_N, cfg.mpc.Q)

    def test_zero_horizon_rejected(self):
        doc = dict(SMALL_CONFIG, horizon={"N": 0, "N_T": 5})
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))

    def test_unknown_model_kind(self):
        doc = dict(SMALL_CONFIG, model={"kind": "bicycle"})
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))

    def test_missing_section(self):
        doc = {k: v for k, v in SMALL_CONFIG.items() if k != "weights"}
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ConfigError) as err:
            parse_config("{\n  broken")
        assert "line" in str(err.value)

    def test_state_dimension_mismatch(self):
        doc = dict(SMALL_CONFIG, initial_state=[1, 2, 3])
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))

    def test_unknown_demo(self):
        with pytest.raises(ConfigError):
            demo_config("does-not-exist")


class TestCsv:
    def test_round_trip_full_precision(self, tmp_path):
        cfg = parse_config(json.dumps(SMALL_CONFIG))
        traj = run_closed_loop(cfg.model, cfg.mpc, cfg.initial_state)
        path = tmp_path / "traj.csv"
        write_csv(traj, 2, 1, path)
        states, inputs, costs = read_csv(path)
        assert np.array_equal(states, np.array(traj.states))
        assert np.array_equal(inputs, np.array(traj.inputs))
        assert np.array_equal(costs, np.array(traj.costs))

    def test_layout(self, tmp_path):
        cfg = parse_config(json.dumps(SMALL_CONFIG))
        traj = run_closed_loop(cfg.model, cfg.mpc, cfg.initial_state)
        path = tmp_path / "traj.csv"
        write_csv(traj, 2, 1, path)
        lines = path.read_text().split("\n")
        assert lines[0] == "k,x1,x2,u1,J_star,status,iterations"
        assert len(lines) == 1 + 5 + 1 + 1  # header, steps, final row, trailing LF
        final = lines[-2].split(",")
        assert final[0] == "5"
        assert final[3:] == ["", "", "", ""]
        assert "\r" not in path.read_text()

    def test_demo_determinism(self, tmp_path):
        cfg = parse_config(json.dumps(SMALL_CONFIG))
        paths = []
        for i in range(2):
            traj = run_closed_loop(cfg.model, cfg.mpc, cfg.initial_state)
            p = tmp_path / f"run{i}.csv"
            write_csv(traj, 2, 1, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestRunExperiment:
    def test_summary_fields(self, tmp_path):
        cfg = parse_config(json.dumps(SMALL_CONFIG))
        out = tmp_path / "out.csv"
        summary = run_experiment(cfg, out_path=out)
        assert summary["steps"] == 5
        assert summary["aborted_at"] is None
        assert summary["max_constraint_violation"] <= 1e-6
        assert out.exists()

    def test_infeasible_abort_recorded(self, tmp_path):
        doc = dict(SMALL_CONFIG, initial_state=[20, 0])
        cfg = parse_config(json.dumps(doc))
        out = tmp_path / "out.csv"
        summary = run_experiment(cfg, out_path=out)
        assert summary["aborted_at"] == 0
        assert summary["steps"] == 0
        assert out.exists()  # partial CSV still written

    def test_stabilize_demo_admm_iterations(self):
        # the loop's ADMM iterations are 250 with the polish tried at the
        # termination checks, were 1,070 with it at convergence only and
        # 1,285 with a step-size update every 50 iterations, not every 10
        assert run_experiment(demo_config("lmpc-stabilize"))["total_iterations"] < 1285


    @pytest.mark.parametrize("field, dim", [("X_set", 2), ("U_set", 1)])
    def test_empty_constraint_set(self, field, dim):
        cfg = parse_config(json.dumps(SMALL_CONFIG))
        cfg = replace(cfg, mpc=replace(cfg.mpc, **{field: empty_polytope(dim)}))
        summary = run_experiment(cfg)
        assert summary["steps"] == 5
        assert summary["max_constraint_violation"] <= 1e-6


class TestEmitPlot:
    def _traj(self, steps):
        cfg = parse_config(json.dumps(dict(SMALL_CONFIG,
                                           horizon={"N": 2, "N_T": steps})))
        return run_closed_loop(cfg.model, cfg.mpc, cfg.initial_state)

    def test_structure(self, tmp_path):
        traj = self._traj(5)
        path = tmp_path / "plot.svg"
        emit_plot(traj, path)
        text = path.read_text()
        assert text.count("<polyline") == 2 + 1  # two states, one input
        assert "<svg" in text

    def test_single_step(self, tmp_path):
        full = self._traj(5)
        traj = Trajectory(states=full.states[:2], inputs=full.inputs[:1],
                          costs=full.costs[:1], statuses=full.statuses[:1],
                          iterations=full.iterations[:1])
        path = tmp_path / "plot.svg"
        emit_plot(traj, path)
        assert path.exists()

    def test_empty_trajectory_rejected(self, tmp_path):
        path = tmp_path / "plot.svg"
        with pytest.raises(ValueError):
            emit_plot(Trajectory(), path)
        assert not path.exists()

    def test_bound_lines_drawn(self, tmp_path):
        cfg = parse_config(json.dumps(SMALL_CONFIG))
        traj = run_closed_loop(cfg.model, cfg.mpc, cfg.initial_state)
        path = tmp_path / "plot.svg"
        emit_plot(traj, path, X_set=cfg.mpc.X_set, U_set=cfg.mpc.U_set)
        assert "stroke-dasharray" in path.read_text()


class TestMain:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "out.csv"
        plot = tmp_path / "plot.svg"
        code = main(["run", "--config", str(cfg_path),
                     "--out", str(out), "--plot", str(plot)])
        assert code == EXIT_OK
        assert out.exists() and plot.exists()
        assert "final_state" in capsys.readouterr().out

    def test_summary_keys(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        keys = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert keys == ["name", "steps", "final_state", "max_constraint_violation",
                        "total_cost", "total_iterations", "non_optimal_steps",
                        "wall_time_s", "aborted_at"]

    def test_unwritable_output_paths(self, tmp_path, capsys, monkeypatch):
        # a path in a missing directory is a config error, not a traceback,
        # and it is found before the closed loop runs
        monkeypatch.setattr(cli, "run_closed_loop", lambda *args: pytest.fail("loop ran"))
        missing = tmp_path / "missing"
        for flag in ("--out", "--plot"):
            code = main(["demo", "lmpc-stabilize", flag, str(missing / "x")])
            out, err = capsys.readouterr()
            assert code == EXIT_CONFIG, flag
            assert f"config error: [Errno 2] No such file or directory: '{missing / 'x'}'" \
                in err and "Traceback" not in err, err
            assert "final_state" not in out, flag

    def test_output_path_check_leaves_files_as_they_were(self, tmp_path, capsys, monkeypatch):
        # the check before the loop leaves no file where there was none, and
        # an existing file keeps its contents unless it is written
        kept = tmp_path / "kept.svg"
        kept.write_text("old")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(SMALL_CONFIG, initial_state=[20, 0])))
        assert main(["run", "--config", str(cfg_path), "--plot", str(kept)]) == EXIT_INFEASIBLE
        assert kept.read_text() == "old"     # an aborted run plots nothing
        monkeypatch.setattr(cli, "run_closed_loop", lambda *args: pytest.fail("loop ran"))
        for path in (tmp_path / "new.csv", kept):
            with pytest.raises(pytest.fail.Exception):
                run_experiment(demo_config("lmpc-stabilize"), out_path=path)
        assert not (tmp_path / "new.csv").exists() and kept.read_text() == "old"

    def test_fifo_output_path_not_opened(self, tmp_path):
        # opening a FIFO blocks until a reader comes, and closing it again
        # would end that reader's input before the CSV is written
        fifo = tmp_path / "out.csv"
        os.mkfifo(fifo)
        checked = threading.Event()
        threading.Thread(target=lambda: cli._check_writable(fifo) or checked.set(),
                         daemon=True).start()
        assert checked.wait(10)

    def test_plot_of_run_aborted_at_step_0(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(SMALL_CONFIG, initial_state=[20, 0])))
        plot = tmp_path / "plot.svg"
        code = main(["run", "--config", str(cfg_path), "--plot", str(plot)])
        out, err = capsys.readouterr()
        assert code == EXIT_INFEASIBLE
        assert "aborted_at: 0" in out and "empty trajectory, no plot written" in err
        assert not plot.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG

    def test_invalid_config(self, tmp_path, capsys):
        lti = SMALL_CONFIG["model"]
        # each malformed config, with a fragment its error message must hold
        bad = [
            ({"horizon": {"N": 0, "N_T": 5}}, ""),
            ({"model": {"kind": "lti", "B": lti["B"]}}, ""),
            ({"model": dict(lti, A=[[0.9, 0.2]])}, ""),
            ({"model": [lti]}, ""),
            ({"initial_state": [float("nan"), 5]}, ""),
            ({"constraints": dict(SMALL_CONFIG["constraints"],
                                  terminal={"F": [[1, 0], [0, 1]]})}, ""),
            ({"weights": {"Q": [[1, 0], [0, 1]], "R": [[1]],
                          "Q_N": [[-10, 0], [0, 1]]}}, ""),
            ({"weights": {"Q": [[1, 0]], "R": [[1]]}},
             "Q must be square, got (1, 2)"),
            ({"weights": {"Q": [[1, 0], [0, 1]], "R": [[1, 0]]}},
             "R must be square, got (1, 2)"),
            ({"constraints": dict(SMALL_CONFIG["constraints"],
                                  g_x=[10, float("nan"), 10, 10])}, "g_x must be finite"),
            ({"model": dict(lti, A=[[0.9, float("nan")], [-0.4, 0.8]])}, "A must be finite"),
            ({"weights": {"Q": [[1, 0], [0, float("inf")]], "R": [[1]]}}, "Q must be finite"),
            ({"model": dict(DEMOS["nmpc-stabilize"]["model"], M=float("nan"))}, "M must be finite"),
            ({"solver": {"eps_abs": float("nan")}}, "eps_abs must be finite"),
            ({"horizon": {"N": 3, "N_T": float("inf")}}, ""),
            ({"horizon": {"N": 2.7, "N_T": 5}}, "horizon.N must be an integer"),
            ({"horizon": {"N": 1, "N_T": True}}, "horizon.N_T must be an integer"),
            ({"horizon": {"N": 3, "N_T": 5, "N_C": "2"}}, "horizon.N_C must be an integer"),
            ({"solver": {"max_iter": 100.9}}, "solver.max_iter must be an integer"),
            ({"solver": {"eps_abs": "0.001"}}, "eps_abs must be a JSON number"),
            ({"solver": {"eps_rel": True}}, "eps_rel must be a JSON number"),
            ({"model": dict(lti, A=[["0.9", "0.2"], ["-0.4", "0.8"]])}, "A must hold JSON numbers only"),
            ({"initial_state": ["10", "5"]}, "initial_state must hold JSON numbers only"),
            ({"weights": {"Q": [[True, 0], [0, True]], "R": [[1]]}}, "Q must hold JSON numbers only"),
            ({"model": dict(DEMOS["nmpc-stabilize"]["model"], T="0.1")}, "T must be a JSON number"),
            ({"model": dict(DEMOS["nmpc-stabilize"]["model"], T=[0.1])}, "T must be a JSON number"),
            ({"reference": [3, 2]}, "reference must be an object"),
            ({"reference": {}}, "x_r"),
            ({"constraints": []}, "constraints must be an object"),
            ({"solver": "sparse"}, "solver must be an object"),
            ({"constraints": dict(SMALL_CONFIG["constraints"], terminal=[[1, 0]])},
             "constraints.terminal must be an object"),
            ({"weights": {"Q": [[1, 0.5], [0, 1]], "R": [[1]]}}, "Q is not symmetric"),
            ({"model": dict(lti, B=[[0.1, 0], [0.01, 0.1]]), "constraints": {},
              "weights": {"Q": [[1, 0], [0, 1]], "R": [[1, 0.5], [0, 1]]}},
             "R is not symmetric"),
            ({"weights": {"Q": [[1, 0], [0, 1]], "R": [[1]], "Q_N": [[1, 0.5], [0, 1]]}},
             "Q_N is not symmetric"),
            ({"constraints": dict(SMALL_CONFIG["constraints"],
                                  F_x=[[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])},
             "X_set (F_x) has 3 columns, expected 2"),
            ({"constraints": dict(SMALL_CONFIG["constraints"], F_u=[[1, 0], [-1, 0]])},
             "U_set (F_u) has 2 columns, expected 1"),
            ({"model": dict(lti, B=[[0.1, 0], [0.01, 0.1]])},
             "R is 1x1, but the model has 2 inputs"),
            ({"weights": {"Q": np.eye(3).tolist(), "R": [[1]]}, "initial_state": [10, 5, 0]},
             "Q is 3x3, but the model has 2 states"),
            ({"constraints": dict(SMALL_CONFIG["constraints"],
                                  terminal={"F": [[1, 0, 0]], "g": [1]})},
             "terminal_set (F) has 3 columns, expected 2"),
            ({"reference": {"x_r": [3, 2, 1]}}, "reference (x_r) has length 3, expected 2"),
            ({"model": DEMOS["nmpc-stabilize"]["model"], "initial_state": [2, 1, 0],
              "weights": {"Q": np.eye(3).tolist(), "R": [[1]]}},
             "Q is 3x3, but the model has 2 states"),
            ({"solver": {"eps_abs": -1}}, "solver.eps_abs must be >= 0"),
            ({"solver": {"eps_rel": -1e-6}}, "solver.eps_rel must be >= 0"),
            ({"solver": {"max_iter": 0}}, "solver.max_iter must be >= 1"),
            # a key no section reads is a config error, not silently dropped
            ({"constraint": SMALL_CONFIG["constraints"]}, "unknown key 'constraint' in config"),
            ({"solver": {"max_iters": 5}}, "unknown key 'max_iters' in solver"),
            ({"solver": {"formulaton": "sparse"}}, "unknown key 'formulaton' in solver"),
            ({"solver": {"warm_start": False}}, "unknown key 'warm_start' in solver"),
            ({"horizon": {"N": 3, "N_T": 5, "N_c": 2}}, "unknown key 'N_c' in horizon"),
            ({"weights": {"Q": [[1, 0], [0, 1]], "R": [[1]], "QN": [[2, 0], [0, 2]]}},
             "unknown key 'QN' in weights"),
            ({"model": dict(lti, T=0.1)}, "unknown key 'T' in model"),
            ({"model": dict(DEMOS["nmpc-stabilize"]["model"], A=lti["A"]),
              "initial_state": [0.5, 0]}, "unknown key 'A' in model"),
            ({"constraints": dict(SMALL_CONFIG["constraints"], g_X=[10, 10, 10, 10])},
             "unknown key 'g_X' in constraints"),
            ({"constraints": dict(SMALL_CONFIG["constraints"],
                                  terminal={"F": SMALL_CONFIG["constraints"]["F_x"],
                                            "g": SMALL_CONFIG["constraints"]["g_x"], "G": [1]})},
             "unknown key 'G' in constraints.terminal"),
            ({"reference": {"x_r": [3, 2], "u_r": [0]}}, "unknown key 'u_r' in reference"),
            ({"name": 3}, "name must be a JSON string, got 3"),
            # a reference with no admissible steady state stops before any solve
            ({"reference": {"x_r": [100, 100]}},
             "reference state lies outside the state constraint set"),
            ({"reference": {"x_r": [9, -9]}},
             "steady-state input for the reference violates the input constraints"),
        ]
        cfg_path = tmp_path / "cfg.json"
        for change, message in bad:
            cfg_path.write_text(json.dumps(dict(SMALL_CONFIG, **change)))
            code = main(["run", "--config", str(cfg_path)])
            assert code == EXIT_CONFIG, change
            err = capsys.readouterr().err
            assert "config error" in err and message in err, err

    def test_infeasible_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(SMALL_CONFIG,
                                            initial_state=[20, 0])))
        code = main(["run", "--config", str(cfg_path)])
        assert code == EXIT_INFEASIBLE

    def test_reference_without_steady_input_exit_code(self, tmp_path, capsys):
        # no input holds the pendulum at a non-zero angular velocity
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(DEMOS["nmpc-track"], reference={"x_r": [0.5, 1.0]})))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_SOLVER
        out, err = capsys.readouterr()
        assert out == "" and err == "solver failure: line search stalled in steady-state solve\n"

    def test_check_feasibility(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        code = main(["check-feasibility", "--config", str(cfg_path),
                     "--state", "0,0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "feasible: True" in out

    def test_check_feasibility_pendulum_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(DEMOS["nmpc-stabilize"]))
        code = main(["check-feasibility", "--config", str(cfg_path), "--state", "2,1"])
        out, err = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert out == "" and "config error: check-feasibility supports LTI models only" in err

    def test_check_feasibility_control_horizon(self, tmp_path, capsys):
        # with N_C = 2 the zero inputs after the control horizon break u >= 0.5
        doc = dict(DEMOS["lmpc-stabilize"], horizon={"N": 5, "N_T": 50, "N_C": 2},
                   constraints=dict(DEMOS["lmpc-stabilize"]["constraints"], g_u=[1, -0.5]))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code = main(["check-feasibility", "--config", str(cfg_path), "--state", "5,2"])
        assert code == EXIT_OK
        assert "feasible: False" in capsys.readouterr().out
        assert main(["run", "--config", str(cfg_path)]) == EXIT_INFEASIBLE

    def test_check_feasibility_malformed_state(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SMALL_CONFIG))
        for state, message in (("1,abc", "--state must be a numeric array"),
                               ("1,2,3", "--state has dimension 3, model has 2"),
                               ("1,nan", "--state must be finite")):
            code = main(["check-feasibility", "--config", str(cfg_path),
                         "--state", state])
            out, err = capsys.readouterr()
            assert code == EXIT_CONFIG, state
            assert out == "" and f"config error: {message}" in err, err

    def test_check_feasibility_at_iteration_cap(self, tmp_path, capsys, monkeypatch):
        # solver.max_iter does not govern the phase-I LP: (-9.9, -8.1) is
        # infeasible, with a checked certificate
        doc = dict(DEMOS["lmpc-stabilize"], solver={"max_iter": 5})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        args = ["check-feasibility", "--config", str(cfg_path), "--state=-9.9,-8.1"]
        code = main(args)
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "feasible: False" in out and "phase1_status: optimal" in out
        assert "certificate: [" in out
        # HiGHS stopped at its own iteration limit leaves the verdict open
        monkeypatch.setitem(feasibility.HIGHS_OPTIONS, "simplex_iteration_limit", 1)
        code = main(args)
        out, err = capsys.readouterr()
        assert code == EXIT_SOLVER
        assert "feasible: False" in out and "phase1_status: iteration_limit" in out
        assert "solver failure: the phase-I verdict is not conclusive" in err

    def test_check_feasibility_tampered_certificate(self, tmp_path, capsys, monkeypatch):
        solve = feasibility._solve_lp

        def tampered(lp, b):
            status, x, mu = solve(lp, b)
            return status, x, -mu

        monkeypatch.setattr(feasibility, "_solve_lp", tampered)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(DEMOS["lmpc-stabilize"]))
        code = main(["check-feasibility", "--config", str(cfg_path), "--state=8.5,-9.5"])
        out, err = capsys.readouterr()
        assert code == EXIT_SOLVER
        assert "feasible: False" in out and "phase1_status: certificate_rejected" in out
        assert "certificate:" not in out and "not conclusive" in err

    def test_non_optimal_steps_exit_code(self, tmp_path, capsys):
        # with zero tolerances no polished point passes, so every step ends
        # at the iteration cap
        doc = dict(DEMOS["lmpc-stabilize"], horizon={"N": 5, "N_T": 5},
                   solver={"eps_abs": 0.0, "eps_rel": 0.0, "max_iter": 5})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code = main(["run", "--config", str(cfg_path)])
        out, err = capsys.readouterr()
        assert code == EXIT_SOLVER
        assert "non_optimal_steps: 5" in out
        assert "solver failure: 5 of 5 steps" in err

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_demos_all_optimal(self, name, capsys):
        assert main(["demo", name]) == EXIT_OK
        assert "non_optimal_steps: 0" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "mpc" in capsys.readouterr().out
