import ast
import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import yaml

import nullsheet as ns
import nullsheet.cli
from nullsheet.cli import main, run_pipeline
from nullsheet.config import build_curve, build_spacetime, load_config, parse_config

SHIPPED = pathlib.Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, name="run.yaml", **overrides):
    base = {
        "spacetime": {"type": "schwarzschild", "mass": 1.0},
        "initial_data": {
            "phi": ["0", "10", "pi/2 + 0.3*sin(vartheta)", "vartheta"],
            "psi": ["1.25", "1", "0", "0"],
            "theta_range": [0.0, 2 * math.pi],
            "samples": 16,
            "periodic": True,
        },
        "solver": {"t_end": 10.0, "rel_tol": 1e-10, "abs_tol": 1e-12},
        "output": {
            "format": "csv",
            "path": str(tmp_path / "surface.csv"),
            "t_samples": 6,
        },
        "oracle": {
            "example": 1,
            "case": "auto",
            "params": {
                "r0": 10.0,
                "r1": 1.0,
                "tau0": 0.0,
                "alpha0": "pi/2 + 0.3*sin(vartheta)",
                "sign": 1,
            },
        },
        "compare": {"tol": 1e-6},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in base:
            base[key].update(value)
        else:
            base[key] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(base))
    return path


class TestConfigSchema:
    def test_missing_mass_path_in_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            textwrap.dedent(
                """
                spacetime: {type: schwarzschild}
                initial_data:
                  phi: ["0", "10", "pi/2", "vartheta"]
                  psi: ["1.25", "1", "0", "0"]
                """
            )
        )
        with pytest.raises(ns.ConfigError) as err:
            load_config(path)
        assert "spacetime.mass" in str(err.value)

    @pytest.mark.parametrize("command", ["validate", "classify"])
    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_non_finite_mass_exit_2(self, tmp_path, capsys, command, mass):
        cfg = write_config(tmp_path, spacetime={"mass": mass})
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: spacetime.mass")
        assert err.count("\n") == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ns.ConfigError):
            parse_config({"spacetme": {}})

    @pytest.mark.parametrize(
        "block, key, value", [("solver", "rel_tl", 1e-3), ("output", "t_sample", 3)]
    )
    def test_unknown_block_key_rejected(self, tmp_path, capsys, block, key, value):
        raw = yaml.safe_load(write_config(tmp_path).read_text())
        raw[block][key] = value
        with pytest.raises(ns.ConfigError) as err:
            parse_config(raw)
        assert str(err.value).startswith(f"{block}.{key}:")
        cfg = write_config(tmp_path, **{block: {key: value}})
        assert main(["validate", "--config", str(cfg)]) == 2
        assert f"{block}.{key}" in capsys.readouterr().err

    def test_wrong_phi_arity(self):
        with pytest.raises(ns.ConfigError) as err:
            parse_config(
                {
                    "spacetime": {"type": "schwarzschild", "mass": 1.0},
                    "initial_data": {"phi": ["0", "1"], "psi": ["0", "1"]},
                }
            )
        assert "initial_data.phi" in str(err.value)

    def test_expression_tolerated_in_numbers(self):
        cfg = parse_config(
            {
                "spacetime": {"type": "schwarzschild", "mass": 1.0},
                "initial_data": {
                    "phi": ["0", "10", "pi/2", "vartheta"],
                    "psi": ["1.25", "1", "0", "0"],
                    "theta_range": ["0", "2*pi"],
                },
            }
        )
        assert cfg.initial_data.theta_range[1] == pytest.approx(2 * math.pi)


class TestValidateCommand:
    def test_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_fail_lightlikeness(self, tmp_path):
        cfg = write_config(
            tmp_path, initial_data={"psi": ["1", "0", "0", "0"]}
        )
        assert main(["validate", "--config", str(cfg)]) == 1

    def test_non_finite_lambda_is_one_error_line(self, tmp_path, capsys):
        # psi_2 = 1e308 overflows g01: Lambda is -inf, so nothing may print PASS
        raw = yaml.safe_load((SHIPPED / "radial_null.yaml").read_text())
        raw["initial_data"]["psi"][2] = 1e308
        cfg = tmp_path / "huge_psi.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert "PASS" not in out
        assert err == "error: Lambda undefined at vartheta = 0.0: -g01/g11 = -inf is not finite\n"

    def test_schema_error_exit_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("spacetime: {type: schwarzschild}\n")
        assert main(["validate", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "name, content",
        [
            ("missing.yaml", None),
            ("folder", "dir"),
            ("latin1.yaml", b"spacetime: {type: schwarzschild, mass: 1.0}  # \xe9\n"),
            ("broken.yaml", b"spacetime: {type: schwarzschild, mass: 1.0\n"),
        ],
        ids=["missing", "directory", "non-utf8", "broken-yaml"],
    )
    def test_unreadable_config_exit_2(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_validate_checks_oracle_params(self, tmp_path, capsys):
        raw = yaml.safe_load((SHIPPED / "photon_sphere.yaml").read_text())
        raw["oracle"]["params"]["r0"] = "abc"
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: oracle.params.r0")

    def test_force_is_a_solve_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--config", str(cfg), "--force"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --force" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alpha", ["1e400", "sqrt(vartheta - 10)", "1/(vartheta-vartheta)"]
    )
    def test_bad_expression_exit_2(self, tmp_path, capsys, alpha):
        cfg = write_config(
            tmp_path,
            initial_data={"phi": ["0", "10", alpha, "vartheta"], "periodic": False},
        )
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "rows, bad",
        [(6, "1e400"), (4, None), (6, "x")],
        ids=["non-finite", "too-few", "unparsable"],
    )
    def test_bad_sample_file_exit_2(self, tmp_path, capsys, rows, bad):
        thetas = [0.1 * i for i in range(rows)]
        phi = [[v, 0.0, 10.0, 1.5, v] for v in thetas]
        psi = [[v, 1.25, 1.0, 0.0, 0.0] for v in thetas]
        for name, table in (("phi", phi), ("psi", psi)):
            text = "\n".join(",".join(repr(x) for x in row) for row in table)
            if name == "phi" and bad is not None:
                text = text.replace("10.0", bad, 1)
            (tmp_path / f"{name}.csv").write_text(text + "\n")
        cfg = write_config(
            tmp_path,
            initial_data={
                "phi": str(tmp_path / "phi.csv"),
                "psi": str(tmp_path / "psi.csv"),
                "periodic": False,
            },
        )
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1
        assert "Traceback" not in err


# example-3 plunges from r0 = 3 that fall into the horizon before t_end
PLUNGE = {
    "initial_data": {
        "phi": ["vartheta", "3", "0.15713484026367722*vartheta", "0"],
        "psi": ["1", "0", "0.15713484026367722", "0"],
        "theta_range": [1.0, 2.0],
        "samples": 8,
        "periodic": False,
    },
    "solver": {"t_end": 12.0},
    "oracle": None,
}
# the benchmark's infall-ring at its smoke-test size: 8 characteristics, 5 t-samples
INFALL_RING = {
    "initial_data": {
        "phi": ["0", "2.5", "1.2", "vartheta"],
        "psi": ["1 + 0.25*sin(vartheta)", "0", "sqrt(1.25)/6.25*abs(1 + 0.25*sin(vartheta))", "0"],
        "theta_range": [0.0, 2 * math.pi],
        "samples": 8,
        "periodic": True,
    },
    "output": {"t_samples": 5},
    "oracle": None,
}


class TestSolveCommand:
    def test_radial_null_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        rows = ns.import_csv(tmp_path / "surface.csv")
        for row in rows:
            assert row["type"] == "lightlike"
            assert abs(row["r"] - (row["t"] + 10.0)) < 1e-8

    def test_validation_gate_and_force(self, tmp_path):
        cfg = write_config(
            tmp_path, initial_data={"psi": ["1", "0", "0", "0"]},
            solver={"t_end": 1.0},
        )
        assert main(["solve", "--config", str(cfg)]) == 1
        assert main(["solve", "--config", str(cfg), "--force"]) == 0

    def test_overflowing_psi_fails_the_integration(self, tmp_path, capsys):
        # psi_0 = 1e308 overflows the acceleration, so no initial step size exists
        cfg = write_config(tmp_path, initial_data={"psi": ["1e308", "1", "0", "0"]})
        assert main(["solve", "--config", str(cfg), "--force"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: integration failed") and err.count("\n") == 1

    def test_huge_radius_fails_the_integration(self, tmp_path, capsys):
        # r = 1e308 overflows the induced metric, so the run stops at Lambda
        # before it integrates ...
        cfg = write_config(
            tmp_path, initial_data={"phi": ["0", "1e308", "pi/2", "vartheta"]}
        )
        assert main(["solve", "--config", str(cfg), "--force"]) == 1
        err = capsys.readouterr().err
        assert err == "error: Lambda undefined at vartheta = 0.0: |g11| = nan\n"
        # ... and integrated on its own, r**3 overflows the acceleration at the start
        state = ns.GeodesicState(y=np.array([0.0, 1e308, math.pi / 2, 0.0]),
                                 v=np.array([1.25, 1.0, 0.0, 0.0]), t=0.0)
        with pytest.raises(ns.NullsheetError, match="^integration failed: acceleration overflows"):
            ns.integrate(ns.schwarzschild(ns.SchwarzschildParams(m=1.0)), state, 10.0)

    @staticmethod
    def _theta_sampled(name):
        """A shipped config solved to t = 1 on twice as many theta columns as characteristics."""
        raw = yaml.safe_load((SHIPPED / name).read_text())
        n = 2 * raw["initial_data"]["samples"]
        raw["output"]["theta_samples"] = n
        raw["solver"]["t_end"] = 1.0
        cfg = parse_config(raw)
        curve = build_curve(cfg)
        return curve, run_pipeline(cfg, build_spacetime(cfg), curve).mesh, n

    def test_theta_samples_periodic(self):
        curve, mesh, n = self._theta_sampled("photon_sphere.yaml")
        assert np.array_equal(mesh.theta_grid, curve.theta_min + curve.period * np.arange(n) / n)
        # Lambda = 0 on the photon sphere, so every node sits on its own characteristic
        theta = np.broadcast_to(mesh.theta_grid, mesh.shape)
        assert not mesh.truncated.any()
        assert np.all(np.abs(mesh.vartheta - theta) <= 1e-12 * (1.0 + np.abs(theta)))

    def test_theta_samples_non_periodic(self):
        curve, mesh, n = self._theta_sampled("boosted_circular.yaml")
        assert np.array_equal(mesh.theta_grid, np.linspace(curve.theta_min, curve.theta_max, n))

    @pytest.mark.parametrize("name", ["boosted_circular.yaml", "radial_null.yaml"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_theta_samples_below_one_exit_2(self, tmp_path, capsys, monkeypatch, name, n):
        monkeypatch.chdir(tmp_path)  # the shipped configs write relative paths
        raw = yaml.safe_load((SHIPPED / name).read_text())
        raw["output"]["theta_samples"] = n
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["solve", "--config", str(cfg), "--force"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: output.theta_samples:")
        assert err.count("\n") == 1

    def test_determinism(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["solve", "--config", str(cfg)]) == 0
        first = (tmp_path / "surface.csv").read_bytes()
        assert main(["solve", "--config", str(cfg)]) == 0
        assert (tmp_path / "surface.csv").read_bytes() == first

    def test_dump_characteristics(self, tmp_path):
        cfg = write_config(tmp_path, solver={"t_end": 2.0})
        dump = tmp_path / "chars.csv"
        assert main(
            ["solve", "--config", str(cfg), "--dump-characteristics", str(dump)]
        ) == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "t,theta,vartheta,lambda,jacobian"
        cells = lines[1].split(",")
        assert len(cells) == 5
        # Lambda = 0 for radial data: theta == vartheta, J == 1
        assert float(cells[1]) == float(cells[2])
        assert float(cells[4]) == 1.0

    def test_dump_keeps_t_theta_of_truncated_nodes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the config writes a relative path
        argv = ["solve", "--config", str(SHIPPED / "boosted_circular.yaml"),
                "--dump-characteristics", "chars.csv"]
        assert main(argv) == 0
        surface = ns.import_csv(tmp_path / "boosted_circular.csv")
        lines = (tmp_path / "chars.csv").read_text().splitlines()[1:]
        assert len(lines) == len(surface)
        cut = [row["type"] == "truncated" for row in surface]
        assert any(cut) and not all(cut)
        for row, line, truncated in zip(surface, lines, cut):
            t, theta, *rest = line.split(",")
            assert (float(t), float(theta)) == (row["t"], row["theta"])
            if truncated:
                assert line == f"{t},{theta},,,"
            else:
                assert len(rest) == 3 and "" not in rest

    @pytest.mark.parametrize(
        "fmt, dump, field",
        [("csv", False, "output.path"), ("json", False, "output.path"),
         ("csv", True, "--dump-characteristics")],
        ids=["csv", "json", "dump"],
    )
    def test_unwritable_output_exit_2(self, tmp_path, capsys, monkeypatch, fmt, dump, field):
        def solve_not_reached(*args):
            raise AssertionError("the paths are checked before solving")

        monkeypatch.setattr("nullsheet.cli.run_pipeline", solve_not_reached)
        missing = tmp_path / "missing"
        surface = (tmp_path if dump else missing) / f"surface.{fmt}"
        cfg = write_config(
            tmp_path,
            output={"format": fmt, "path": str(surface), "t_samples": 3},
            solver={"t_end": 1.0},
        )
        argv = ["solve", "--config", str(cfg)]
        if dump:
            argv += ["--dump-characteristics", str(missing / "chars.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {field}: cannot write")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not surface.exists()

    def test_minkowski_spherical_cone(self, tmp_path):
        # flat-space cone string: radial null data in spherical coordinates
        cfg = write_config(
            tmp_path,
            spacetime={"type": "minkowski_spherical"},
            initial_data={
                "phi": ["0", "10", "pi/2", "vartheta"],
                "psi": ["1", "1", "0", "0"],
            },
            solver={"t_end": 5.0},
            oracle=None,
        )
        raw = yaml.safe_load(cfg.read_text())
        del raw["spacetime"]["mass"]
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert main(["solve", "--config", str(cfg)]) == 0
        rows = ns.import_csv(tmp_path / "surface.csv")
        for row in rows:
            assert abs(row["r"] - (row["t"] + 10.0)) < 1e-9
            assert row["type"] == "lightlike"

    def test_json_output(self, tmp_path):
        cfg = write_config(
            tmp_path,
            output={
                "format": "json",
                "path": str(tmp_path / "surface.json"),
                "t_samples": 4,
            },
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        doc = ns.import_json(tmp_path / "surface.json")
        assert len(doc["nodes"]) == 4

    def test_near_horizon_truncation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **PLUNGE)
        assert main(["solve", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "horizon" in out
        rows = ns.import_csv(tmp_path / "surface.csv")
        assert any(r["type"] == "truncated" for r in rows)


class TestHorizonStop:
    """run_pipeline passes its t-grid, so characteristics stop short of the horizon."""

    @pytest.mark.parametrize("overrides", [INFALL_RING, PLUNGE], ids=["infall_ring", "plunge"])
    def test_mesh_equals_the_full_integration(self, tmp_path, overrides):
        cfg = load_config(write_config(tmp_path, **overrides))
        spacetime, curve = build_spacetime(cfg), build_curve(cfg)
        result = run_pipeline(cfg, spacetime, curve)
        char_thetas = curve.grid(cfg.initial_data.samples)
        full = [
            ns.integrate(
                spacetime,
                ns.GeodesicState(y=curve.phi(v), v=curve.psi(v), t=0.0),
                cfg.solver.t_end,
                cfg.solver,
            )
            for v in char_thetas
        ]
        for cut, whole in zip(result.trajectories, full):
            assert [e.kind for e in cut.events] == [e.kind for e in whole.events] == ["horizon"]
            assert cut.t_last < whole.t_last < cut.events[0].t
        wrap = ns.wrap_offset_from_curve(curve) if curve.periodic else None
        mesh = ns.build_surface(
            full, char_thetas, result.cmap, result.mesh.t_grid, result.mesh.theta_grid,
            spacetime, wrap_offset=wrap,
        )
        assert mesh.truncated.any() and not mesh.truncated.all()
        for field in dataclasses.fields(mesh):
            got, want = getattr(result.mesh, field.name), getattr(mesh, field.name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field.name


class TestCompareCommand:
    def test_example1_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["compare", "--config", str(cfg)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_wrong_oracle_mass_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        raw = yaml.safe_load(cfg.read_text())
        raw["oracle"]["params"]["m"] = 1.05
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["compare", "--config", str(cfg)]) == 2

    def test_wrong_oracle_data_exit_2(self, tmp_path):
        cfg = write_config(tmp_path)
        raw = yaml.safe_load(cfg.read_text())
        raw["oracle"]["params"]["r1"] = 2.0
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["compare", "--config", str(cfg)]) == 2

    def test_missing_oracle_block(self, tmp_path):
        cfg = write_config(tmp_path, oracle=None)
        assert main(["compare", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "key, value", [("sign_alpha", 2), ("r0", "abc"), ("alpha0", "vartheta")]
    )
    def test_bad_oracle_param_exit_2(self, tmp_path, capsys, key, value):
        raw = yaml.safe_load((SHIPPED / "photon_sphere.yaml").read_text())
        raw["oracle"]["params"][key] = value
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["compare", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: oracle.params")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_inverted_oracle_range_exit_2(self, tmp_path, capsys):
        raw = yaml.safe_load((SHIPPED / "boosted_circular.yaml").read_text())
        raw["oracle"]["params"]["theta_range"] = [0, -1.0e308]
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["compare", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: oracle.params.theta_range:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "name, key",
        [("radial_null", "r0"), ("photon_sphere", "tau0"), ("boosted_circular", "beta0")],
    )
    def test_nan_oracle_param_exit_2(self, tmp_path, capsys, name, key):
        raw = yaml.safe_load((SHIPPED / f"{name}.yaml").read_text())
        raw["oracle"]["params"][key] = math.nan
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["compare", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err.startswith("oracle mismatch: ")
        assert captured.err.count("\n") == 1

    def test_nan_error_fails_the_verdict(self, tmp_path, capsys, monkeypatch):
        make_oracle = nullsheet.cli.make_oracle

        def nan_on_first_node(*args):
            oracle = make_oracle(*args)
            evaluate, calls = oracle.evaluate, []

            def evaluate_nan(t, vartheta):
                calls.append(t)
                x = evaluate(t, vartheta)
                return np.full_like(x, np.nan) if len(calls) == 1 else x

            oracle.evaluate = evaluate_nan
            return oracle

        monkeypatch.setattr(nullsheet.cli, "make_oracle", nan_on_first_node)
        assert main(["compare", "--config", str(write_config(tmp_path))]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[1].split() == ["tau", "nan", "nan"]
        assert out.endswith("verdict                  : FAIL\n")



class TestClassifyCommand:
    def test_photon_sphere_rows(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            initial_data={
                "phi": ["0", "3", "1.0", "vartheta"],
                "psi": ["1", "0", "sqrt(3)/9", "0"],
            },
            oracle=None,
        )
        assert main(["classify", "--config", str(cfg), "--rows", "3"]) == 0
        out = capsys.readouterr().out
        assert "double_root" in out

    def test_radial_data_undefined(self, tmp_path, capsys):
        cfg = write_config(tmp_path, oracle=None)
        assert main(["classify", "--config", str(cfg), "--rows", "2"]) == 0
        assert "psi_2 = 0" in capsys.readouterr().out

    def test_psi2_zero_with_angular_momentum_has_rows(self, tmp_path, capsys):
        # psi_2 = 0 off the axis with psi_3 != 0: J = L^2/sin^2(alpha) > 0
        cfg = write_config(
            tmp_path,
            initial_data={"phi": ["0", "8", "1.0", "vartheta"], "psi": ["1.3", "-0.2", "0", "0.03"]},
            oracle=None,
        )
        assert main(["classify", "--config", str(cfg), "--rows", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2
        assert not any("undefined" in row for row in rows)

    def test_tiny_mass_rows_undefined(self, tmp_path, capsys):
        # 2m = 2e-300 overflows the monic cubic's coefficients
        raw = yaml.safe_load((SHIPPED / "photon_sphere.yaml").read_text())
        raw["spacetime"]["mass"] = 1.0e-300
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["classify", "--config", str(cfg), "--rows", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3
        assert all(row.endswith("undefined (radial cubic overflows at m = 1e-300)") for row in rows)

    @pytest.mark.parametrize("leaf, value", [("phi", 1e308), ("psi", 1e-300)])
    def test_overflowing_coefficients_rows_undefined(self, tmp_path, capsys, leaf, value):
        raw = yaml.safe_load((SHIPPED / "photon_sphere.yaml").read_text())
        raw["initial_data"][leaf][1 if leaf == "phi" else 2] = value
        cfg = tmp_path / "huge.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["classify", "--config", str(cfg), "--rows", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3
        assert all("undefined (radial cubic coefficients out of float range" in r for r in rows)
        assert "nan" not in rows[0].split("undefined")[0]

    def test_undefined_row_names_its_reason(self, tmp_path, capsys):
        # r = 1.5 < 2m: cubic_coefficients refuses the data for a reason other than psi_2
        cfg = write_config(
            tmp_path,
            initial_data={"phi": ["0", "1.5", "1.0", "vartheta"], "psi": ["1", "0", "0.1", "0"]},
            oracle=None,
        )
        assert main(["classify", "--config", str(cfg), "--rows", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("undefined (initial radius 1.5 inside horizon 2m = 2.0)") == 2
        assert "psi_2" not in out

    @pytest.mark.parametrize("rows", ["-1", "0", "2.5", "abc"])
    def test_rows_must_be_a_positive_integer(self, tmp_path, capsys, rows):
        cfg = write_config(tmp_path, oracle=None)
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--config", str(cfg), "--rows", rows])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = [line for line in captured.err.splitlines() if "error:" in line]
        assert error == [
            f"nullsheet classify: error: argument --rows: expected a positive integer, got {rows!r}"
        ]


class TestShippedConfigs:
    CONFIGS = ("radial_null.yaml", "photon_sphere.yaml", "boosted_circular.yaml")

    @pytest.mark.parametrize("name", CONFIGS)
    def test_validate_and_compare(self, name, tmp_path, monkeypatch):
        cfg = SHIPPED / name
        monkeypatch.chdir(tmp_path)  # configs use relative output paths
        assert main(["validate", "--config", str(cfg)]) == 0
        assert main(["compare", "--config", str(cfg)]) == 0


def test_commands_leave_out_scipy(tmp_path):
    """No command loads scipy, on the shipped configs or an elliptic compare."""
    f = "1 + 0.25*sin(vartheta + 1)"
    infall = write_config(  # example 2, case II: the infalling "sec" branch
        tmp_path,
        name="infall.yaml",
        initial_data={
            "phi": ["0", "2.5", "1.2", "vartheta"],
            "psi": [f, "0", f"sqrt(1.25)/6.25*abs({f})", "0"],
            "samples": 8,
        },
        output={"t_samples": 5},
        oracle={
            "example": 2,
            "case": "II",
            "params": {"r0": 2.5, "f": f, "tau0": 0.0, "alpha0": "1.2", "sign_alpha": 1},
        },
    )
    src = str(pathlib.Path(ns.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = textwrap.dedent(f"""
        import sys
        import nullsheet.cli
        def scipy_modules():
            return sorted(m for m in sys.modules if m.startswith("scipy"))

        seen = [("import", 0, scipy_modules())]
        for name in {TestShippedConfigs.CONFIGS!r}:
            for command in ("validate", "solve", "classify", "compare"):
                code = nullsheet.cli.main([command, "--config", {str(SHIPPED)!r} + "/" + name])
                seen.append((command + " " + name, code, scipy_modules()))
        code = nullsheet.cli.main(["compare", "--config", {str(infall)!r}])
        seen.append(("compare infall.yaml", code, scipy_modules()))
        print(seen)
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    seen = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
    assert len(seen) == 14
    assert all(code == 0 and modules == [] for _, code, modules in seen), seen


class TestOracleCommand:
    def test_emits_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["oracle", "--config", str(cfg), "--vartheta", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,tau,r,alpha,beta"
        assert len(lines) == 1 + 6
        first = [float(v) for v in lines[1].split(",")]
        assert first[2] == 10.0

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        raw = yaml.safe_load(cfg.read_text())
        raw["oracle"] = {
            "example": 2,
            "case": "auto",
            "params": {"r0": 3.0, "f": "1", "alpha0": "1.0", "sign_alpha": 1},
        }
        cfg.write_text(yaml.safe_dump(raw))
        # forcing an inconsistent case must fail the consistency guard
        assert main(["oracle", "--config", str(cfg), "--case", "III"]) == 2
        assert main(["oracle", "--config", str(cfg), "--case", "I"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[1].split(",")[2]) == 3.0

    @pytest.mark.parametrize("vartheta", ["nan", "inf", "--vartheta=-inf", "1e400", "abc"])
    def test_vartheta_must_be_finite(self, tmp_path, capsys, vartheta):
        cfg = write_config(tmp_path)
        flag = [vartheta] if vartheta.startswith("--") else ["--vartheta", vartheta]
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--config", str(cfg), *flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = [line for line in captured.err.splitlines() if "error:" in line]
        assert error == [
            "nullsheet oracle: error: argument --vartheta: expected a finite number, "
            f"got {vartheta.split('=')[-1]!r}"
        ]

    def test_flags_need_an_oracle_block(self, tmp_path, capsys):
        cfg = write_config(tmp_path, oracle=None)
        assert main(["oracle", "--config", str(cfg), "--example", "2"]) == 2
        assert "needs an oracle block" in capsys.readouterr().err
