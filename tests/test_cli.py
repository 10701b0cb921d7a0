"""End-to-end command-line flows and exit-code contract."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from discosc import (CanonicalProduct, ResidueCancellationError, ZeroSequence,
                     build_coefficient, cli, numutil, oscillation, products)


def test_gen_geometric_writes_sequence(tmp_path, capsys):
    path = tmp_path / "geo.json"
    assert cli.main(["gen", "geometric", "--ratio", "0.5", "--count", "8",
                     "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert len(data["points"]) == 8
    out = capsys.readouterr().out
    assert "8 points" in out
    assert "separation" in out


def test_cli_runs_without_scipy(tmp_path):
    # importing scipy.integrate alone added about 50 MB of RSS to every
    # discosc process; a later scipy import must be lazy and measured
    lat, geo = str(tmp_path / "lat"), str(tmp_path / "geo")
    code = "\n".join([
        "import sys",
        "from discosc import cli",
        f"lat, geo = {lat!r}, {geo!r}",
        "assert cli.main(['gen', 'rho-lattice', '--spacing', '0.8',"
        " '--rmax', '0.7', '--out', lat + '.seq.json']) == 0",
        "assert cli.main(['build', '--sequence', lat + '.seq.json',"
        " '--scale', 'weight-log:2', '--out', lat]) == 0",
        "assert cli.main(['gen', 'geometric', '--ratio', '0.5', '--count',"
        " '8', '--out', geo + '.seq.json']) == 0",
        "assert cli.main(['verify', '--sequence', geo + '.seq.json',"
        " '--scale', 'log-power:1', '--samples', '3']) == 0",
        "print(sorted(m for m in sys.modules"
        " if m.partition('.')[0] == 'scipy'))",
    ])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


def test_gen_rho_lattice(tmp_path):
    path = tmp_path / "lat.json"
    assert cli.main(["gen", "rho-lattice", "--gamma", "2.0", "--spacing",
                     "0.6", "--rmax", "0.5", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["meta"]["weight_gamma"] == 2.0
    assert len(data["points"]) > 3


def test_gen_sharpness_with_meta(tmp_path):
    path = tmp_path / "sharp.json"
    assert cli.main(["gen", "sharpness", "--eta1", "1.0", "--eta2", "1.0",
                     "--nmax", "5", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["meta"]["blocks"]


def test_gen_empty_sequence_writes_nothing(tmp_path, capsys, monkeypatch):
    # No built-in generator can return an empty sequence (every block of the
    # clustered family holds at least one point since ln 3 > 1), so the guard
    # is exercised by stubbing the generator.
    from discosc.sequences import ZeroSequence

    monkeypatch.setattr(cli, "generate_sharpness",
                        lambda params: ZeroSequence([], label="empty"))
    path = tmp_path / "none.json"
    assert cli.main(["gen", "sharpness", "--eta1", "1e-9", "--eta2", "1.0",
                     "--nmax", "3", "--out", str(path)]) == 0
    assert not path.exists()
    assert "no points" in capsys.readouterr().err


def _gen_geo(tmp_path, count=6, ratio="0.5"):
    path = tmp_path / "seq.json"
    cli.main(["gen", "geometric", "--ratio", ratio, "--count", str(count),
              "--out", str(path)])
    return path


def test_analyze_report_structure(tmp_path):
    seq = _gen_geo(tmp_path, count=8)
    base = tmp_path / "analysis"
    assert cli.main(["analyze", "--sequence", str(seq), "--scale", "log",
                     "--ladder", "0.9,0.99", "--out", str(base)]) == 0
    rep = json.loads((tmp_path / "analysis.json").read_text())
    assert rep["command"] == "analyze"
    assert rep["points"] == 8
    assert {"c_hat_n", "c_hat_N", "design", "version",
            "uniform_density_ladder"} <= set(rep)
    lines = (tmp_path / "analysis.csv").read_text().splitlines()
    assert lines[0].startswith("k,z_re,z_im,radius")
    assert len(lines) == 9


def test_analyze_weight_scale_adds_rho_report(tmp_path):
    lat = tmp_path / "lat.json"
    cli.main(["gen", "rho-lattice", "--spacing", "0.6", "--rmax", "0.5",
              "--out", str(lat)])
    base = tmp_path / "wa"
    assert cli.main(["analyze", "--sequence", str(lat), "--scale",
                     "weight-log:2", "--out", str(base)]) == 0
    rep = json.loads((tmp_path / "wa.json").read_text())
    assert "rho_density_ladder" in rep
    assert "rho_separation" in rep


def test_analyze_is_deterministic_across_out_paths(tmp_path):
    seq = _gen_geo(tmp_path, count=8)
    cli.main(["analyze", "--sequence", str(seq), "--scale", "log",
              "--out", str(tmp_path / "a")])
    cli.main(["analyze", "--sequence", str(seq), "--scale", "log",
              "--out", str(tmp_path / "b")])
    assert (tmp_path / "a.json").read_bytes() == \
        (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == \
        (tmp_path / "b.csv").read_bytes()


def test_build_report(tmp_path):
    seq = _gen_geo(tmp_path)
    base = tmp_path / "built"
    assert cli.main(["build", "--sequence", str(seq), "--scale", "log",
                     "--out", str(base)]) == 0
    rep = json.loads((tmp_path / "built.json").read_text())
    assert rep["genus"] == 1
    assert rep["max_residue_mismatch"] <= 1e-6
    assert rep["max_node_residual"] <= 1e-9
    assert rep["exponent_range"][0] >= 1
    lines = (tmp_path / "built.csv").read_text().splitlines()
    assert lines[0].startswith("k,z_re,z_im,b_re,b_im,exponent")
    assert len(lines) == 7


def test_verify_passes_on_geometric(tmp_path, capsys):
    seq = _gen_geo(tmp_path)
    base = tmp_path / "ver"
    code = cli.main(["verify", "--sequence", str(seq), "--scale", "log",
                     "--samples", "10", "--seed", "7", "--out", str(base)])
    assert code == 0
    rep = json.loads((tmp_path / "ver.json").read_text())
    assert rep["pass"] is True
    assert set(rep["checks"]) == {"residue_cancellation", "ode_residual",
                                  "zero_count"}
    assert rep["checks"]["zero_count"]["count"] == 3
    assert "carleson_measurement" not in rep
    assert "verification: PASS" in capsys.readouterr().out


def test_verify_counts_zeros_near_the_probe_limit(tmp_path):
    # the count circle at the largest probe radius stays inside the disc
    seq = _gen_geo(tmp_path)
    base = tmp_path / "ver"
    code = cli.main(["verify", "--sequence", str(seq), "--scale", "log",
                     "--samples", "5", "--rmax", "0.95", "--out", str(base)])
    assert code == 0
    rep = json.loads((tmp_path / "ver.json").read_text())
    assert rep["checks"]["zero_count"]["count"] == 4
    assert rep["checks"]["zero_count"]["nodes_inside"] == 4


def test_verify_passes_where_a_squared_overflows(tmp_path):
    # |a|^2 overflows binary64 in the boundary boxes of this clustered set,
    # which verify does not measure; its three gated checks all pass
    seq = tmp_path / "sharp6.json"
    assert cli.main(["gen", "sharpness", "--eta1", "1", "--eta2", "1",
                     "--nmax", "6", "--out", str(seq)]) == 0
    base = tmp_path / "ver"
    code = cli.main(["verify", "--sequence", str(seq), "--scale",
                     "log-power:3", "--samples", "10", "--seed", "1",
                     "--out", str(base)])
    assert code == 0
    rep = json.loads((tmp_path / "ver.json").read_text())
    assert rep["pass"] is True
    assert all(c["pass"] for c in rep["checks"].values())
    assert rep["checks"]["zero_count"]["count"] == 3


def test_verify_unresolved_zero_count_exit_code(tmp_path, monkeypatch):
    # geo6 at 0.9 settles at 512 points; an unresolved count is exit 3,
    # never a verification failure
    seq = _gen_geo(tmp_path)
    monkeypatch.setattr(oscillation, "WINDING_MAX_POINTS", 64)
    assert cli.main(["verify", "--sequence", str(seq), "--scale", "log",
                     "--samples", "5", "--out", str(tmp_path / "v")]) == 3


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    seq = _gen_geo(tmp_path)
    monkeypatch.setattr(cli, "ODE_TOL", 1e-30)
    code = cli.main(["verify", "--sequence", str(seq), "--scale", "log",
                     "--samples", "5", "--out", str(tmp_path / "v")])
    assert code == 4


def test_construction_failure_exit_code(tmp_path, monkeypatch):
    seq = _gen_geo(tmp_path)

    def boom(*args, **kwargs):
        raise ResidueCancellationError(0, 1.0, 1e-8)

    monkeypatch.setattr(cli, "build_coefficient", boom)
    assert cli.main(["build", "--sequence", str(seq), "--scale", "log"]) == 3


def test_input_error_exit_codes(tmp_path):
    seq = _gen_geo(tmp_path)
    assert cli.main(["analyze", "--sequence", str(tmp_path / "missing.json"),
                     "--scale", "log"]) == 2
    assert cli.main(["analyze", "--sequence", str(seq),
                     "--scale", "bogus"]) == 2
    assert cli.main(["gen", "geometric", "--ratio", "0.5", "--count", "200",
                     "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("flags, name", [
    (["--samples", "0"], "--samples"), (["--samples", "-3"], "--samples"),
    (["--rmax", "0"], "--rmax"), (["--rmax", "0.96"], "--rmax"),
    (["--margin", "nan"], "margin"), (["--margin", "inf"], "margin"),
    (["--margin", "1e308"], "margin"),
    (["--target", "coefficient", "--samples", "0"], "samples"),
    (["--target", "series", "--samples", "-3"], "samples"),
])
def test_verify_rejects_probe_settings(tmp_path, capsys, flags, name):
    # no probes would pass the ODE residual vacuously; the residual takes
    # probes with |z| <= 0.95 only.  A margin must give finite int64
    # exponents.  With --target the settings go to growth, whose circle
    # scans need at least one sample
    seq = _gen_geo(tmp_path)
    command = "growth" if "--target" in flags else "verify"
    assert cli.main([command, "--sequence", str(seq), "--scale", "log",
                     *flags]) == 2
    assert name in capsys.readouterr().err


def test_verify_rejects_a_probe_disc_inside_one_exclusion_disc(tmp_path,
                                                               capsys):
    # the rho-lattice holds the origin; |z| <= 0.001 lies in its disc
    seq = tmp_path / "lat.json"
    cli.main(["gen", "rho-lattice", "--gamma", "2.0", "--spacing", "0.6",
              "--rmax", "0.5", "--out", str(seq)])
    assert cli.main(["verify", "--sequence", str(seq), "--scale",
                     "weight-log:2", "--rmax", "0.001"]) == 2
    assert "exclusion disc of node 0" in capsys.readouterr().err


def test_build_stdout_json(tmp_path, capsys):
    seq = _gen_geo(tmp_path)
    capsys.readouterr()  # drop the gen chatter; only the build output matters
    assert cli.main(["build", "--sequence", str(seq),
                     "--scale", "log"]) == 0
    out = capsys.readouterr().out
    rep, end = json.JSONDecoder().raw_decode(out)
    assert rep["command"] == "build"
    # without --out the node table streams right after the report
    assert out[end:].lstrip().startswith("k,z_re,z_im")


def test_growth_csv(tmp_path):
    seq = _gen_geo(tmp_path)
    out = tmp_path / "growth.csv"
    assert cli.main(["growth", "--sequence", str(seq), "--scale", "log",
                     "--target", "series", "--ladder", "0.3,0.5",
                     "--samples", "128", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,logM,comparator,ratio"
    assert len(lines) == 3


def test_witness_csv(tmp_path):
    out = tmp_path / "wit.csv"
    assert cli.main(["witness", "--eta1", "1.0", "--eta2", "1.0",
                     "--nmax", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,I1_abs,I1_lower_bound,I2_upper,ratio"
    assert len(lines) == 3


def test_parse_scale_forms():
    assert cli.parse_scale("log").psi(np.e) == pytest.approx(1.0)
    assert cli.parse_scale("log-power:2").psi(np.e) == pytest.approx(1.0)
    assert cli.parse_scale("power:0.5").psi(4.0) == pytest.approx(2.0)
    assert hasattr(cli.parse_scale("weight-log:2"), "weight")
    with pytest.raises(ValueError):
        cli.parse_scale("nope:1")


def test_design_block_echoes_the_source_constants():
    # every value reported under "design" is the constant the code runs on
    seq = ZeroSequence(np.array([0.5, -0.3j, 0.9 + 0.05j, 0.0]))
    prod = CanonicalProduct(seq, 1)
    d = np.abs(seq.points[:, None] - seq.points[None, :]) + np.diag(
        np.full(len(seq), np.inf))
    rule = np.minimum(np.min(d, axis=1) / 4.0,
                      (1.0 - np.abs(seq.points)) / 8.0)
    margin = inspect.signature(build_coefficient).parameters["margin"]
    assert cli.DESIGN == {
        "contour_start_points": numutil.CONTOUR_START_POINTS,
        "node_contour_start_points": products.NODE_CONTOUR_START_POINTS,
        "node_near_ratio": products.NODE_NEAR_RATIO,
        "node_far_samples": products.NODE_FAR_SAMPLES,
        "contour_max_points": numutil.CONTOUR_MAX_POINTS,
        "exclusion_rule": "min(nearest_neighbor/4, (1-|z|)/8)",
        "margin_default": margin.default,
    }
    np.testing.assert_allclose(prod.exclusion_radii, rule, rtol=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, gamma", [
    (["build", "--scale", "weight-log:3"], "3"),
    (["build", "--scale", "weight-log:1.5"], "1.5"),
    (["gen", "rho-lattice", "--gamma", "3", "--spacing", "0.8", "--rmax",
      "0.9"], "3"),
])
def test_weight_gamma_other_than_2_exits_2_by_name(tmp_path, capsys, argv,
                                                   gamma):
    # rho at the origin is (Lap h(0))^(-1/2): 0 for gamma < 2, +inf above
    seq = tmp_path / "geo.seq.json"
    assert cli.main(["gen", "geometric", "--ratio", "0.5", "--count", "4",
                     "--out", str(seq)]) == 0
    capsys.readouterr()
    where = ["--sequence", str(seq)] if argv[0] == "build" else []
    assert cli.main(argv + where + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"gamma = {gamma} is not supported: only gamma = 2" in err
