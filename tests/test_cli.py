"""End-to-end command-line flows and exit-code contract."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from discosc import (CanonicalProduct, ResidueCancellationError, ZeroSequence,
                     build_coefficient, cli, contour, numutil, oscillation,
                     sequences, sigma_report)


def test_gen_geometric_writes_sequence(tmp_path, capsys):
    path = tmp_path / "geo.json"
    assert cli.main(["gen", "geometric", "--ratio", "0.5", "--count", "8",
                     "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert len(data["points"]) == 8
    out = capsys.readouterr().out
    assert "8 points" in out
    # the uniform separation with its log, which stays finite where the
    # value underflows
    sig = sigma_report(ZeroSequence.load(path))
    log_us = sig.uniform_separation_log
    assert (f"separation {sig.separation:.6g}, uniform separation "
            f"{math.exp(log_us):.6g} (log {log_us:.6g})") in out


def test_gen_and_analyze_each_take_one_pass_of_sigma(tmp_path, monkeypatch):
    # gen forms sigma on the set's rows once, and analyze on those and the
    # 32 x 64 rows of the density grid
    rows = []
    real = sequences.pseudo_distance

    def recorded(z, w):
        rows.append(len(z))
        return real(z, w)

    monkeypatch.setattr(sequences, "pseudo_distance", recorded)
    path = tmp_path / "lat.json"
    assert cli.main(["gen", "rho-lattice", "--spacing", "0.8", "--rmax",
                     "0.9", "--out", str(path)]) == 0
    n = len(ZeroSequence.load(path))
    assert n == 368 and sum(rows) == n
    rows.clear()
    assert cli.main(["analyze", "--sequence", str(path), "--scale",
                     "weight-log:2", "--out", str(tmp_path / "an")]) == 0
    assert sum(rows) == n + 32 * 64


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
    # the origin node (psi_tilde(1) = 0) is named, not an infinite c_hat_N
    assert rep["psi_tilde_zero_nodes"] == [0]
    assert 0.0 < rep["c_hat_N"] < math.inf
    assert rep["uniform_separation"] == pytest.approx(
        math.exp(rep["uniform_separation_log"]), rel=1e-15)


def test_analyze_of_one_point_writes_the_density_ladder_alone(tmp_path):
    seq = tmp_path / "one.json"
    ZeroSequence(np.array([0.5j])).save(seq)
    assert cli.main(["analyze", "--sequence", str(seq), "--scale", "log",
                     "--out", str(tmp_path / "one")]) == 0
    rep = json.loads((tmp_path / "one.json").read_text())
    ladder = rep["uniform_density_ladder"]
    assert [row["r"] for row in ladder] == [0.9, 0.95, 0.99]
    assert all(0.0 < row["value"] < math.inf for row in ladder)
    assert not {"separation", "uniform_separation",
                "uniform_separation_log"} & set(rep)


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
    # the settled grids: geo6 at 0.9 winds on 512 points (see below)
    assert rep["checks"]["zero_count"]["points"] == 512
    points = rep["checks"]["ode_residual"]["points"]
    assert numutil.CONTOUR_START_POINTS < points <= numutil.CONTOUR_MAX_POINTS
    assert "carleson_measurement" not in rep
    assert "verification: PASS" in capsys.readouterr().out


def test_verify_reports_the_residue_gate_of_the_build(tmp_path):
    seq = _gen_geo(tmp_path)
    assert cli.main(["verify", "--sequence", str(seq), "--scale", "log",
                     "--samples", "3", "--out", str(tmp_path / "v")]) == 0
    rep = json.loads((tmp_path / "v.json").read_text())
    gate = inspect.signature(build_coefficient).parameters["residue_tol"]
    assert rep["checks"]["residue_cancellation"]["tol"] == gate.default
    assert gate.default is oscillation.RESIDUE_TOL


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


def test_csv_rows_keep_the_text_of_their_cells_one_at_a_time(tmp_path):
    # one template per sequence of cell types writes what formatting each
    # cell on its own wrote: a float (numpy's too, nan, inf and -0.0) at 17
    # significant digits, any other cell by str
    rows = [[0, 0.1, -0.0, np.float64(np.nan), -np.inf, np.int64(7), "a"],
            [1, 2, 3.0, np.inf, 1e-300, np.int64(-1), True],
            [2, 0.1, -0.0, np.float64(2.5), 5e-324, np.int64(8), "b"]]
    out = tmp_path / "t.csv"
    cli._write_csv(list("abcdefg"), rows, str(out))
    cells = [",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                      for v in row) for row in rows]
    assert out.read_text() == "\n".join(["a,b,c,d,e,f,g", *cells]) + "\n"
    assert "nan,-inf,7" in out.read_text()


def test_a_parse_failure_leaves_the_parser_for_the_next_call(tmp_path,
                                                            capsys):
    # the parser is built once per process; an argument error part way
    # through a sub-command must not change what the next call writes
    seq = str(_gen_geo(tmp_path))
    build = ["build", "--sequence", seq, "--scale", "log"]
    growth = ["growth", "--sequence", seq, "--scale", "log", "--ladder",
              "0.3,0.5", "--samples", "64"]
    for tag in "ab":
        assert cli.main([*build, "--out", str(tmp_path / tag)]) == 0
        assert cli.main([*growth, "--out", str(tmp_path / f"{tag}.g.csv")]) \
            == 0
        for bad in ([*build, "--margin", "ten"], [*growth, "--target", "h"],
                    ["build", "--scale", "log"], ["nope"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(bad)
            assert exc.value.code == 2
    assert cli.make_parser() is cli.make_parser()
    for suffix in (".json", ".csv", ".g.csv"):
        assert (tmp_path / f"a{suffix}").read_bytes() == \
            (tmp_path / f"b{suffix}").read_bytes()
    assert "invalid float value: 'ten'" in capsys.readouterr().err


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale, message", [
    ("log-power:nan", "log-power exponent must be finite and nonnegative, "
                      "got nan"),
    ("log-power:inf", "log-power exponent must be finite and nonnegative, "
                      "got inf"),
    ("log-power:-1", "log-power exponent must be finite and nonnegative, "
                     "got -1.0"),
    ("power:inf", "power exponent must be finite and positive, got inf"),
    ("power:nan", "power exponent must be finite and positive, got nan"),
    ("power:0", "power exponent must be finite and positive, got 0.0"),
])
def test_a_scale_exponent_out_of_range_exits_2_by_name(tmp_path, capsys,
                                                       scale, message):
    # nan < 0 is False: a nan or inf exponent once reached genus selection
    # and failed there under a RuntimeWarning
    seq = _gen_geo(tmp_path)
    capsys.readouterr()
    assert cli.main(["build", "--sequence", str(seq), "--scale", scale,
                     "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


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
        "node_near_ratio": contour.NODE_NEAR_RATIO,
        "node_far_samples": contour.NODE_FAR_SAMPLES,
        "node_proxy_ratio": contour.NODE_PROXY_RATIO,
        "node_proxy_margin": contour.NODE_PROXY_MARGIN,
        "node_proxy_saving": contour.NODE_PROXY_SAVING,
        "contour_max_points": numutil.CONTOUR_MAX_POINTS,
        "exclusion_rule": "min(nearest_neighbor/4, (1-|z|)/8)",
        "margin_default": margin.default,
    }
    # the probe, winding and exclusion-circle contours start on one grid
    assert (oscillation.CONTOUR_START_POINTS == contour.CONTOUR_START_POINTS
            == numutil.CONTOUR_START_POINTS)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, messages", [
    (["gen", "sharpness", "--eta1", "inf", "--eta2", "1", "--nmax", "3",
      "--out", "x.json"], ["eta1 = inf must be positive and finite"]),
    (["gen", "sharpness", "--eta1", "1", "--eta2", "nan", "--nmax", "3",
      "--out", "x.json"], ["eta2 = nan must be positive and finite"]),
    (["witness", "--eta1", "1", "--eta2=-inf", "--nmax", "3"],
     ["eta2 = -inf must be positive and finite"]),
    # (2 log 3)^1000 and (2 log 3)^1001 overflow binary64: each block is
    # skipped by name, and then no block is left
    (["witness", "--eta1", "1000", "--eta2", "1", "--nmax", "3"],
     ["block 2 skipped: block 2: point count overflows binary64",
      "block 3 skipped: block 3: point count overflows binary64",
      "no witness block is computable"]),
    (["witness", "--eta1", "1", "--eta2", "1000", "--nmax", "3"],
     ["block 2 skipped: block 2: width exponent overflows binary64",
      "no witness block is computable"]),
])
def test_sharpness_parameters_out_of_range_exit_2_by_name(tmp_path, capsys,
                                                          monkeypatch, argv,
                                                          messages):
    # eta1 = inf and 1000 once left block_count with an OverflowError
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert all(m in err for m in messages), err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, messages", [
    # (2 log 3)^20 and (3 log 3)^20 points: refused from the closed-form
    # block counts, before any point is formed
    (["gen", "sharpness", "--eta1", "20", "--eta2", "1", "--nmax", "3",
      "--out", "x.json"],
     ["block 2: point count 6878424 exceeds the point limit 1048576"]),
    (["witness", "--eta1", "20", "--eta2", "1", "--nmax", "3"],
     ["block 2 skipped: block 2: point count 6878424 exceeds the point "
      "limit 1048576",
      "block 3 skipped: block 3: point count 22872526833 exceeds the point "
      "limit 1048576", "no witness block is computable"]),
    # the rings are counted before any point is formed
    (["gen", "rho-lattice", "--gamma", "2", "--spacing", "1e-6", "--rmax",
      "0.9", "--out", "x.json"],
     ["ring 578 at r = 0.000288953: point count 1051198 exceeds the point "
      "limit 1048576"]),
])
def test_point_counts_above_the_limit_exit_2_by_name(tmp_path, capsys,
                                                     monkeypatch, argv,
                                                     messages):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert all(m in err for m in messages), err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv, written", [
    (["gen", "geometric", "--ratio", "0.5", "--count", "4"], ""),
    (["analyze", "--scale", "log"], ".json"),
    (["build", "--scale", "log"], ".json"),
    (["verify", "--scale", "log", "--samples", "2"], ".json"),
    (["growth", "--scale", "log", "--ladder", "0.5", "--samples", "64"], ""),
    (["witness", "--eta1", "1", "--eta2", "1", "--nmax", "3"], ""),
])
def test_an_output_path_that_cannot_be_written_exits_2_by_name(
        tmp_path, capsys, argv, written):
    # a missing directory once left a FileNotFoundError traceback (exit 1)
    where = [] if argv[0] in ("gen", "witness") else [
        "--sequence", str(_gen_geo(tmp_path))]
    out = str(tmp_path / "missing" / "out")
    capsys.readouterr()
    assert cli.main(argv + where + ["--out", out]) == 2
    assert f"error: cannot write {out}{written}: " in capsys.readouterr().err
