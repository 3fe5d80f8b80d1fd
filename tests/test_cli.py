"""Command-line interface: artifacts, determinism, exit codes."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nnlstep.spectral as spectral
from nnlstep import (
    AssumptionReport,
    BlowupDetected,
    BranchDomainError,
    BranchPointError,
    Grid,
    GridTooCoarse,
    InconclusiveWinding,
    MissingNormingConstant,
    PoleOnContour,
    RegionMismatch,
    SimConfig,
    SingularStation,
    SolitonPole,
    StepProfile,
    ToleranceNotMet,
    WindingOutOfRange,
    cli,
    compare,
    evolve,
    init_field,
    jost_spectral,
    q_central,
    q_transition,
    step_spectral,
    transition_params,
)
from nnlstep.cli import main


def _write_tanh_csv(path, half_width, nodes):
    """tanh 2x + 0.1i sech 3x sampled at ``nodes`` points on [-w, w]."""
    x = np.linspace(-half_width, half_width, nodes)
    q = np.tanh(2.0 * x) + 0.1j / np.cosh(3.0 * x)
    np.savetxt(path, np.column_stack([x, q.real, q.imag]), delimiter=",",
               header="x,re_q0,im_q0", comments="")
    return path


def test_csv_sampler_is_np_interp(tmp_path):
    # The CSV sampler evaluates np.interp's formula on lists: the same bits
    # at the nodes, between them and at seeded random points, and the
    # background -A, +A at and beyond the first and last node.
    path = _write_tanh_csv(tmp_path / "tanh.csv", 8.0, 641)
    x, re, im = np.loadtxt(path, delimiter=",", skiprows=1).T
    sampler = cli._load_initial_csv(str(path), 1.0).sampler
    rng = np.random.default_rng(16)
    pts = np.concatenate([x[1:-1], 0.5 * (x[:-1] + x[1:]), rng.uniform(x[0], x[-1], 5000)])
    got = np.array([sampler(t) for t in pts.tolist()])
    assert got.real.tobytes() == np.interp(pts, x, re).tobytes()
    assert got.imag.tobytes() == np.interp(pts, x, im).tobytes()
    assert [sampler(t) for t in (x[0] - 1.0, x[0], x[-1], x[-1] + 1.0)] == [-1.0, -1.0, 1.0, 1.0]


class _Built(Exception):
    """Raised by a stub scattering-data builder once it has been called."""


@pytest.fixture
def no_spectral_data(monkeypatch):
    """Make every scattering-data builder of the CLI fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("scattering data were built before the flags were checked")

    for name in ("step_spectral", "soliton_spectral", "jost_spectral"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.fixture
def jost_batches(monkeypatch):
    """The k batches the CLI hands jost_spectral; the stub then stops it."""
    seen = []

    def recording(data, A, k_samples):
        seen.append(list(k_samples))
        raise _Built

    monkeypatch.setattr(cli, "jost_spectral", recording)
    return seen


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSpectralCommand:
    def test_artifacts_and_values(self, tmp_path):
        out = tmp_path / "spec"
        rc = main(
            ["spectral", "--A", "1.0", "--step-R", "0.0",
             "--k-grid", "2:10:5", "--out-dir", str(out)]
        )
        assert rc == 0
        header, rows = _read_csv(out / "spectral_data.csv")
        assert header[0] == "k"
        k2 = [r for r in rows if float(r[0]) == 2.0][0]
        a1 = complex(float(k2[header.index("re_a1")]), float(k2[header.index("im_a1")]))
        assert abs(a1 - 2.0 / math.sqrt(3.0)) < 1e-10
        report = json.loads((out / "assumptions_report.json").read_text())
        assert report["passed"] is True
        assert report["a1_winding"] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "spectral"
        assert manifest["deterministic"] is True

    def test_deterministic_output(self, tmp_path):
        args = ["spectral", "--A", "1.0", "--k-grid", "1.5:4:7"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(out1)]) == 0
        assert main(args + ["--out-dir", str(out2)]) == 0
        assert (out1 / "spectral_data.csv").read_bytes() == (
            out2 / "spectral_data.csv"
        ).read_bytes()

    def test_cut_rows_have_both_sides(self, tmp_path):
        out = tmp_path / "cut"
        assert main(["spectral", "--k-grid=-0.5:3:3", "--out-dir", str(out)]) == 0
        header, rows = _read_csv(out / "spectral_data.csv")
        sides = [r[1] for r in rows if abs(float(r[0]) + 0.5) < 1e-12]
        assert sorted(sides) == ["above", "below"]

    def test_csv_cut_rows_match_their_mirrors(self, tmp_path):
        # 641 samples of tanh 2x + 0.1i sech 3x on [-8, 8].  On the cut
        # a2_+ = -a1_- and a1_+ = -a2_-; through e^{2w|f|} the first pair
        # misses by 3e-4.  Its bound is that of b, whose Wronskian cancels
        # transfer entries of up to 5e5 here.
        initial = _write_tanh_csv(tmp_path / "tanh.csv", 8.0, 641)
        out = tmp_path / "cut"
        args = ["spectral", "--input-csv", str(initial), "--k-grid=-0.5:0.5:4"]
        assert main(args + ["--out-dir", str(out)]) == 0
        header, rows = _read_csv(out / "spectral_data.csv")

        def value(row, name):
            return complex(float(row[header.index("re_" + name)]),
                           float(row[header.index("im_" + name)]))

        sides = {(r[0], r[1]): r for r in rows}
        ks = sorted({r[0] for r in rows})
        assert len(ks) == 4
        for k in ks:
            above, below = sides[(k, "above")], sides[(k, "below")]
            assert abs(value(above, "a2") + value(below, "a1")) < 1e-8
            assert abs(value(above, "a1") + value(below, "a2")) < 1e-10

    def test_report_writes_every_field(self, tmp_path):
        out = tmp_path / "rep"
        assert main(["spectral", "--k-grid", "2:10:5", "--out-dir", str(out)]) == 0
        report = json.loads((out / "assumptions_report.json").read_text())
        fields = [fl.name for fl in dataclasses.fields(AssumptionReport)]
        assert list(report) == fields + ["passed"]

    def test_csv_mirrors_share_the_samples_batch(self, tmp_path, monkeypatch):
        # r2 needs b(-k) at each of the 200 samples: their mirrors ride in
        # the samples' OFF batch instead of one transfer product each.  The
        # other products: the data's own ABOVE fit batch, which comes first,
        # and check_assumptions' four.
        sizes = []
        matrix = spectral._Transfer.matrix

        def counting(self, k):
            sizes.append(len(k))
            return matrix(self, k)

        monkeypatch.setattr(spectral._Transfer, "matrix", counting)
        initial = _write_tanh_csv(tmp_path / "tanh.csv", 8.0, 641)
        assert main(["spectral", "--input-csv", str(initial), "--k-grid", "1.1:10:200",
                     "--out-dir", str(tmp_path / "o")]) == 0
        assert sizes[:2] == [6, 400]
        assert len(sizes) == 6

    def test_blank_csv_rows_are_skipped(self, tmp_path):
        # A blank line in the middle and one after the last row leave the
        # table as it is for the clean file.
        clean = _write_tanh_csv(tmp_path / "clean.csv", 8.0, 161)
        lines = clean.read_text().splitlines(keepends=True)
        blank = tmp_path / "blank.csv"
        blank.write_text("".join(lines[:80]) + "\n" + "".join(lines[80:]) + "\n")
        for path, out in ((clean, "a"), (blank, "b")):
            args = ["spectral", "--input-csv", str(path), "--k-grid", "1.1:4:5"]
            assert main(args + ["--out-dir", str(tmp_path / out)]) == 0
        assert (tmp_path / "a" / "spectral_data.csv").read_bytes() == (
            tmp_path / "b" / "spectral_data.csv"
        ).read_bytes()

    def test_header_after_a_leading_blank_line(self, tmp_path):
        # The header is the first row that is not blank, wherever it lies.
        table = "x,re_q0,im_q0\n-4,-1,0\n0,0,0\n4,1,0\n"
        for name, text in (("plain.csv", table), ("lead.csv", "\n" + table)):
            path = tmp_path / name
            path.write_text(text)
            args = ["spectral", "--input-csv", str(path), "--k-grid", "1.1:4:5"]
            assert main(args + ["--out-dir", str(tmp_path / name[:-4])]) == 0
        assert (tmp_path / "plain" / "spectral_data.csv").read_bytes() == (
            tmp_path / "lead" / "spectral_data.csv"
        ).read_bytes()

    def test_bad_grid_is_config_error(self, tmp_path):
        rc = main(["spectral", "--k-grid", "nope", "--out-dir", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("grid", ["nan:2:3", "1:inf:3", "2:1:3"])
    def test_non_finite_or_reversed_grid_is_config_error(
        self, tmp_path, grid, capsys, no_spectral_data
    ):
        out = tmp_path / "x"
        assert main(["spectral", f"--k-grid={grid}", "--out-dir", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"
        assert not (out / "spectral_data.csv").exists()

    @pytest.mark.parametrize("k_grid", [[], ["--k-grid=-0.5:2:6"]], ids=["default", "given"])
    def test_jost_batch_is_the_table(self, tmp_path, jost_batches, k_grid):
        # The table's k are the one batch the Jost data are built with.
        initial = _write_tanh_csv(tmp_path / "tanh.csv", 8.0, 33)
        with pytest.raises(_Built):
            main(["spectral", "--input-csv", str(initial), *k_grid,
                  "--out-dir", str(tmp_path / "o")])
        want = np.linspace(-0.5, 2.0, 6) if k_grid else np.linspace(1.05, 10.0, 200)
        assert jost_batches == [list(want)]

    def test_fast_turning_contour_still_reports(self, tmp_path):
        # The a1 contour of this step turns by pi/2 or more between
        # neighbouring samples; the refined winding is still reported.
        out = tmp_path / "r15"
        assert main(["spectral", "--A", "1", "--step-R", "1.5", "--out-dir", str(out)]) == 0
        report = json.loads((out / "assumptions_report.json").read_text())
        assert report["a1_winding"] == 4


class TestAsymCommand:
    def test_soliton_ray(self, tmp_path):
        out = tmp_path / "asym"
        rc = main(
            ["asym", "--soliton", "--A", "1.0", "--xi", "0.75",
             "--t", "10,20", "--out-dir", str(out), "--gnuplot-script"]
        )
        assert rc == 0
        header, rows = _read_csv(out / "asym.csv")
        assert len(rows) == 2
        for r in rows:
            assert float(r[header.index("abs_q")]) == pytest.approx(1.0)
            assert r[header.index("region")] == "ModulatedPlus"
        assert (out / "plot.gp").is_file()

    def test_fixed_station_profile(self, tmp_path):
        out = tmp_path / "trans"
        rc = main(
            ["asym", "--x", "0.5,-0.5", "--t", "10", "--out-dir", str(out)]
        )
        assert rc == 0
        header, rows = _read_csv(out / "asym.csv")
        vals = {float(r[0]): float(r[header.index("abs_q")]) for r in rows}
        assert vals[0.5] == pytest.approx(math.tanh(0.5), abs=1e-6)
        assert vals[-0.5] == pytest.approx(math.tanh(0.5), abs=1e-6)

    def test_far_stations(self, tmp_path):
        # |x| = 400 puts e^(-2A|x|) below the smallest float on both sides.
        out = tmp_path / "far"
        assert main(["asym", "--x=-400,400", "--t", "10", "--out-dir", str(out)]) == 0
        header, rows = _read_csv(out / "asym.csv")
        assert [float(r[header.index("abs_q")]) for r in rows] == pytest.approx([1.0, 1.0])

    def test_boundary_ray_is_region_error(self, tmp_path, capsys):
        # The library refuses the ray and names the region it lies in.
        for xi in ("0.5", "-0.5", "0"):
            rc = main(["asym", "--xi", xi, "--t", "10", "--out-dir", str(tmp_path / "b")])
            assert rc == 3
            assert "Boundary" in json.loads(capsys.readouterr().err)["message"]

    def test_one_params_call_per_ray(self, tmp_path, monkeypatch):
        calls = []
        for name in ("modulated_params", "central_params"):
            def counting(sd, xi, _fn=getattr(cli, name), _name=name):
                calls.append((_name, xi))
                return _fn(sd, xi)

            monkeypatch.setattr(cli, name, counting)
        out = tmp_path / "rays"
        args = ["asym", "--step-R", "-1", "--xi=0.6,-0.9,0.2", "--t", "5,10,20,40"]
        assert main(args + ["--out-dir", str(out)]) == 0
        assert calls == [("modulated_params", 0.6), ("modulated_params", -0.9),
                         ("central_params", 0.2)]
        assert len(_read_csv(out / "asym.csv")[1]) == 12


    def test_central_sides_are_kept_apart(self, tmp_path):
        out = tmp_path / "central"
        rc = main(["asym", "--xi=-0.2,0.2,-0.3", "--t", "10,20", "--out-dir", str(out)])
        assert rc == 0
        header, rows = _read_csv(out / "asym.csv")
        sd = step_spectral(StepProfile(A=1.0, R=0.0))
        for r in rows:
            x, t = float(r[0]), float(r[1])
            xi = x / (4.0 * t)
            assert r[header.index("region")] == ("CentralPlus" if xi > 0 else "CentralMinus")
            q = complex(float(r[header.index("re_q")]), float(r[header.index("im_q")]))
            assert abs(q - q_central(sd, xi, t)) < 1e-10

    @pytest.mark.parametrize(
        "where", [["--xi", ",", "--t", "10"], ["--x", ",", "--t", "10"], ["--xi", "0.75", "--t", ","]],
        ids=["no_rays", "no_stations", "no_times"],
    )
    def test_empty_list_is_config_error(self, tmp_path, where):
        out = tmp_path / "empty"
        assert main(["asym"] + where + ["--out-dir", str(out)]) == 2
        assert not (out / "asym.csv").exists()

    @pytest.mark.parametrize(
        "where",
        [
            ["--xi", "0.75", "--t", "nan"],
            ["--xi", "0.75", "--t", "10,inf"],
            ["--xi", "0.75", "--t", "-5"],
            ["--xi", "0.75", "--t", "0"],
            ["--xi", "nan", "--t", "10"],
            ["--x", "nan", "--t", "10"],
            ["--x", "0.5,-inf", "--t", "10"],
        ],
        ids=["nan_t", "inf_t", "negative_t", "zero_t", "nan_xi", "nan_x", "inf_x"],
    )
    def test_non_finite_or_non_positive_input_is_config_error(
        self, tmp_path, where, capsys, no_spectral_data
    ):
        out = tmp_path / "bad"
        assert main(["asym"] + where + ["--out-dir", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"
        assert not (out / "asym.csv").exists()

    @pytest.mark.parametrize("source", ["--soliton", "--input-csv"])
    def test_bad_time_is_config_error_before_scattering_data(
        self, tmp_path, source, no_spectral_data
    ):
        # Building the Jost data of a 641-node CSV alone takes about 2 s.
        initial = _write_tanh_csv(tmp_path / "tanh.csv", 8.0, 33)
        args = [source] if source == "--soliton" else [source, str(initial)]
        out = tmp_path / "bad"
        assert main(["asym", *args, "--xi", "0.75", "--t", "-5", "--out-dir", str(out)]) == 2

    def test_missing_ray_and_station(self, tmp_path):
        rc = main(["asym", "--t", "10", "--out-dir", str(tmp_path / "m")])
        assert rc == 2

    @pytest.mark.parametrize("where", [["--x", "0.5"], ["--xi", "0.75"]], ids=["station", "ray"])
    def test_non_finite_soliton_phase_is_precondition_error(self, tmp_path, where, capsys):
        out = tmp_path / "nan_phase"
        args = ["asym", "--soliton", "--phi0", "nan", "--t", "10", "--out-dir", str(out)]
        assert main(args + where) == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "precondition"
        assert not (out / "asym.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [["asym", "--A", "inf", "--xi", "0.75", "--t", "10"], ["spectral", "--A", "inf"]],
        ids=["asym", "spectral"],
    )
    def test_infinite_amplitude_is_precondition_error(self, tmp_path, args, capsys):
        assert main(args + ["--out-dir", str(tmp_path / "inf")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "precondition"
        assert "amplitude must be positive and finite, got inf" in err["message"]

    def test_unresolved_norming_constant_is_an_error(self, tmp_path, capsys, ode_solves):
        # tanh 2x + 0.1i sech 3x on [-40, 40]: the k = 0 Jost columns turn
        # parallel across the wide support and their determinant cancels to
        # 0, which used to give gamma_+ = 0 and |q| = 1 on the axis.  At 801
        # nodes F_inf(-A) walks for about a minute and then fails, so d(A)
        # has to refuse the data first, and it solves no ODE to do so.
        for nodes in (3201, 801):
            initial = _write_tanh_csv(tmp_path / "wide.csv", 40.0, nodes)
            out = tmp_path / "axis"
            args = ["asym", "--input-csv", str(initial), "--x", "1", "--t", "10"]
            ode_solves.clear()
            assert main(args + ["--out-dir", str(out)]) == 3
            assert "gamma_+" in json.loads(capsys.readouterr().err)["message"]
            assert not (out / "asym.csv").exists()
            assert ode_solves == []

    def test_csv_table_and_ray_solve_no_ode(self, tmp_path, ode_solves):
        # Only d(A) reads gamma_+, so neither the table nor a ray of a CSV
        # datum integrates the k = 0 columns.
        initial = _write_tanh_csv(tmp_path / "tanh.csv", 8.0, 641)
        assert main(["spectral", "--input-csv", str(initial), "--out-dir", str(tmp_path / "s")]) == 0
        args = ["asym", "--input-csv", str(initial), "--xi", "0.75", "--t", "10"]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert ode_solves == []

    def test_csv_norming_constant_does_not_depend_on_width(self, tmp_path):
        # The same datum, tabulated on [-8, 8] and on [-20, 20] at the same
        # spacing, is one datum past |x| = 12 where it equals +-A.
        gammas = [
            jost_spectral(cli._load_initial_csv(str(path), 1.0), 1.0, []).gamma_plus()
            for path in (_write_tanh_csv(tmp_path / "narrow.csv", 8.0, 641),
                         _write_tanh_csv(tmp_path / "wide.csv", 20.0, 1601))
        ]
        assert abs(gammas[0] - gammas[1]) < 1e-10

    def test_ray_and_station_together_rejected(self, tmp_path):
        # One run evaluates either rays or stations; both is a usage error
        # rather than a CSV that silently lacks the rays.
        out = tmp_path / "both"
        rc = main(["asym", "--soliton", "--A", "1.0", "--xi", "0.75", "--x", "0.5",
                   "--t", "10", "--out-dir", str(out)])
        assert rc == 2
        assert not (out / "asym.csv").exists()


class TestSimulateAndCompare:
    @pytest.fixture
    def soliton_config(self, tmp_path):
        cfg = {
            "A": 1.0, "L": 10.0, "N": 200, "dt": 0.002, "t_end": 0.1,
            "record_times": [0.05, 0.1],
            "initial": {"kind": "soliton", "phi0": 0.0},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_simulate(self, tmp_path, soliton_config):
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", str(soliton_config), "--out-dir", str(out)])
        assert rc == 0
        header, rows = _read_csv(out / "snapshots.csv")
        assert header == ["t", "x", "re_q", "im_q", "abs_q"]
        assert len(rows) == 2 * 201

    @pytest.mark.parametrize("N, rc", [(200.0, 0), (200.5, 2), (math.inf, 2)])
    def test_non_integral_N_is_config_error(self, tmp_path, soliton_config, capsys, N, rc):
        cfg = json.loads(soliton_config.read_text())
        soliton_config.write_text(json.dumps({**cfg, "N": N}))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(soliton_config), "--out-dir", str(out)]) == rc
        if rc:
            assert json.loads(capsys.readouterr().err)["kind"] == "config"
            assert not (out / "snapshots.csv").exists()
        else:
            assert len(_read_csv(out / "snapshots.csv")[1]) == 2 * 201

    def test_compare_soliton_predictor(self, tmp_path, soliton_config):
        out = tmp_path / "cmp"
        rc = main(
            ["compare", "--config", str(soliton_config), "--predictor", "soliton",
             "--window=-5:5", "--out-dir", str(out)]
        )
        assert rc == 0
        header, rows = _read_csv(out / "error_table.csv")
        assert len(rows) == 2
        assert all(float(r[header.index("sup_err")]) < 1e-2 for r in rows)

    @pytest.fixture
    def central_config(self, tmp_path):
        cfg = {
            "A": 1.0, "L": 10.0, "N": 200, "dt": 0.002, "t_end": 1.0,
            "record_times": [0.5, 1.0],
            "initial": {"kind": "soliton", "phi0": 0.0},
        }
        path = tmp_path / "central.json"
        path.write_text(json.dumps(cfg))
        return path

    @pytest.mark.parametrize("window", ["0.25:0.75", "-0.75:-0.25"])
    def test_compare_central_inside_one_side(self, tmp_path, central_config, window):
        out = tmp_path / "cmp"
        rc = main(
            ["compare", "--config", str(central_config), "--predictor", "central",
             f"--window={window}", "--out-dir", str(out)]
        )
        assert rc == 0
        header, rows = _read_csv(out / "error_table.csv")
        assert len(rows) == 2
        assert all(math.isfinite(float(r[header.index("sup_err")])) for r in rows)

    @pytest.mark.parametrize(
        "window",
        ["-0.5:0.5", "0.25:2.5"],
        ids=["straddles_x_0", "reaches_modulated"],
    )
    def test_compare_central_outside_sector_is_region_error(
        self, tmp_path, central_config, window
    ):
        rc = main(
            ["compare", "--config", str(central_config), "--predictor", "central",
             f"--window={window}", "--out-dir", str(tmp_path / "o")]
        )
        assert rc == 3

    @pytest.mark.parametrize("window", ["nan:1", "-inf:2", "7.5:5.5", "1:1"])
    def test_bad_window_is_config_error_before_evolve(
        self, tmp_path, soliton_config, window, monkeypatch, capsys
    ):
        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve ran before the window was checked")

        monkeypatch.setattr(cli, "evolve", no_evolve)
        out = tmp_path / "o"
        rc = main(
            ["compare", "--config", str(soliton_config), "--predictor", "soliton",
             f"--window={window}", "--out-dir", str(out)]
        )
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"
        assert not (out / "error_table.csv").exists()

    @pytest.mark.filterwarnings("ignore::nnlstep.GridTooCoarse")
    @pytest.mark.parametrize("kind", ["step", "csv"])
    def test_soliton_predictor_refuses_other_data_before_evolve(
        self, tmp_path, monkeypatch, capsys, kind
    ):
        # The soliton predictor needs the datum's phase phi0, which a step
        # or CSV datum does not have.
        def no_evolve(*args, **kwargs):
            raise AssertionError("evolve ran before the predictor was checked")

        monkeypatch.setattr(cli, "evolve", no_evolve)
        initial = {"kind": "step", "R": 0.0}
        if kind == "csv":
            initial = {"kind": "csv", "path": str(_write_tanh_csv(tmp_path / "q.csv", 4.0, 33))}
        cfg = {"A": 1.0, "L": 10.0, "N": 200, "dt": 0.002, "t_end": 0.1, "initial": initial}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        rc = main(["compare", "--config", str(path), "--predictor", "soliton",
                   "--window=-5:5", "--out-dir", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "config" and repr(kind) in err["message"]
        assert not (out / "error_table.csv").exists()

    @pytest.mark.parametrize("bad_row", ["nan,0,0", "0,inf,0", "0,0,-inf"])
    def test_non_finite_csv_is_io_error(self, tmp_path, bad_row):
        initial = tmp_path / "bad.csv"
        initial.write_text("x,re_q0,im_q0\n-4,-1,0\n" + bad_row + "\n4,1,0\n")
        cfg = {
            "A": 1.0, "L": 5.0, "N": 50, "dt": 0.002, "t_end": 0.01,
            "initial": {"kind": "csv", "path": str(initial)},
        }
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["spectral", "simulate"])
    def test_non_numeric_csv_is_config_error(self, tmp_path, command):
        initial = tmp_path / "text.csv"
        initial.write_text("x,re_q0,im_q0\n-4,-1,0\nfoo,0,0\n4,1,0\n")
        out = str(tmp_path / "o")
        if command == "spectral":
            args = ["spectral", "--input-csv", str(initial), "--out-dir", out]
        else:
            cfg = {
                "A": 1.0, "L": 5.0, "N": 50, "dt": 0.002, "t_end": 0.01,
                "initial": {"kind": "csv", "path": str(initial)},
            }
            path = tmp_path / "text.json"
            path.write_text(json.dumps(cfg))
            args = ["simulate", "--config", str(path), "--out-dir", out]
        assert main(args) == 2

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_non_finite_initial_samples_are_config_errors(self, tmp_path, command):
        # JSON admits NaN; a soliton phase of NaN gives NaN at every sample.
        cfg = {
            "A": 1.0, "L": 5.0, "N": 50, "dt": 0.002, "t_end": 0.01,
            "initial": {"kind": "soliton", "phi0": float("nan")},
        }
        path = tmp_path / "nan_phase.json"
        path.write_text(json.dumps(cfg))
        args = [command, "--config", str(path), "--out-dir", str(tmp_path / "o")]
        if command == "compare":
            args += ["--predictor", "soliton", "--window", "1:2"]
        assert main(args) == 2

    @pytest.mark.parametrize(
        "times",
        [{"t_end": -0.1}, {"t_end": float("nan")}, {"record_times": [0.05, 0.2]},
         {"dt": 0.0}],
        ids=["negative_t_end", "nan_t_end", "record_past_t_end", "zero_dt"],
    )
    def test_bad_times_are_config_errors(self, tmp_path, times, capsys):
        cfg = {
            "A": 1.0, "L": 10.0, "N": 200, "dt": 0.002, "t_end": 0.1,
            "initial": {"kind": "soliton"},
        }
        cfg.update(times)
        path = tmp_path / "times.json"
        path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "config"

    def test_missing_config_is_io_error(self, tmp_path):
        rc = main(
            ["simulate", "--config", str(tmp_path / "nope.json"),
             "--out-dir", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_invalid_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["simulate", "--config", str(bad), "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_cfl_violation_is_precondition_error(self, tmp_path):
        cfg = {
            "A": 1.0, "L": 10.0, "N": 200, "dt": 0.1, "t_end": 0.2,
            "initial": {"kind": "soliton"},
        }
        path = tmp_path / "cfl.json"
        path.write_text(json.dumps(cfg))
        rc = main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.filterwarnings("ignore::nnlstep.GridTooCoarse")
    @pytest.mark.parametrize("kind", ["step", "csv"])
    def test_cfl_violation_refused_before_scattering_data(
        self, tmp_path, monkeypatch, capsys, kind
    ):
        # d(A) takes seconds on CSV data; a dt the solver would refuse
        # must stop `compare` before any of it is built.
        built = []
        monkeypatch.setattr(cli, "transition_params", lambda *a, **k: built.append(a))
        monkeypatch.setattr(cli, "jost_spectral", lambda *a, **k: built.append(a))
        initial = {"kind": "step"}
        if kind == "csv":
            initial = {"kind": "csv", "path": str(_write_tanh_csv(tmp_path / "q.csv", 4.0, 33))}
        cfg = {"A": 1.0, "L": 10.0, "N": 200, "dt": 0.01, "t_end": 0.1, "initial": initial}
        path = tmp_path / "cfl.json"
        path.write_text(json.dumps(cfg))
        rc = main(["compare", "--config", str(path), "--predictor", "transition",
                   "--window", "0.5:1.5", "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "precondition"
        assert built == []

    @pytest.mark.filterwarnings("ignore::nnlstep.GridTooCoarse")
    def test_compare_transition_predictor(self, tmp_path):
        # The centred step against its transition profile, in a window away
        # from x = 0: the table is nnls_sim.compare of the same run.
        cfg = {
            "A": 1.0, "L": 10.0, "N": 200, "dt": 0.002, "t_end": 0.1,
            "record_times": [0.05, 0.1], "initial": {"kind": "step", "R": 0.0},
        }
        path = tmp_path / "step.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(path), "--predictor", "transition",
                     "--window", "0.5:1.5", "--out-dir", str(out)]) == 0
        header, rows = _read_csv(out / "error_table.csv")
        step = StepProfile(A=1.0, R=0.0)
        sd = step_spectral(step)
        params = transition_params(sd)
        snapshots = evolve(init_field(step, Grid(L=10.0, N=200)),
                           SimConfig(dt=0.002, t_end=0.1, record_times=(0.05, 0.1)), 1.0)
        table = compare(snapshots, lambda x, t: q_transition(sd, x, t, params=params), (0.5, 1.5))
        assert header == ["t", "sup_err", "l2_err", "fitted_exponent"]
        assert rows == [
            [cli._fmt(v) for v in (t, sup, l2, table.fitted_exponent)]
            for t, sup, l2 in zip(table.times, table.sup_errors, table.l2_errors)
        ]
        assert len(rows) == 2

    def test_blowup_exit_code(self, tmp_path):
        initial = tmp_path / "huge.csv"
        initial.write_text(
            "x,re_q0,im_q0\n" + "\n".join(f"{x},{100.0 * x / 4.0},0" for x in (-4, -2, 0, 2, 4))
        )
        cfg = {
            "A": 1.0, "L": 5.0, "N": 50, "dt": 0.002, "t_end": 0.01,
            "initial": {"kind": "csv", "path": str(initial)},
        }
        path = tmp_path / "blow.json"
        path.write_text(json.dumps(cfg))
        with pytest.warns(GridTooCoarse):
            rc = main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert rc == 4


@pytest.mark.parametrize(
    "command",
    [["asym", "--xi", "0.9"], ["asym", "--x", "1"],
     ["compare", "--predictor", "modulated"], ["compare", "--predictor", "transition"]],
    ids=["asym_ray", "asym_station", "compare_modulated", "compare_transition"],
)
def test_csv_rays_build_jost_data_without_a_table(tmp_path, jost_batches, command):
    # Only `spectral` tabulates k; the rays need no Jost batch.
    initial = _write_tanh_csv(tmp_path / "tanh.csv", 4.0, 33)
    if command[0] == "asym":
        args = command + ["--input-csv", str(initial), "--t", "10"]
    else:
        config = tmp_path / "csv.json"
        config.write_text(json.dumps({
            "A": 1.0, "L": 5.0, "N": 50, "dt": 0.002, "t_end": 0.01,
            "initial": {"kind": "csv", "path": str(initial)},
        }))
        args = command + ["--config", str(config), "--window", "2:3"]
    with pytest.raises(_Built):
        main(args + ["--out-dir", str(tmp_path / "o")])
    assert jost_batches == [[]]


@pytest.mark.parametrize("command", ["spectral", "asym", "compare"])
def test_tol_flag_is_usage_error(tmp_path, command):
    # The quadrature tolerance of the ray layer is fixed, not a flag.
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "A": 1.0, "L": 5.0, "N": 50, "dt": 0.002, "t_end": 0.01,
        "initial": {"kind": "soliton"},
    }))
    args = {
        "spectral": ["spectral"],
        "asym": ["asym", "--xi", "0.75", "--t", "10"],
        "compare": ["compare", "--config", str(config), "--predictor", "soliton",
                    "--window", "1:2"],
    }[command]
    assert main(args + ["--tol", "1e-8", "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "args, kind",
    [
        (["compare", "--config", "sim.json", "--predictor", "soliton", "--window", "1-2"],
         "config"),
        (["simulate", "--config", "wave.json"], "config"),
        (["spectral", "--input-csv", "short.csv"], "io"),
        (["spectral", "--input-csv", "one.csv"], "io"),
        (["asym", "--input-csv", "none.csv", "--xi", "0.75", "--t", "10"], "io"),
        (["asym", "--xi", "0.75", "--t", "10,late"], "config"),
    ],
    ids=["window_without_colon", "unknown_initial_kind", "short_csv_row", "one_sample_csv",
         "missing_csv", "non_numeric_times"],
)
def test_bad_input_exits_2_with_its_kind(
    tmp_path, monkeypatch, capsys, no_spectral_data, args, kind
):
    monkeypatch.chdir(tmp_path)
    for name, initial in (("sim.json", "soliton"), ("wave.json", "wave")):
        (tmp_path / name).write_text(json.dumps({
            "A": 1.0, "L": 5.0, "N": 50, "dt": 0.002, "t_end": 0.01,
            "initial": {"kind": initial},
        }))
    (tmp_path / "short.csv").write_text("x,re_q0,im_q0\n-4,-1,0\n0,0\n4,1,0\n")
    (tmp_path / "one.csv").write_text("x,re_q0,im_q0\n0,0,0\n")
    assert main(args + ["--out-dir", "o"]) == 2
    assert json.loads(capsys.readouterr().err)["kind"] == kind
    assert not list((tmp_path / "o").glob("*.csv"))


def test_csv_without_header_reads_first_row_as_data(tmp_path):
    # A first row of numbers is a sample, not a header: the datum is the
    # same as with the header line added above it.
    rows = "-4,-1,0\n0,0,0\n4,1,0\n"
    bare, headed = tmp_path / "bare.csv", tmp_path / "headed.csv"
    bare.write_text(rows)
    headed.write_text("x,re_q0,im_q0\n" + rows)
    data = cli._load_initial_csv(str(bare), 1.0)
    assert data.sampler(-2.0) == -0.5  # between the first two rows
    assert data.decay_width == 4.0
    for path in (bare, headed):
        args = ["spectral", "--input-csv", str(path), "--k-grid", "1.1:4:5"]
        assert main(args + ["--out-dir", str(tmp_path / path.stem)]) == 0
    assert (tmp_path / "bare" / "spectral_data.csv").read_bytes() == (
        tmp_path / "headed" / "spectral_data.csv"
    ).read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["asym", "--soliton", "--t", "10", "--xi", "-0.75,0.9"],
        ["asym", "--soliton", "--t", "10", "--x", "-0.5,0.5"],
        ["spectral", "--k-grid", "-3.3:3.1:5"],
        ["compare", "--predictor", "soliton", "--window", "-9:-1"],
    ],
    ids=["xi", "x", "k_grid", "window"],
)
def test_negative_list_needs_equals_form(tmp_path, args, capsys):
    # argparse reads a value that starts with '-' as an option.
    if args[0] == "compare":
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({
            "A": 1.0, "L": 10.0, "N": 200, "dt": 0.002, "t_end": 0.01,
            "initial": {"kind": "soliton"},
        }))
        args = args[:1] + ["--config", str(config)] + args[1:]
    *head, flag, value = args
    assert main(head + [flag, value, "--out-dir", str(tmp_path / "space")]) == 2
    assert "expected one argument" in capsys.readouterr().err
    assert main(head + [f"{flag}={value}", "--out-dir", str(tmp_path / "eq")]) == 0


@pytest.mark.parametrize("command", [["spectral"], ["asym", "--xi", "0.75", "--t", "10"]],
                         ids=["spectral", "asym"])
@pytest.mark.parametrize(
    "sources",
    [["--soliton", "--step-R", "0.7"], ["--step-R", "0.7", "--input-csv", "t.csv"],
     ["--soliton", "--input-csv", "t.csv"]],
    ids=["soliton_step", "step_csv", "soliton_csv"],
)
def test_contradictory_source_flags_are_usage_error(tmp_path, monkeypatch, capsys,
                                                    command, sources):
    # One datum per run: a second source flag would be ignored.
    monkeypatch.chdir(tmp_path)
    _write_tanh_csv(tmp_path / "t.csv", 4.0, 33)
    assert main(command + sources + ["--out-dir", "o"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("A", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("command", [["spectral"], ["asym", "--xi", "0.75", "--t", "10"]],
                         ids=["spectral", "asym"])
def test_csv_amplitude_flag_is_precondition_error(tmp_path, capsys, no_spectral_data,
                                                  command, A):
    initial = _write_tanh_csv(tmp_path / "t.csv", 4.0, 33)
    out = tmp_path / "o"
    assert main(command + ["--input-csv", str(initial), f"--A={A}", "--out-dir", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "precondition"
    assert "amplitude must be positive and finite" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("A", [0.0, -1.0, math.inf, math.nan])
def test_csv_config_amplitude_is_config_error(tmp_path, capsys, A):
    # It used to run, and a bad A showed as a blow-up at the first step.
    initial = _write_tanh_csv(tmp_path / "t.csv", 4.0, 33)
    config = tmp_path / "csv.json"
    config.write_text(json.dumps({
        "A": A, "L": 5.0, "N": 50, "dt": 0.002, "t_end": 0.01,
        "initial": {"kind": "csv", "path": str(initial)},
    }))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config"
    assert "amplitude must be positive and finite" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "exc, kind, code",
    [
        (cli.CliError("config", "bad"), "config", 2),
        (FileNotFoundError("gone"), "io", 2),
        (PermissionError("denied"), "io", 2),
        (IsADirectoryError("a directory"), "io", 2),
        (BlowupDetected("field reached 60", t=0.25), "blowup", 4),
        (RegionMismatch("region"), "region", 3),
        (SingularStation("station"), "region", 3),
        (SolitonPole("pole"), "region", 3),
        (WindingOutOfRange("winding"), "region", 3),
        (BranchPointError("branch point"), "region", 3),
        (BranchDomainError("cut"), "region", 3),
        (PoleOnContour("pole"), "region", 3),
        (ToleranceNotMet("tol"), "tolerance", 5),
        (InconclusiveWinding("jump"), "tolerance", 5),
        (MissingNormingConstant("gamma_+"), "error", 3),
        (ValueError("bad value"), "precondition", 3),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
)
def test_every_error_row_has_its_kind_and_exit(tmp_path, monkeypatch, capsys, exc, kind, code):
    # The first matching row of _ERROR_MAP decides; a blow-up adds its time.
    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "modulated_params", raising)
    out = tmp_path / "o"
    assert main(["asym", "--xi", "0.75", "--t", "10", "--out-dir", str(out)]) == code
    want = {"kind": kind, "message": str(exc)}
    if isinstance(exc, BlowupDetected):
        want["t"] = 0.25
    err = capsys.readouterr().err
    assert err == json.dumps(want) + "\n"
    assert not out.exists()


def test_out_dir_under_a_file_is_io_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert main(["spectral", "--out-dir", str(tmp_path / "file" / "o")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "io" and err["message"].startswith("cannot create output directory")


def test_unwritable_artifact_is_io_error(tmp_path, capsys):
    # asym.csv is a directory, so writing it raises IsADirectoryError.
    out = tmp_path / "o"
    (out / "asym.csv").mkdir(parents=True)
    assert main(["asym", "--xi", "0.75", "--t", "10", "--out-dir", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "io" and "Is a directory" in err["message"]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv, code",
    [(["asym", "--xi", "0.75", "--t", "-1"], 2), (["asym", "--xi", "0.75,0.5", "--t", "10"], 3)],
    ids=["config", "region"],
)
def test_refused_run_leaves_no_directory_it_made(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out-dir", "o/deep"]) == code
    assert not (tmp_path / "o").exists()
    (tmp_path / "kept").mkdir()
    assert main(argv + ["--out-dir", "kept/new/deeper"]) == code
    assert (tmp_path / "kept").is_dir() and not (tmp_path / "kept" / "new").exists()


def test_existing_empty_out_dir_survives_a_refusal(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    assert main(["asym", "--xi", "0.75", "--t", "-1", "--out-dir", str(out)]) == 2
    assert out.is_dir() and not list(out.iterdir())


@pytest.mark.parametrize("source", [["--step-R", "0.7"], ["--input-csv", "t.csv"]],
                         ids=["step", "csv"])
def test_phi0_without_soliton_is_config_error(tmp_path, monkeypatch, capsys, no_spectral_data,
                                              source):
    # --phi0 is the soliton's phase; a step or CSV datum would ignore it.
    monkeypatch.chdir(tmp_path)
    _write_tanh_csv(tmp_path / "t.csv", 4.0, 33)
    argv = ["asym", *source, "--phi0", "0.3", "--xi", "0.75", "--t", "10", "--out-dir", "o"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config" and "--phi0" in err["message"]
    assert not (tmp_path / "o").exists()


def test_soliton_phase_defaults_to_zero(tmp_path):
    argv = ["asym", "--soliton", "--xi=-0.75,0.2", "--t", "10"]
    assert main(argv + ["--out-dir", str(tmp_path / "default")]) == 0
    assert main(argv + ["--phi0", "0", "--out-dir", str(tmp_path / "zero")]) == 0
    assert (tmp_path / "default" / "asym.csv").read_bytes() == (
        tmp_path / "zero" / "asym.csv").read_bytes()


@pytest.mark.filterwarnings("ignore::nnlstep.GridTooCoarse")
@pytest.mark.parametrize(
    "args, bad, code",
    [
        (["spectral", "--k-grid", "2:10:5"], ["spectral", "--k-grid", "2:1:5"], 2),
        (["asym", "--xi", "0.75", "--t", "10"], ["asym", "--xi", "0.5", "--t", "10"], 3),
        (["simulate", "--config", "sim.json"], ["simulate", "--config", "cfl.json"], 3),
        (["compare", "--config", "sim.json", "--predictor", "soliton", "--window", "1:2"],
         ["compare", "--config", "step.json", "--predictor", "soliton", "--window", "1:2"], 2),
    ],
    ids=["spectral", "asym", "simulate", "compare"],
)
def test_manifest_is_written_only_after_success(tmp_path, monkeypatch, capsys, args, bad, code):
    monkeypatch.chdir(tmp_path)
    base = {"A": 1.0, "L": 5.0, "N": 50, "dt": 0.002, "t_end": 0.01}
    for name, extra in (("sim.json", {"initial": {"kind": "soliton"}}),
                        ("cfl.json", {"dt": 0.1, "initial": {"kind": "soliton"}}),
                        ("step.json", {"initial": {"kind": "step"}})):
        (tmp_path / name).write_text(json.dumps({**base, **extra}))
    assert main(args + ["--out-dir", "good"]) == 0
    manifest = json.loads((tmp_path / "good" / "manifest.json").read_text())
    assert manifest["command"] == args[0]
    assert manifest["config"] == (args[2] if "--config" in args else None)
    assert main(bad + ["--out-dir", "bad"]) == code
    assert "kind" in json.loads(capsys.readouterr().err)
    assert not (tmp_path / "bad").exists()


def test_module_runs_as_a_script(tmp_path):
    # python -m nnlstep.cli exits with main's code and prints its error.
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-m", "nnlstep.cli", "asym", "--xi", "0.5", "--t", "10",
         "--out-dir", str(tmp_path / "o")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode == 3
    assert json.loads(run.stderr)["kind"] == "region"
