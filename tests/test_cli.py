import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ringnet.cli
import ringnet.simulate
from ringnet.analysis import InsufficientSupportError, classify, eigenvector_localization
from ringnet.cli import distribution_csv, main, render_json
from ringnet.config import load_config, parse_config
from ringnet.linalg import NonUnitaryError
from ringnet.network import MotifParams, Scenario, compose, disordered_motif
from ringnet.simulate import propagate, run_ensemble

TWO_PI = 6.283185307179586


def write_config(tmp_path, name="cfg.json", **overrides):
    data = {
        "scenario": {"kind": "fully-random", "alpha_layer": TWO_PI, "seed": 7},
        "depths": [2, 6],
        "runs": 25,
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# -------------------------------------------------------------------- format


def test_render_json_pins_float_text():
    # shortest round-trip text: each number parses back to the same double
    for x, text in ((0.1, "0.1"), (1.0, "1.0"), (1e-12, "1e-12"), (-0.0, "-0.0")):
        assert render_json({"x": x}) == '{\n  "x": ' + text + '\n}\n'
    assert render_json([1, None, True]) == '[\n  1,\n  null,\n  true\n]\n'
    assert render_json({}) == "{}\n"


def test_render_json_rejects_non_finite():
    with pytest.raises(ValueError):
        render_json({"x": math.inf})


def test_render_json_handles_numpy_scalars_and_arrays():
    out = render_json(
        {"v": np.array([1.5]), "n": np.int64(3), "b": np.bool_(False), "f": np.float64(0.1)}
    )
    assert '"v": [\n    1.5\n  ]' in out
    assert '"f": 0.1' in out
    assert '"n": 3' in out
    assert '"b": false' in out


def test_distribution_csv_layout():
    motif = MotifParams(n_couplers=2, theta=np.pi / 4, phi=np.pi / 4)
    dist = propagate(compose(Scenario(kind="pure", motif=motif, depth=1, seed=0)), 0)
    text = distribution_csv(dist, floor=1e-12)
    lines = text.splitlines()
    assert lines[0] == "port,probability,log10_probability"
    assert len(lines) == 6  # header + 4 ports + sum footer
    assert lines[1].startswith("1,0.25")
    assert lines[-1].startswith("# sum=")
    total = float(lines[-1].split("=")[1])
    assert abs(total - 1.0) <= 1e-10


def test_distribution_csv_blanks_log_below_floor():
    motif = MotifParams(n_couplers=5, theta=np.pi / 4, phi=np.pi / 4)
    dist = propagate(compose(Scenario(kind="pure", motif=motif, depth=1, seed=0)), 0)
    lines = distribution_csv(dist, floor=1e-12).splitlines()
    empty = [ln for ln in lines[1:-1] if ln.endswith(",")]
    filled = [ln for ln in lines[1:-1] if not ln.endswith(",")]
    assert len(filled) == 4  # one motif reaches exactly four ports
    assert len(empty) == 6
    for ln in filled:
        port, prob, log10p = ln.split(",")
        assert float(log10p) == pytest.approx(math.log10(float(prob)), abs=1e-12)


# ------------------------------------------------------------------ simulate


def test_simulate_writes_expected_files(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    names = set(read_all(out))
    assert names == {
        "dist_M2.csv",
        "dist_M6.csv",
        "verdict_M2.json",
        "verdict_M6.json",
        "variance_trace.csv",
        "effective_config.json",
    }
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and all(ln.startswith("wrote ") for ln in lines)

    verdict = json.loads((out / "verdict_M6.json").read_text())
    assert verdict["depth"] == 6
    assert verdict["runs"] == 25
    assert verdict["input_port"] == 20
    assert verdict["regime"] in {"diffusive", "ambiguous", "localized"}
    assert set(verdict["fits"]) == {"gaussian", "exponential"}

    trace = (out / "variance_trace.csv").read_text().splitlines()
    assert trace[0] == "depth,variance,ipr"
    depths = [int(row.split(",")[0]) for row in trace[1:]]
    assert depths == [2, 6]

    for name in ("dist_M2.csv", "dist_M6.csv"):
        footer = (out / name).read_text().splitlines()[-1]
        assert abs(float(footer.split("=")[1]) - 1.0) <= 1e-10


def test_csv_log_column_and_fits_use_one_cut(tmp_path):
    cfg = write_config(
        tmp_path, emit=["distributions", "fits"], fit_floor=1e-4, depths=[2, 8]
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    dropped = 0
    for depth in (2, 8):
        text = (out / f"dist_M{depth}.csv").read_text()
        rows = [row.split(",") for row in text.splitlines()[1:-1]]
        logged = sum(1 for row in rows if row[2])
        dropped += sum(1 for row in rows if float(row[1]) > 0.0 and not row[2])
        fits = json.loads((out / f"verdict_M{depth}.json").read_text())["fits"]
        assert fits["gaussian"]["n_points"] == logged
        assert fits["exponential"]["n_points"] == logged
    # the light-cone edge at depth 8 carries 4**-8 < 1e-4, so the cut bites
    assert dropped > 0


def test_simulate_quiet_suppresses_notes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_simulate_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, emit=["distributions", "fits", "variance_trace", "spectral"])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    assert read_all(out1) == read_all(out2)


def test_effective_config_echo_reproduces_the_run(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "a"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    echoed = tmp_path / "echo.json"
    echoed.write_bytes((out1 / "effective_config.json").read_bytes())
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(echoed), "--out", str(out2), "--quiet"]) == 0
    assert read_all(out1) == read_all(out2)


def test_seed_override_changes_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(cfg), "--out", str(out1), "--quiet"])
    main(["simulate", "--config", str(cfg), "--out", str(out2), "--quiet", "--seed", "8"])
    a = (out1 / "dist_M6.csv").read_bytes()
    b = (out2 / "dist_M6.csv").read_bytes()
    assert a != b
    cfg_b = json.loads((out2 / "effective_config.json").read_text())
    assert cfg_b["scenario"]["seed"] == 8


def test_emit_spectral_from_simulate(tmp_path):
    cfg = write_config(tmp_path, emit=["spectral"], depths=[3])
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    names = set(read_all(out))
    assert names == {"spectral.json", "effective_config.json"}


# ----------------------------------------------------------------- scan-alpha


def test_scan_alpha_summary(tmp_path):
    cfg = write_config(
        tmp_path,
        depths=[6],
        runs=30,
        alphas=[0.0, TWO_PI],
        emit=["fits"],
    )
    out = tmp_path / "scan"
    assert main(["scan-alpha", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    summary = (out / "scan_summary.csv").read_text().splitlines()
    assert summary[0] == "alpha,ipr,ssr_ratio,regime"
    assert len(summary) == 3
    first = summary[1].split(",")
    assert float(first[0]) == 0.0
    # without any disorder the walk cannot look localized
    assert first[3] in {"diffusive", "ambiguous"}
    v0 = json.loads((out / "verdict_alpha0.json").read_text())
    assert v0["alpha"] == 0.0


def test_scan_alpha_single_point_matches_simulate(tmp_path):
    base = {
        "scenario": {"kind": "fixed-disorder", "alpha_fixed": TWO_PI, "seed": 3},
        "depths": [10],
        "runs": 40,
    }
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(json.dumps(base))
    scan_cfg = tmp_path / "scan.json"
    scan_cfg.write_text(json.dumps({**base, "alphas": [TWO_PI]}))
    sim_out, scan_out = tmp_path / "sim", tmp_path / "scan"
    assert main(["simulate", "--config", str(sim_cfg), "--out", str(sim_out), "--quiet"]) == 0
    assert main(["scan-alpha", "--config", str(scan_cfg), "--out", str(scan_out), "--quiet"]) == 0
    sim_v = json.loads((sim_out / "verdict_M10.json").read_text())
    scan_v = json.loads((scan_out / "verdict_alpha0.json").read_text())
    assert scan_v["regime"] == sim_v["regime"]
    assert scan_v["ssr_ratio"] == sim_v["ssr_ratio"]
    assert (sim_out / "dist_M10.csv").read_bytes() == (
        scan_out / "dist_alpha0.csv"
    ).read_bytes()


def run_cli(tmp_path, name, command, cfg, *args):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert main([command, "--config", str(path), "--out", str(out), "--quiet", *args]) == 0
    return out


@pytest.mark.parametrize(
    "scenario, axis",
    [
        ({"kind": "fully-random"}, "alpha_layer"),
        ({"kind": "fixed-disorder"}, "alpha_fixed"),
        ({"kind": "intermediate", "alpha_fixed": TWO_PI, "alpha_layer": 0.3}, "alpha_layer"),
    ],
    ids=["fully-random", "fixed-disorder", "intermediate"],
)
def test_scan_alpha_varies_the_strength_its_kind_names(tmp_path, scenario, axis):
    x = 1.0
    base = {"scenario": {**scenario, "seed": 3}, "depths": [6], "runs": 20}

    def with_strength(field):
        return {**base, "scenario": {**base["scenario"], field: x}}

    scan = run_cli(tmp_path, "scan", "scan-alpha", {**base, "alphas": [x]})
    named = run_cli(tmp_path, "named", "simulate", with_strength(axis))
    got = (scan / "dist_alpha0.csv").read_bytes()
    assert got == (named / "dist_M6.csv").read_bytes()
    if scenario["kind"] == "intermediate":
        # both strengths apply to this kind; the scan must not move the frozen one
        frozen = run_cli(tmp_path, "frozen", "simulate", with_strength("alpha_fixed"))
        assert got != (frozen / "dist_M6.csv").read_bytes()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("seed", range(8))
def test_shipped_scan_endpoints_hold_across_seeds(tmp_path, seed):
    # Only the first and last strengths are checked. The middle ones sit near
    # the classifier thresholds and their verdicts vary with the seed.
    allowed = {
        "alpha_scan": ({"diffusive", "ambiguous"}, {"localized"}),
        "intermediate_scan": ({"localized"}, {"diffusive"}),
    }
    for name, (first_ok, last_ok) in allowed.items():
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        cfg["alphas"] = [cfg["alphas"][0], cfg["alphas"][-1]]
        out = run_cli(tmp_path, name, "scan-alpha", cfg, "--seed", str(seed))
        rows = (out / "scan_summary.csv").read_text().splitlines()[1:]
        first, last = (row.split(",")[3] for row in rows)
        assert first in first_ok and last in last_ok, (name, first, last)


def test_scan_alpha_requires_alphas(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["scan-alpha", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_scan_alpha_rejects_pure_kind(tmp_path, capsys):
    cfg = write_config(
        tmp_path, scenario={"kind": "pure"}, alphas=[0.0], depths=[4]
    )
    code = main(["scan-alpha", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []


def test_scan_alpha_failure_after_first_strength_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    cfg = write_config(tmp_path, depths=[6], runs=5, alphas=[0.0, TWO_PI])
    real_classify = ringnet.cli.classify
    calls = []

    def classify_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise InsufficientSupportError("second strength has no support")
        return real_classify(*args, **kwargs)

    monkeypatch.setattr(ringnet.cli, "classify", classify_once)
    out = tmp_path / "o"
    assert main(["scan-alpha", "--config", str(cfg), "--out", str(out)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert len(calls) == 2
    assert list(out.iterdir()) == []


# ------------------------------------------------------------------- spectrum


def test_spectrum_output_shape(tmp_path):
    cfg = write_config(
        tmp_path,
        scenario={"kind": "fixed-disorder", "alpha_fixed": TWO_PI, "seed": 1},
        depths=[10],
        emit=["fits"],
    )
    out = tmp_path / "spec"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "spectral.json").read_text())
    assert payload["n_modes"] == 40
    assert payload["depth"] == 10
    for section in ("single_step", "full_product"):
        sec = payload[section]
        assert len(sec["eigenphases"]) == 40
        assert len(sec["eigenvector_ipr"]) == 40
        phases = np.array(sec["eigenphases"])
        # np.angle's range is [-pi, pi] and the file text parses back exactly
        assert phases.min() >= -math.pi
        assert phases.max() <= math.pi
        assert (np.diff(phases) >= 0).all()
        assert 1 / 40 <= sec["eigenvector_ipr_mean"] <= 1.0
        assert sec["branch_cut_count"] >= 0
        assert sec["band_fractions"][-1] == 1.0


def test_spectrum_counts_every_eigenphase_on_the_branch_cut(tmp_path):
    # two balanced steps of the two-coupler ring have eigenvalues 1, 1, -1, -1
    cfg = write_config(tmp_path, scenario={"kind": "pure", "n_couplers": 2}, depths=[2])
    out = tmp_path / "spec"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    payload = json.loads((out / "spectral.json").read_text())
    assert payload["single_step"]["branch_cut_count"] == 0
    assert payload["full_product"]["branch_cut_count"] == 2


def test_spectrum_reruns_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        scenario={"kind": "intermediate", "alpha_fixed": TWO_PI, "alpha_layer": 0.5, "seed": 2},
        depths=[5],
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", str(cfg), "--out", str(a), "--quiet"]) == 0
    assert main(["spectrum", "--config", str(cfg), "--out", str(b), "--quiet"]) == 0
    assert read_all(a) == read_all(b)


def test_written_numbers_parse_back_to_the_computed_doubles(tmp_path):
    path = write_config(tmp_path, depths=[2, 6], runs=5)
    cfg = parse_config(load_config(str(path)))
    sim, spec = tmp_path / "sim", tmp_path / "spec"
    assert main(["simulate", "--config", str(path), "--out", str(sim), "--quiet"]) == 0
    assert main(["spectrum", "--config", str(path), "--out", str(spec), "--quiet"]) == 0

    result = run_ensemble(cfg.scenario, cfg.input_index, cfg.depths, cfg.runs)
    trace = (sim / "variance_trace.csv").read_text().splitlines()[1:]
    for sample, row in zip(result.samples, trace, strict=True):
        probs = sample.distribution.probabilities
        rows = [ln.split(",") for ln in (sim / f"dist_M{sample.depth}.csv").read_text().splitlines()]
        assert [float(r[1]) for r in rows[1:-1]] == probs.tolist()
        assert [float(r[2]) for r in rows[1:-1] if r[2]] == [
            math.log10(p) for p in probs if p > cfg.fit_floor
        ]
        assert [float(x) for x in row.split(",")] == [sample.depth, sample.variance, sample.ipr]

        verdict = json.loads((sim / f"verdict_M{sample.depth}.json").read_text())
        expected = classify(sample.distribution, cfg.thresholds, cfg.fit_floor)
        for name, fit in (("gaussian", expected.gaussian), ("exponential", expected.exponential)):
            assert verdict["fits"][name]["decay"] == fit.decay
            assert verdict["fits"][name]["ssr"] == fit.ssr
        assert verdict["variance"] == sample.variance
        assert verdict["ipr"] == sample.ipr
        assert verdict["realization_ipr_mean"] == sample.realization_ipr_mean

    spectral = json.loads((spec / "spectral.json").read_text())
    for section, w in (
        ("single_step", disordered_motif(cfg.scenario)),
        ("full_product", compose(cfg.scenario)),
    ):
        report = eigenvector_localization(w)
        assert spectral[section]["eigenphases"] == report.eigenphases.tolist()
        assert spectral[section]["eigenvector_ipr"] == report.eigenvector_ipr.tolist()
        assert spectral[section]["band_fractions"] == report.band_fractions.tolist()
        assert spectral[section]["eigenvector_ipr_mean"] == report.eigenvector_ipr_mean

    for out in (sim, spec):
        for name, text in read_all(out).items():
            assert b"np." not in text, name


# ----------------------------------------------------------------- exit codes


def test_exit_1_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": {"kind": "pure"}, "depths": [1], "zzz": 1}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "zzz" in capsys.readouterr().err


def test_exit_1_on_config_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe" + json.dumps({"scenario": {"kind": "pure"}}).encode("utf-16-le"))
    out = tmp_path / "o"
    out.mkdir()
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_exit_1_on_ring_too_large_for_dense_matrices(tmp_path, capsys):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(
        {"scenario": {"kind": "pure", "n_couplers": 50000}, "depths": [1], "runs": 1}
    ))
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "config error: scenario.n_couplers" in capsys.readouterr().err
    assert peak < 10_000_000
    assert not out.exists()


LONG_INT = "9" * 400  # an integer literal past the largest double, about 1.8e308
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
FRESH = {"kind": "fully-random", "alpha_layer": TWO_PI, "seed": 7}


@pytest.mark.parametrize(
    "overrides, literal, key",
    [
        *(
            pytest.param({"scenario": {**FRESH, name: "@"}}, LONG_INT, f"scenario.{name}", id=name)
            for name in ("theta", "phi", "alpha_fixed", "alpha_layer")
        ),
        pytest.param({"fit_floor": "@"}, LONG_INT, "fit_floor", id="fit_floor"),
        pytest.param({"thresholds": [0.8, "@"]}, LONG_INT, "thresholds[1]", id="thresholds"),
        pytest.param({"alphas": ["@"]}, LONG_INT, "alphas[0]", id="alphas"),
        pytest.param(
            {"scenario": {**FRESH, "n_couplers": "@"}},
            "1" + "0" * 2200,
            "scenario.n_couplers",
            id="n_couplers",
        ),
        pytest.param(
            {"scenario": {**FRESH, "seed": "@"}},
            "1" * (INT_DIGIT_LIMIT + 1),
            "<config>",
            marks=pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="no int digit limit"),
            id="seed-past-digit-limit",
        ),
    ],
)
def test_exit_1_on_number_too_large_for_a_double(tmp_path, capsys, overrides, literal, key):
    text = json.dumps({"scenario": FRESH, "depths": [2, 6], "runs": 5, **overrides})
    cfg = tmp_path / "huge.json"
    cfg.write_text(text.replace('"@"', literal))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key}")
    assert not out.exists()


def test_exit_1_on_missing_config_flag(capsys):
    assert main(["simulate"]) == 1
    assert "config error" in capsys.readouterr().err
    # argparse's own usage-error code is 2, which here means numerical failure
    for argv in (["simulate", "--seed", "abc"], ["bogus"]):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err
    assert main(["simulate", "--help"]) == 0


def test_exit_2_on_numerical_failure(tmp_path, capsys):
    # a fit floor just under 1 leaves the regression fewer than three points
    cfg = write_config(tmp_path, fit_floor=0.9, depths=[6])
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []


def test_exit_2_on_non_unitary_step_factors(tmp_path, monkeypatch, capsys):
    real_factors = ringnet.simulate.scenario_step_factors

    def inflated_factors(*args, **kwargs):
        for factor in real_factors(*args, **kwargs):
            yield 1.001 * factor

    monkeypatch.setattr(ringnet.simulate, "scenario_step_factors", inflated_factors)
    motif = MotifParams(n_couplers=4, theta=np.pi / 4, phi=np.pi / 4)
    sc = Scenario(kind="pure", motif=motif, depth=3, seed=0)
    with pytest.raises(NonUnitaryError):
        run_ensemble(sc, 0, (3,), runs=2)
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_exit_2_on_schur_failure(tmp_path, monkeypatch, capsys):
    import scipy.linalg

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("schur: QR iteration did not converge")

    monkeypatch.setattr(scipy.linalg, "schur", no_convergence)
    cfg = write_config(tmp_path, scenario={"kind": "fixed-disorder", "alpha_fixed": 1.0})
    out = tmp_path / "o"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_other_exceptions_are_bugs_not_numerical_failures(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a programming error")

    monkeypatch.setattr(ringnet.cli, "run_ensemble", broken)
    cfg = write_config(tmp_path)
    with pytest.raises(ValueError, match="a programming error"):
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])


def test_exit_3_on_unwritable_out_dir(tmp_path, capsys):
    cfg = write_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["simulate", "--config", str(cfg), "--out", str(blocker)]) == 3
    assert "i/o error" in capsys.readouterr().err


SRC = Path(__file__).resolve().parents[1] / "src"


def checkout_env(**overrides):
    """``os.environ`` with this checkout's ``src`` first on PYTHONPATH.

    pytest's ``pythonpath`` setting does not reach child interpreters, so
    every subprocess gets this environment to import ringnet without an install.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def test_subprocess_entry_point(tmp_path):
    cfg = write_config(tmp_path, depths=[3], runs=5)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "ringnet", "simulate", "--config", str(cfg), "--out", str(out), "--quiet"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "effective_config.json").exists()


def test_subprocess_entry_point_reports_oversized_number_without_traceback(tmp_path):
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"scenario": {"kind": "pure", "theta": %s}, "depths": [1]}' % LONG_INT)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "ringnet", "simulate", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: scenario.theta")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def run_with_threads(tmp_path, command, cfg, threads):
    out = tmp_path / f"{command}-{threads}"
    env = checkout_env(**{var: str(threads) for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, "-m", "ringnet", command, "--config", str(cfg), "--out", str(out), "--quiet"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return read_all(out)


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("simulate", {
            "scenario": {
                "kind": "fully-random", "n_couplers": 100, "alpha_layer": TWO_PI, "seed": 0,
            },
            "depths": [10, 20, 30, 40, 50],
            "runs": 10,
            "emit": ["distributions", "fits", "variance_trace", "spectral"],
        }),
        ("scan-alpha", {
            "scenario": {
                "kind": "fixed-disorder", "n_couplers": 80, "alpha_fixed": TWO_PI, "seed": 0,
            },
            "depths": [40],
            "runs": 6,
            "alphas": [TWO_PI / k for k in (32, 16, 8, 4, 2, 1)],
            "emit": ["distributions", "fits"],
        }),
    ],
    ids=["simulate", "scan-alpha"],
)
def test_outputs_do_not_depend_on_thread_count(tmp_path, command, overrides):
    cfg = write_config(tmp_path, **overrides)
    single = run_with_threads(tmp_path, command, cfg, 1)
    double = run_with_threads(tmp_path, command, cfg, 2)
    assert single.keys() == double.keys()
    # LAPACK's Schur step may move spectral.json in its last digits
    for name in single.keys() - {"spectral.json"}:
        assert single[name] == double[name], name


# --------------------------------------------------------------- cold start

SCIPY_PROBE = """
import sys
import ringnet.cli
assert "scipy" not in sys.modules, "import ringnet.cli loaded scipy"
code = ringnet.cli.main(sys.argv[1:])
print(code, "scipy" in sys.modules)
"""


@pytest.mark.parametrize(
    "command, overrides, loads_scipy",
    [
        ("simulate", {"depths": [3], "runs": 5}, False),
        ("scan-alpha", {
            "scenario": {"kind": "fixed-disorder", "alpha_fixed": TWO_PI, "seed": 0},
            "depths": [3],
            "runs": 5,
            "alphas": [0.0, TWO_PI],
        }, False),
        ("spectrum", {"depths": [3]}, True),
        ("simulate", {"depths": [3], "runs": 5, "emit": ["spectral"]}, True),
    ],
    ids=["simulate", "scan-alpha", "spectrum", "simulate-spectral"],
)
def test_only_spectral_runs_import_scipy(tmp_path, command, overrides, loads_scipy):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, command, "--config", str(cfg), "--out", str(out), "--quiet"],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", str(loads_scipy)]


def test_scipy_is_imported_only_inside_eig_unitary():
    found = []
    for path in sorted((SRC / "ringnet").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                owner = [f.name for f in functions if node in ast.walk(f)]
                found.append((path.name, owner))
    assert found == [("linalg.py", ["eig_unitary"])]
