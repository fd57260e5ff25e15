import argparse
import dataclasses
import json
import math
import os

import numpy as np
import pytest
import scipy

from polydiv import _blas
from polydiv.cli import _emit, _encode, build_parser, parse_market_csv, parse_model_config, run
from polydiv.errors import ConfigError, InadmissibleParamsError, MarketDataError, NumericError
from polydiv.maxent import OptionSpec, price_stock_option
from polydiv.model import ModelParams, validate_admissibility
from polydiv.moments import dividend_futures, stock_futures

from conftest import random_admissible_params, random_state_in_E

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "polydiv", "data")
BUNDLED_CSV = os.path.abspath(os.path.join(DATA_DIR, "sx5e_20151221.csv"))

GOOD_CONFIG = {
    "r": 0.01, "a": 0.2, "sigma": 0.2813, "d": 1,
    "b": [0.0103], "beta": [[-0.3439]], "nu": [0.0194],
    "lambda": 0.0, "jump_dist": None,
    "x0": 1.0, "y0": [0.0371], "c0": 0.0,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(GOOD_CONFIG))
    return str(path)


def write_config(tmp_path, **overrides):
    cfg = {**GOOD_CONFIG, **overrides}
    path = tmp_path / "override.json"
    path.write_text(json.dumps(cfg))
    return str(path)


CSV_HEADER = "instrument,type,window_start,window_end,expiry,quote"
DF1_ROW = "DF1,dividend_future,2015-12-18,2016-12-16,2016-12-16,115.3"
DATED = ["--spot", "100", "--valuation-date", "2015-12-21"]


def market_text(*rows, header=CSV_HEADER):
    return "\n".join((header,) + rows) + "\n"


def write_market_with_meta(tmp_path, meta_text):
    """One-row market CSV whose spot and valuation date come from a sibling JSON."""
    (tmp_path / "market.json").write_text(meta_text)
    path = tmp_path / "market.csv"
    path.write_text(market_text(DF1_ROW))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_rejected(capsys, argv):
    """Run a command that must fail on its input: exit 3, nothing on stdout."""
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    return json.loads(captured.err)["error"]


class TestModelConfig:
    def test_reference_config_accepted(self, config_path):
        params, jump, state, _ = parse_model_config(config_path)
        assert params.a == 0.2
        assert jump.dist is None
        assert state.y[0] == 0.0371

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**GOOD_CONFIG, "rho": 0.5}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_model_config(str(path))

    def test_missing_key_rejected(self, tmp_path):
        cfg = dict(GOOD_CONFIG)
        del cfg["sigma"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="missing config keys"):
            parse_model_config(str(path))

    def test_inadmissible_rejected_with_diagnostic(self, tmp_path):
        path = write_config(tmp_path, b=[-0.01])
        with pytest.raises(InadmissibleParamsError, match="factor drift condition"):
            parse_model_config(path)

    def test_cap_violation_diagnostic(self, tmp_path):
        path = write_config(tmp_path, b=[0.05], beta=[[-0.1]])
        with pytest.raises(InadmissibleParamsError, match="yield-cap drift condition"):
            parse_model_config(path)

    def test_jump_config(self, tmp_path):
        path = write_config(tmp_path, **{"lambda": 0.5,
                                         "jump_dist": {"type": "point_mass", "z0": -0.3}})
        _, jump, _, _ = parse_model_config(path)
        assert jump.lam == 0.5
        assert jump.dist.z0 == -0.3


class TestMarketCsv:
    def test_bundled_snapshot(self):
        market = parse_market_csv(BUNDLED_CSV)
        assert len(market.futures) == 10
        assert market.stock_iv is not None
        assert market.dividend_iv is not None
        assert market.dividend_iv.futures_id == "DF1"
        assert market.spot == pytest.approx(3216.17)
        # DF1 window opened three days before the valuation date
        assert market.futures[0].t0 == pytest.approx(-3 / 365)
        assert market.futures[0].t1 == pytest.approx(361 / 365)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MarketDataError, match="empty"):
            parse_market_csv(str(path), spot=100.0, valuation_date="2015-12-21")

    def test_duplicate_instrument(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "instrument,type,window_start,window_end,expiry,quote\n"
            "DF1,dividend_future,2015-12-18,2016-12-16,2016-12-16,115.3\n"
            "DF1,dividend_future,2016-12-16,2017-12-15,2017-12-15,108.7\n"
        )
        with pytest.raises(MarketDataError, match="duplicate"):
            parse_market_csv(str(path), spot=100.0, valuation_date="2015-12-21")

    @pytest.mark.parametrize("row", [
        "IVSTOCK2,stock_iv,,,2016-06-17,0.2195",
        "IVDIV2,dividend_iv,2015-12-18,2016-12-16,2016-12-16,0.0511",
    ])
    def test_second_iv_row_rejected(self, tmp_path, row):
        path = tmp_path / "two_iv.csv"
        path.write_text(
            "instrument,type,window_start,window_end,expiry,quote\n"
            "DF1,dividend_future,2015-12-18,2016-12-16,2016-12-16,115.3\n"
            "IVSTOCK,stock_iv,,,2016-03-21,0.2295\n"
            "IVDIV,dividend_iv,2015-12-18,2016-12-16,2016-12-16,0.0491\n"
            f"{row}\n"
        )
        kind = row.split(",")[1]
        with pytest.raises(MarketDataError, match=f"row 5: second {kind} row"):
            parse_market_csv(str(path), spot=100.0, valuation_date="2015-12-21")

    @pytest.mark.parametrize("meta", [
        '{"spot": 3216.17,',
        '[3216.17, "2015-12-21"]',
        '{"spot": "n/a", "valuation_date": "2015-12-21"}',
        '{"spot": [3216.17], "valuation_date": "2015-12-21"}',
    ], ids=["invalid_json", "not_an_object", "spot_text", "spot_list"])
    def test_malformed_sibling_json_rejected(self, tmp_path, meta):
        path = write_market_with_meta(tmp_path, meta)
        with pytest.raises(MarketDataError, match="market.json|spot must be a number"):
            parse_market_csv(path)

    def test_unordered_window_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "instrument,type,window_start,window_end,expiry,quote\n"
            "DF1,dividend_future,2016-12-16,2015-12-18,2016-12-16,115.3\n"
        )
        with pytest.raises(MarketDataError, match="row 2"):
            parse_market_csv(str(path), spot=100.0, valuation_date="2015-12-21")

    def test_malformed_quote_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "instrument,type,window_start,window_end,expiry,quote\n"
            "DF1,dividend_future,2015-12-18,2016-12-16,2016-12-16,oops\n"
        )
        with pytest.raises(MarketDataError, match="row 2"):
            parse_market_csv(str(path), spot=100.0, valuation_date="2015-12-21")


class TestCommands:
    def test_validate_admissible_exits_zero(self, config_path, capsys):
        code, report = run_json(capsys, ["validate", "--config", config_path])
        assert code == 0
        assert report["payload"]["admissible"] is True

    def test_validate_inadmissible_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, b=[-0.01])
        code, report = run_json(capsys, ["validate", "--config", path])
        assert code == 2
        assert report["payload"]["admissible"] is False

    def test_schema_error_exits_three(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**GOOD_CONFIG, "extra": 1}))
        code = run(["validate", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 3
        assert json.loads(err)["error"]["type"] == "ConfigError"

    def test_price_futures_b0_closed_form(self, tmp_path, capsys):
        path = write_config(tmp_path, b=[0.0], beta=[[-0.3]], a=0.1,
                            sigma=0.25, nu=[0.01], y0=[0.04])
        code, report = run_json(capsys, ["price", "futures", "--config", path])
        assert code == 0
        for row in report["payload"]["term_structure"]:
            t0, t1 = row["window_start"], row["window_end"]
            closed = 0.04 * (math.exp(-0.3 * t1) - math.exp(-0.3 * t0)) / (-0.3)
            assert row["dividend_futures"] == pytest.approx(closed, rel=1e-10)

    def test_price_futures_with_market(self, config_path, capsys):
        code, report = run_json(
            capsys, ["price", "futures", "--config", config_path, "--market", BUNDLED_CSV])
        assert code == 0
        rows = report["payload"]["term_structure"]
        assert len(rows) == 10
        assert all(row["abs_error"] <= 2.5 for row in rows)

    def test_price_futures_strip_matches_one_window_calls(self, config_path, capsys):
        params, _, state, _ = parse_model_config(config_path)
        market = parse_market_csv(BUNDLED_CSV)
        _, report = run_json(
            capsys, ["price", "futures", "--config", config_path, "--market", BUNDLED_CSV])
        rows = report["payload"]["term_structure"]
        assert rows[0]["window_start"] == pytest.approx(-3 / 365)     # DF1 has started
        for row in rows:
            t0, t1 = row["window_start"], row["window_end"]
            assert row["dividend_futures"] == pytest.approx(
                market.spot * dividend_futures(params, None, state, 0.0, t0, t1), rel=1e-12)
            assert row["stock_futures"] == pytest.approx(
                market.spot * stock_futures(params, None, state, 0.0, t1), rel=1e-12)

    def test_price_option_sweep(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        code, report = run_json(
            capsys, ["price", "option", "--config", config_path, "--underlying", "stock",
                     "--expiry", "0.25", "--moments", "6", "--out", out])
        assert code == 0
        sweep = report["payload"]["moment_sweep"]
        assert [s["n_moments"] for s in sweep] == [2, 3, 4, 5, 6]
        assert [s["moments_used"] for s in sweep] == [2, 3, 4, 5, 6]
        assert report["payload"]["price"] == sweep[-1]["price"]
        # each row shows how its fit was made
        # the N = 2 fit starts cold, each later one from the fit before it
        assert [s["newton_start"] for s in sweep] == ["gaussian"] + ["prefix"] * 4
        for row in sweep:
            assert 0 < row["newton_iterations"] <= 200
            assert 0 <= row["residual"] <= 1e-10
            assert row["nodes"] >= 800
            assert math.isfinite(row["top_coefficient"])
            assert row["cut_log_pdf_ratio"] < 0
        with open(os.path.join(out, "moment_sweep.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["n_moments", "moments_used", "newton_iterations", "newton_start",
                          "residual", "nodes", "top_coefficient", "cut_log_pdf_ratio", "price"]

    def test_calibrate_out_writes_the_table(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        market = tmp_path / "market.csv"
        market.write_text(market_text(
            DF1_ROW, "DF2,dividend_future,2016-12-16,2017-12-15,2017-12-15,108.7"))
        code = run(["calibrate", "--config", config_path, "--market", str(market), *DATED,
                    "--max-evals", "200", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""      # the table goes to the file alone
        report = json.loads((out / "report.json").read_text())
        assert report["payload"] == json.loads(captured.out)["payload"]
        table = (out / "calibration_table.txt").read_text().splitlines()
        assert table[0].split() == ["instrument", "market", "model", "abs", "error"]
        assert [line.split()[0] for line in table[1:3]] == ["DF1", "DF2"]
        assert table[4].split() == ["a", "b", "beta", "sigma", "nu1", "D0"]
        assert float(table[5].split()[-1]) == pytest.approx(report["payload"]["fitted"]["d0"],
                                                            abs=1e-4)

    def test_calibrate_reports_each_fit(self, config_path, capsys):
        code, report = run_json(
            capsys, ["calibrate", "--config", config_path, "--market", BUNDLED_CSV,
                     "--two-stage"])
        assert code == 0
        payload = report["payload"]
        fields = ("moments_used", "newton_iterations", "newton_start", "residual", "nodes",
                  "top_coefficient", "cut_log_pdf_ratio")
        for row in payload["instruments"]:
            if row["kind"] == "futures":
                assert [row[k] for k in fields] == [None] * 7
            else:
                assert row["moments_used"] == 6
                # the fitted point is priced cold, from the fit of five moments
                assert row["newton_start"] == "prefix"
                assert 0 < row["newton_iterations"] <= 200
                assert 0 <= row["residual"] <= 1e-10
                assert row["nodes"] >= 800
        stages = payload["trace"]["stages"]
        assert [(s["maxent_fits"], s["newton_iterations"] > 0) for s in stages] == \
            [(0, False), (2 * stages[1]["nfev"], True)]

    def test_price_option_sweep_reports_fallback(self, tmp_path, capsys):
        # three-factor jump model of random_admissible_params seed (1, 1): at
        # T = 3 the N = 5 and N = 6 stock fits fall back to four moments
        rng = np.random.default_rng([1, 1])
        p = random_admissible_params(rng, 3)
        st = random_state_in_E(rng, p)
        path = write_config(tmp_path, r=p.r, a=p.a, sigma=p.sigma, d=3, b=p.b.tolist(),
                            beta=p.beta.tolist(), nu=p.nu.tolist(), x0=st.x, y0=st.y.tolist(),
                            **{"lambda": 0.2, "jump_dist": {"type": "two_point", "z1": -0.4,
                                                            "p": 0.35, "z2": 0.5}})
        code, report = run_json(
            capsys, ["price", "option", "--config", path, "--underlying", "stock",
                     "--expiry", "3", "--moments", "6"])
        assert code == 0
        sweep = report["payload"]["moment_sweep"]
        assert [s["moments_used"] for s in sweep] == [2, 3, 4, 4, 4]
        # one moment vector for the sweep prices exactly as one per count
        params, jump, state, _ = parse_model_config(path)
        spec = OptionSpec("call", "stock", state.x, 3.0, params.r)
        assert [s["price"] for s in sweep] == \
            [price_stock_option(params, jump, state, spec, n) for n in range(2, 7)]

    @pytest.mark.parametrize("flags,message", [
        (["--underlying", "dividend", "--window", "0", "1", "--expiry", "0.25"], "window end"),
        (["--moments", "1"], "two moments"),
        (["--underlying", "stock", "--window", "0", "1"], "dividend option only"),
    ], ids=["expiry_before_window_end", "one_moment", "stock_with_window"])
    def test_malformed_option_request_exits_two(self, config_path, capsys, flags, message):
        code = run(["price", "option", "--config", config_path, *flags])
        err = json.loads(capsys.readouterr().err)["error"]
        assert code == 2
        assert err["type"] == "InvalidParameterError" and message in err["message"]

    def test_moments_dump(self, config_path, capsys):
        code, report = run_json(
            capsys, ["moments", "--config", config_path, "--T", "1.0", "--n", "2"])
        assert code == 0
        assert len(report["payload"]["moments"]) == 10

    def test_simulate_summary(self, config_path, capsys, tmp_path):
        out = str(tmp_path / "out")
        code, report = run_json(
            capsys, ["simulate", "--config", config_path, "--horizon", "1.0",
                     "--paths", "2000", "--steps-per-year", "52", "--seed", "3",
                     "--store-yields", "--out", out])
        assert code == 0
        assert report["payload"]["workers"] == 1    # 2000 paths are one block
        mart = report["payload"]["martingale"]
        assert mart["contains_reference"]
        ys = report["payload"]["yield_stats"]
        assert 0.0 <= ys["min"] and ys["max"] <= 0.2
        assert os.path.exists(os.path.join(out, "yield_paths.csv"))
        assert os.path.exists(os.path.join(out, "report.json"))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_simulate_reports_the_workers_used(self, config_path, capsys, monkeypatch,
                                               threads):
        monkeypatch.setenv("POLYDIV_THREADS", threads)
        code, report = run_json(
            capsys, ["simulate", "--config", config_path, "--horizon", "0.1",
                     "--paths", "4097", "--seed", "3"])     # two blocks
        assert code == 0
        assert report["payload"]["workers"] == int(threads)

    @pytest.mark.parametrize("window", [("0", "2"), ("0.8", "0.2")],
                             ids=["past_horizon", "unordered"])
    def test_simulate_window_outside_horizon_exits_two(self, config_path, capsys, window):
        code = run(["simulate", "--config", config_path, "--horizon", "1", "--paths", "100",
                    "--window", *window])
        err = json.loads(capsys.readouterr().err)["error"]
        assert code == 2
        assert err["type"] == "InvalidParameterError" and "t0 <= t1 <= horizon" in err["message"]

    @pytest.mark.parametrize("argv", [["simulate", "--horizon", "inf", "--paths", "10"],
                                      ["moments", "--T", "inf"]], ids=["simulate", "moments"])
    def test_infinite_horizon_exits_two(self, config_path, capsys, argv):
        code = run([argv[0], "--config", config_path, *argv[1:]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        err = json.loads(captured.err)["error"]
        assert err["type"] == "InvalidParameterError" and "finite" in err["message"]

    def test_non_integer_factor_count_exits_three(self, tmp_path, capsys):
        code = run(["validate", "--config", write_config(tmp_path, d=1.5)])
        err = json.loads(capsys.readouterr().err)["error"]
        assert code == 3
        assert err["type"] == "ConfigError" and "positive integer, got 1.5" in err["message"]

    def test_invalid_thread_count_exit_code(self, config_path, capsys, monkeypatch):
        monkeypatch.setenv("POLYDIV_THREADS", "two")
        code = run(["simulate", "--config", config_path, "--horizon", "0.1", "--paths", "10"])
        err = json.loads(capsys.readouterr().err)["error"]
        assert code == 3
        assert err["type"] == "ConfigError" and "POLYDIV_THREADS" in err["message"]

    def test_malformed_market_json_exit_code(self, config_path, capsys, tmp_path):
        market = write_market_with_meta(tmp_path, "not json")
        code = run(["price", "futures", "--config", config_path, "--market", market])
        err = json.loads(capsys.readouterr().err)["error"]
        assert code == 3
        assert err["type"] == "MarketDataError" and "market.json" in err["message"]

    def test_payload_determinism(self, config_path, capsys):
        _, r1 = run_json(capsys, ["simulate", "--config", config_path, "--horizon",
                                  "0.5", "--paths", "500", "--seed", "9"])
        _, r2 = run_json(capsys, ["simulate", "--config", config_path, "--horizon",
                                  "0.5", "--paths", "500", "--seed", "9"])
        assert json.dumps(r1["payload"], sort_keys=True) == json.dumps(r2["payload"], sort_keys=True)

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # an out-of-bounds option request propagates as a numeric/domain error
        path = write_config(tmp_path)
        code = run(["price", "option", "--config", path, "--underlying", "dividend"])
        err = capsys.readouterr().err
        assert code == 3
        assert "window" in json.loads(err)["error"]["message"]

    def test_golden_payload_schema(self, config_path, capsys):
        # schema-stable keys for the futures report
        code, report = run_json(capsys, ["price", "futures", "--config", config_path])
        row = report["payload"]["term_structure"][0]
        assert sorted(row) == ["dividend_futures", "id", "stock_futures",
                               "window_end", "window_start"]
        assert sorted(report) == ["command", "config", "meta", "payload"]

    def test_meta_names_scipy_and_the_single_thread_blas_libraries(self, config_path, capsys):
        code, report = run_json(
            capsys, ["price", "option", "--config", config_path, "--underlying", "stock",
                     "--expiry", "0.25", "--moments", "3"])
        assert code == 0
        assert report["meta"]["versions"]["scipy"] == scipy.__version__
        held = report["meta"]["blas_single_thread"]
        assert held == _blas.libraries()
        assert all("openblas" in name for name in held)

    def test_report_round_trips_through_echoed_config(self, config_path, capsys, tmp_path):
        _, report = run_json(capsys, ["price", "futures", "--config", config_path])
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(json.dumps(report["config"]))
        _, rerun = run_json(capsys, ["price", "futures", "--config", str(echo_path)])
        assert json.dumps(rerun["payload"], sort_keys=True) == \
            json.dumps(report["payload"], sort_keys=True)

    def test_price_option_with_mc_cross_check(self, config_path, capsys):
        code, report = run_json(
            capsys, ["price", "option", "--config", config_path,
                     "--underlying", "dividend", "--window", "0.0", "1.0",
                     "--moments", "4", "--mc", "--paths", "4000",
                     "--steps-per-year", "52", "--seed", "3"])
        assert code == 0
        mc = report["payload"]["mc"]
        assert mc["ci_low"] <= report["payload"]["price"] <= mc["ci_high"]
        assert mc["workers"] == 1                   # 4000 paths are one block


class TestRejectedInputs:
    # each case: the config (a dict, raw text, or None for an absent file), and
    # with "market" a market CSV (None: absent) passed with "flags" (default DATED)
    # and, with "meta", the text of its sibling JSON
    @pytest.mark.parametrize("case,fragment", [
        pytest.param({"config": None}, "config file not found", id="config_not_found"),
        pytest.param({"config": '{"r": 0.01,'}, "config is not valid JSON", id="config_json"),
        pytest.param({"config": "[0.01, 0.2]"}, "must be a JSON object", id="config_not_object"),
        pytest.param({"config": {**GOOD_CONFIG, "jump_dist": {"type": "gamma"}}},
                     "unknown jump_dist type", id="jump_type"),
        pytest.param({"config": {**GOOD_CONFIG, "jump_dist": {"type": "point_mass"}}},
                     "invalid jump_dist", id="jump_dist_malformed"),
        pytest.param({"config": {**GOOD_CONFIG, "jump_dist": {"type": "point_mass", "z0": -2}}},
                     "invalid jump specification", id="jump_spec"),
        pytest.param({"config": {**GOOD_CONFIG, "x0": "one"}}, "invalid initial state",
                     id="state"),
        pytest.param({"config": {**GOOD_CONFIG, "y0": [0.02, 0.01]}}, "y0 must have length d=1",
                     id="y0_length"),
        pytest.param({"config": {**GOOD_CONFIG, "r": True}},
                     "invalid model parameters: r must be a JSON number, got True", id="r_bool"),
        pytest.param({"config": {**GOOD_CONFIG, "sigma": "0.2813"}},
                     "sigma must be a JSON number, got '0.2813'", id="sigma_string"),
        pytest.param({"config": {**GOOD_CONFIG, "d": True}}, "d must be a JSON number, got True",
                     id="d_bool"),
        pytest.param({"config": {**GOOD_CONFIG, "beta": [["-0.3439"]]}},
                     "beta must be a JSON number, got '-0.3439'", id="beta_element_string"),
        pytest.param({"config": {**GOOD_CONFIG, "nu": [True]}}, "nu must be a JSON number",
                     id="nu_element_bool"),
        pytest.param({"config": {**GOOD_CONFIG, "c0": False}},
                     "invalid initial state: c0 must be a JSON number, got False", id="c0_bool"),
        pytest.param({"config": {**GOOD_CONFIG, "y0": ["0.0371"]}}, "y0 must be a JSON number",
                     id="y0_element_string"),
        pytest.param({"config": {**GOOD_CONFIG, "lambda": "0.2",
                                 "jump_dist": {"type": "point_mass", "z0": -0.3}}},
                     "invalid jump_dist: lambda must be a JSON number", id="lambda_string"),
        pytest.param({"config": {**GOOD_CONFIG, "lambda": 0.2,
                                 "jump_dist": {"type": "point_mass", "z0": "-0.3"}}},
                     "z0 must be a JSON number", id="jump_size_string"),
        pytest.param({"config": {**GOOD_CONFIG, "lambda": 0.2, "jump_dist": {
                          "type": "two_point", "z1": -0.4, "p": True, "z2": 0.5}}},
                     "p must be a JSON number, got True", id="p_bool"),
        pytest.param({"market": None}, "market file not found", id="market_not_found"),
        pytest.param({"market": market_text(DF1_ROW, header="id,type,start,end,expiry,quote")},
                     "bad header", id="market_header"),
        pytest.param({"market": market_text(DF1_ROW), "flags": []},
                     "spot and valuation_date are required", id="no_spot_or_date"),
        pytest.param({"market": market_text(DF1_ROW),
                      "flags": ["--spot", "100", "--valuation-date", "2015-13-45"]},
                     "bad valuation date", id="valuation_date"),
        pytest.param({"market": market_text(DF1_ROW.replace("2016-12-16", "2016-13-16", 1))},
                     "row 2: bad ISO date", id="row_date"),
        pytest.param({"market": market_text("DF1,dividend_future,2015-12-18,2016-12-16,115.3")},
                     "row 2: expected 6 cells, got 5", id="cell_count"),
        pytest.param({"market": market_text(DF1_ROW, "SW1,swap,,,2016-12-16,1.0")},
                     "row 3: unknown instrument type 'swap'", id="instrument_type"),
        pytest.param({"market": market_text(
            DF1_ROW, "IVDIV,dividend_iv,2016-12-16,2017-12-15,2017-12-15,0.05")},
                     "row 3: dividend IV window matches no futures quote", id="div_iv_window"),
        pytest.param({"market": market_text(DF1_ROW), "flags": [],
                      "meta": '{"spot": true, "valuation_date": "2015-12-21"}'},
                     "spot must be a number, got True", id="sibling_spot_bool"),
        pytest.param({"market": market_text(DF1_ROW), "flags": [],
                      "meta": '{"spot": "100", "valuation_date": "2015-12-21"}'},
                     "spot must be a number, got '100'", id="sibling_spot_string"),
    ])
    def test_malformed_input_exits_three(self, tmp_path, capsys, case, fragment):
        config = case.get("config", GOOD_CONFIG)
        if config is not None:
            text = config if isinstance(config, str) else json.dumps(config)
            (tmp_path / "model.json").write_text(text)
        argv = ["price", "futures", "--config", str(tmp_path / "model.json")]
        if "market" in case:
            argv += ["--market", str(tmp_path / "market.csv"), *case.get("flags", DATED)]
            if case["market"] is not None:
                (tmp_path / "market.csv").write_text(case["market"])
            if "meta" in case:
                (tmp_path / "market.json").write_text(case["meta"])
        err = run_rejected(capsys, argv)
        assert fragment in err["message"]

    @pytest.mark.parametrize("command,flags", [
        (["calibrate"], []),
        (["price", "futures"], ["--spot", "nan", "--valuation-date", "junk"]),
        (["price", "futures"], ["--spot", "100"]),
        (["price", "futures"], ["--valuation-date", "2015-12-21"]),
    ], ids=["calibrate", "futures_spot_and_date", "futures_spot", "futures_date"])
    def test_no_market_file_exits_three(self, config_path, capsys, command, flags):
        err = run_rejected(capsys, [*command, "--config", config_path, *flags])
        assert err["type"] == "ConfigError" and err["message"] == (
            "calibrate needs a --market CSV" if command == ["calibrate"] else
            "--spot and --valuation-date apply to a --market file only")

    @pytest.mark.parametrize("command", [["validate"], ["simulate", "--paths", "10"]])
    @pytest.mark.parametrize("overrides", [
        {"sigma": math.nan}, {"r": math.inf}, {"x0": math.inf}, {"c0": math.nan},
        {"lambda": 0.5, "jump_dist": {"type": "point_mass", "z0": math.inf}},
        {"lambda": math.inf, "jump_dist": {"type": "point_mass", "z0": -0.3}},
    ], ids=["sigma_nan", "r_inf", "x0_inf", "c0_nan", "z0_inf", "lambda_inf"])
    def test_non_finite_model_number_exits_three(self, tmp_path, capsys, command, overrides):
        path = write_config(tmp_path, **overrides)
        err = run_rejected(capsys, [command[0], "--config", path, *command[1:]])
        assert err["type"] == "ConfigError"

    @pytest.mark.parametrize("meta,flags,row", [
        ("", DATED, DF1_ROW.replace("115.3", "inf")),
        ('{"spot": Infinity, "valuation_date": "2015-12-21"}', [], DF1_ROW),
        ('{"spot": 100, "valuation_date": "2015-12-21"}', ["--spot", "inf"], DF1_ROW),
    ], ids=["quote", "sibling_spot", "flag_spot"])
    def test_non_finite_market_number_exits_three(self, config_path, tmp_path, capsys, meta,
                                                  flags, row):
        if meta:
            (tmp_path / "market.json").write_text(meta)
        (tmp_path / "market.csv").write_text(market_text(row))
        err = run_rejected(capsys, ["calibrate", "--config", config_path,
                                    "--market", str(tmp_path / "market.csv"), *flags])
        assert err["type"] == "MarketDataError" and "positive and finite" in err["message"]


def float_options(parser, path=()):
    """(command path, option) for every ``type=float`` option of every
    subcommand, found by walking the parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from float_options(sub, path + (name,))
        elif action.type is float:
            yield path, action


# arguments that make each command valid apart from the flag under test
VALID_ARGS = {
    ("price", "futures"): ["--market", BUNDLED_CSV],
    ("price", "option"): ["--underlying", "dividend", "--window", "0", "1", "--expiry", "1"],
    ("moments",): ["--T", "1"],
    ("simulate",): ["--paths", "10"],
    ("calibrate",): ["--market", BUNDLED_CSV],
}


def non_finite_flag_cases():
    for path, action in float_options(build_parser()):
        flag = action.option_strings[-1]
        if action.nargs is None:
            # --flag=-inf: argparse reads a bare -inf as an option name
            values = [[f"{flag}={bad}"] for bad in ("nan", "inf", "-inf")]
        else:
            values = [[flag, *(bad if k == slot else "1" for k in range(action.nargs))]
                      for bad in ("nan", "inf") for slot in range(action.nargs)]
        for argv in values:
            yield pytest.param(path, argv, id=" ".join((*path, *argv)))


@pytest.mark.parametrize("path,argv", list(non_finite_flag_cases()))
def test_non_finite_float_flag_is_a_json_error(config_path, capsys, path, argv):
    code = run([*path, "--config", config_path, *VALID_ARGS.get(path, []), *argv])
    captured = capsys.readouterr()
    assert code in (2, 3) and captured.out == ""
    assert json.loads(captured.err)["error"]["exit_code"] == code


class TestEmit:
    def test_non_finite_payload_is_a_numeric_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(NumericError, match="non-finite"):
            _emit({"payload": {"price": float("nan")}}, str(out))
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_non_finite_payload_exits_four(self, config_path, capsys, monkeypatch):
        monkeypatch.setattr("polydiv.cli.futures_strip",
                            lambda *args: (np.full(10, np.nan), np.ones(10)))
        code = run(["price", "futures", "--config", config_path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (4, "")
        assert json.loads(captured.err)["error"]["type"] == "NumericError"


class TestEncode:
    def test_numpy_values_and_nested_dataclasses(self):
        @dataclasses.dataclass
        class Inner:
            count: np.int64
            flag: np.bool_

        @dataclasses.dataclass
        class Outer:
            values: np.ndarray
            inner: Inner
            pair: tuple

        obj = {"outer": Outer(np.array([[0.5, 1.0]]), Inner(np.int64(3), np.bool_(True)),
                              (np.float64(0.25), np.int32(-1)))}
        text = json.dumps(obj, sort_keys=True, default=_encode)
        assert json.loads(text) == {"outer": {"values": [[0.5, 1.0]],
                                              "inner": {"count": 3, "flag": True},
                                              "pair": [0.25, -1]}}

    def test_validate_report_slacks_are_lists(self):
        params = ModelParams(r=0.01, a=0.2, sigma=0.2, d=2, b=[0.01, 0.02],
                             beta=[[-0.3, 0.0], [0.0, -0.4]], nu=[0.02, 0.03])
        report = validate_admissibility(params)
        encoded = json.loads(json.dumps(report, default=_encode))
        assert encoded["factor_slack"] == report.factor_slack.tolist()
        assert encoded["factor_interior"] == report.factor_interior.tolist()
        assert isinstance(encoded["admissible"], bool)

    def test_unknown_object_is_an_error(self):
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            json.dumps({"payload": [object()]}, default=_encode)
        # a dataclass type is not an instance: json cannot encode it either
        with pytest.raises(TypeError, match="type is not JSON serializable"):
            json.dumps({"kind": OptionSpec}, default=_encode)
