import json
import math
import os

import numpy as np
import pytest

from polydiv.cli import parse_market_csv, parse_model_config, run
from polydiv.errors import ConfigError, InadmissibleParamsError, MarketDataError
from polydiv.maxent import OptionSpec, price_stock_option
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


def write_market_with_meta(tmp_path, meta_text):
    """One-row market CSV whose spot and valuation date come from a sibling JSON."""
    (tmp_path / "market.json").write_text(meta_text)
    path = tmp_path / "market.csv"
    path.write_text(
        "instrument,type,window_start,window_end,expiry,quote\n"
        "DF1,dividend_future,2015-12-18,2016-12-16,2016-12-16,115.3\n"
    )
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


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
        for row in sweep:
            assert 0 < row["newton_iterations"] <= 200
            assert 0 <= row["residual"] <= 1e-10
            assert row["nodes"] >= 800
            assert math.isfinite(row["top_coefficient"])
            assert row["cut_log_pdf_ratio"] < 0
        with open(os.path.join(out, "moment_sweep.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["n_moments", "moments_used", "newton_iterations", "residual",
                          "nodes", "top_coefficient", "cut_log_pdf_ratio", "price"]

    def test_calibrate_reports_each_fit(self, config_path, capsys):
        code, report = run_json(
            capsys, ["calibrate", "--config", config_path, "--market", BUNDLED_CSV,
                     "--two-stage"])
        assert code == 0
        payload = report["payload"]
        fields = ("moments_used", "newton_iterations", "residual", "nodes", "top_coefficient",
                  "cut_log_pdf_ratio")
        for row in payload["instruments"]:
            if row["kind"] == "futures":
                assert [row[k] for k in fields] == [None] * 6
            else:
                assert row["moments_used"] == 6
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
        mart = report["payload"]["martingale"]
        assert mart["contains_reference"]
        ys = report["payload"]["yield_stats"]
        assert 0.0 <= ys["min"] and ys["max"] <= 0.2
        assert os.path.exists(os.path.join(out, "yield_paths.csv"))
        assert os.path.exists(os.path.join(out, "report.json"))

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
