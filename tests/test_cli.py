"""End-to-end tests of the command-line interface."""

import io
import json
import time
import warnings

import numpy as np
import pytest

from twinfield_qka import cli, simulation
from twinfield_qka.cli import _all_converge, dispatch, emit_csv, parse_sweep
from twinfield_qka.errors import UsageError
from twinfield_qka.keyrate import link_rate, transmittance_from_distance
from twinfield_qka.network import (
    Segment,
    derive_global_key,
    plan_rates,
    reconcile_network,
    segment_tree,
)
from test_network import assert_valid_decomposition, random_tree_edges

FIG_SEVEN_JSON = json.dumps(
    {
        "parties": [{"id": i} for i in range(1, 8)],
        "edges": [
            {"a": 1, "b": 3, "km": 10.0},
            {"a": 2, "b": 3, "km": 12.0},
            {"a": 3, "b": 4, "km": 11.0},
            {"a": 4, "b": 5, "km": 9.0},
            {"a": 5, "b": 6, "km": 8.0},
            {"a": 5, "b": 7, "km": 10.0},
        ],
    }
)


def read_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestKeyrateCommand:
    def test_reference_rate_at_zero_distance(self, capsys):
        assert dispatch(["keyrate", "--mu", "0.2", "--distance-km", "0"]) == 0
        rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 1
        assert float(rows[0]["rate"]) == pytest.approx(0.11678464061018565, abs=1e-12)
        assert float(rows[0]["sift"]) == pytest.approx(0.32967995396436067, abs=1e-12)

    def test_distance_sweep_columns(self, capsys):
        assert dispatch(["keyrate", "--mu", "0.2", "--sweep", "distance_km:0:100:5"]) == 0
        rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 5
        assert list(rows[0].keys()) == ["L_km", "eta", "sift", "chi", "rate"]
        rates = [float(r["rate"]) for r in rows]
        assert rates == sorted(rates, reverse=True)

    def test_mu_sweep(self, capsys):
        assert dispatch(["keyrate", "--distance-km", "100",
                         "--sweep", "mu:0.05:1.0:8"]) == 0
        rows = read_csv(capsys.readouterr().out)
        assert list(rows[0].keys()) == ["mu", "eta", "sift", "chi", "rate"]
        assert len(rows) == 8

    def test_validation_failure_exit_code(self, capsys):
        assert dispatch(["keyrate", "--mu", "-0.5"]) == 1
        assert "error" in capsys.readouterr().err

    def test_no_partial_file_on_validation_failure(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        assert dispatch(["keyrate", "--mu", "-0.5", "--out", str(out)]) == 1
        capsys.readouterr()
        assert not out.exists()

    def test_arm_lengths_and_total_conflict(self, capsys):
        code = dispatch(["keyrate", "--distance-km", "100",
                         "--arm-km", "10", "10", "10", "10"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("argv, link", [
        (["--arm-km", "10", "5", "40", "30"], (0.2, 70.0)),
        (["--mu2", "0.05", "--distance-km", "60"], (0.05, 30.0)),
    ])
    def test_reports_the_strictly_worse_second_link(self, argv, link, capsys):
        assert dispatch(["keyrate", "--mu", "0.2", *argv]) == 0
        (row,) = read_csv(capsys.readouterr().out)
        eta = transmittance_from_distance(link[1])
        sift, chi, _, rate = link_rate(link[0], eta, 0.0)
        assert [float(row[k]) for k in ("eta", "sift", "chi", "rate")] == [eta, sift, chi, rate]

    def test_tied_links_report_the_first(self, capsys):
        # Full leakage zeroes both links' rates, so the tie is exact.
        assert dispatch(["keyrate", "--delta-ec", "1", "--arm-km", "10", "5", "40", "30"]) == 0
        (row,) = read_csv(capsys.readouterr().out)
        eta = transmittance_from_distance(15.0)
        sift, chi, _, rate = link_rate(0.2, eta, 1.0)
        assert rate == 0.0
        assert [float(row[k]) for k in ("eta", "sift", "chi", "rate")] == [eta, sift, chi, rate]

    def test_underflowed_transmittance_is_a_clean_error(self, capsys):
        assert dispatch(["keyrate", "--distance-km", "1e6"]) == 1
        err = capsys.readouterr().err
        assert err == "error: transmittance must lie in (0, 1], got 0.0\n"

    def test_nan_distance_names_the_distance(self, capsys):
        assert dispatch(["keyrate", "--distance-km", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: distance must be finite and >= 0, got nan\n"

    def test_output_file_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["keyrate", "--mu", "0.2", "--sweep", "distance_km:0:200:9"]
        assert dispatch(args + ["--out", str(out1)]) == 0
        assert dispatch(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()


class TestDiscriminateCommand:
    def test_vacuum_row(self, capsys):
        assert dispatch(["discriminate", "--mu", "0"]) == 0
        rows = read_csv(capsys.readouterr().out)
        assert float(rows[0]["q_pair_closed"]) == 0.5
        assert float(rows[0]["q_triple_closed"]) == 0.75
        assert float(rows[0]["q_helstrom_pair"]) == 0.5
        assert float(rows[0]["q_helstrom_triple"]) == 0.75

    def test_sweep_reports_both_routes(self, capsys):
        assert dispatch(["discriminate", "--sweep", "mu:0.05:1.0:6"]) == 0
        rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 6
        for row in rows:
            # The documented discrepancy stays visible in the output.
            assert abs(float(row["q_helstrom_pair"]) - float(row["q_pair_closed"])) > 0.01

    def test_distance_sweep_rejected(self, capsys):
        assert dispatch(["discriminate", "--sweep", "distance_km:0:10:3"]) == 2
        capsys.readouterr()


class TestSimulateCommand:
    def test_byte_identical_given_seed(self, capsys):
        args = ["simulate", "--pulses", "20000", "--mu", "0.2",
                "--distance-km", "40", "--seed", "11"]
        assert dispatch(args) == 0
        first = capsys.readouterr().out
        assert dispatch(args) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["config"]["seed"] == 11
        assert doc["result"]["qber_ab"] >= 0.0

    def test_csv_format(self, capsys):
        assert dispatch(["simulate", "--pulses", "5000", "--format", "csv"]) == 0
        rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 1
        assert "skr_per_pulse" in rows[0]

    def test_bad_pulse_count(self, capsys):
        assert dispatch(["simulate", "--pulses", "0"]) == 1
        capsys.readouterr()

    def test_negative_arm_is_a_usage_error_like_keyrate(self, capsys):
        argv = ["--arm-km", "-1", "1", "1", "1"]
        assert dispatch(["simulate", *argv]) == 2
        err = capsys.readouterr().err
        assert dispatch(["keyrate", *argv]) == 2
        assert capsys.readouterr().err == err == "usage error: --arm-km lengths must be >= 0\n"

    def test_keys_digested_once_and_table_unchanged(self, capsys, monkeypatch):
        calls = []
        digest = simulation._key_digest

        def counting_digest(bits):
            calls.append(len(bits))
            return digest(bits)

        monkeypatch.setattr(simulation, "_key_digest", counting_digest)
        args = ["simulate", "--pulses", "200000", "--mu", "0.2",
                "--distance-km", "250", "--seed", "11"]
        assert dispatch(args) == 0
        assert len(calls) == 4
        assert capsys.readouterr().err == (
            "conclusive AB / BC        4568 / 4442\n"
            "qber AB / BC              0 / 0\n"
            "sifted rate (bottleneck)  0.02221\n"
            "holevo deduction chi      0.841787\n"
            "secret key rate /pulse    0.00351391\n"
            "secret key rate bps       3.51391e+06\n"
        )


class TestPlanCommand:
    def test_seven_party_plan(self, tmp_path, capsys):
        net = tmp_path / "net.json"
        net.write_text(FIG_SEVEN_JSON)
        assert dispatch(["plan", str(net), "--mu", "0.2", "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        members = sorted(tuple(sorted(s["members"])) for s in doc["segments"])
        assert members == [(1, 2, 3), (3, 4, 5), (5, 6, 7)]
        assert sorted(doc["intra_announcers"]) == [3, 4, 5]
        assert doc["reconciliation"]["all_parties_converge"] is True
        assert doc["reconciliation"]["announcements"] == 2

    def test_plan_deterministic(self, tmp_path, capsys):
        net = tmp_path / "net.json"
        net.write_text(FIG_SEVEN_JSON)
        assert dispatch(["plan", str(net)]) == 0
        first = capsys.readouterr().out
        assert dispatch(["plan", str(net)]) == 0
        assert capsys.readouterr().out == first

    def test_missing_file(self, capsys):
        assert dispatch(["plan", "/nonexistent/net.json"]) == 1
        capsys.readouterr()

    def test_long_path_plans_without_recursion(self, capsys, monkeypatch):
        # One segment per stack frame used to overflow the recursion limit.
        n = 2001
        net = {
            "parties": [{"id": i} for i in range(n)],
            "edges": [{"a": i, "b": i + 1, "km": 10.0} for i in range(n - 1)],
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(net)))
        t0 = time.perf_counter()
        assert dispatch(["plan", "-"]) == 0
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert len(doc["segments"]) == 1000
        assert doc["reconciliation"]["all_parties_converge"] is True
        segments = [
            Segment(members=tuple(s["members"]), center=s["center"],
                    arm_distances=tuple(s["link_km"]))
            for s in doc["segments"]
        ]
        assert_valid_decomposition([tuple(e) for e in doc["tree_edges"]], segments)
        assert elapsed < 10.0, f"plan took {elapsed:.2f}s on a 2001-party path"

    @pytest.mark.parametrize(
        "edge",
        [
            {"b": 2, "km": 5.0},
            {"a": 1, "km": 5.0},
            {"a": 1, "b": 2},
            {"a": 1, "b": 2, "km": "x"},
            {"a": 1, "b": 2, "km": True},
            {"a": 1, "b": 2, "km": None},
            {"a": 1, "b": 2, "km": float("nan")},
            {"a": 1, "b": 2, "km": float("inf")},
            [1, 2, 5.0],
        ],
    )
    def test_malformed_edge_is_a_clean_error(self, edge, capsys, monkeypatch):
        net = {"parties": [{"id": 1}, {"id": 2}], "edges": [edge]}
        self.assert_clean_error(net, capsys, monkeypatch)

    @pytest.mark.parametrize("net", [[1, 2], {"parties": 5}, {"parties": [1, 2], "edges": 3}])
    def test_malformed_document_is_a_clean_error(self, net, capsys, monkeypatch):
        self.assert_clean_error(net, capsys, monkeypatch)

    @pytest.mark.parametrize("party", [
        {"id": [1]},
        {"id": [1, 2, 3]},
        {"id": {"a": 1}},
        {"id": 1, "x": True, "y": 0},
        {"id": 1, "x": 0, "y": "nan"},
        {"id": 1, "x": "0", "y": 0},
        {"id": 1, "x": float("nan"), "y": 0},
        {"id": 1, "x": 0, "y": float("-inf")},
        [[1], 0, 0],
        [1, 0],
    ])
    def test_malformed_party_is_a_clean_error(self, party, capsys, monkeypatch):
        net = {"parties": [party, {"id": 2, "x": 3, "y": 4}, {"id": 3, "x": 6, "y": 8}]}
        self.assert_clean_error(net, capsys, monkeypatch)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
    def test_non_finite_party_id_is_a_clean_error(self, token, tmp_path, capsys):
        # A NaN id used to loop forever in Kruskal's find, Infinity printed a
        # non-standard JSON token and 10**400 raised an OverflowError traceback.
        net = tmp_path / "net.json"
        net.write_text('{"parties": [{"id": %s, "x": 0, "y": 0}, {"id": 2, "x": 1, "y": 0},'
                       ' {"id": 3, "x": 0, "y": 5}]}' % token)
        out = tmp_path / "plan.json"
        assert dispatch(["plan", str(net), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "finite" in captured.err
        assert not out.exists()

    def test_ten_thousand_party_path_converges_quickly(self, capsys, monkeypatch):
        # A convergence check that walks each segment to the root is quadratic here.
        n = 10_001
        net = {
            "parties": [{"id": i} for i in range(n)],
            "edges": [{"a": i, "b": i + 1, "km": 10.0} for i in range(n - 1)],
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(net)))
        t0 = time.perf_counter()
        assert dispatch(["plan", "-"]) == 0
        elapsed = time.perf_counter() - t0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["segments"]) == 5000
        assert doc["reconciliation"]["all_parties_converge"] is True
        assert elapsed < 8.0, f"plan took {elapsed:.2f}s on a {n}-party path"

    def test_convergence_check_agrees_with_derive_global_key(self):
        rng = np.random.default_rng(404)
        verdicts = set()
        for _ in range(150):
            edges = random_tree_edges(int(rng.integers(2, 40)), rng)
            plan = plan_rates(segment_tree(edges), mu_policy=0.2, tree_edges=edges)
            keys = [rng.integers(0, 2, 24, dtype=np.uint8) for _ in plan.segments]
            global_key, announcements = reconcile_network(keys, plan)
            if rng.random() < 0.5:  # a party holding a corrupted key must not converge
                i = int(rng.integers(len(keys)))
                keys[i] = keys[i].copy()
                keys[i][int(rng.integers(24))] ^= 1
            oracle = all(
                np.array_equal(derive_global_key(plan, announcements, i, key), global_key)
                for i, key in enumerate(keys)
            )
            assert _all_converge(keys, global_key, announcements) == oracle
            verdicts.add(oracle)
        assert verdicts == {True, False}

    @staticmethod
    def assert_clean_error(net, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(net)))
        assert dispatch(["plan", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv", [
        ["keyrate", "--mu", "nan"],
        ["keyrate", "--mu", "inf", "--distance-km", "10"],
        ["keyrate", "--mu2", "inf", "--distance-km", "10"],
        ["keyrate", "--delta-ec", "nan"],
        ["keyrate", "--delta-ec", "inf"],
        ["simulate", "--mu", "nan"],
        ["simulate", "--mu", "inf"],
        ["simulate", "--ec-efficiency", "nan"],
        ["simulate", "--distance-km", "nan"],
        ["plan", "NET", "--mu", "nan"],
        ["plan", "NET", "--delta-ec", "nan"],
        ["discriminate", "--mu", "nan"],
        ["discriminate", "--mu", "inf"],
    ])
    def test_exit_one_and_no_output_file(self, argv, tmp_path, capsys):
        net = tmp_path / "net.json"
        net.write_text(FIG_SEVEN_JSON)
        out = tmp_path / "out"
        argv = [str(net) if a == "NET" else a for a in argv]
        assert dispatch([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "must be finite" in captured.err  # the input check, not a later failure
        assert not out.exists()


class TestOutOfRangeInputs:
    """Inputs that overflow or exhaust memory end in one error line, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["discriminate", "--mu", "1e3"],
        ["discriminate", "--mu", "1e300"],
        ["discriminate", "--sweep", "mu:0:1000:3"],
        ["plan", "NET", "--key-length", "1000000000000000"],  # numpy refuses 909 TiB at once
    ])
    def test_exit_one_and_no_output_file(self, argv, tmp_path, capsys):
        net = tmp_path / "net.json"
        net.write_text(FIG_SEVEN_JSON)
        out = tmp_path / "out"
        argv = [str(net) if a == "NET" else a for a in argv]
        assert dispatch([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()


class TestParserReuse:
    """One parser serves every dispatch of a process."""

    def test_handler_replaced_after_a_call_is_the_one_run(self, monkeypatch, capsys):
        # A tracer wraps the handlers after warm-up calls have built the parser.
        assert dispatch(["keyrate"]) == 0
        seen = []

        def fake(args):
            seen.append(args.command)
            return 7

        monkeypatch.setattr(cli, "_cmd_selftest", fake)
        assert dispatch(["selftest"]) == 7
        assert seen == ["selftest"]
        capsys.readouterr()

    def test_format_and_out_do_not_carry_over(self, tmp_path, capsys):
        assert dispatch(["keyrate", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["mu"] == 0.2
        assert dispatch(["keyrate"]) == 0
        assert capsys.readouterr().out.startswith("L_km,mu,eta,sift,chi,rate\n")

        first, second = tmp_path / "a.json", tmp_path / "b.csv"
        assert dispatch(["keyrate", "--format", "json", "--out", str(first)]) == 0
        written = first.read_text()
        assert dispatch(["keyrate", "--distance-km", "50", "--out", str(second)]) == 0
        assert capsys.readouterr().out == ""
        assert first.read_text() == written
        assert json.loads(written)[0]["L_km"] == 0.0
        assert read_csv(second.read_text())[0]["L_km"] == "50"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.csv"]

    @pytest.mark.parametrize("argv, code", [
        (["keyrate", "--no-such-flag"], 2),
        (["keyrate", "--mu", "x"], 2),
        (["--help"], 0),
        (["plan", "--help"], 0),
    ])
    def test_normal_call_after_an_early_exit(self, argv, code, capsys):
        assert dispatch(["discriminate", "--mu", "0.3"]) == 0
        expected = capsys.readouterr().out
        assert dispatch(argv) == code
        capsys.readouterr()
        assert dispatch(["discriminate", "--mu", "0.3"]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected and captured.err == ""


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        assert dispatch(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out


class TestDispatchErrors:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()


class TestSweepParsing:
    def test_well_formed(self):
        spec = parse_sweep("mu:0.1:1.0:10")
        assert spec.variable == "mu"
        assert len(spec.grid()) == 10

    def test_bad_variable(self):
        with pytest.raises(UsageError):
            parse_sweep("banana:0:1:5")

    def test_start_not_below_stop(self):
        with pytest.raises(UsageError):
            parse_sweep("mu:1.0:0.1:5")

    def test_too_few_steps(self):
        with pytest.raises(UsageError):
            parse_sweep("mu:0.1:1.0:1")

    def test_wrong_arity(self):
        with pytest.raises(UsageError):
            parse_sweep("mu:0.1:1.0")

    @pytest.mark.parametrize("text", ["mu:0.1:inf:3", "distance_km:-inf:10:3",
                                      "mu:nan:1.0:3", "distance_km:0:nan:3"])
    def test_non_finite_end_point_is_a_usage_error(self, text, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert dispatch(["keyrate", "--sweep", text]) == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: sweep start and stop must be finite")
        assert captured.err.count("\n") == 1


class TestEmitCsv:
    def test_header_only_when_empty(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_csv([], path=str(out), fieldnames=["a", "b"])
        assert out.read_text() == "a,b\n"

    def test_three_rows_four_lines(self, tmp_path):
        out = tmp_path / "r.csv"
        emit_csv([{"x": i} for i in range(3)], path=str(out))
        assert out.read_text().count("\n") == 4 - 1 + 1  # header + 3 rows, LF-terminated

    def test_full_precision_floats(self, tmp_path):
        out = tmp_path / "p.csv"
        emit_csv([{"x": 0.1}], path=str(out))
        assert "0.10000000000000001" in out.read_text()

    def test_rerun_identical(self, tmp_path):
        rows = [{"x": 0.1 * i, "y": i} for i in range(5)]
        out1, out2 = tmp_path / "1.csv", tmp_path / "2.csv"
        emit_csv(rows, path=str(out1))
        emit_csv(rows, path=str(out2))
        assert out1.read_bytes() == out2.read_bytes()
