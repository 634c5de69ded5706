"""End-to-end tests of the command-line interface."""

import argparse
import dataclasses
import io
import json
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from oracles import (
    FIG_SEVEN,
    assert_valid_decomposition,
    child_env,
    key_digest,
    random_tree_edges,
    walk_to_root,
)
from twinfield_qka import cli, discrimination, selfcheck, simulation
from twinfield_qka.cli import _segment_keys, dispatch, emit_csv, parse_sweep
from twinfield_qka.errors import UsageError
from twinfield_qka.keyrate import link_rate, transmittance_from_distance
from twinfield_qka.network import PartyGraph, Segment, plan_network, reconcile_network


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
        # 0.9 bits of leakage zeroes both links' rates (chi 0.73 and 0.82), so the tie is exact.
        assert dispatch(["keyrate", "--delta-ec", "0.9", "--arm-km", "10", "5", "40", "30"]) == 0
        (row,) = read_csv(capsys.readouterr().out)
        eta = transmittance_from_distance(15.0)
        sift, chi, _, rate = link_rate(0.2, eta, 0.9)
        assert rate == 0.0
        assert [float(row[k]) for k in ("eta", "sift", "chi", "rate")] == [eta, sift, chi, rate]

    def test_underflowed_transmittance_is_a_clean_error(self, capsys):
        assert dispatch(["keyrate", "--distance-km", "1e6"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: distance 500000.0 km is too long: "
                       "its transmittance underflows to 0\n")

    def test_subnormal_transmittance_keeps_its_row(self, capsys):
        # 16000 km per link has a transmittance of 1e-320: subnormal, but not 0.
        assert dispatch(["keyrate", "--distance-km", "32000"]) == 0
        (row,) = read_csv(capsys.readouterr().out)
        assert float(row["eta"]) == transmittance_from_distance(16000.0) > 0.0
        assert float(row["rate"]) == 0.0

    @pytest.mark.parametrize("flags", [["--arm-km", "1", "2", "3", "400"], ["--distance-km", "77"]])
    def test_distance_sweep_refuses_the_arm_flags(self, flags, capsys):
        # A distance sweep sets every arm, so these flags used to be ignored.
        assert dispatch(["keyrate", "--sweep", "distance_km:0:100:3", *flags]) == 2
        assert capsys.readouterr() == ("", "usage error: a distance_km sweep sets --distance-km "
                                           f"and --arm-km; drop {flags[0]}\n")

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

    def test_rate_is_zero_where_background_clicks_dominate(self, capsys):
        args = ["simulate", "--pulses", "1000000", "--distance-km", "10000", "--seed", "1"]
        assert dispatch(args) == 0
        doc = json.loads(capsys.readouterr().out)["result"]
        assert doc["qber_ab"] > 0.3 and doc["qber_bc"] > 0.3
        assert doc["skr_per_pulse"] == doc["skr_bps"] == 0.0

    def test_flags_and_config_echo_match_session_config(self, capsys):
        """Each simulate flag sets a SessionConfig field; the JSON config echoes each once."""
        fields = {f.name for f in dataclasses.fields(simulation.SessionConfig)}
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["simulate"]._actions} - {"help", "out", "format"}
        flag_field = {"pulses": "n_pulses", "distance_km": "arm_lengths",
                      "arm_km": "arm_lengths", "dark": "dark_count_prob"}
        assert {flag_field.get(d, d) for d in dests} == fields
        assert len(dests) == len(fields) + 1  # --distance-km and --arm-km both set arm_lengths
        assert dispatch(["simulate", "--pulses", "10"]) == 0
        echoed = json.loads(capsys.readouterr().out)["config"]
        assert {"arm_lengths" if k == "arm_lengths_km" else k for k in echoed} == fields
        assert len(echoed) == len(fields)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_output_prints_only_the_error(self, fmt, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert dispatch(["simulate", "--pulses", "10", "--format", fmt, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write output file {str(out)!r}: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

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
            "conclusive AB / BC        4502 / 4522\n"
            "qber AB / BC              0 / 0\n"
            "sifted rate (bottleneck)  0.02251\n"
            "holevo deduction chi      0.841787\n"
            "secret key rate /pulse    0.00356138\n"
            "secret key rate bps       3.56138e+06\n"
        )

    def test_table_prints_errors_at_both_nodes(self, capsys):
        args = ["simulate", "--pulses", "200000", "--mu", "0.2",
                "--distance-km", "250", "--seed", "11", "--y0", "1e-4"]
        assert dispatch(args) == 0
        assert capsys.readouterr().err == (
            "conclusive AB / BC        4536 / 4567\n"
            "qber AB / BC              0.00308642 / 0.0063499\n"
            "sifted rate (bottleneck)  0.022835\n"
            "holevo deduction chi      0.841787\n"
            "secret key rate /pulse    0.00234591\n"
            "secret key rate bps       2.34591e+06\n"
        )


class TestPlanCommand:
    def test_seven_party_plan(self, tmp_path, capsys):
        net = tmp_path / "net.json"
        net.write_text(json.dumps(FIG_SEVEN))
        assert dispatch(["plan", str(net), "--mu", "0.2", "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        members = sorted(tuple(sorted(s["members"])) for s in doc["segments"])
        assert members == [(1, 2, 3), (3, 4, 5), (5, 6, 7)]
        assert sorted(doc["intra_announcers"]) == [3, 4, 5]
        assert doc["reconciliation"]["all_parties_converge"] is True
        assert doc["reconciliation"]["announcements"] == 2

    def test_plan_deterministic(self, tmp_path, capsys):
        net = tmp_path / "net.json"
        net.write_text(json.dumps(FIG_SEVEN))
        assert dispatch(["plan", str(net)]) == 0
        first = capsys.readouterr().out
        assert dispatch(["plan", str(net)]) == 0
        assert capsys.readouterr().out == first

    def test_global_key_digest_names_the_reconciled_key(self, capsys, monkeypatch):
        text = json.dumps(FIG_SEVEN)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert dispatch(["plan", "-", "--seed", "3", "--key-length", "37"]) == 0
        reported = json.loads(capsys.readouterr().out)["reconciliation"]["global_key_sha256"]
        plan = plan_network(PartyGraph.from_json(text), mu=0.2)
        keys = _segment_keys(np.random.default_rng(3), len(plan.segments), 37)
        global_key, _ = reconcile_network(keys, plan)
        assert len(global_key) == 37 and reported == key_digest(global_key)

    @pytest.mark.parametrize("n_bits", range(1, 41))
    def test_segment_keys_match_one_draw_per_segment(self, n_bits):
        for seed in (0, 1, 7, 2**40 + 3):
            for n_segments in (1, 2, 5):
                rng = np.random.default_rng(seed)
                loop = [rng.integers(0, 2, n_bits, dtype=np.uint8) for _ in range(n_segments)]
                keys = _segment_keys(np.random.default_rng(seed), n_segments, n_bits)
                assert keys.shape == (n_segments, n_bits) and keys.dtype == np.uint8
                assert np.array_equal(keys, np.array(loop))

    def test_edge_endpoints_print_as_listed_ids(self, capsys, monkeypatch):
        # true == 1 and 2.0 == 2: the edges name parties 1 and 2 by other types.
        net = {"parties": [1, 2, 3], "edges": [{"a": True, "b": 2, "km": 1.0},
                                               {"a": 2.0, "b": 3, "km": 2.0}]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(net)))
        assert dispatch(["plan", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)
        (segment,) = doc["segments"]
        assert sorted(segment["members"]) == [1, 2, 3]
        named = [*segment["members"], segment["center"], *doc["intra_announcers"],
                 *(p for a, b, _ in doc["tree_edges"] for p in (a, b))]
        assert {type(p) for p in named} == {int}

    @pytest.mark.parametrize("parties", [
        [["a", 0, 0], ["b", 3, 4], ["c", 6, 8]],
        [{"id": "a", "x": 0, "y": 0}, ["b", 3, 4], {"id": "c", "x": 6, "y": 8}],
    ])
    def test_bare_list_party_entries_are_refused(self, parties, tmp_path, capsys, monkeypatch):
        # Coordinates are read only from a party entry's "x" and "y".
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"parties": parties})))
        out = tmp_path / "plan.json"
        assert dispatch(["plan", "-", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()

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
            {"a": [1], "b": 2, "km": 5.0},
            {"a": 1, "b": 2, "km": 10**400},
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
        {"id": 1, "x": 10**400, "y": 0},
        {"id": 1, "x": 0, "y": -10**400},
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

    def test_convergence_check_agrees_with_derive_global_key(self, monkeypatch, capsys):
        # plan draws its own keys; one corrupted after reconciliation makes
        # that segment's recovered key differ from the group key.
        rng = np.random.default_rng(404)
        runs = []

        def reconcile_then_corrupt(keys, plan):
            global_key, announcements = reconcile_network(keys, plan)
            global_key = global_key.copy()  # segment 0's key, which may be corrupted next
            if rng.random() < 0.5:  # a party holding a corrupted key must not converge
                keys[int(rng.integers(len(keys))), int(rng.integers(24))] ^= 1
            runs.append((keys, global_key, announcements))
            return global_key, announcements

        monkeypatch.setattr(cli, "reconcile_network", reconcile_then_corrupt)
        verdicts = set()
        for seed in range(150):
            edges = random_tree_edges(int(rng.integers(2, 40)), rng)
            net = {"parties": list(range(len(edges) + 1)),
                   "edges": [{"a": a, "b": b, "km": km} for a, b, km in edges]}
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(net)))
            assert dispatch(["plan", "-", "--key-length", "24", "--seed", str(seed)]) == 0
            verdict = json.loads(capsys.readouterr().out)["reconciliation"]["all_parties_converge"]
            keys, global_key, announcements = runs.pop()
            oracle = all(
                np.array_equal(walk_to_root(announcements, i, key), global_key)
                for i, key in enumerate(keys)
            )
            assert verdict == oracle
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


class TestOutOfRangeInputs:
    """Inputs that overflow or exhaust memory end in one error line, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["discriminate", "--mu", "1e3"],
        ["discriminate", "--mu", "1e300"],
        ["discriminate", "--sweep", "mu:0:1000:3"],
        ["plan", "NET", "--key-length", "1000000000000000"],  # numpy refuses 909 TiB at once
        ["plan", "DEEP_ARRAY"],  # nested deeper than json.loads can recurse
        ["plan", "DEEP_PARTIES"],
        ["simulate", "--distance-km", "40000"],  # link transmittance underflows to 0
        ["simulate", "--arm-km", "0", "0", "8100", "8100"],
        ["simulate", "--distance-km", "100000"],
    ])
    def test_exit_one_and_no_output_file(self, argv, tmp_path, capsys):
        networks = {
            "NET": json.dumps(FIG_SEVEN),
            "DEEP_ARRAY": "[" * 100_000,
            "DEEP_PARTIES": '{"parties": ' + "[" * 5000 + "]" * 5000 + "}",
        }
        for name, text in networks.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "out"
        argv = [str(tmp_path / a) if a in networks else a for a in argv]
        assert dispatch([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not out.exists()


class TestNegativeFloatLiterals:
    """A flag value such as -1e3 or -inf is a value for the domain check, not an option."""

    @pytest.mark.parametrize("argv, err", [
        (["keyrate", "--mu", "-1e3"], "error: --mu must be finite and > 0, got -1000.0\n"),
        (["simulate", "--arm-km", "1", "-inf", "1", "1"],
         "error: --arm-km must be finite and >= 0, got -inf\n"),
    ])
    def test_module_entry_point(self, argv, err):
        run = subprocess.run([sys.executable, "-m", "twinfield_qka.cli", *argv],
                             capture_output=True, text=True, stdin=subprocess.DEVNULL,
                             env=child_env(), timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == (1, "", err)


class TestHugeIntensityAtZeroKm:
    """mu near the float maximum with no loss: chi 1 and rate 0, as at mu = 800."""

    def test_keyrate(self, capsys):
        assert dispatch(["keyrate", "--mu", "1e308", "--distance-km", "0"]) == 0
        (row,) = read_csv(capsys.readouterr().out)
        assert (float(row["chi"]), float(row["rate"])) == (1.0, 0.0)

    def test_simulate(self, capsys):
        assert dispatch(["simulate", "--mu", "1e308", "--pulses", "10"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert (result["chi"], result["skr_per_pulse"]) == (1.0, 0.0)


class TestFlagTable:
    def test_every_numeric_flag_has_one_row_and_every_row_a_flag(self):
        """A numeric flag added without a row in cli.FLAGS would skip the domain check."""
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        used = set()
        for name, parser in sub.choices.items():
            checks = parser.get_default("domains") or {}
            for action in parser._actions:
                if action.type in (int, float):
                    (flag,) = action.option_strings
                    assert flag in cli.FLAGS, f"{name} {flag} has no row"
                    assert checks[action.dest][0] == flag
                    # --help states the domain the check holds the flag to.
                    assert action.help.endswith(f"; must be {checks[action.dest][1][0]}")
                    used.add(flag)
            assert len(checks) == sum(a.type in (int, float) for a in parser._actions)
        assert used == set(cli.FLAGS)


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

    @pytest.mark.parametrize("argv, code", [(["simulate", "--pulses", "10", "--seed", "1"], 0),
                                            (["simulate", "--pulses", "10", "extra"], 2)])
    def test_subcommand_argv_is_parsed_once(self, argv, code, monkeypatch, capsys):
        # Its own parser reads the tokens; the top-level one only reports leftovers.
        parsed = []
        parse = argparse.ArgumentParser.parse_known_args

        def spy(parser, *args, **kwargs):
            parsed.append(parser.prog)
            return parse(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        assert dispatch(argv) == code
        assert parsed == ["twinfield-qka simulate"]
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
        assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 7

    def test_a_failing_check_fails_the_run_and_every_line_prints(self, monkeypatch, capsys):
        pair = discrimination.qmin_pair_closed
        monkeypatch.setattr(discrimination, "qmin_pair_closed", lambda mu: pair(mu) + 1e-9)
        name, _, detail = selfcheck.check_discrimination_identities()
        assert dispatch(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"FAIL  {name}: {detail}"
        assert [line.split()[0] for line in lines[1:]] == ["PASS"] * 6


class TestDispatchErrors:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()


class TestSweepParsing:
    def test_well_formed(self):
        variable, grid = parse_sweep("mu:0.1:1.0:10")
        assert variable == "mu"
        assert len(grid) == 10
        assert (grid[0], grid[-1]) == (0.1, 1.0)

    def test_grid_values_are_python_floats(self, capsys):
        assert [type(x) for x in parse_sweep("mu:0.1:1.0:4")[1]] == [float] * 4
        assert dispatch(["keyrate", "--sweep", "distance_km:0:1e300:3"]) == 1
        assert capsys.readouterr().err == ("error: distance 2.5e+299 km is too long: "
                                           "its transmittance underflows to 0\n")

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

    @pytest.mark.parametrize("argv, sets", [
        (["keyrate", "--mu", "0.5"], "--mu and --mu2"),
        (["keyrate", "--mu2", "0.5"], "--mu and --mu2"),
        (["discriminate", "--mu", "0.5"], "--mu"),
    ])
    def test_mu_sweep_refuses_the_intensity_flags(self, argv, sets, tmp_path, capsys):
        # The sweep sets every intensity, so an explicit --mu used to be ignored.
        out = tmp_path / "out"
        assert dispatch([*argv, "--sweep", "mu:0.1:1:3", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"usage error: a mu sweep sets {sets}; drop {argv[1]}\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["mu:0.1:inf:3", "distance_km:-inf:10:3",
                                      "mu:nan:1.0:3", "distance_km:0:nan:3",
                                      # finite ends whose span overflows
                                      "mu:-1e308:1e308:3", "distance_km:-1.7e308:1.7e308:2"])
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
