import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qkdrelay
from qkdrelay import ChannelParams, DetectorParams, RelayConfig, link_metrics
from qkdrelay import cli
from qkdrelay.cli import inclusive_grid, main, parse_sections
from test_cli_json import random_floats, reference


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ------------------------------------------------------------------- helpers

def test_parse_sections_forms():
    assert parse_sections("1..4") == [1, 2, 3, 4]
    assert parse_sections("4,5,6") == [4, 5, 6]
    assert parse_sections("7") == [7]


@pytest.mark.parametrize("spec", ["0..3", "3..1", "a", "1,0", ""])
def test_parse_sections_rejects_bad_specs(spec):
    from qkdrelay import InvalidParameterError
    with pytest.raises(InvalidParameterError):
        parse_sections(spec)


def test_inclusive_grid():
    assert inclusive_grid(0.0, 2.0, 1.0) == [0.0, 1.0, 2.0]
    assert inclusive_grid(5.0, 4.0, 1.0) == []
    assert len(inclusive_grid(0.02, 0.30, 0.01)) == 29


def test_inclusive_grid_caps_point_count(monkeypatch):
    from qkdrelay import InvalidParameterError, cli
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 10)
    assert len(inclusive_grid(0.0, 9.0, 1.0)) == 10
    with pytest.raises(InvalidParameterError):
        inclusive_grid(0.0, 10.0, 1.0)


def test_parse_sections_caps_range_count(monkeypatch):
    from qkdrelay import InvalidParameterError, cli
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 10)
    assert parse_sections("3..12") == list(range(3, 13))
    with pytest.raises(InvalidParameterError, match="exceeds 10 counts"):
        parse_sections("3..13")


# ---------------------------------------------------------------- visibility

def test_visibility_csv_matches_model(capsys):
    code, out, _ = run_cli(capsys, "visibility", "--sections", "1..2",
                           "--dmin", "0", "--dmax", "2", "--dstep", "1")
    assert code == 0
    assert out.splitlines()[0] == "# alpha=0.25 eta=0.3 dark=0.0001 vopt=0.99"
    header, rows = csv_rows(out)
    assert header == ["n", "distance_km", "v_ab"]
    assert len(rows) == 6
    for n_s, d_s, v_s in rows:
        lm = link_metrics(RelayConfig(int(n_s), float(d_s)))
        assert float(v_s) == pytest.approx(lm.v_ab, rel=1e-9)


def test_visibility_intercepts_near_optics_power(capsys):
    code, out, _ = run_cli(capsys, "visibility", "--sections", "1..10",
                           "--dmin", "0", "--dmax", "0", "--dstep", "1")
    assert code == 0
    _, rows = csv_rows(out)
    for n_s, _, v_s in rows:
        assert float(v_s) == pytest.approx(0.99 ** int(n_s), abs=2e-2)


def test_visibility_empty_range_gives_header_only(capsys):
    code, out, _ = run_cli(capsys, "visibility", "--sections", "1..3",
                           "--dmin", "10", "--dmax", "0", "--dstep", "1")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "distance_km", "v_ab"]
    assert rows == []


def test_visibility_json_carries_params(capsys):
    code, out, _ = run_cli(capsys, "visibility", "--format", "json",
                           "--sections", "1", "--dmin", "0", "--dmax", "1",
                           "--dstep", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"alpha": 0.25, "eta": 0.3, "dark": 0.0001,
                             "vopt": 0.99}
    assert len(doc["rows"]) == 2


# ------------------------------------------------------------------- keyrate

def test_keyrate_columns_and_reverse_dominance(capsys):
    args = ["keyrate", "--sections", "1", "--dmin", "0", "--dmax", "100",
            "--dstep", "20"]
    code_f, out_f, _ = run_cli(capsys, *args, "--reconciliation", "forward")
    code_r, out_r, _ = run_cli(capsys, *args, "--reconciliation", "reverse")
    assert code_f == code_r == 0
    header, rows_f = csv_rows(out_f)
    _, rows_r = csv_rows(out_r)
    assert header == ["n", "distance_km", "rate_bits_per_pulse", "i_ab",
                      "i_ae", "i_be", "p_total"]
    for row_f, row_r in zip(rows_f, rows_r):
        assert float(row_r[2]) >= float(row_f[2])


def count_kernel_calls(monkeypatch):
    # per-cell calls of model.kernel's callables: "_link" counts every link
    # evaluation, the one inside a full cell too, and "_info" the full cells
    from qkdrelay import model
    calls = {"_link": 0, "_info": 0}
    real_kernel = model.kernel

    def kernel(*args):
        link, cell = real_kernel(*args)

        def counted_link(d):
            calls["_link"] += 1
            return link(d)

        def counted_cell(d):
            calls["_link"] += 1
            calls["_info"] += 1
            return cell(d)
        return counted_link, counted_cell

    monkeypatch.setattr(model, "kernel", kernel)
    return calls


def test_keyrate_evaluates_each_link_once_per_cell(monkeypatch, capsys):
    calls = count_kernel_calls(monkeypatch)
    code, _, _ = run_cli(capsys, "keyrate", "--sections", "1..3",
                         "--dmax", "10")
    assert code == 0
    assert calls["_link"] == 3 * 11


def test_visibility_evaluates_each_link_once_per_cell(monkeypatch, capsys):
    calls = count_kernel_calls(monkeypatch)
    code, _, _ = run_cli(capsys, "visibility", "--sections", "1..3",
                         "--dmax", "10")
    assert code == 0
    assert calls == {"_link": 3 * 11, "_info": 0}


@pytest.mark.parametrize("cmd", ["visibility", "keyrate"])
def test_grid_holds_one_kernel_at_a_time(cmd, monkeypatch, capsys):
    # each section's kernel is built after the previous section's rows are
    # drawn, so a long --sections list never holds every kernel at once
    from qkdrelay import model
    events = []
    real_kernel = model.kernel

    def kernel(n, *args):
        events.append(("kernel", n))

        def traced(half):
            def call(d):
                events.append(("cell", n))
                return half(d)
            return call
        return tuple(map(traced, real_kernel(n, *args)))

    monkeypatch.setattr(model, "kernel", kernel)
    code, out, _ = run_cli(capsys, cmd, "--sections", "1..4",
                           "--dmax", "10", "--dstep", "10")
    assert code == 0 and len(csv_rows(out)[1]) == 8
    assert events == [e for n in range(1, 5)
                      for e in [("kernel", n), ("cell", n), ("cell", n)]]


@pytest.mark.parametrize("cmd", ["visibility", "keyrate"])
def test_grid_checks_section_counts_only_for_a_nonempty_grid(cmd, capsys):
    huge = "1" + "0" * 400  # an integer too large for a float
    code, out, err = run_cli(capsys, cmd, "--sections", f"1,{huge}",
                             "--dmax", "10")
    assert code == 2 and out == ""
    assert err.startswith("error: n_sections must be <= ")
    assert "(the largest float)" in err
    code, out, err = run_cli(capsys, cmd, "--sections", f"1,{huge}",
                             "--dmin", "10", "--dmax", "0")
    assert code == 0 and err == ""
    header, rows = csv_rows(out)
    assert header[:2] == ["n", "distance_km"] and rows == []


def test_keyrate_reverse_needs_single_section(capsys):
    code, _, err = run_cli(capsys, "keyrate", "--sections", "1..2",
                           "--reconciliation", "reverse")
    assert code == 2
    assert "reverse" in err


def test_keyrate_reverse_message_is_the_models(capsys):
    # the rule lives in model.check_reconciliation, which the cutoff scan
    # applies too; it holds also when the distance grid is empty
    from qkdrelay import InvalidParameterError, max_distance_exact
    with pytest.raises(InvalidParameterError) as exc:
        max_distance_exact(2, ChannelParams(), DetectorParams(), "reverse")
    for grid in ([], ["--dmin", "50", "--dmax", "10"]):
        code, out, err = run_cli(capsys, "keyrate", "--sections", "2",
                                 "--reconciliation", "reverse", *grid)
        assert code == 2 and out == ""
        assert err == f"error: {exc.value}\n"


def test_keyrate_reverse_accepts_repeated_single_section(capsys):
    # every count in the spec is 1, as maxdist accepts repeated counts
    args = ["keyrate", "--reconciliation", "reverse", "--dmax", "20",
            "--dstep", "10"]
    code_1, out_1, _ = run_cli(capsys, *args, "--sections", "1")
    code_11, out_11, err = run_cli(capsys, *args, "--sections", "1,1")
    assert code_1 == code_11 == 0 and err == ""
    _, rows_1 = csv_rows(out_1)
    _, rows_11 = csv_rows(out_11)
    assert rows_11 == rows_1 + rows_1


def test_keyrate_empty_range_gives_header_only(capsys):
    code, out, _ = run_cli(capsys, "keyrate", "--sections", "1..5",
                           "--dmin", "50", "--dmax", "10", "--dstep", "5")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "distance_km", "rate_bits_per_pulse", "i_ab",
                      "i_ae", "i_be", "p_total"]
    assert rows == []


# ------------------------------------------------------------------- maxdist

def test_maxdist_both_methods(capsys):
    code, out, _ = run_cli(capsys, "maxdist", "--sections", "1..3",
                           "--method", "both")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["n", "d_max_exact_km", "d_max_approx_km"]
    assert float(rows[0][1]) == pytest.approx(158.2, abs=0.5)
    assert float(rows[0][2]) == pytest.approx(99.09, abs=0.05)
    assert any(line.startswith("# summary:") for line in out.splitlines())


def test_maxdist_approx_only_leaves_exact_blank(capsys):
    code, out, _ = run_cli(capsys, "maxdist", "--sections", "1",
                           "--method", "approx")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0][1] == ""
    assert float(rows[0][2]) == pytest.approx(99.09, abs=0.05)


def test_maxdist_json_summary(capsys):
    code, out, _ = run_cli(capsys, "maxdist", "--format", "json",
                           "--sections", "16..20", "--method", "exact")
    assert code == 0
    doc = json.loads(out)
    assert 16 <= doc["summary"]["n_star"] <= 20
    assert 600.0 <= doc["summary"]["d_max_km"] <= 700.0


def test_maxdist_poor_visibility_gives_zero_rows(capsys):
    code, out, _ = run_cli(capsys, "maxdist", "--vopt", "0.5",
                           "--sections", "1..2", "--method", "exact")
    assert code == 0
    _, rows = csv_rows(out)
    assert [float(r[1]) for r in rows] == [0.0, 0.0]


def test_maxdist_without_darks_prints_both_columns(capsys):
    base = ["maxdist", "--dark", "0", "--sections", "1..4"]
    code, out, err = run_cli(capsys, *base)
    assert code == 0 and err == ""
    _, rows = csv_rows(out)
    code, out_exact, _ = run_cli(capsys, *base, "--method", "exact")
    assert code == 0
    assert [r[1] for r in rows] == [r[1] for r in csv_rows(out_exact)[1]]
    assert float(rows[0][1]) == pytest.approx(12273.2, abs=0.1)
    assert [r[2] for r in rows] == ["inf"] * 4
    code, out, _ = run_cli(capsys, *base, "--vopt", "0.7")
    assert code == 0
    assert [r[1:] for r in csv_rows(out)[1]] == [["0", "0"]] * 4


def test_keyrate_without_darks_is_degenerate_below_normal_range(capsys):
    # v_opt**4 < 1/sqrt(2): no key at any distance.  From 12808.6 km p_signal
    # and p_total are both subnormal, and their ratio (v_ab = 1) would give a
    # key; such a link is degenerate instead.
    code, out, _ = run_cli(capsys, "keyrate", "--dark", "0", "--vopt", "0.9",
                           "--sections", "4", "--dmin", "12800",
                           "--dmax", "12900", "--dstep", "0.1")
    assert code == 0
    _, rows = csv_rows(out)
    assert len(rows) == 1001
    assert {(r[2], r[6]) for r in rows} == {("0", "0")}
    assert link_metrics(RelayConfig(4, 12808.6, ChannelParams(0.25, 0.9),
                                    DetectorParams(0.3, 0.0))).p_total == 0.0


@pytest.mark.parametrize("method", ["exact", "approx"])
def test_maxdist_summary_is_optimal_sections(capsys, method):
    from qkdrelay import ChannelParams, DetectorParams, optimize
    code, out, _ = run_cli(capsys, "maxdist", "--format", "json",
                           "--sections", "1..30", "--method", method)
    assert code == 0
    channel, detector = ChannelParams(), DetectorParams()
    if method == "exact":
        n_star, d_star = optimize.optimal_sections(channel, detector, 30)
    else:
        n_star, d_star = optimize.best_section_count(
            (n, optimize.max_distance_approx(n, channel, detector))
            for n in range(1, 31))
    assert json.loads(out)["summary"] == {"n_star": n_star,
                                          "d_max_km": float(f"{d_star:.10g}")}


@pytest.mark.parametrize("argv", [
    ["maxdist", "--dark", "0", "--method", "exact"],
    ["maxdist", "--sections", "1..3", "--dark", "1e-300"],
    ["keyrate", "--dark", "0", "--sections", "1", "--dmin", "6400",
     "--dmax", "7000", "--dstep", "100"],
])
def test_single_section_beyond_square_underflow_exits_zero(capsys, argv):
    # s*s underflows while p_total = s/2 does not; no Bell station needs it
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out and err == ""


# ------------------------------------------------------------- detector sweep

def test_detector_sweep_custom_equals_preset(capsys):
    base = ["detector-sweep", "--distance", "400", "--sections", "4",
            "--eta-min", "0.1", "--eta-max", "0.2", "--eta-step", "0.02"]
    code_p, out_p, _ = run_cli(capsys, *base, "--line", "good")
    code_c, out_c, _ = run_cli(capsys, *base, "--line", "custom",
                               "--line-a", "6.1e-7", "--line-b", "17")
    assert code_p == code_c == 0
    assert out_p == out_c


def test_detector_sweep_single_section_all_zero(capsys):
    code, out, _ = run_cli(capsys, "detector-sweep", "--distance", "400",
                           "--sections", "1")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows and all(float(r[3]) == 0.0 for r in rows)


def test_detector_sweep_out_of_model_grid_fails(capsys):
    code, _, err = run_cli(capsys, "detector-sweep", "--sections", "4",
                           "--eta-min", "0.5", "--eta-max", "0.9",
                           "--eta-step", "0.1")
    assert code == 2
    assert "0.5" in err


def test_detector_sweep_custom_requires_coefficients(capsys):
    code, _, err = run_cli(capsys, "detector-sweep", "--sections", "4",
                           "--line", "custom")
    assert code == 2


def test_detector_sweep_json_best(capsys):
    code, out, _ = run_cli(capsys, "detector-sweep", "--format", "json",
                           "--distance", "400", "--sections", "4,5,6")
    assert code == 0
    doc = json.loads(out)
    assert 0.14 <= doc["best"]["4"]["eta"] <= 0.22
    assert doc["best"]["4"]["rate"] >= doc["best"]["5"]["rate"]


def test_json_writes_a_float_that_rounds_to_inf_as_null(capsys):
    # 10 significant digits round the largest double up to inf, which is not
    # a JSON number
    code, out, _ = run_cli(capsys, "detector-sweep", "--format", "json",
                           "--distance", "1.7976931348623157e308",
                           "--sections", "4", "--eta-min", "0.1",
                           "--eta-max", "0.1")
    assert code == 0
    doc = json.loads(out, parse_constant=pytest.fail)
    assert doc["distance_km"] is None


# ------------------------------------------------------------------------ mc

def test_mc_small_run_passes(capsys):
    code, out, _ = run_cli(capsys, "mc", "--sections", "1", "--distance",
                           "50", "--trials", "200000", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["z_scores"]["degenerate_sample"] == []
    assert abs(doc["z_scores"]["p_total"]) <= 4.0
    assert abs(doc["z_scores"]["v_ab"]) <= 4.0
    assert doc["generator"]["algorithm"].startswith("philox")
    assert doc["config"]["seed"] == 7


def test_mc_single_trial_marks_degenerate_when_nothing_accepted(capsys):
    code, out, _ = run_cli(capsys, "mc", "--sections", "1", "--distance",
                           "0", "--trials", "1", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["estimate"]["accepted"] == 0
    assert doc["z_scores"]["degenerate_sample"] == ["p_total", "v_ab"]
    assert doc["z_scores"]["v_ab"] is None
    assert doc["z_scores"]["p_total"] is not None  # count-only consistency


def test_mc_single_trial_marks_degenerate_when_one_accepted(capsys):
    code, out, _ = run_cli(capsys, "mc", "--sections", "1", "--distance",
                           "0", "--trials", "1", "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["estimate"]["accepted"] == 1
    assert "v_ab" in doc["z_scores"]["degenerate_sample"]
    assert doc["z_scores"]["v_ab"] is not None  # analytic-SE score still valid


def test_mc_validation_failure_exits_one(monkeypatch, capsys):
    from qkdrelay import McEstimate
    from qkdrelay import cli as cli_mod

    def skewed_simulate(trial, workers=1):
        half = trial.trials // 2
        return McEstimate(trial.trials, half, half, 0.5, 1.0, 1e-3, 1e-3)

    monkeypatch.setattr(cli_mod.montecarlo, "simulate", skewed_simulate)
    code, out, _ = run_cli(capsys, "mc", "--sections", "1", "--distance",
                           "100", "--trials", "10000", "--seed", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False


def test_mc_oversized_chunk_exits_two_before_simulating(monkeypatch, capsys):
    from qkdrelay import cli as cli_mod

    def no_simulate(trial, workers=1):
        raise AssertionError("a chunk this large must not reach simulate")

    monkeypatch.setattr(cli_mod.montecarlo, "simulate", no_simulate)
    code, out, err = run_cli(capsys, "mc", "--trials", "10000000000",
                             "--chunk-size", "10000000000")
    assert code == 2 and out == ""
    assert err == (f"error: chunk_size must be <= "
                   f"{cli_mod.montecarlo.MAX_CHUNK_SIZE}, got 10000000000\n")


# -------------------------------------------------------------- source penalty

def test_source_penalty_csv(capsys):
    code, out, _ = run_cli(capsys, "source-penalty", "--sources", "1")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["m_sources", "emission_prob", "rate_factor",
                      "distance_loss_km"]
    assert rows[0] == ["1", "0.1", "0.1", "40"]


@pytest.mark.parametrize("prob,row", [
    ("1", ["2", "1", "1", "0"]),
    ("1e-320", ["2", "9.999888672e-321", "0", "25600.00039"]),
])
def test_source_penalty_csv_at_extreme_emission_probs(capsys, prob, row):
    code, out, _ = run_cli(capsys, "source-penalty", "--sources", "2",
                           "--emission-prob", prob)
    assert code == 0
    assert csv_rows(out)[1] == [row]


def test_source_penalty_honors_alpha_override(capsys):
    code, out, _ = run_cli(capsys, "source-penalty", "--sources", "1",
                           "--alpha", "0.2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["distance_loss_km"] == pytest.approx(50.0)


# ------------------------------------------------------------ table encoding

def test_csv_templates_match_the_per_value_rule():
    floats = random_floats(random.Random(20261020), 1_000_000)
    k = cli._BLOCK_ROWS
    rows = list(zip(range(-500_000, 500_000), floats))
    # the third column is all-float in even blocks and mixes None, int and
    # float in odd ones, so both the typed and the %s templates run
    mixed = [(n, x, x if i // k % 2 == 0 else (None, n << 64, x)[i % 3])
             for i, (n, x) in enumerate(rows[:8 * k + 3])]
    for table in (rows, mixed, mixed[:k - 1], mixed[:k + 1],
                  mixed[3 * k - 5:]):
        header = ["a", "b", "c"][:len(table[0])]
        lines = cli._table("csv", {"alpha": 0.25}, header, table).split("\n")
        want = ["# alpha=0.25", ",".join(header),
                *(",".join(map(cli._csv_field, row)) for row in table), ""]
        assert len(lines) == len(want)
        # a list of the first mismatches keeps a failure's report short
        assert [(a, b) for a, b in zip(lines, want) if a != b][:3] == []


def test_percent_signs_in_header_keys_are_literal():
    header = ["a%s", "%%", "%(x)d", "%"]
    rows = [(1, 0.5, None, "s%s"), (-2, 1e300, True, -0.0), (3, 2.0, 4, "%")]
    want = json.dumps(reference([dict(zip(header, row)) for row in rows]),
                      indent=2).replace("\n", "\n  ")
    assert cli._json_rows(header, rows) == want
    text = cli._table("csv", {}, header, [row[:3] for row in rows])
    assert text.split("\n")[1:] == ["a%s,%%,%(x)d,%", "1,0.5,",
                                    "-2,1e+300,True", "3,2,4", ""]


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    from qkdrelay import montecarlo
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["source-penalty", "--sources", "1"]) == 0
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1
    # a fresh build_parser still reads module constants when called
    monkeypatch.setattr(montecarlo, "Z_THRESHOLD", 2.5)
    assert "|z| > 2.5)" in " ".join(build().format_help().split())


def test_importing_the_cli_builds_no_parser():
    src = str(Path(qkdrelay.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = "\n".join([
        "import argparse",
        "built = []",
        "init = argparse.ArgumentParser.__init__",
        "argparse.ArgumentParser.__init__ = (",
        "    lambda self, *a, **k: built.append(1) or init(self, *a, **k))",
        "import qkdrelay.cli",
        "print(len(built))",
    ])
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


# ------------------------------------------------- parameters, files, plumbing

def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("# overrides\nalpha=0.35\nvopt=0.98\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "source-penalty", "--sources", "1",
                           "--config", str(cfg), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["alpha"] == 0.35      # file beats default
    assert doc["params"]["vopt"] == 0.98
    code, out, _ = run_cli(capsys, "source-penalty", "--sources", "1",
                           "--config", str(cfg), "--alpha", "0.2",
                           "--format", "json")
    doc = json.loads(out)
    assert doc["params"]["alpha"] == 0.2       # flag beats file
    assert doc["params"]["vopt"] == 0.98


def test_config_file_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gamma=1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "visibility", "--config", str(cfg))
    assert code == 2
    assert "gamma" in err


@pytest.mark.parametrize("text,message", [
    ("# ok\neta 0.2\n", "2: expected key=value, got 'eta 0.2'"),
    ("eta = high\n", "1: cannot parse value 'high'"),
])
def test_config_file_bad_line_is_usage_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "visibility", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: {cfg}:{message}\n"


def test_non_utf8_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bin.cfg"
    cfg.write_bytes(b"\xff\xfe\x00a")
    code, out, err = run_cli(capsys, "source-penalty", "--sources", "1",
                             "--config", str(cfg))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and str(cfg) in err


def test_missing_config_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "visibility", "--config", "/nonexistent")
    assert code == 2


def test_output_file_byte_identical_across_runs(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["mc", "--sections", "2", "--distance", "40", "--trials", "50000",
            "--seed", "12345"]
    assert main(args + ["--out", str(out1)]) in (0, 1)
    assert main(args + ["--out", str(out2)]) in (0, 1)
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_output_byte_identical_across_runs(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["keyrate", "--sections", "1..3", "--dmin", "0", "--dmax", "50",
            "--dstep", "10"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_every_help_text_renders(monkeypatch):
    # argparse %-formats help text only when it renders it, so a stray %
    # would surface here and not at parse time
    from qkdrelay import DETECTOR_LINES, cli, montecarlo
    monkeypatch.setattr(montecarlo, "Z_THRESHOLD", 2.5)
    parser = cli.build_parser()
    top = " ".join(parser.format_help().split())
    assert "exits 1 when |z| > 2.5)" in top
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, subparser in sub.choices.items():
        assert subparser.format_help().startswith(f"usage: qkdrelay {name}")
    line = next(a for a in sub.choices["detector-sweep"]._actions
                if a.dest == "line")
    assert list(line.choices) == [*DETECTOR_LINES, "custom"]


def test_bad_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["keyrate", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_invalid_parameter_exits_two(capsys):
    code, _, err = run_cli(capsys, "visibility", "--eta", "1.5")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["keyrate", "--dmax", "inf"],
    ["visibility", "--dstep", "nan"],
    ["visibility", "--dmin", "nan", "--dmax", "1"],
    ["detector-sweep", "--eta-max", "inf"],
    ["keyrate", "--dmax", "1e12", "--dstep", "1e-3"],
    ["keyrate", "--alpha", "inf", "--dmax", "1"],
    ["maxdist", "--alpha", "inf"],
    ["detector-sweep", "--distance", "inf"],
    ["mc", "--distance", "nan", "--trials", "10"],
    ["maxdist", "--sections", "1..1000000000000000000"],
    ["visibility", "--sections", "1..10000000000000000000"],
])
def test_non_finite_or_oversized_input_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_unwritable_out_exits_two(tmp_path, capsys):
    # a missing parent directory, and a directory in place of the file
    for out_path in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run_cli(capsys, "source-penalty", "--sources", "2",
                                 "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_module_entry_point():
    # the child imports the same package as this test, installed or not
    src = str(Path(qkdrelay.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "qkdrelay", "source-penalty", "--sources",
         "2", "--format", "json"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["rate_factor"] == pytest.approx(0.01)
    assert doc["distance_loss_km"] == pytest.approx(80.0)


def test_only_mc_loads_numpy():
    # numpy is imported by the first simulate, so the other subcommands
    # never pay for it; one child runs keyrate, maxdist and then mc
    src = str(Path(qkdrelay.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = "\n".join([
        "import contextlib, io, sys",
        "from qkdrelay import cli",
        "for argv in (['keyrate', '--dmax', '10'], ['maxdist'],",
        "             ['mc', '--trials', '1000']):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert cli.main(argv) == 0",
        "    print(argv[0], 'numpy' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["keyrate False", "maxdist False",
                                       "mc True", ""]
