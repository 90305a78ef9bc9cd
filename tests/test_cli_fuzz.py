"""Every flag of every subcommand given extreme, non-finite and malformed
values: the CLI must end with exit code 0, 1 or 2 and never a traceback."""
import pytest

from qkdrelay.cli import build_parser, main

HUGE_INT = "1" + "0" * 400  # an integer too large for a float
VALUES = ["0", "-1", "1e-300", "1e300", "inf", "-inf", "nan", "abc", HUGE_INT]

# Small grids and samples, so each case runs in milliseconds.  Of the values
# above that parse as an int, the positive one exceeds MAX_TRIALS, so
# --trials rejects it and --workers is capped by the chunk count.
BASE = {
    "visibility": ["--sections", "1..2", "--dmin", "0", "--dmax", "10",
                   "--dstep", "5"],
    "keyrate": ["--sections", "1..2", "--dmin", "0", "--dmax", "10",
                "--dstep", "5"],
    "maxdist": ["--sections", "1..2"],
    "detector-sweep": ["--sections", "4", "--line", "custom",
                       "--line-a", "6.1e-7", "--line-b", "17",
                       "--eta-min", "0.1", "--eta-max", "0.2",
                       "--eta-step", "0.05"],
    "mc": ["--sections", "2", "--distance", "10", "--trials", "1000",
           "--chunk-size", "400", "--workers", "2"],
    "source-penalty": ["--sources", "1"],
}


def _flags(cmd):
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "cmd").choices[cmd]
    return [a.option_strings[-1] for a in sub._actions
            if a.option_strings and a.dest != "help"]


def _with_flag(argv, flag, value):
    out = []
    it = iter(argv)
    for tok in it:
        if tok == flag:
            next(it)
        else:
            out.append(tok)
    return out + [flag, value]


CASES = [(cmd, flag, value) for cmd in BASE for flag in _flags(cmd)
         for value in VALUES]


def test_every_flag_is_covered():
    assert {flag for _, flag, _ in CASES} >= {
        "--alpha", "--eta", "--dark", "--vopt", "--config", "--format",
        "--out", "--dstep", "--reconciliation", "--method", "--line-b",
        "--eta-step", "--trials", "--workers", "--chunk-size",
        "--emission-prob"}


@pytest.mark.parametrize("cmd,flag,value", CASES,
                         ids=lambda v: "10**400" if v == HUGE_INT else None)
def test_flag_value_never_tracebacks(cmd, flag, value, tmp_path,
                                     monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # --out and --config resolve here
    try:
        code = main([cmd, *_with_flag(BASE[cmd], flag, value)])
    except SystemExit as exc:     # argparse rejects the value
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
