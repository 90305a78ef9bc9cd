"""Command-line front end: tabular data for the visibility/key-rate figures,
maximum-distance scans, detector sweeps, Monte Carlo validation reports and
the imperfect-source penalty.

Exit codes: 0 success, 1 Monte Carlo validation failure, 2 usage or
parameter error.  Output is byte-stable for identical flags and seed.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import islice, repeat
from pathlib import Path

from . import model, montecarlo, optimize
from .model import check_reconciliation, link_metrics
from .optimize import DETECTOR_LINES, DetectorLine
from .params import (DEFAULT_ALPHA_DB_PER_KM, DEFAULT_DARK_PROB, DEFAULT_ETA,
                     DEFAULT_V_OPT, ChannelParams, DetectorParams,
                     InvalidParameterError, RelayConfig)

# Points per distance or efficiency axis; checked before a grid is built.
MAX_GRID_POINTS = 1_000_000
# Table rows encoded per block: bounds the cells held while a grid streams.
_BLOCK_ROWS = 1024
# Exponents of ``_fmt`` text that ``_json_float`` passes to ``repr``, which
# writes 1e10..1e15 positionally and may round the range's ends differently.
_REPR_EXPONENTS = frozenset(f"e{e:+d}" for e in (*range(-324, -307),
                                                  *range(10, 16), 308))

_DEFAULTS = {
    "alpha": DEFAULT_ALPHA_DB_PER_KM,
    "eta": DEFAULT_ETA,
    "dark": DEFAULT_DARK_PROB,
    "vopt": DEFAULT_V_OPT,
}


def _fmt(x: float) -> str:
    """Floats with 10 significant digits; stable for file diffing."""
    return format(x, ".10g")


def _csv_field(x) -> str:
    if x is None:
        return ""
    return str(x) if isinstance(x, int) else _fmt(x)


def _json_float(x: float) -> str:
    """``repr`` of ``x`` rounded to 10 significant digits, or null if that is
    not finite.  Between exponents -307 and 307 no shorter decimal maps to the
    rounded double, so ``repr`` writes ``_fmt``'s digits; only notation differs."""
    s = format(x, ".10g")
    if "e" in s:
        if s[s.index("e"):] not in _REPR_EXPONENTS:
            return s
    elif "." in s:
        return s
    elif s[-1].isdigit():
        return s + ".0"
    x = float(s)
    return repr(x) if math.isfinite(x) else "null"


def _json(obj, pad: str = "") -> str:
    """``obj`` as ``json.dumps`` with ``indent=2`` writes it, nested at
    ``pad``, with floats written by ``_json_float``."""
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return str(obj)
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [inner + json.dumps(k) + ": " + _json(v, inner)
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    return ("[\n" + ",\n".join([inner + _json(v, inner) for v in obj])
            + "\n" + pad + "]")


def _encode_column(fmt: str, column: tuple):
    """The cells of one column as ``fmt`` writes them: all-float and all-int
    columns in one pass each, any other value by ``_csv_field`` or ``_json``."""
    kinds = set(map(type, column))
    if kinds == {float}:
        return (map(format, column, repeat(".10g")) if fmt == "csv"
                else map(_json_float, column))
    return map(str if kinds == {int} else
               _csv_field if fmt == "csv" else _json, column)


def _encoded_rows(fmt: str, rows):
    """The cell texts of each row, encoded a column at a time in blocks of
    ``_BLOCK_ROWS`` rows, so that a streamed grid is never held whole."""
    rows = iter(rows)
    while block := list(islice(rows, _BLOCK_ROWS)):
        yield from zip(*[_encode_column(fmt, col) for col in zip(*block)])


def _json_rows(header: list[str], rows) -> str:
    """Row objects as ``_json`` nests them one level deep, with each key
    encoded once per table instead of once per row."""
    keys = ["      " + json.dumps(k) + ": " for k in header]
    objects = ["    {\n" + ",\n".join(map(str.__add__, keys, cells))
               + "\n    }" for cells in _encoded_rows("json", rows)]
    return "[\n" + ",\n".join(objects) + "\n  ]" if objects else "[]"


def _table(fmt: str, params: dict, header: list[str], rows,
           comments: list[str] | None = None,
           fields: dict | None = None) -> str:
    """The one writer of every subcommand's output.

    CSV: a parameter comment, ``comments``, the header and one line per row.
    JSON: ``_json({"params": params, **fields})``, where ``fields`` defaults
    to ``{"rows": rows}`` and the ``rows`` iterable stands for one object per
    row keyed by ``header``.  ``rows`` is read once, so it may be a generator.
    """
    if fmt == "json":
        fields = {"params": params,
                  **(fields if fields is not None else {"rows": rows})}
        return "{\n" + ",\n".join(
            "  " + json.dumps(key) + ": "
            + (_json_rows(header, rows) if value is rows else
               _json(value, "  "))
            for key, value in fields.items()) + "\n}\n"
    lines = ["# " + " ".join(k + "=" + _fmt(v) for k, v in params.items()),
             *(comments or []), ",".join(header),
             *map(",".join, _encoded_rows("csv", rows))]
    return "\n".join(lines) + "\n"


def parse_sections(spec: str) -> list[int]:
    """Accept 'lo..hi' of at most MAX_GRID_POINTS counts, a comma list
    'a,b,c', or a single integer."""
    spec = spec.strip()
    lo, dots, hi = spec.partition("..")
    try:
        values = [int(tok) for tok in ((lo, hi) if dots else spec.split(","))]
    except ValueError:
        values = []
    if not values or (dots and values[1] < values[0]):
        raise InvalidParameterError(f"cannot parse section spec {spec!r}")
    if dots:
        if values[1] - values[0] >= MAX_GRID_POINTS:
            raise InvalidParameterError(
                f"section range {spec!r} exceeds {MAX_GRID_POINTS} counts")
        values = list(range(values[0], values[1] + 1))
    if any(n < 1 for n in values):
        raise InvalidParameterError(f"section counts must be >= 1 in {spec!r}")
    return values


def inclusive_grid(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive arithmetic grid of at most MAX_GRID_POINTS; empty when
    hi < lo."""
    if not all(map(math.isfinite, (lo, hi, step))):
        raise InvalidParameterError(
            f"grid bounds and step must be finite, got {lo}, {hi}, {step}")
    if step <= 0:
        raise InvalidParameterError(f"grid step must be > 0, got {step}")
    if lo < 0:
        raise InvalidParameterError(f"grid start must be >= 0, got {lo}")
    if hi < lo:
        return []
    span = (hi - lo) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise InvalidParameterError(
            f"grid from {lo} to {hi} by {step} exceeds "
            f"{MAX_GRID_POINTS} points")
    count = int(math.floor(span)) + 1
    return [lo + i * step for i in range(count)]


def _load_config_file(path: str) -> dict:
    """Plain key=value file; keys alpha, eta, dark, vopt; '#' comments allowed."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise InvalidParameterError(
            f"{path}: config file is not UTF-8 text") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParameterError(
                f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise InvalidParameterError(
                f"{path}:{lineno}: unknown key {key!r} "
                f"(expected one of {sorted(_DEFAULTS)})")
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise InvalidParameterError(
                f"{path}:{lineno}: cannot parse value {value.strip()!r}") from None
    return values


def _resolve_params(args: argparse.Namespace) -> dict:
    """Defaults, overridden by the config file, overridden by flags."""
    params = dict(_DEFAULTS)
    if args.config:
        params.update(_load_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key)
        if flag is not None:
            params[key] = flag
    return params


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_visibility(args, params, channel, detector):
    sections = parse_sections(args.sections)
    grid = inclusive_grid(args.dmin, args.dmax, args.dstep)

    def rows():
        for n in (sections if grid else ()):
            link = model.kernel(n, channel, detector)[0]
            for d in grid:
                yield n, d, link(d)[4]

    return _table(args.format, params, ["n", "distance_km", "v_ab"],
                  rows()), 0


def _cmd_keyrate(args, params, channel, detector):
    sections = parse_sections(args.sections)
    for n in sections:
        check_reconciliation(n, args.reconciliation)
    rate_index = 1 if args.reconciliation == "reverse" else 0
    grid = inclusive_grid(args.dmin, args.dmax, args.dstep)

    def cell_rows():
        for n in (sections if grid else ()):
            cell = model.kernel(n, channel, detector)[1]
            for d in grid:
                link, (i_ab, i_ae, i_be, *_), rates = cell(d)
                yield n, d, rates[rate_index], i_ab, i_ae, i_be, link[3]

    rows = cell_rows()
    header = ["n", "distance_km", "rate_bits_per_pulse", "i_ab", "i_ae",
              "i_be", "p_total"]
    return _table(args.format, params, header, rows,
                  fields={"reconciliation": args.reconciliation,
                          "rows": rows}), 0


def _cmd_maxdist(args, params, channel, detector):
    sections = parse_sections(args.sections)
    rows = []
    for n in sections:
        d_exact = (optimize.max_distance_exact(n, channel, detector)
                   if args.method != "approx" else None)
        d_approx = (optimize.max_distance_approx(n, channel, detector)
                    if args.method != "exact" else None)
        rows.append((n, d_exact, d_approx))
    n_star, d_star = optimize.best_section_count(
        (n, e if e is not None else a) for n, e, a in rows)
    return _table(args.format, params,
                  ["n", "d_max_exact_km", "d_max_approx_km"], rows,
                  [f"# summary: n_star={n_star} d_max_km={_fmt(d_star)}"],
                  {"rows": rows,
                   "summary": {"n_star": n_star, "d_max_km": d_star}}), 0


def _make_line(args) -> DetectorLine:
    if args.line == "custom":
        if args.line_a is None or args.line_b is None:
            raise InvalidParameterError(
                "--line custom requires --line-a and --line-b")
        return DetectorLine(args.line_a, args.line_b, "custom")
    return DETECTOR_LINES[args.line]


def _cmd_detector_sweep(args, params, channel, detector):
    sections = parse_sections(args.sections)
    line = _make_line(args)
    eta_grid = inclusive_grid(args.eta_min, args.eta_max, args.eta_step)
    result = optimize.detector_sweep(args.distance, sections, line, eta_grid,
                                     channel=channel)
    rows = [(p.n_sections, p.eta, p.dark_prob, p.rate) for p in result.points]
    best = sorted(result.best_by_n.items())
    comments = [f"# best: n={n} eta={_fmt(p.eta)} dark_prob={_fmt(p.dark_prob)}"
                f" rate={_fmt(p.rate)}" for n, p in best]
    fields = {"line": {"name": line.name, "a_coeff": line.a_coeff,
                       "b_coeff": line.b_coeff},
              "distance_km": args.distance,
              "rows": rows,
              "best": {str(n): {"eta": p.eta, "dark_prob": p.dark_prob,
                                "rate": p.rate} for n, p in best}}
    return _table(args.format, params, ["n", "eta", "dark_prob", "rate"],
                  rows, comments, fields), 0


def _cmd_mc(args, params, channel, detector):
    relay = RelayConfig(args.sections, args.distance, channel, detector)
    trial = montecarlo.TrialConfig(relay, args.trials, args.seed,
                                   args.chunk_size)
    est = montecarlo.simulate(trial, workers=args.workers)
    lm = link_metrics(relay)
    scores, passed = montecarlo.verdict(est, lm.p_total, lm.v_ab)
    report = {
        "config": {"n_sections": args.sections, "distance_km": args.distance,
                   "trials": args.trials, "seed": args.seed,
                   "chunk_size": args.chunk_size},
        "analytic": {"p_total": lm.p_total, "v_ab": lm.v_ab},
        "estimate": {"accepted": est.accepted, "correct": est.correct,
                     "p_total_hat": est.p_total_hat, "v_ab_hat": est.v_ab_hat,
                     "se_p_total": est.se_p_total, "se_v_ab": est.se_v_ab},
        "z_scores": scores,
        "threshold": montecarlo.Z_THRESHOLD,
        "pass": passed,
        "generator": montecarlo.GENERATOR_METADATA,
    }
    return _table("json", params, [], [], fields=report), 0 if passed else 1


def _cmd_source_penalty(args, params, channel, detector):
    penalty = optimize.source_penalty(args.sources, args.emission_prob,
                                      channel.alpha_db_per_km)
    header = ["m_sources", "emission_prob", "rate_factor", "distance_loss_km"]
    row = (args.sources, args.emission_prob, penalty.rate_factor,
           penalty.distance_loss_km)
    return _table(args.format, params, header, [row],
                  fields=dict(zip(header, row))), 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("global options")
    group.add_argument("--alpha", type=float, default=None,
                       help="fibre loss in dB/km "
                            f"(default {DEFAULT_ALPHA_DB_PER_KM:g})")
    group.add_argument("--eta", type=float, default=None,
                       help=f"detector efficiency (default {DEFAULT_ETA:g})")
    group.add_argument("--dark", type=float, default=None,
                       help="dark-count probability per gate "
                            f"(default {DEFAULT_DARK_PROB:g})")
    group.add_argument("--vopt", type=float, default=None,
                       help="single-section optical visibility "
                            f"(default {DEFAULT_V_OPT:g})")
    group.add_argument("--config", metavar="PATH", default=None,
                       help="key=value file with alpha/eta/dark/vopt; "
                            "flags override the file")
    group.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="tabular output format (default csv)")
    group.add_argument("--out", metavar="PATH", default=None,
                       help="write output to PATH instead of stdout")

    parser = argparse.ArgumentParser(
        prog="qkdrelay",
        description="Secret-key rates, visibilities and operating-point "
                    "optimization for multi-section quantum relay QKD links.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("visibility", parents=[common],
                       help="visibility of Alice's bit at Bob over a "
                            "(sections, distance) grid")
    p.set_defaults(handler=_cmd_visibility)
    p.add_argument("--sections", default="1..10",
                   help="'lo..hi', 'a,b,c' or a single integer (default 1..10)")
    p.add_argument("--dmin", type=float, default=0.0)
    p.add_argument("--dmax", type=float, default=800.0)
    p.add_argument("--dstep", type=float, default=1.0)

    p = sub.add_parser("keyrate", parents=[common],
                       help="secret-key rate and mutual informations over a "
                            "(sections, distance) grid")
    p.set_defaults(handler=_cmd_keyrate)
    p.add_argument("--sections", default="1..20")
    p.add_argument("--dmin", type=float, default=0.0)
    p.add_argument("--dmax", type=float, default=700.0)
    p.add_argument("--dstep", type=float, default=1.0)
    p.add_argument("--reconciliation", choices=("forward", "reverse"),
                   default="forward",
                   help="reverse is only valid with --sections 1")

    p = sub.add_parser("maxdist", parents=[common],
                       help="maximum secret-key distance per section count")
    p.set_defaults(handler=_cmd_maxdist)
    p.add_argument("--sections", default="1..30")
    p.add_argument("--method", choices=("exact", "approx", "both"),
                   default="both")

    p = sub.add_parser("detector-sweep", parents=[common],
                       help="key rate across the detector efficiency/dark "
                            "tradeoff line at a fixed distance")
    p.set_defaults(handler=_cmd_detector_sweep)
    p.add_argument("--distance", type=float, default=400.0)
    p.add_argument("--sections", default="4,5,6")
    p.add_argument("--line", choices=(*DETECTOR_LINES, "custom"),
                   default="good")
    p.add_argument("--line-a", type=float, default=None,
                   help="custom line: dark probability at eta=0")
    p.add_argument("--line-b", type=float, default=None,
                   help="custom line: exponential slope")
    p.add_argument("--eta-min", type=float, default=0.02)
    p.add_argument("--eta-max", type=float, default=0.30)
    p.add_argument("--eta-step", type=float, default=0.01)

    p = sub.add_parser("mc", parents=[common],
                       help="Monte Carlo cross-check of p_total and v_ab "
                            "(JSON report; exits 1 when "
                            f"|z| > {montecarlo.Z_THRESHOLD:g})")
    p.set_defaults(handler=_cmd_mc)
    p.add_argument("--sections", type=int, default=1)
    p.add_argument("--distance", type=float, default=50.0)
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--chunk-size", type=int,
                   default=montecarlo.DEFAULT_CHUNK_SIZE)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("source-penalty", parents=[common],
                       help="rate factor and distance loss of imperfect "
                            "single-photon/pair sources")
    p.set_defaults(handler=_cmd_source_penalty)
    p.add_argument("--sources", type=int, required=True,
                   help="number of sources in the chain")
    p.add_argument("--emission-prob", type=float, default=0.1,
                   help="per-pulse emission probability (default 0.1)")

    return parser


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = _resolve_params(args)
        channel = ChannelParams(params["alpha"], params["vopt"])
        detector = DetectorParams(params["eta"], params["dark"])
        text, code = args.handler(args, params, channel, detector)
        _write_output(text, args.out)
    except (InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def run() -> None:
    raise SystemExit(main())
