"""The CLI's JSON encoder against the standard library's, on random values."""
import json
import math
import random

from qkdrelay.cli import _fmt, _json, _json_rows

EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, 1e-310, 1e16, -1e16,
               9.9999999995e-5, 1.7976931348623157e308, 0.1, 1.0, -2.5]
KEY_CHARS = 'ab"\\/\n\té€😀 '


def reference(obj):
    """Floats rounded to 10 significant digits, then None if not finite: what
    ``json.dumps`` must be given to write the CLI's JSON."""
    if isinstance(obj, float):
        obj = float(_fmt(obj))
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference(v) for v in obj]
    return obj


def random_key(rng):
    return "".join(rng.choice(KEY_CHARS) for _ in range(rng.randrange(4)))


def random_scalar(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return rng.choice(EDGE_FLOATS)
    if kind == 1:
        return math.ldexp(rng.uniform(-1.0, 1.0), rng.randrange(-1074, 1024))
    if kind == 2:
        return rng.uniform(-1e3, 1e3)
    if kind == 3:
        return rng.choice([0, -1, 7, 2**63, -(10**30),
                           rng.randrange(-10**6, 10**6)])
    if kind == 4:
        return rng.choice([True, False, None])
    return random_key(rng)


def random_value(rng, depth):
    kind = rng.randrange(4) if depth < 3 else 0
    if kind == 0:
        return random_scalar(rng)
    size = rng.randrange(4)
    if kind == 1:
        return {random_key(rng): random_value(rng, depth + 1)
                for _ in range(size)}
    values = [random_value(rng, depth + 1) for _ in range(size)]
    return tuple(values) if kind == 2 else values


def test_json_matches_json_dumps_on_random_nested_values():
    rng = random.Random(20240611)
    for _ in range(12_000):
        obj = random_value(rng, 0)
        pad = rng.choice(["", "  ", "    "])
        want = json.dumps(reference(obj), indent=2).replace("\n", "\n" + pad)
        assert _json(obj, pad) == want, obj


def test_json_rows_matches_json_dumps_of_row_objects():
    rng = random.Random(97)
    for _ in range(2_000):
        header = list(dict.fromkeys(random_key(rng)
                                    for _ in range(rng.randrange(1, 6))))
        rows = [tuple(random_scalar(rng) for _ in header)
                for _ in range(rng.randrange(4))]
        want = json.dumps(reference([dict(zip(header, row)) for row in rows]),
                          indent=2).replace("\n", "\n  ")
        assert _json_rows(header, rows) == want, rows
