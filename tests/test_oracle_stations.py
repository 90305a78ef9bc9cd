"""The closed-form model against the detector-level station enumeration."""
import ast
from pathlib import Path

import numpy as np
import pytest

import oracle_stations as oracle
import reference as ref
from qkdrelay import RelayConfig, evaluate


def model_values(cfg):
    lm, im, _ = evaluate(cfg)
    return {"p_click": lm.p_click, "p_total": lm.p_total,
            "p_signal": lm.p_signal, "v_ab": lm.v_ab,
            "p_photonpass": im.p_photonpass}


def worst_relative_error(cfg):
    want = oracle.chain(cfg)
    got = model_values(cfg)
    return max(abs(got[k] - want[k]) / abs(want[k]) for k in want)


def test_enumeration_imports_nothing_from_the_model():
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any("model" in name.split(".") for name in names), \
            ast.unparse(node)


@pytest.mark.parametrize("s", [1.0, 0.3, 1e-4])
def test_bell_station_resolves_half_the_bell_states_without_darks(s):
    accepted, genuine = oracle.bell_station(s, 0.0)
    assert accepted == genuine == pytest.approx(0.5 * s * s, rel=1e-15)


def test_model_matches_enumeration_on_random_configs():
    rng = np.random.default_rng(1)
    checked = 0
    for dark_zero, count in ((False, 1500), (True, 500)):
        for _ in range(count):
            cfg = ref.random_config(rng, dark_zero=dark_zero)
            if evaluate(cfg)[0].p_total == 0.0:
                continue
            assert worst_relative_error(cfg) <= 1e-12, cfg
            checked += 1
    assert checked >= 1000


def test_model_matches_enumeration_at_the_headline_point():
    # the paper's optimum: 18 sections near 650 km, p_total about 6e-29
    cfg = RelayConfig(18, 648.0)
    assert worst_relative_error(cfg) <= 1e-12
    assert oracle.chain(cfg)["p_total"] == pytest.approx(5.669e-29, rel=1e-3)
