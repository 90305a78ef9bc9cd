"""Byte-for-byte golden outputs of every subcommand, in CSV and JSON.

The digests were frozen from the release that preceded the fused model
evaluation and the single table writer.  A changed byte is a regression to
fix, not a digest to update.
"""
import hashlib

import pytest

from qkdrelay.cli import main

CASES = {
    "visibility": ["visibility", "--sections", "1..3", "--dmin", "0",
                   "--dmax", "40", "--dstep", "7.5"],
    "visibility-empty": ["visibility", "--dmin", "10", "--dmax", "0"],
    "keyrate": ["keyrate", "--sections", "1..5", "--dmin", "0",
                "--dmax", "300", "--dstep", "37.5"],
    "keyrate-reverse": ["keyrate", "--sections", "1", "--reconciliation",
                        "reverse", "--dmax", "200", "--dstep", "25"],
    "keyrate-degenerate": ["keyrate", "--dark", "0", "--sections", "2..3",
                           "--dmin", "12000", "--dmax", "14000",
                           "--dstep", "1000"],
    "maxdist": ["maxdist", "--sections", "1..6", "--method", "both"],
    "maxdist-approx": ["maxdist", "--sections", "1..3", "--method", "approx",
                       "--vopt", "0.9"],
    "maxdist-inf": ["maxdist", "--alpha", "1e-9", "--sections", "1"],
    "detector-sweep": ["detector-sweep", "--distance", "400", "--sections",
                       "1,4,5", "--line", "normal", "--eta-min", "0.05",
                       "--eta-max", "0.3", "--eta-step", "0.05"],
    "source-penalty": ["source-penalty", "--sources", "2",
                       "--emission-prob", "0.3"],
    "mc": ["mc", "--sections", "3", "--distance", "40", "--trials", "10000",
           "--seed", "7"],
    "mc-nothing-accepted": ["mc", "--sections", "4", "--distance", "200",
                            "--trials", "10000", "--seed", "2"],
}

DIGESTS = {
    ('visibility', 'csv'):
        "713a49a6e7c3909341cf4460eaffba47881e482dc07a98317b6e63a4fdd7e713",
    ('visibility', 'json'):
        "2d150cf0cb9784580104922002f8776f1f2309d3344bc067800214c00294a1e1",
    ('visibility-empty', 'csv'):
        "6f10ef08c3b236dac5ad80cbfc6a41f6c490c353c16faaf4189a7e7328fc779d",
    ('visibility-empty', 'json'):
        "44c51593237bc064882bd66d2c44f84e1317bfd35007c492afd48a40f7bcf04e",
    ('keyrate', 'csv'):
        "b81bda16c3a922f1fbd68cdbc7ace5f30c2561b637aa1e2fc1b9725531c123d2",
    ('keyrate', 'json'):
        "e513bfb8b98b14116cb2532f0efab1d039b5505c120fbe3de5ae591b4e91851d",
    ('keyrate-reverse', 'csv'):
        "0d10ccc9ade747433e2523265cc05985e103f29b1f5d3dbf840c1e7094a6f052",
    ('keyrate-reverse', 'json'):
        "a31efb716455f09d1f7f393d71eed84ef869558ee8e31df57e0ebfd0082d6e36",
    ('keyrate-degenerate', 'csv'):
        "0796aa9f41679750010a25c6d7efc9376ad7e2ddf51af54ab97e20952f740e5e",
    ('keyrate-degenerate', 'json'):
        "8d57beff49c9e90b5ddee4dcd116485d86bc05046775ad8f41307ef5574b42e4",
    ('maxdist', 'csv'):
        "cefc38a15f1d282b959d6674d4352cc1c57eae11aa05299f57c87b73e872816e",
    ('maxdist', 'json'):
        "8444d252c5548a8fb420c9dd273715c21e5b0e4411db4fe60aa37b6165ff414e",
    ('maxdist-approx', 'csv'):
        "d32ea3ad888ee313400b592454cd0ab932723df1b1e4f04491a26de4ef4a7d15",
    ('maxdist-approx', 'json'):
        "456d0e612442509371ca9ae8458c00e038954a3a9a2c88cd39c7f1c6452e3cd1",
    ('maxdist-inf', 'csv'):
        "17d721dd9f197e819e5c62924e2e80a10ac4e2f9e776e5ca7f2d6c47a93c7253",
    ('maxdist-inf', 'json'):
        "28b79b0c7aa98dcd04c506b9ffa914250114b8b9c3ca0415b47ac2cadc423685",
    ('detector-sweep', 'csv'):
        "19874a77e23e92f6b6e862838dcd1dc1615e22adb0604f0f2bb150123524027c",
    ('detector-sweep', 'json'):
        "a43ccada461fd8ccb8a2d8c63e70ee2b70ebb6a7a9be7652962c087aef1365f1",
    ('source-penalty', 'csv'):
        "4c48133320b8a9c035d559ce6e9e439772365c0e0ba14277de6b639b7f82f332",
    ('source-penalty', 'json'):
        "8bbc57ff44838fde9b909d5702a9291817d54d49a38521cc4cba9898ad691211",
    ('mc', 'json'):
        "e8f9aef6e8e214226f47fffe5d5c6a4ce3e2b9a5bb0a09a807681c24314e4470",
    ('mc-nothing-accepted', 'json'):
        "530da948b07a890253c7c1d1190da64b5723947ea5d61ee589bcd77a816daf70",
}


@pytest.mark.parametrize("case,fmt", sorted(DIGESTS))
def test_output_matches_frozen_digest(case, fmt, tmp_path):
    out = tmp_path / f"{case}.{fmt}"
    code = main(CASES[case] + ["--format", fmt, "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[case, fmt]
