"""Golden sha256 digests of CLI outputs for fixed seeds.

The pins say that a refactor keeps the same behaviour: every byte of
``rounds.csv``/``ledger.json`` from ``spinref pipeline`` in both modes and of
``analysis.json``/``parity_plan.csv`` from ``spinref analyze``.  A change that
is meant to alter these bytes re-pins them and says why.
"""

import hashlib

import pytest

from spinref import cli

PIPELINE = {
    # a phase-2 k = 7 round empties the shuffled blocks
    "blocks-3^12-eps0.25": (
        ["--mode", "shuffled-blocks", "--n", "531441", "--epsilon", "0.25"],
        {
            "rounds.csv": "d8db4a4d806e5c1397458bf18a8abda433beae6e5b47515dca648febd3186ae7",
            "ledger.json": "1d5ef9de53ffee51631f03277bc53d58b0174e1a0c6b23626c454dfb38cac324",
        },
    ),
    # phase 2 runs k = 3 then k = 7
    "blocks-3^11-eps0.01": (
        ["--mode", "shuffled-blocks", "--n", "177147", "--epsilon", "0.01"],
        {
            "rounds.csv": "57be96a46e3a48c28893f6d4087ebeb4790b57ebf4b754925bc04cce77ab2d95",
            "ledger.json": "c534bba45f094875752ed5772827e3531d0db178c28f3ebde429c9fbcf2a408f",
        },
    ),
    # not a cube: uniform initial permutation and a short last block
    "blocks-50000-markov-eps0.2": (
        ["--mode", "shuffled-blocks", "--n", "50000", "--model", "markov",
         "--epsilon", "0.2"],
        {
            "rounds.csv": "dccce1daf22d682909bcca2d3c40457edaa8686a01c4135575c768956613186f",
            "ledger.json": "8b058df6afbbd3be5fb51f1082a9c9923e4116ef992131ecf16a44c84f89a3df",
        },
    ),
    "direct-1e5-eps0.05-2trials": (
        ["--mode", "binomial-direct", "--n", "100000", "--epsilon", "0.05",
         "--trials", "2"],
        {
            "rounds.csv": "15cbb951ce0615964b04cfe273ccad7ad1fb50fad2bb380ed0775db2b5f0022f",
            "ledger.json": "d50aa971d07a00b745b87d8e06e1a583f15eeaa6e70c137c6d9dee7d37e3fcf5",
        },
    ),
}

ANALYZE = {
    "1e6-eps0.009985": (
        ["--n", "1000000", "--epsilon", "0.009985"],
        {
            "analysis.json": "d215395b1a212cd0003967d39838e92c96f734988b39b705201253a63b918dc7",
            "parity_plan.csv": "7872d6923188dbda25bfd2edda01eeb79719f2102be459989e5f2294ce30a472",
        },
    ),
    "1e6-eps0.25": (
        ["--n", "1000000", "--epsilon", "0.25"],
        {
            "analysis.json": "10483c6d19ceed362b9827c363045de809a0c3db215cb4a165049bc21b247c71",
            "parity_plan.csv": "58661bc69372e76b9368456ed628c0e6ab7bf1b2de166294413074e20d703d2e",
        },
    ),
}


def _digests(tmp_path, argv, names):
    assert cli.main(argv + ["--out", str(tmp_path)]) == cli.EXIT_OK
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("case", sorted(PIPELINE))
def test_pipeline_golden(tmp_path, case):
    flags, pins = PIPELINE[case]
    assert _digests(tmp_path, ["pipeline", "--seed", "3"] + flags, pins) == pins


@pytest.mark.parametrize("case", sorted(ANALYZE))
def test_analyze_golden(tmp_path, case):
    flags, pins = ANALYZE[case]
    assert _digests(tmp_path, ["analyze"] + flags, pins) == pins
