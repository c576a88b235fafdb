import argparse
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("op_digests", _ROOT / "tools" / "op_digests.py")
op_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(op_digests)


def test_seeds_parse_one_seed_or_an_inclusive_range():
    assert op_digests._seeds("7") == range(7, 8)
    assert op_digests._seeds("0-2") == range(0, 3)


@pytest.mark.parametrize("text", ["", "a", "0-x", "3-1", "1-2-3"])
def test_seeds_reject_malformed_or_empty_ranges(text):
    with pytest.raises(argparse.ArgumentTypeError):
        op_digests._seeds(text)


def test_differing_names_changed_failed_and_one_sided_ops():
    parent = {"a": [["0x1.0p+0"]] * 2, "b": [["0x1.0p+0"]] * 2, "c": [["error", "CheckMiss"]] * 2}
    change = {"a": [["0x1.0p+0"]] * 2, "b": [["0x1.0p+0"], ["0x1.0000000000001p+0"]],
              "c": [["0x1.0p+0"]] * 2, "d": [["0x1.0p+0"]] * 2}
    assert op_digests.differing(parent, change) == ["b", "c", "d"]
    assert op_digests.differing(parent, parent) == []


def test_largest_rel_diff_reads_hex_floats_and_reprs():
    one, next_up = ["0x1.0p+0", "3378"], ["0x1.0000000000001p+0", "3378"]
    assert op_digests.largest_rel_diff([one, one], [one, one]) == 0.0
    assert op_digests.largest_rel_diff([one, one], [one, next_up]) == 2.0**-52 / (1.0 + 2.0**-52)
    assert op_digests.largest_rel_diff([["0x1.0p+0", "3378"]], [["0x1.0p+0", "3380"]]) == 2.0 / 3380.0
    assert op_digests.largest_rel_diff([["-0x1.8p+1"]], [["-0x1.0p+1"]]) == 1.0 / 3.0
    inf = float("inf")
    # an error, a missing pass or op, and a value against zero are no relative difference
    assert op_digests.largest_rel_diff([["error", "CheckMiss"]], [one]) == inf
    assert op_digests.largest_rel_diff([one], [one, one]) == inf
    assert op_digests.largest_rel_diff(None, [one]) == inf
    assert op_digests.largest_rel_diff([["0x0.0p+0"]], [["0x1.0p-1074"]]) == 1.0
    assert op_digests.largest_rel_diff([["'a'"]], [["'b'"]]) == inf
    assert op_digests.largest_rel_diff([["error", "CheckMiss"]], [["error", "CheckMiss"]]) == 0.0


def test_main_prints_the_largest_relative_difference(monkeypatch, capsys):
    sides = {"parent": {"a": [["0x1.0p+0"]] * 2, "b": [["0x1.0p+1"]] * 2},
             "change": {"a": [["0x1.0p+0"]] * 2, "b": [["0x1.0p+1"], ["0x1.0000000000001p+1"]]}}
    monkeypatch.setattr(op_digests, "digests", lambda checkout, workload, seed: sides[checkout.name])
    status = op_digests.main(["parent", "change", "--workload", "geometry", "--seeds", "4"])
    out = capsys.readouterr().out.splitlines()
    assert status == 1
    assert out[0] == "seed 4: b" and out[3] == "  largest relative difference: 2.22e-16", out
    assert out[-1].startswith("1 differing of 2 ops over 1 seeds") and out[-1].endswith(
        "largest relative difference 2.22e-16"), out


def test_a_checkout_against_itself_differs_nowhere(capsys):
    # two fresh interpreters on this checkout, two passes each
    assert op_digests.main([str(_ROOT), str(_ROOT), "--workload", "geometry", "--seeds", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("0 differing of "), out
