"""Byte-identity of the CLI and of converge() on the benchmark's seed-419 decks.

Every op of the classify, basin and lattice decks and their probes, built by
bench/gen.py in a temporary directory, must give the exit code, stdout and
stderr recorded in tests/golden_cli.json, and every op of the orbit deck the
same dynamics.converge result, to the bit (see tests/golden.py, which
regenerates it).  A change that alters output on purpose, such as a new
sampling stream, regenerates the file and lists in CHANGES.md which ops
changed and why.  The digests also pin numpy's Philox stream (basin samples),
the last bits of numpy's array arithmetic (mat_exp of --exp inputs, the
basin resolver) and those of Python's scalar arithmetic and float
formatting (classify payloads, orbit limits): a numpy upgrade that changes
either shows here as failing basin or classify ops with unchanged lattice
ops, and the change that takes the upgrade regenerates the file and
records it in CHANGES.md.
"""

import json

import golden


def test_cli_outputs_match_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("CP2LAB_TOL", raising=False)
    expected = json.loads(golden.GOLDEN_FILE.read_text())
    assert expected["seed"] == golden.SEED
    got = golden.digests(tmp_path)
    assert [e[:2] for e in got] == [e[:2] for e in expected["ops"]], "the decks changed"
    changed = golden.changed_ops(got, expected["ops"])
    assert not changed, f"{len(changed)} of {len(got)} ops changed output: {changed[:10]}"


def test_diff_lists_the_ops_whose_digest_changed():
    expected = [["classify", "classify a.json", "d1"], ["orbit", "converge b.json 0", "d2"]]
    got = [["classify", "classify a.json", "d1"], ["orbit", "converge b.json 0", "d3"]]
    assert golden.changed_ops(got, expected) == ["orbit: converge b.json 0"]


def test_diff_exits_1_exactly_when_a_digest_changed(monkeypatch, capsys):
    expected = json.loads(golden.GOLDEN_FILE.read_text())["ops"]
    monkeypatch.setattr(golden, "digests", lambda root: [list(e) for e in expected])
    assert golden.main(["--diff"]) == 0
    assert capsys.readouterr().out.endswith(f"0 of {len(expected)} ops changed\n")
    changed = [list(e) for e in expected]
    changed[3][2] = "0" * 64
    monkeypatch.setattr(golden, "digests", lambda root: changed)
    assert golden.main(["--diff"]) == 1
    assert capsys.readouterr().out == \
        f"{changed[3][0]}: {changed[3][1]}\n1 of {len(expected)} ops changed\n"
