"""``python -m tests.fingerprints --against SAVED`` compares a run with an
earlier output, pair by pair."""

from fingerprints import main, supported_pairs


def test_against_prints_same_moves_and_new(tmp_path, capsys):
    """A saved line without the ranks digest compares on its other fields."""
    assert main(["cp:none"]) == 0
    line = capsys.readouterr().out.strip()
    kind, penalty, digest, loss, reg, ranks = line.split()
    saved = tmp_path / "saved.txt"

    for same in (line, f"{kind} {penalty} {digest} {loss} {reg}"):
        saved.write_text(same + "\n")
        assert main(["--against", str(saved), "cp:none"]) == 0
        assert capsys.readouterr().out == "cp none same\n"

    saved.write_text(f"{kind} {penalty} {'0' * 40} {float(loss) / (1 - 1e-3)!r} {reg}\n")
    assert main(["--against", str(saved), "cp:none"]) == 1
    assert capsys.readouterr().out == f"cp none {digest} loss 1.0e-03 reg 0.0e+00\n"

    saved.write_text(f"{kind} {penalty} {digest} {loss} {reg} {'0' * 40}\n")
    assert main(["--against", str(saved), "cp:none"]) == 1
    assert capsys.readouterr().out == f"cp none {digest} loss 0.0e+00 reg 0.0e+00 ranks {ranks}\n"

    saved.write_text(f"distmult none {digest} {loss} {reg}\n")
    assert main(["--against", str(saved), "cp:none"]) == 1
    assert capsys.readouterr().out == "cp none new\n"


def test_supported_pairs_are_the_trainable_ones():
    """25 pairs: every kind with none, fro and er; n3 not on rescal or the
    distance kinds; dura not on the distance kinds."""
    pairs = supported_pairs()
    assert len(pairs) == 25 and pairs[:5] == ["cp:none", "cp:fro", "cp:n3", "cp:dura", "cp:er"]
    assert not {"rescal:n3", "transe:n3", "rotate:n3", "transe:dura", "rotate:dura"} & set(pairs)
