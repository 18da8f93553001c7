"""``python -m tests.fingerprints --against SAVED`` compares a run with an
earlier output, pair by pair."""

from fingerprints import main


def test_against_prints_same_moves_and_new(tmp_path, capsys):
    assert main(["cp:none"]) == 0
    line = capsys.readouterr().out.strip()
    kind, penalty, digest, loss, reg = line.split()
    saved = tmp_path / "saved.txt"

    saved.write_text(line + "\n")
    assert main(["--against", str(saved), "cp:none"]) == 0
    assert capsys.readouterr().out == "cp none same\n"

    saved.write_text(f"{kind} {penalty} {'0' * 40} {float(loss) / (1 - 1e-3)!r} {reg}\n")
    assert main(["--against", str(saved), "cp:none"]) == 1
    assert capsys.readouterr().out == f"cp none {digest} loss 1.0e-03 reg 0.0e+00\n"

    saved.write_text(f"distmult none {digest} {loss} {reg}\n")
    assert main(["--against", str(saved), "cp:none"]) == 1
    assert capsys.readouterr().out == "cp none new\n"
