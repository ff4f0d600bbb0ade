"""Golden outputs: the sha256 of the primary output of eight commands.

The digests were taken from the program before field elements were
interned, and those of the q = 8 code before codewords were packed, so
a change meant only to make the program faster that alters a single
byte of these outputs fails here.  A change that alters output on
purpose updates the digest and says why.
"""

import hashlib

from pseudoarcs.cli import main

GOLDEN = {
    "construct-arc":
        "f6c268936020f7a3e1778e3b3a6c8421390c7be6f3c553f11f1fb528ace92e1f",
    "verify-arc":
        "19fbd39a96e4e196f29f36fcde62e925ff9526fcb9479c41f0405f59d9827dc0",
    "code-gen":
        "f32411c976281a955c8fc6539628f9ad70f1b18ceed08d09e852938dc4e7b5a1",
    "code-distance":
        "e9bc9c4858cf657a5a71e8c59f0360a8e0d7ba566c97c748a24f2d8fe5750079",
    "code-gen-q8":
        "42386271be5ce1e5d296e662b475904631fcc7b43cb567d358babdb11f6b8d07",
    "code-distance-q8":
        "4e557927c8898c2b9449a920266a143635e2e8588c432d2a33becb866e1cec7e",
    "verify-example":
        "eea053630519e31b1a3cc67436f1fa7fae0539fb3fcfc1a61cedf96b5f3085b6",
    "quadrics-through":
        "0f9bf1e73580a1fcdeddc4c1b7342ee7a9ca8bcb3e7e5c8d9b66554e371b4c44",
}


def _stdout(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return out


def test_primary_outputs_match_golden_digests(capsys, tmp_path):
    out = {}
    arc = _stdout(capsys, "construct-arc", "--h", "2", "--k", "2", "--q", "7",
                  "--extend")
    out["construct-arc"] = arc
    arc_path = tmp_path / "arc.json"
    arc_path.write_text(arc)
    out["verify-arc"] = _stdout(capsys, "verify-arc", str(arc_path), "--k", "2",
                                "--json")
    code = _stdout(capsys, "code", "gen", "--h", "2", "--k", "2", "--q", "7",
                   "--extend")
    out["code-gen"] = code
    code_path = tmp_path / "code.json"
    code_path.write_text(code)
    out["code-distance"] = _stdout(capsys, "code", "distance", str(code_path),
                                   "--json")
    # p = 2: the only golden distance over a binary top field
    code = _stdout(capsys, "code", "gen", "--h", "2", "--k", "2", "--q", "8",
                   "--extend")
    out["code-gen-q8"] = code
    code_path = tmp_path / "code-q8.json"
    code_path.write_text(code)
    out["code-distance-q8"] = _stdout(capsys, "code", "distance",
                                      str(code_path), "--json")
    out["verify-example"] = _stdout(capsys, "verify-example", "--json")
    out["quadrics-through"] = _stdout(capsys, "quadrics", "through",
                                      str(arc_path), "--json")
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in out.items()}
    assert digests == GOLDEN
