"""Golden outputs: the sha256 of the primary output of twenty-two
commands.

The digests were taken from the program before field elements were
interned, those of the q = 8 code before codewords were packed, and
those of the second test before subspaces kept int rows, and those of
the two non-empty ``quadrics through`` answers before the conditions
were inserted element by element, and those of the last test before
imaginary elements were read off minimal polynomials, so a change
meant only to make the program faster that alters a single byte of
these outputs fails here.  A change that alters output on purpose
updates the digest and says why.  The h = 3 code and the (3, 2, 4) arc
were pinned when the osculating rows became Hasse derivatives: the
order-2 row is half the ordinary one, so the code's columns changed,
and the arc, with p = 2 below h, was refused before.  The three
``verify-arc --json`` reports were pinned again when curve-built
families came to be decided by their binary forms: each report gained
``decided_by``, "forms", and its ``subsets_walked`` and ``orbits`` are 0,
since nothing is walked; the verdicts are unchanged, and the text output
of the repeated-element refutation is byte-identical.  They were pinned
once more when the walk stopped using the curve's group: the ``orbits``
key, which counted the group's orbits on the elements, was dropped,
since with no group it was always the number of elements on the walk
and 0 on the forms; nothing else in the reports changed.
"""

import hashlib
import json

from pseudoarcs import jsonio
from pseudoarcs.cli import main
from pseudoarcs.gf import tower
from pseudoarcs.nrc import nrc_points
from pseudoarcs.projgeo import Subspace

GOLDEN = {
    "construct-arc":
        "f6c268936020f7a3e1778e3b3a6c8421390c7be6f3c553f11f1fb528ace92e1f",
    "verify-arc":
        "7f636181027d31f4dbf5edbe0a0a3beadc6442d882525cc35bb86aacd12a2a44",
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
    "verify-arc-repeated":
        "4b8636d1f9e98120aa1ad13d0e53cfe666b01cea9e73e922ec850424d27cd43e",
    "construct-arc-q9":
        "b3d4dd4228fdffb609952f467e3eb74467930a1c5a238f4db2236dd1df0b0244",
    "verify-arc-q9":
        "2a224c4abd175a6517b24727521e3017591781eb3eec8b6e26bb96ac07144142",
    "construct-arc-h3":
        "9a951467704510bf0863e796975a376c49190fd06d5d2829918ec2503b2ba166",
    "verify-arc-h3":
        "24a98b2bc55f5afaea3d9d765bd1ac30f8969acd89d6107092d2f962ef105b09",
    "certify-ci-curve":
        "3496411872f51b76a1d16c26608f6fb87e80b6912423700c786c767d443446e0",
    "quadrics-through-curve":
        "ab3166e16b2e0d6150bca94b947c2499f6dad0a1ef9115d46484b6527fb39228",
    "quadrics-through-k3q4":
        "f5a7a6967bd6f6714bf415b8a2bee95dec66a2c046ce4442abfc65e88bfdef14",
    "construct-arc-k3q8":
        "9e665d83d84538de4290569dd5de678832d0b7e77399c03e6b9088f455c7f701",
    "construct-arc-q16":
        "e1354e0e3c98c03fe30e92d2c785afa3b9500d1bda27c8726512f71d27e1baea",
    "construct-arc-h4":
        "8cb1d0bdb80942c837a06ca16606bc6d488343ad3b1ea435702cbd5361a126ac",
    "construct-arc-h5q2":
        "3c819a3ba5a14359282dd3e93fc36dce97835c5f38c0301c530477e29932cfa9",
    "construct-arc-h3q4":
        "39e25f7a5ce80251bff0eae79feee39a46600cdbcb891a98f1d21e0d6a7d6bfc",
    "code-gen-h3":
        "b677c276b0b0c611edd79934cb4a0705ae3924c0b1d57a622b7042b5b143d970",
}


def _stdout(capsys, *argv, status=0):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == status, out
    return out


def _check(out):
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in out.items()}
    assert digests == {name: GOLDEN[name] for name in out}


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
    # h = 3: the only golden code with a Hasse row of order 2
    out["code-gen-h3"] = _stdout(capsys, "code", "gen", "--h", "3", "--k", "2",
                                 "--q", "5", "--extend")
    out["verify-example"] = _stdout(capsys, "verify-example", "--json")
    out["quadrics-through"] = _stdout(capsys, "quadrics", "through",
                                      str(arc_path), "--json")
    _check(out)


def test_refutation_and_larger_fields_match_golden_digests(capsys, tmp_path):
    out = {}
    # text-mode refutation of a repeated element: the path that prints the
    # rank of the witness and the common points of the pair
    doc = json.loads(_stdout(capsys, "construct-arc", "--h", "2", "--k", "2",
                             "--q", "7", "--extend"))
    doc["elements"].insert(1, doc["elements"][0])
    doc["tags"].insert(1, doc["tags"][0])
    repeated = tmp_path / "repeated.json"
    repeated.write_text(jsonio.dumps(doc))
    out["verify-arc-repeated"] = _stdout(capsys, "verify-arc", str(repeated),
                                         "--k", "2", status=1)
    # q = 9: odd p over a degree-2 base field; h = 3 at q = 7
    for name, h, q in (("q9", "2", "9"), ("h3", "3", "7")):
        arc = _stdout(capsys, "construct-arc", "--h", h, "--k", "2", "--q", q,
                      "--extend")
        out["construct-arc-" + name] = arc
        path = tmp_path / ("arc-%s.json" % name)
        path.write_text(arc)
        out["verify-arc-" + name] = _stdout(capsys, "verify-arc", str(path),
                                            "--k", "2", "--json")
    # the twisted cubic of PG(3, 7) against the forms through it
    tow = tower(7, 1, 1)
    curve = tmp_path / "curve.json"
    curve.write_text(jsonio.dumps(jsonio.subspaces_to_dict(
        [Subspace(tow.base, 4, [list(p.coords)]) for p in nrc_points(tow.base, 4)],
        tow)))
    forms = tmp_path / "forms.json"
    out["quadrics-through-curve"] = _stdout(capsys, "quadrics", "through",
                                            str(curve), "--json")
    forms.write_text(out["quadrics-through-curve"])
    out["certify-ci-curve"] = _stdout(capsys, "quadrics", "certify-ci",
                                      str(curve), str(forms), "--json")
    # the imaginary (2,3,4) arc lies on 4 independent quadrics, so the
    # conditions never reach full rank
    arc = tmp_path / "arc-k3q4.json"
    arc.write_text(_stdout(capsys, "construct-arc", "--h", "2", "--k", "3",
                           "--q", "4"))
    out["quadrics-through-k3q4"] = _stdout(capsys, "quadrics", "through",
                                           str(arc), "--json")
    _check(out)


def test_construct_arc_over_more_towers_matches_golden_digests(capsys):
    # p = 2 with e = 3 and k = 3, e = 4, h = 4, and h = 5 and h = 3 above p
    out = {}
    for name, h, k, q, extend in (("k3q8", "2", "3", "8", ["--extend"]),
                                  ("q16", "2", "2", "16", ["--extend"]),
                                  ("h4", "4", "2", "5", ["--extend"]),
                                  ("h5q2", "5", "2", "2", []),
                                  ("h3q4", "3", "2", "4", ["--extend"])):
        out["construct-arc-" + name] = _stdout(
            capsys, "construct-arc", "--h", h, "--k", k, "--q", q, *extend)
    _check(out)
