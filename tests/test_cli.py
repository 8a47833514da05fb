import io
import json

import pytest

from conftest import dt, tb
from dominotab import canonical
from dominotab.cli import run
from dominotab.domino_tableaux import diagonal_reading
from dominotab.render import parse_canonical_header, render_ascii, render_latex
from dominotab.tableaux import PLAIN, SHIFTED, make_tableau, parse_fill


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_quotient_command(capsys):
    code, out = invoke(capsys, "quotient", "--shape", "[4,2,2,1,1,1]")
    assert code == 0 and out.strip() == "([2,1],[1])"


def test_pavable_command(capsys):
    code, out = invoke(capsys, "pavable", "--shape", "[5,3,3,2,1]")
    assert code == 0 and out.strip() == "false"
    code, out = invoke(capsys, "pavable", "--shape", "[6,5,5,4]", "--family", "shifted")
    assert out.strip() == "true"


def test_inverse_quotient_command(capsys):
    code, out = invoke(capsys, "inverse-quotient", "--shape", "[2,1,1]", "--shape2", "[3,2]")
    assert code == 0 and out.strip() == "[6,4,4,2,1,1]"


def test_verify_command_exit_codes(capsys):
    code, out = invoke(capsys, "verify", "--family", "plain", "--shape", "[2,2]", "--vars", "3")
    assert code == 0 and out.startswith("PASS")
    code, out = invoke(capsys, "verify", "--family", "plain", "--max-size", "4", "--vars", "2")
    assert code == 0
    assert any(line.startswith("SKIP") for line in out.splitlines())


def test_usage_errors_exit_2(monkeypatch, capsys):
    from dominotab.cli import main

    assert main(["quotient", "--shape", "oops"]) == 2
    assert main(["verify", "--family", "plain", "--vars", "2"]) == 2
    assert main(["genfun", "--family", "nope", "--shape", "[1]", "--vars", "1"]) == 2
    assert main(["split", "--in", "/no/such/file.json"]) == 2
    # Sizes below their limits.
    assert main(["verify", "--family", "plain", "--shape", "[2,2]", "--vars", "0"]) == 2
    assert main(["verify", "--family", "plain", "--max-size", "-1", "--vars", "2"]) == 2
    assert main(["genfun", "--family", "plain", "--shape", "[1]", "--vars", "0"]) == 2
    assert main(
        ["enumerate", "--family", "plain", "--shape", "[1]", "--max-letter", "0"]
    ) == 2
    for jobs in ("0", "-3"):
        assert main(
            ["verify", "--family", "plain", "--max-size", "2", "--vars", "2", "--jobs", jobs]
        ) == 2
    # Sizes above their limits: more set fills than MAX_CANDIDATE_FILLS.
    assert main(["genfun", "--family", "set-valued", "--shape", "[1]", "--vars", "17"]) == 2
    assert main(
        ["enumerate", "--family", "shifted-set-valued", "--shape", "[2]",
         "--max-letter", "9", "--kind", "domino"]
    ) == 2
    # JSON that parses but has the wrong structure.
    malformed = [
        ("render", '{"dominoes":[{}],"shape":[2]}'),
        (
            "render",
            '{"family":"plain","shape":[2],'
            '"dominoes":[{"row":"1","col":1,"orient":"H","fill":["1"]}]}',
        ),
        ("render", '{"family":"plain","shape":[1],"rows":[[1]]}'),
        ("render", '{"family":["plain"],"shape":[1],"rows":[["1"]]}'),
        ("split", '{"family":"plain","shape":"[2]","dominoes":[]}'),
        ("merge", '[{"family":"plain","shape":[1]},{}]'),
        ("render", '{"n":2,"terms":[{"exps":[1,0]}]}'),
        # Nesting too deep for the JSON parser.
        ("render", "[" * 100000 + "]" * 100000),
        ("merge", "[" * 100000 + "]" * 100000),
    ]
    for cmd, text in malformed:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main([cmd]) == 2, text
        assert capsys.readouterr().err.startswith("error: ")


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["quotient", "--shape", "[2]", "--bogus"])
    assert exc.value.code == 2


def test_enumerate_and_pavings(capsys):
    code, out = invoke(capsys, "pavings", "--shape", "[2,2]")
    assert code == 0 and len(out.strip().splitlines()) == 2
    code, out = invoke(
        capsys, "enumerate", "--family", "plain", "--shape", "[2,1]", "--max-letter", "3"
    )
    assert code == 0 and len(out.strip().splitlines()) == 8


def test_split_merge_pipeline(tmp_path, capsys, plain_bijection_case):
    T, t1, t2 = plain_bijection_case
    src = tmp_path / "T.json"
    src.write_text(canonical.serialize(T))
    code, out = invoke(capsys, "split", "--in", str(src))
    assert code == 0
    parts = json.loads(out)
    assert canonical.from_jsonable(parts[0]) == t1
    assert canonical.from_jsonable(parts[1]) == t2
    pair = tmp_path / "pair.json"
    pair.write_text(out)
    code, out = invoke(capsys, "merge", "--in", str(pair))
    assert code == 0
    assert canonical.parse(out.strip()) == T


def test_genfun_command(capsys):
    code, out = invoke(
        capsys, "genfun", "--family", "set-valued", "--shape", "[2,1]", "--vars", "3",
        "--format", "canonical",
    )
    assert code == 0
    poly = canonical.parse(out.strip())
    assert poly.coeff((2, 1, 1)) == -3


def test_render_roundtrip(capsys, plain_example):
    ascii_art = render_ascii(plain_example)
    assert parse_canonical_header(ascii_art) == plain_example
    latex = render_latex(plain_example)
    assert parse_canonical_header(latex) == plain_example
    assert latex.splitlines()[-1] == r"\end{picture}"
    # Re-parse the header and confirm the drawn object still reads correctly.
    again = parse_canonical_header(ascii_art)
    assert str(diagonal_reading(again)) == "2 / 1,3 / 1,6 / 5"


def test_render_single_cell(capsys, tmp_path):
    t = make_tableau(PLAIN, (1,), [[parse_fill("1")]])
    src = tmp_path / "t.json"
    src.write_text(canonical.serialize(t))
    code, out = invoke(capsys, "render", "--in", str(src))
    lines = out.splitlines()
    assert lines[1] == "+---+"
    assert lines[2] == "| 1 |"
    assert lines[3] == "+---+"


def test_out_flag(tmp_path, capsys):
    dest = tmp_path / "q.txt"
    code, _ = invoke(capsys, "quotient", "--shape", "[2,2]", "--out", str(dest))
    assert code == 0 and dest.read_text().strip() == "([1],[1])"


def test_serialization_roundtrips_byte_identical(
    plain_example, set_valued_example, shifted_equivalent_triple, ssyt_t1
):
    from dominotab.polyring import genfun
    from dominotab.tableaux import SET_VALUED

    objects = [
        plain_example,
        set_valued_example,
        shifted_equivalent_triple[0],
        ssyt_t1,
        genfun(SET_VALUED, (2, 1), 2),
        plain_example.paving(),
    ]
    for obj in objects:
        text = canonical.serialize(obj)
        assert canonical.serialize(canonical.parse(text)) == text


def test_verify_canonical_output(capsys):
    code, out = invoke(
        capsys, "verify", "--family", "plain", "--shape", "[2,2]", "--vars", "2",
        "--format", "canonical",
    )
    data = json.loads(out)
    assert data["status"] == "PASS" and data["mu"] == [1] and data["nu"] == [1]
    assert data["lhs"] == data["rhs"]


def test_verify_jobs_flag(capsys):
    code, out = invoke(
        capsys, "verify", "--family", "plain", "--max-size", "4", "--vars", "2",
        "--jobs", "2",
    )
    assert code == 0
    assert out.splitlines()[0].endswith(")")
