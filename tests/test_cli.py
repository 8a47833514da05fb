import io
import json
import os
import subprocess
import sys

import pytest

from conftest import dt, parse_fill, tb
from dominotab import canonical
from dominotab.cli import run
from dominotab.domino_tableaux import diagonal_reading
from dominotab.render import parse_canonical_header, render_ascii, render_latex
from dominotab.tableaux import PLAIN, SHIFTED, make_tableau


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


def test_verify_failure_prints_the_report_and_exits_1(monkeypatch, capsys):
    """A failed identity still prints every report, then exits 1."""
    from dominotab import verify
    from dominotab.polyring import Polynomial

    x1 = Polynomial(2, {(1, 0): 1})
    monkeypatch.setattr(verify, "domino_genfun", lambda family, lam, n: x1)
    code, out = invoke(capsys, "verify", "--family", "plain", "--shape", "[2,2]", "--vars", "2")
    assert code == 1
    assert out.startswith("FAIL plain [2,2] n=2 (") and " first_diff exps=" in out
    code, out = invoke(capsys, "verify", "--family", "plain", "--max-size", "4", "--vars", "2")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 12  # every partition of size 0 to 4
    assert {line.split()[0] for line in lines} == {"FAIL", "SKIP"}
    code, out = invoke(
        capsys, "verify", "--family", "plain", "--shape", "[2,2]", "--vars", "2",
        "--format", "canonical",
    )
    report = json.loads(out)
    assert code == 1 and report["status"] == "FAIL" and report["first_diff"] is not None


def test_usage_errors_exit_2(monkeypatch, capsys):
    import concurrent.futures

    from dominotab import verify
    from dominotab.cli import main

    def no_pool(*args, **kwargs):
        pytest.fail("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
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
    for jobs in ("0", "-3", str(verify.MAX_JOBS + 1)):
        assert main(
            ["verify", "--family", "plain", "--max-size", "2", "--vars", "2", "--jobs", jobs]
        ) == 2
    # Sizes above their limits: more variables than MAX_VARIABLES, and more
    # set fills than MAX_CANDIDATE_FILLS.
    assert main(["genfun", "--family", "plain", "--shape", "[2,1]", "--vars", "33"]) == 2
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
        # Booleans are not integers, and a variable count is not negative.
        ("render", '{"family":"plain","shape":[true],"rows":[[["1"]]]}'),
        ("render", '{"n":1,"terms":[{"exps":[true],"coeff":1}]}'),
        ("render", '{"terms":[],"n":-3}'),
        # Nesting too deep for the JSON parser.
        ("render", "[" * 100000 + "]" * 100000),
        ("merge", "[" * 100000 + "]" * 100000),
    ]
    for cmd, text in malformed:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main([cmd]) == 2, text
        assert capsys.readouterr().err.startswith("error: ")


def test_parse_rejects_bools_and_negative_n():
    for text in (
        '{"family":"plain","shape":[true],"rows":[[["1"]]]}',
        '{"shape":[true,true],"dominoes":[{"row":1,"col":1,"orient":"H"}]}',
        '{"n":1,"terms":[{"exps":[true],"coeff":1}]}',
        '{"terms":[],"n":-3}',
    ):
        with pytest.raises(ValueError):
            canonical.parse(text)


def test_huge_shape_parts_rejected_before_building_cells(monkeypatch, capsys):
    """Input whose dominoes cannot cover its shape exits 2 without listing
    the shape's cells."""
    from dominotab.cli import main

    def no_cells(shape):
        pytest.fail(f"cells({shape!r}) was built")

    monkeypatch.setattr("dominotab.pavings.cells", no_cells)
    for text in (
        '{"shape":[3000000],"dominoes":[]}',
        '{"family":"plain","shape":[1000000000],"dominoes":[]}',
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["render"]) == 2, text
        assert capsys.readouterr().err.startswith("error: ")


def test_shapes_past_the_cell_limit_exit_2_at_once(monkeypatch, capsys):
    """Every command that tiles, sums, lists or verifies a shape refuses one
    of more than MAX_CELLS cells before it builds a cell or starts a sum."""
    from dominotab import partitions, polyring, verify
    from dominotab.cli import main

    assert partitions.MAX_CELLS >= 3000  # the long shapes below must answer

    def no_run(*args):
        pytest.fail(f"a long run started on {args!r}")

    for target in ("dominotab.pavings.cells", "dominotab.tableaux.cells"):
        monkeypatch.setattr(target, no_run)
    monkeypatch.setattr(polyring, "_flat_transfer", no_run)
    monkeypatch.setattr(verify, "genfun", no_run)
    monkeypatch.setattr(verify, "domino_genfun", no_run)
    over = partitions.MAX_CELLS + 2
    for argv in (
        ["pavings", "--shape", "[200000]"],
        ["pavings", "--shape", f"[{over}]"],
        ["genfun", "--family", "plain", "--shape", "[2000000]", "--vars", "1", "--domino"],
        ["genfun", "--family", "plain", "--shape", "[20000]", "--vars", "1"],
        ["genfun", "--family", "shifted", "--shape", f"[{over // 2},{over // 2}]", "--vars", "1"],
        ["enumerate", "--family", "plain", "--shape", "[20000]", "--max-letter", "1"],
        ["enumerate", "--family", "plain", "--shape", "[20000]", "--max-letter", "1",
         "--kind", "domino"],
        ["verify", "--family", "plain", "--shape", "[20000]", "--vars", "1"],
        ["verify", "--family", "plain", "--shape", "[20001]", "--vars", "1"],  # no SKIP
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at most {partitions.MAX_CELLS} cells" in captured.err, argv


def test_the_cell_limit_is_inclusive(monkeypatch):
    from dominotab import partitions
    from dominotab.pavings import enumerate_pavings
    from dominotab.polyring import domino_genfun, genfun
    from dominotab.tableaux import PLAIN, enumerate_tableaux
    from dominotab.verify import verify_identity

    monkeypatch.setattr(partitions, "MAX_CELLS", 6)
    for shape, ok in (((4, 2), True), ((4, 2, 1), False)):
        for call in (
            lambda: enumerate_pavings(shape),
            lambda: genfun(PLAIN, shape, 2),
            lambda: enumerate_tableaux(PLAIN, shape, 2),
            lambda: verify_identity(PLAIN, shape, 2),
        ):
            if ok:
                call()
            else:
                with pytest.raises(ValueError, match="at most 6 cells, got 7"):
                    call()
    assert domino_genfun(PLAIN, (4, 2), 2).terms
    with pytest.raises(ValueError, match="at most 6 cells, got 8"):
        domino_genfun(PLAIN, (4, 2, 2), 2)


@pytest.mark.parametrize(
    "family,letters", [("set-valued", "3000000"), ("plain", "70000")]
)
def test_max_letter_past_the_fill_limit_exits_2(capsys, family, letters):
    """A --max-letter whose cell fills would outnumber MAX_CANDIDATE_FILLS
    is refused before any fill is built, with a message that names the
    letter count and the limit, in every family."""
    from dominotab.cli import main

    argv = ["enumerate", "--family", family, "--shape", "[1]", "--max-letter", letters]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"over {letters} letters" in captured.err and "limit 65535" in captured.err


@pytest.mark.parametrize("family", ["plain", "set-valued", "shifted", "shifted-set-valued"])
def test_both_listings_agree_on_the_empty_shape(capsys, family):
    """The empty shape fills no cell, yet both kinds read --max-letter as on
    any shape: past the fill limit both exit 2 with the same message, and
    over one letter both list the one empty tableau."""
    from dominotab.cli import main

    errors = set()
    for kind in ("tableau", "domino"):
        argv = ["enumerate", "--kind", kind, "--family", family, "--shape", "[]"]
        assert main([*argv, "--max-letter", "70000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.add(captured.err)
        assert main([*argv, "--max-letter", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and '"shape":[]' in out
    assert errors == {f"error: {family} fills over 70000 letters number more than the limit 65535\n"}


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


@pytest.mark.parametrize(
    "argv",
    [
        ["pavings", "--shape", "[1]"],
        ["enumerate", "--family", "plain", "--shape", "[1,1]", "--max-letter", "1"],
    ],
    ids=["pavings", "enumerate"],
)
def test_an_empty_listing_writes_nothing(tmp_path, capsys, argv):
    """A listing writes one canonical JSON per line, so zero items write
    nothing: empty standard output, and an empty file for --out."""
    assert run(argv) == 0
    assert capsys.readouterr() == ("", "")
    out = tmp_path / "out.jsonl"
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text() == ""


def test_long_shapes_answer(capsys):
    """A shape of 3,000 cells, 1,500 of them even: no search recurses once
    per cell or per domino."""
    code, out = invoke(capsys, "pavings", "--shape", "[3000]")
    assert code == 0 and len(out.strip().splitlines()) == 1
    code, out = invoke(
        capsys, "genfun", "--family", "plain", "--shape", "[3000]", "--vars", "1", "--domino"
    )
    assert code == 0 and out.strip() == "1 * x1^1500"
    code, out = invoke(
        capsys, "enumerate", "--family", "plain", "--shape", "[3000]", "--max-letter", "1",
        "--kind", "domino",
    )
    assert code == 0 and len(out.strip().splitlines()) == 1
    code, out = invoke(
        capsys, "enumerate", "--family", "plain", "--shape", "[3000]", "--max-letter", "1"
    )
    assert code == 0 and len(out.strip().splitlines()) == 1


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


def test_non_ascii_letters_exit_2(monkeypatch, capsys):
    from dominotab.cli import main

    for letter in ("\u00b2", "\u0663"):
        text = json.dumps({"family": "plain", "shape": [1], "rows": [[[letter]]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["render"]) == 2
        assert capsys.readouterr().err == f"error: bad letter: {letter!r}\n"


def test_shape_parts_must_be_ascii_digits(capsys):
    """A sign, an underscore, a non-ASCII digit or an empty part is not a
    part of ``[a,b,c]``."""
    from dominotab.cli import main

    for text in ("[+4, 2]", "[\u0663,1_0]", "[4,,2]"):
        assert main(["quotient", "--shape", text]) == 2, text
        assert capsys.readouterr().err == f"error: shape must look like [4,2,1]: {text!r}\n"
    assert main(["quotient", "--shape", " [ 4 , 2 ] "]) == 0
    assert capsys.readouterr().out.strip() == "([1],[2])"


def test_split_and_render_read_drawings(monkeypatch, capsys, plain_bijection_case):
    from dominotab.cli import main

    T, t1, t2 = plain_bijection_case
    for fmt in ("ascii", "latex"):
        monkeypatch.setattr("sys.stdin", io.StringIO(canonical.serialize(T)))
        assert main(["render", "--format", fmt]) == 0
        drawing = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO("\n  \n" + drawing))
        assert main(["render", "--format", fmt]) == 0
        assert capsys.readouterr().out == drawing
        monkeypatch.setattr("sys.stdin", io.StringIO(drawing))
        assert main(["split"]) == 0
        parts = json.loads(capsys.readouterr().out)
        assert [canonical.from_jsonable(p) for p in parts] == [t1, t2]
        headless = drawing.split("\n", 1)[1]
        for cmd in ("render", "split"):
            monkeypatch.setattr("sys.stdin", io.StringIO(headless))
            assert main([cmd]) == 2
            assert capsys.readouterr().err.startswith("error: ")


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


def test_out_flag_to_an_unwritable_path_exits_2(tmp_path, capsys):
    from dominotab.cli import main

    for dest in (tmp_path / "missing" / "q.txt", tmp_path):
        assert main(["quotient", "--shape", "[2,2]", "--out", str(dest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {dest}: "), err


def test_verify_sweep_above_the_size_limit_exits_2(capsys):
    from dominotab.cli import main

    argv = ["verify", "--family", "plain", "--max-size", "100000", "--vars", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: max size must be at most ")


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


def _src_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src, os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def test_closed_output_pipe_exits_quietly():
    # `enumerate ... | head -1`: 121 lines, 113 KB, more than a pipe buffer,
    # so the command is still writing when the reader closes the pipe.
    with subprocess.Popen(
        [sys.executable, "-m", "dominotab.cli", "enumerate", "--family", "plain",
         "--shape", "[20,20]", "--max-letter", "2", "--kind", "domino"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    ) as proc:
        assert proc.stdout.readline().startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 0
    assert b"Traceback" not in err, err.decode()


def test_package_imports_no_process_pool():
    # A fresh interpreter, since this session may have loaded the pool already:
    # only a parallel sweep imports it.
    code = (
        "import sys, dominotab, dominotab.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), check=True
    ).stdout
    assert out.strip() == "[]"


def test_package_imports_no_dataclasses_or_inspect():
    # A fresh interpreter, as above: the test session itself loads both.
    code = (
        "import sys, dominotab, dominotab.cli; "
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), check=True
    ).stdout
    assert out.strip() == "[]"


def test_listings_past_the_limit_exit_2(monkeypatch, capsys):
    """``enumerate`` of either kind exits 2 with an error past MAX_LISTED,
    one constant for every listing, above the longest list the tests, the
    README and the benchmark ask for (50,625 domino tableaux)."""
    from dominotab import domino_tableaux, partitions, pavings, tableaux
    from dominotab.cli import main

    assert (
        pavings.MAX_LISTED
        == tableaux.MAX_LISTED
        == domino_tableaux.MAX_LISTED
        == partitions.MAX_LISTED
        > 50_625
    )
    monkeypatch.setattr(tableaux, "MAX_LISTED", 1)
    monkeypatch.setattr(domino_tableaux, "MAX_LISTED", 1)
    argv = ["enumerate", "--family", "plain", "--shape", "[2,2]", "--max-letter", "3"]
    for kind in ("tableau", "domino"):
        assert main(argv + ["--kind", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: shape (2, 2) has more than 1 ")
