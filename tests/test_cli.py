import json

import pytest

from stringcone.cli import RunConfig, _cmd_verify, main, parse_args
from stringcone.polyhedra import parse_h_rep


def test_parse_round_trip():
    config = RunConfig(type_label="B", rank=2, w0_word=(2, 1, 2, 1),
                       lam=(1, 1), level_bound=3)
    command, parsed = parse_args(["degenerate"] + config.canonical_args())
    assert command == "degenerate"
    assert parsed == config


@pytest.mark.parametrize("argv", [
    ["cone", "--type", "Z", "--rank", "9"],
    ["cone", "--type", "A", "--rank", "2", "--word", "1,x"],
    ["cone", "--type", "A", "--rank", "2", "--word", "1,3,1"],
    ["crystal", "--type", "A", "--rank", "2", "--lambda=-1,0"],
    ["crystal", "--type", "A", "--rank", "2", "--lambda", "1"],
    ["crystal", "--type", "A", "--rank", "2"],
    ["polytope", "--type", "A", "--rank", "2"],
    ["degenerate", "--type", "A", "--rank", "2", "--level-bound=-1"],
    ["verify", "--threads", "0"],
    ["bogus"],
    ["crystal", "--type", "A", "--rank", "2", "--lambda", "1,0", "--cap", "0"],
    ["degenerate", "--type", "A", "--rank", "2", "--level-bound", "0"],
    ["verify", "--type", "A"],
])
def test_usage_errors_exit_two(argv):
    with pytest.raises(SystemExit) as info:
        parse_args(argv)
    assert info.value.code == 2


def test_crystal_dump(capsys):
    assert main(["crystal", "--type", "A", "--rank", "2",
                 "--lambda", "1,0"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "crystal A2 lambda 1,0\n"
        "nodes 3\n"
        "0 weight 1,0 eps 0,0 phi 1,0\n"
        "1 weight -1,1 eps 1,0 phi 0,1\n"
        "2 weight 0,-1 eps 0,1 phi 0,0\n"
        "edges 2\n"
        "0 1 1\n"
        "1 2 2\n"
    )


def test_polytope_section(capsys):
    assert main(["polytope", "--type", "A", "--rank", "1",
                 "--lambda", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "polytope A1 word 1 lambda 2"
    assert "points 3" in out


def test_cone_writes_text_and_json(tmp_path):
    target = tmp_path / "cone.txt"
    argv = ["cone", "--type", "A", "--rank", "2", "--out", str(target)]
    assert main(argv) == 0
    cone = parse_h_rep(target.read_text())
    assert cone.ambient_dim == 5
    doc = json.loads((tmp_path / "cone.txt.json").read_text())
    assert doc["type"] == "A"
    assert doc["word"] == [1, 2, 1]
    assert [tuple(r) for r in doc["rays"]] == list(cone.rays)

    again = tmp_path / "again.txt"
    assert main(["cone", "--type", "A", "--rank", "2",
                 "--out", str(again)]) == 0
    assert again.read_text() == target.read_text()


def test_degenerate_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    argv = ["degenerate", "--type", "A", "--rank", "2",
            "--level-bound", "1", "--out", str(target)]
    assert main(argv) == 0
    data = json.loads(target.read_text())
    assert all(data["checks"].values())
    assert data["timings_ms"] == {}
    err = capsys.readouterr().err
    assert "timing enumerate" in err


def test_degenerate_bad_word_stage_code(capsys):
    rc = main(["degenerate", "--type", "A", "--rank", "2",
               "--word", "2,1,2,1"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error[cartan]:")


def test_crystal_cap_stage_code(capsys):
    rc = main(["crystal", "--type", "A", "--rank", "2",
               "--lambda", "1,1", "--cap", "3"])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error[crystal]:")


def test_crystal_cap_names_the_requested_weight(capsys):
    rc = main(["crystal", "--type", "A", "--rank", "2",
               "--lambda", "2,2", "--cap", "5"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("error[crystal]:")
    assert "lambda=(2, 2)" in err


@pytest.mark.parametrize("command", [
    ["cone"], ["degenerate"], ["polytope", "--lambda", "1,1"],
])
def test_huge_level_bound_stops_at_the_cap(command, capsys):
    # the weights are walked one at a time, so a bound far too large for the
    # whole weight grid ends at the first crystal over the cap, with the
    # message a grid-sized bound gives
    errs = []
    for bound in ("20", "99999999999"):
        rc = main(command + ["--type", "A", "--rank", "2",
                             "--level-bound", bound, "--cap", "50"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        errs.append(captured.err)
    assert errs == ["error[crystal]: crystal for lambda=(0, 9) exceeded node cap 50\n"] * 2


def test_polytope_undercount_is_a_polyhedral_error(capsys):
    # the level-1 cone of B2 gives 240 points at (3, 3); dim V(3, 3) = 256
    rc = main(["polytope", "--type", "B", "--rank", "2",
               "--lambda", "3,3", "--level-bound", "1"])
    assert rc == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error[polyhedra]:")
    assert "240 points" in captured.err and "256" in captured.err
    assert "--level-bound" in captured.err


def test_polytope_saturated_section_passes(capsys):
    assert main(["polytope", "--type", "B", "--rank", "2",
                 "--lambda", "3,3", "--level-bound", "2"]) == 0
    assert "points 256\n" in capsys.readouterr().out


def test_unwritable_out_is_a_general_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "report.json"
    rc = main(["degenerate", "--type", "A", "--rank", "1",
               "--level-bound", "1", "--out", str(missing)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error[general]: cannot write")
    # the cone text is writable, its JSON companion is not
    target = tmp_path / "cone.txt"
    (tmp_path / "cone.txt.json").mkdir()
    rc = main(["cone", "--type", "A", "--rank", "1", "--out", str(target)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error[general]: cannot write")
    # the companion's temporary file was written, failed to replace the
    # directory, and was removed; the text was never written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cone.txt.json"]
    assert list((tmp_path / "cone.txt.json").iterdir()) == []
    # an existing text keeps its bytes when the companion fails
    target.write_text("old cone\n")
    rc = main(["cone", "--type", "A", "--rank", "1", "--out", str(target)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error[general]: cannot write")
    assert target.read_text() == "old cone\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cone.txt", "cone.txt.json"]


class FakeResult:
    def __init__(self, passed):
        self.passed = passed


def test_verify_delegates_to_runner(tmp_path, capsys):
    target = tmp_path / "verify.txt"

    def good():
        return "overall: PASS\n", [FakeResult(True)]

    assert _cmd_verify(RunConfig(out=str(target)), runner=good) == 0
    assert target.read_text() == "overall: PASS\n"

    def bad():
        return "overall: FAIL\n", [FakeResult(True), FakeResult(False)]

    assert _cmd_verify(RunConfig(), runner=bad) == 1
    captured = capsys.readouterr()
    assert "overall: FAIL" in captured.out
    assert "timing verify" in captured.err
