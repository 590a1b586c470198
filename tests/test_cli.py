import contextlib
import io
import json
import os
import re
import stat
import subprocess
import sys
import tempfile
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

import stringcone.degeneration
from stringcone import cli
from stringcone.cartan import build_cartan
from stringcone.characters import weyl_dim
from stringcone.cli import RunConfig, _cmd_verify, main, parse_args
from stringcone.pathcrystal import CrystalCache
from stringcone.polyhedra import parse_h_rep


def _timing(err):
    """The stage timings of the one ``timing {json}`` line on stderr."""
    lines = [line for line in err.splitlines() if line.startswith("timing ")]
    assert len(lines) == 1, lines
    timings = json.loads(lines[0].removeprefix("timing "))
    assert all(isinstance(ms, float) and ms >= 0 for ms in timings.values())
    return timings


def _loaded_after(code, modules):
    """Which of ``modules`` a fresh ``python -S`` has loaded after running ``code``."""
    src = Path(__file__).resolve().parents[1] / "src"
    code += f"\nimport sys; print(' '.join(m for m in {modules!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return proc.stdout.split()


def test_import_loads_no_heavy_module():
    # each certificate is one short process, so start-up matters: importing
    # the command line must not pull in dataclasses and its inspect/ast
    # chain, typing, the acceptance suite and its random, or the rational
    # arithmetic of fractions and decimal
    assert _loaded_after("import stringcone.cli", (
        "dataclasses", "inspect", "typing", "random", "stringcone.acceptance",
        "fractions", "decimal")) == []


def test_runtime_arithmetic_loads_no_fractions():
    # README: all runtime arithmetic is on integers, so a certificate with a
    # Demazure face and a polytope section run without the fractions module
    code = ("import contextlib, io\n"
            "from stringcone.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    assert main(['degenerate', '--type', 'B', '--rank', '2',"
            " '--level-bound', '1', '--demazure', '1']) == 0\n"
            "    assert main(['polytope', '--type', 'B', '--rank', '2',"
            " '--lambda', '2,1']) == 0")
    assert _loaded_after(code, ("fractions", "decimal")) == []


def test_parse_maps_flags_to_fields():
    argv = ["degenerate", "--type", "B", "--rank", "2", "--word", "2,1,2,1",
            "--demazure", "2,1", "--level-bound", "3", "--cap", "500", "--out", "r.json"]
    assert parse_args(argv) == ("degenerate", RunConfig(
        type_label="B", rank=2, w0_word=(2, 1, 2, 1), demazure_word=(2, 1),
        level_bound=3, node_cap=500, out="r.json"))
    assert parse_args(["polytope", "--type", "A", "--rank", "2", "--lambda", "1,1",
                       "--word", "2,1,2", "--level-bound", "1"]) == ("polytope", RunConfig(
        type_label="A", rank=2, w0_word=(2, 1, 2), lam=(1, 1), level_bound=1))
    assert parse_args(["crystal", "--type", "A", "--rank", "2", "--lambda", "1,0"]) == (
        "crystal", RunConfig(type_label="A", rank=2, lam=(1, 0)))


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
    # each subcommand takes only the flags it reads
    ["crystal", "--type", "A", "--rank", "2", "--lambda", "1,0", "--word", "1,2,1"],
    ["crystal", "--type", "A", "--rank", "2", "--lambda", "1,0", "--level-bound", "1"],
    ["crystal", "--type", "A", "--rank", "2", "--lambda", "1,0", "--demazure", "1"],
    ["polytope", "--type", "A", "--rank", "2", "--lambda", "1,0", "--demazure", "1"],
    ["cone", "--type", "A", "--rank", "2", "--lambda", "1,0"],
    ["cone", "--type", "A", "--rank", "2", "--demazure", "1"],
    ["degenerate", "--type", "A", "--rank", "2", "--lambda", "1,0"],
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
    # one free coordinate: each point line is x_0 alone, with no trailing space
    assert main(["polytope", "--type", "A", "--rank", "1",
                 "--lambda", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "polytope A1 word 1 lambda 2\n"
        "inequalities 2\n"
        "0 1\n"
        "2 -1\n"
        "points 3\n"
        "0\n"
        "1\n"
        "2\n"
    )
    assert list(_timing(captured.err)) == ["crystal", "strings", "hull", "section", "format"]


def test_cone_writes_text_and_json(tmp_path, capsys):
    target = tmp_path / "cone.txt"
    argv = ["cone", "--type", "A", "--rank", "2", "--out", str(target)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert list(_timing(captured.err)) == ["crystal", "strings", "hull"]
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


def test_cone_at_level_bound_zero_is_the_zero_cone(tmp_path, capsys):
    # B(0) is the zero point alone: no rays, and the facets are the pairs
    # of equations x_i >= 0 and -x_i >= 0
    argv = ["cone", "--type", "A", "--rank", "2", "--level-bound", "0"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    units = [tuple(int(k == i) for k in range(5)) for i in range(5)]
    zero = parse_h_rep(out)
    assert zero.ambient_dim == 5 and zero.rays == ()
    assert sorted(zero.facets) == sorted(units + [tuple(-c for c in u) for u in units])
    target = tmp_path / "zero.txt"
    assert main(argv + ["--out", str(target)]) == 0
    capsys.readouterr()
    assert target.read_text() == out
    doc = json.loads((tmp_path / "zero.txt.json").read_text())
    assert (doc["level_bound"], doc["rays"]) == (0, [])
    assert sorted(map(tuple, doc["facets"])) == sorted(zero.facets)


def test_degenerate_with_the_identity_demazure_word(capsys):
    # --demazure "" is w = e: each Demazure crystal is the highest node
    argv = ["degenerate", "--type", "A", "--rank", "2", "--demazure", ""]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["demazure_word"] == []
    assert doc["sections"] and all(s["demazure_count"] == 1 for s in doc["sections"])
    assert all(doc["checks"].values())
    assert "demazure_face" in doc["checks"]


def test_degenerate_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    argv = ["degenerate", "--type", "A", "--rank", "2",
            "--level-bound", "1", "--out", str(target)]
    assert main(argv) == 0
    data = json.loads(target.read_text())
    assert all(data["checks"].values())
    assert data["timings_ms"] == {}
    err = capsys.readouterr().err
    assert list(_timing(err)) == ["crystal", "strings", "hull", "saturation", "sections",
                                  "hilbert", "relations", "form"]


@pytest.mark.parametrize("demazure", [[], ["--demazure", "1"]])
def test_degenerate_frees_its_temporary_cache_before_the_hull(monkeypatch, capsys, demazure):
    # the command passes its CrystalCache as a temporary: with no Demazure
    # word the certificate drops it after the peel, so it is dead when the
    # hull runs; a Demazure word needs its crystals later, so it lives
    caches, alive = [], []

    def cache(datum, node_cap):
        built = CrystalCache(datum, node_cap)
        caches.append(weakref.ref(built))
        return built

    def hull(images, top):
        alive.append(caches[0]() is not None)
        return level_hull(images, top)

    level_hull = stringcone.degeneration.level_hull
    monkeypatch.setattr(cli, "CrystalCache", cache)
    monkeypatch.setattr(stringcone.degeneration, "level_hull", hull)
    argv = ["degenerate", "--type", "A", "--rank", "2", "--level-bound", "1"]
    assert main(argv + demazure) == 0
    capsys.readouterr()
    assert len(caches) == 1 and alive == [bool(demazure)]


def test_degenerate_bad_word_stage_code(capsys):
    rc = main(["degenerate", "--type", "A", "--rank", "2",
               "--word", "2,1,2,1"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error[cartan]:")


@pytest.mark.parametrize("command", [
    ["cone"], ["degenerate"], ["polytope", "--lambda", "1,1"],
])
def test_a_bad_word_fails_before_the_cap_walk(command, capsys):
    # the word is checked before any weight is walked against the cap
    rc = main(command + ["--type", "A", "--rank", "2", "--word", "1,2,1,2",
                         "--level-bound", "99999999999", "--cap", "50"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error[cartan]: word (1, 2, 1, 2)")


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


def test_level_bound_over_the_default_cap_builds_no_crystal(monkeypatch, capsys):
    # dim V(0, 345) = 60 031 is the first weight of the sweep over the cap
    caches = []

    class RecordingCache(CrystalCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            caches.append(self)

    monkeypatch.setattr(cli, "CrystalCache", RecordingCache)
    rc = main(["cone", "--type", "A", "--rank", "2", "--level-bound", "400"])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error[crystal]: crystal for lambda=(0, 345)"
                            " exceeded node cap 60000\n")
    assert len(caches) == 1 and not caches[0]


def test_huge_weight_stops_at_the_cap(capsys):
    rc = main(["crystal", "--type", "A", "--rank", "2",
               "--lambda", "99999999999999,0"])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error[crystal]: crystal for lambda=(99999999999999, 0)"
                            " exceeded node cap 60000\n")


def test_polytope_over_the_point_limit_builds_no_crystal(monkeypatch, capsys):
    # dim V(100000, 0) = 5 000 150 001 is refused before any crystal or
    # hull; the sections workload's A3 (6, 6, 6) stays under the limit
    assert weyl_dim(build_cartan("A", 3), (6, 6, 6)) == 117649 < cli.POLYTOPE_POINT_LIMIT
    caches = []

    class RecordingCache(CrystalCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            caches.append(self)

    monkeypatch.setattr(cli, "CrystalCache", RecordingCache)
    start = time.perf_counter()
    rc = main(["polytope", "--type", "A", "--rank", "2",
               "--lambda", "100000,0", "--level-bound", "1"])
    assert time.perf_counter() - start < 1.0
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error[crystal]: section at lambda=(100000, 0) has"
                            " 5000150001 points, over the polytope limit of 1000000\n")
    assert caches == []


def test_polytope_checks_the_string_cone_rows(monkeypatch, capsys):
    # -x1 >= 0 fails on every ray with x1 > 0, and the check names it; with
    # no rows, B2's facets leave a coordinate unbounded.  Each is one
    # error line with its stage's exit code, and no traceback.
    argv = ["polytope", "--type", "B", "--rank", "2", "--lambda", "1,1", "--level-bound", "1"]
    for rows, code, message in [
        (((0, 0, -1, 0, 0, 0),), 5, "error[strings]: string cone row (0, 0, -1, 0, 0, 0)"
                                    " fails on cone ray"),
        ((), 6, "error[polyhedra]: the constraints leave free coordinate 3 unbounded"),
    ]:
        monkeypatch.setattr(stringcone.degeneration, "string_cone_rows",
                            lambda datum, word, rows=rows: rows)
        code_, out, err = _run(argv)
        assert (code_, out) == (code, "")
        assert err.startswith(message) and len(err.splitlines()) == 1


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
    # the companion names a directory, which is not a regular file, so it
    # is opened in place and fails; no temporary file is left behind and
    # the text was never written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cone.txt.json"]
    assert list((tmp_path / "cone.txt.json").iterdir()) == []
    # an existing text keeps its bytes when the companion fails
    target.write_text("old cone\n")
    rc = main(["cone", "--type", "A", "--rank", "1", "--out", str(target)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error[general]: cannot write")
    assert target.read_text() == "old cone\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cone.txt", "cone.txt.json"]


def test_out_writes_through_symlinks(tmp_path):
    # the referents get the new bytes and the links stay links
    real, real_json = tmp_path / "real.txt", tmp_path / "real.json"
    real.write_text("old cone\n")
    real_json.write_text("old doc\n")
    link, link_json = tmp_path / "link.txt", tmp_path / "link.txt.json"
    link.symlink_to(real)
    link_json.symlink_to(real_json.name)  # relative to the link's directory
    assert main(["cone", "--type", "A", "--rank", "2", "--out", str(link)]) == 0
    assert link.is_symlink() and link_json.is_symlink()
    assert parse_h_rep(real.read_text()).ambient_dim == 5
    assert json.loads(real_json.read_text())["word"] == [1, 2, 1]
    # a dangling link creates the file it names
    dangling = tmp_path / "report-link"
    dangling.symlink_to(tmp_path / "report.json")
    assert main(["degenerate", "--type", "A", "--rank", "1",
                 "--level-bound", "1", "--out", str(dangling)]) == 0
    assert dangling.is_symlink()
    assert all(json.loads((tmp_path / "report.json").read_text())["checks"].values())
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.txt", "link.txt.json", "real.json", "real.txt", "report-link", "report.json"]


def test_out_keeps_a_temporary_name_it_did_not_create(tmp_path, capsys):
    # the write fails on the taken name and leaves that file alone
    target = tmp_path / "report.json"
    taken = tmp_path / f"report.json.{os.getpid()}.tmp"
    taken.write_text("someone else's\n")
    rc = main(["degenerate", "--type", "A", "--rank", "1",
               "--level-bound", "1", "--out", str(target)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error[general]: cannot write")
    assert taken.read_text() == "someone else's\n"
    assert not target.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_writes_a_pipe_in_place(tmp_path):
    # a rename would put a regular file where the pipe was, and the reader,
    # opened first without blocking, would see no bytes
    pipe = tmp_path / "report.pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["degenerate", "--type", "A", "--rank", "1",
                     "--level-bound", "1", "--out", str(pipe)]) == 0
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert all(json.loads(data)["checks"].values())
    assert list(tmp_path.iterdir()) == [pipe]


class FakeResult:
    def __init__(self, passed):
        self.passed = passed


def test_verify_delegates_to_runner(tmp_path, capsys):
    target = tmp_path / "verify.txt"

    def good():
        return "overall: PASS\n", [FakeResult(True)]

    assert _cmd_verify(RunConfig(out=str(target)), runner=good) == 0
    assert target.read_text() == "overall: PASS\n"
    assert list(_timing(capsys.readouterr().err)) == ["verify"]

    def bad():
        return "overall: FAIL\n", [FakeResult(True), FakeResult(False)]

    assert _cmd_verify(RunConfig(), runner=bad) == 1
    captured = capsys.readouterr()
    assert "overall: FAIL" in captured.out
    assert list(_timing(captured.err)) == ["verify"]


def _mostly(valid, malformed):
    """Draw from ``valid`` four times in five, else from ``malformed``."""
    return st.sampled_from([valid] * 4 + [malformed]).flatmap(lambda strategy: strategy)


def _ints(low, high, min_size, max_size):
    return st.lists(st.integers(low, high), min_size=min_size, max_size=max_size).map(
        lambda v: ",".join(map(str, v)))


_MALFORMED = st.sampled_from(["", "x", "1,,2", "1;2", "2.5", "-", "1, 2", "0x1", "-1"])
_WORDS = st.sampled_from(["1,2,1", "2,1,2", "1,2,1,2", "2,1,2,1", "1,2,1,2,1,2",
                          "2,1,2,1,2,1", "1"])
_VALUES = {
    "--type": _mostly(st.sampled_from(["A", "B", "C", "G", "D"]),
                      st.sampled_from(["E", "a", "AB", ""])),
    "--rank": _mostly(st.integers(1, 4).map(str), st.integers(-1, 5).map(str) | _MALFORMED),
    "--lambda": _mostly(_ints(0, 3, 1, 4), _ints(-1, 3, 0, 5) | _MALFORMED),
    "--word": _mostly(_WORDS, _ints(-1, 5, 0, 12) | _MALFORMED),
    "--demazure": _mostly(_ints(1, 2, 0, 3), _ints(-1, 4, 0, 6) | _MALFORMED),
    "--level-bound": _mostly(st.integers(0, 2).map(str), _MALFORMED),
    "--cap": _mostly(st.integers(1, 200).map(str), st.integers(-1, 0).map(str) | _MALFORMED),
    # placeholders for a file, a file under a missing directory, a directory
    "--out": st.sampled_from(["{tmp}/out", "{tmp}/missing/out", "{tmp}"]),
}
# README's flag table
_TAKES = {
    "crystal": ["--type", "--rank", "--lambda", "--out"],
    "polytope": ["--type", "--rank", "--lambda", "--word", "--level-bound", "--out"],
    "cone": ["--type", "--rank", "--word", "--level-bound", "--out"],
    "degenerate": ["--type", "--rank", "--word", "--level-bound", "--demazure", "--out"],
    "verify": ["--out"],
    "bogus": [],
}
_SUPPORTED = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2), ("B", 3),
              ("C", 3), ("D", 4)]
_BARE = st.sampled_from(["-h", "--bogus", "--type", "--cap", "--lambda", "--out"])


def _flag(name):
    return _VALUES[name].map(lambda value: [name, value])


@st.composite
def argvs(draw):
    """A subcommand, most of its flags, and now and then any other flag.

    Values are small or malformed; a well-formed ``--lambda`` mostly has
    ``--rank`` coordinates.  Every subcommand but ``verify`` takes a
    ``--cap`` of at most 200 when its value is well formed, so each
    crystal, and with it the work of every draw, stays small.
    """
    command = draw(st.sampled_from(sorted(_TAKES)))
    flags = {name: draw(_VALUES[name]) for name in _TAKES[command]
             if draw(st.integers(0, 9))}
    if {"--type", "--rank"} <= flags.keys() and draw(st.integers(0, 3)):
        flags["--type"], rank = draw(st.sampled_from(_SUPPORTED))
        flags["--rank"] = str(rank)
    if "--lambda" in flags and flags.get("--rank", "").isdigit() and draw(st.integers(0, 3)):
        rank = int(flags["--rank"])
        flags["--lambda"] = draw(_ints(0, 3, rank, rank))
    flags = [[name, value] for name, value in flags.items()]
    if not draw(st.integers(0, 3)):
        flags += draw(st.lists(st.sampled_from(sorted(_VALUES)).flatmap(_flag)
                               | _BARE.map(lambda flag: [flag]), min_size=1, max_size=2))
    if command != "verify":
        flags.insert(draw(st.integers(0, len(flags))), draw(_flag("--cap")))
    return [command] + [token for flag in draw(st.permutations(flags)) for token in flag]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _polytope_dim(argv):
    """weyl_dim of --lambda when argv is a valid polytope call, else None."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            command, config = parse_args(argv)
        except SystemExit:
            return None
    if command != "polytope":
        return None
    return weyl_dim(build_cartan(config.type_label, config.rank), config.lam)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_keeps_the_exit_contract(argv):
    # README: 0 success, 1 general, 2 usage, 3-7 the pipeline stages; a
    # failure prints no stdout and one usage or error[stage] message
    dim = _polytope_dim(argv)
    assume(dim is None or dim <= 2000)

    def passing_suite():
        return "overall: PASS\n", [FakeResult(True)]

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        # the acceptance suite itself is tested in test_acceptance.py
        mp.setitem(cli._COMMANDS, "verify",
                   lambda config: _cmd_verify(config, runner=passing_suite))
        code, out, err = _run([token.format(tmp=tmp) for token in argv])
    event(f"exit {code}")
    assert "Traceback" not in err
    lines = err.splitlines()
    if code == 2:
        assert out == ""
        assert lines[0].startswith("usage: ") and ": error: " in lines[-1]
        assert all(line.startswith(" ") for line in lines[1:-1])
    elif err.startswith("error["):
        assert out == ""
        assert len(lines) == 1
        stage = re.match(r"error\[(\w+)\]: ", err).group(1)
        assert code == cli._STAGE_CODES[stage]
    else:
        assert code == 0, (code, err)
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("timing "))
