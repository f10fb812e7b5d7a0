"""tools/compare_runs.py: declared differences pass, undeclared and stale ones fail."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import compare_runs  # noqa: E402


def _fake_runs(monkeypatch):
    # case "a" writes a file that differs between the trees, case "b" exits 1
    # on the old tree and 0 on the new one, case "c" is identical
    def cases(new_tree, work):
        return [("a", ["hp"]), ("b", ["hp"]), ("c", ["hp"])]

    def run(tree, argv, out):
        side, label = os.path.basename(tree), os.path.basename(out)
        os.makedirs(out)
        with open(os.path.join(out, "x.json"), "w", encoding="utf-8") as fh:
            fh.write("new\n" if (side, label) == ("new", "a") else "old\n")
        return (1 if (side, label) == ("old", "b") else 0), "", 1.0, 2.5 if side == "old" else 0.25

    monkeypatch.setattr(compare_runs, "cases", cases)
    monkeypatch.setattr(compare_runs, "run", run)


@pytest.mark.parametrize("lines, code, stale", [
    (["a\tx.json\twhy", "b\texit\twhy"], 0, False),
    (["# comment", "", "a\tx.json\twhy", "b\texit\twhy"], 0, False),
    (["a\tx.json\twhy"], 1, False),  # undeclared exit code
    (["a\tx.json\twhy", "b\texit\twhy", "c\tx.json\twhy"], 1, True),
    ([], 1, False),
])
def test_expect_file(tmp_path, monkeypatch, capsys, lines, code, stale):
    _fake_runs(monkeypatch)
    expect = tmp_path / "expect.tsv"
    expect.write_text("".join(line + "\n" for line in lines))
    trees = [str(tmp_path / "old"), str(tmp_path / "new")]
    assert compare_runs.main([*trees, "--work", str(tmp_path / "w"), "--expect", str(expect)]) == code
    out = capsys.readouterr().out
    # every difference is printed, declared or not
    assert "a: exit 0 / 0" in out and "  differs: x.json" in out
    # peak RSS and CPU time of both sides, information only
    assert "c: exit 0 / 0, same, peak RSS 1.0 / 1.0 MiB, CPU 2.50 / 0.25 s" in out
    assert "b: exit 1 / 0" in out and "  differs: exit" in out
    assert ("declared but not different: c\tx.json" in out) == stale


def test_malformed_declaration(tmp_path):
    expect = tmp_path / "expect.tsv"
    expect.write_text("a\tx.json\n")
    with pytest.raises(SystemExit, match="expect.tsv:1"):
        compare_runs.read_expected(str(expect))


def test_repository_declaration_parses():
    expected = compare_runs.read_expected(os.path.join(ROOT, "tools", "expected_differences.tsv"))
    assert all(reason for reason in expected.values())


def _report(checks):
    return json.dumps({"reports": [{"name": "r", "checks": [
        {"check_id": cid, "value": value, "status": status} for cid, value, status in checks]}]})


def test_report_statuses_printed(tmp_path, monkeypatch, capsys):
    # case "same" moves only values, case "moved" a status and an id; the
    # status and value lines are information only and do not change the
    # exit code
    old = [("a.x", 1.0, "pass"), ("a.y", 2.0, "fail"), ("a.s", None, "skipped")]
    reports = {
        "same": (old, [("a.x", 1.5, "pass"), ("a.y", 1.25, "fail"), ("a.s", None, "skipped")]),
        "moved": (old, [("a.x", 1.0, "fail"), ("a.z", 2.0, "fail"), ("a.s", None, "skipped")]),
    }

    def cases(new_tree, work):
        return [(label, ["verify-all"]) for label in reports]

    def run(tree, argv, out):
        side, label = os.path.basename(tree), os.path.basename(out)
        os.makedirs(out)
        with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(_report(reports[label][side == "new"]))
        return 0, "", 1.0, 0.5

    monkeypatch.setattr(compare_runs, "cases", cases)
    monkeypatch.setattr(compare_runs, "run", run)
    expect = tmp_path / "expect.tsv"
    expect.write_text("same\treport.json\twhy\nmoved\treport.json\twhy\n")
    trees = [str(tmp_path / "old"), str(tmp_path / "new")]
    assert compare_runs.main([*trees, "--work", str(tmp_path / "w"), "--expect", str(expect)]) == 0
    out = capsys.readouterr().out
    same, moved = out.split("moved: exit")
    assert "    checks: statuses unchanged" in same
    # the largest of |1.5 - 1.0| and |1.25 - 2.0|, with its check id
    assert "    largest value change: 0.75 (a.y)" in same
    # a.y and a.z are each on one side only, and a.x keeps its value
    assert "    largest value change: none" in moved
    assert [line for line in moved.splitlines() if line.startswith("    checks:")] == [
        "    checks: a.x: pass -> fail",
        "    checks: a.y: fail -> absent",
        "    checks: a.z: absent -> fail",
    ]


def test_run_measures_the_child(tmp_path):
    # peak RSS and CPU time come from the child's own rusage
    code, _, rss, cpu = compare_runs.run(ROOT, ["--help"], str(tmp_path / "out"))
    assert code == 0 and rss > 1.0 and cpu > 0.0
