import ast
import csv
import shutil
from pathlib import Path

import pytest

from teamroles import artifacts, errors, ingest
from teamroles.cli import main
from teamroles.errors import FileUnreadable, FormatError, TruncatedLine

SRC = Path(__file__).resolve().parent.parent / "src" / "teamroles"


def rows_then_crash(rows, after):
    """Yield `after` rows, then fail as a crashing stage would."""
    for i, row in enumerate(rows):
        if i == after:
            raise RuntimeError("stage crashed")
        yield row


@pytest.mark.parametrize(
    "write",
    [
        lambda path, rows: artifacts.write_jsonl(path, ({"n": n} for n in rows)),
        lambda path, rows: artifacts.write_csv(path, ["n"], ([n] for n in rows)),
    ],
    ids=["jsonl", "csv"],
)
def test_failed_write_leaves_the_previous_file(tmp_path, write):
    path = tmp_path / "artifact"
    write(path, range(3))
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        write(path, rows_then_crash(range(10), after=5))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


def test_round_trips(tmp_path):
    artifacts.write_jsonl(tmp_path / "a.jsonl", [{"b": 1, "a": "é"}, {"c": None}])
    assert (tmp_path / "a.jsonl").read_bytes() == '{"a": "\\u00e9", "b": 1}\n{"c": null}\n'.encode()
    assert list(artifacts.read_jsonl(tmp_path / "a.jsonl")) == [(1, {"a": "é", "b": 1}), (2, {"c": None})]
    artifacts.write_csv(tmp_path / "a.csv", ["x", "y"], [["1", "a,b"], ["2", ""]])
    assert (tmp_path / "a.csv").read_bytes() == b'x,y\r\n1,"a,b"\r\n2,\r\n'
    assert artifacts.read_text(tmp_path / "a.csv") == 'x,y\r\n1,"a,b"\r\n2,\r\n'
    assert list(artifacts.read_csv(tmp_path / "a.csv")) == [
        (2, {"x": "1", "y": "a,b"}),
        (3, {"x": "2", "y": ""}),
    ]
    artifacts.write_json(tmp_path / "a.json", {"b": [1.5], "a": 1})
    assert (tmp_path / "a.json").read_text() == '{\n  "a": 1,\n  "b": [\n    1.5\n  ]\n}'
    assert artifacts.read_json(tmp_path / "a.json") == {"a": 1, "b": [1.5]}


def read_jsonl(path):
    return list(artifacts.read_jsonl(path))


def read_csv(path):
    return list(artifacts.read_csv(path))


@pytest.mark.parametrize(
    "content, read, error, line",
    [
        (b'{"a": 1}\n{"a": \n{"a": 3}\n', read_jsonl, FormatError, 2),
        (b'{"a": 1}\n{"a": 2', read_jsonl, TruncatedLine, 2),
        (b'{"a": 1}\n\n[1, 2]\n', read_jsonl, FormatError, 3),
        (b'{"a": 1}\n{"a": "\xff"}\n', read_jsonl, FormatError, 2),
        (b"x,y\n1,2\n3\n", read_csv, FormatError, 3),
        (b"x,y\n1,2,3\n", read_csv, FormatError, 2),
        (b"", read_csv, FormatError, 1),
        (b"x\n1\n" + b"a" * (csv.field_size_limit() + 1) + b"\n", read_csv, FormatError, 3),
        (b'{\n  "a": [1,\n', artifacts.read_json, FormatError, 3),
    ],
)
def test_unparseable_files_raise_format_error(tmp_path, content, read, error, line):
    path = tmp_path / "artifact"
    path.write_bytes(content)
    with pytest.raises(FormatError) as excinfo:
        read(path)
    assert type(excinfo.value) is error
    assert excinfo.value.line == line
    assert str(excinfo.value).startswith(f"{path} line {line}: ")


def test_unreadable_files_raise_file_unreadable(tmp_path):
    for read in (read_jsonl, read_csv):
        with pytest.raises(FileUnreadable):
            read(tmp_path / "missing")
    with pytest.raises(FileUnreadable):
        artifacts.read_json(tmp_path)  # a directory


def test_one_class_per_meaning():
    assert ingest.FormatError is errors.FormatError
    assert ingest.FileUnreadable is errors.FileUnreadable
    assert issubclass(TruncatedLine, FormatError)


@pytest.fixture(scope="module")
def stage_dir(tmp_path_factory):
    """The offline pipeline run up to `train` on the fixture corpus."""
    out = tmp_path_factory.mktemp("stages")
    common = ["--output-dir", str(out), "--cache-dir", "tests/fixtures/cache", "--offline"]
    for stage in (["ingest", "--input", "tests/fixtures/corpus.csv"], ["label-rule"],
                  ["featurize"], ["split"], ["train"]):
        assert main(stage + common) == 0, stage
    return out


def cut_line(path: Path, number: int) -> None:
    """Cut line `number` of a file in half and keep the lines after it."""
    lines = path.read_text().split("\n")
    lines[number - 1] = lines[number - 1][: len(lines[number - 1]) // 2]
    path.write_text("\n".join(lines))


def truncate_at(path: Path, number: int) -> None:
    """Cut the file in the middle of line `number`, as a crash mid-write would."""
    lines = path.read_text().split("\n")[:number]
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    path.write_text("\n".join(lines))


def drop_last_field(path: Path, number: int) -> None:
    lines = path.read_text().split("\n")
    lines[number - 1] = lines[number - 1].rsplit(",", 1)[0]
    path.write_text("\n".join(lines))


@pytest.mark.parametrize(
    "stage, name, damage, line",
    [
        ("label-rule", "corpus.jsonl", cut_line, 5),
        ("evaluate", "model.json", truncate_at, 20),
        ("train", "train.csv", drop_last_field, 7),
        ("featurize", "cache/works.jsonl", cut_line, 3),
    ],
)
def test_unparseable_artifact_exits_1_naming_path_and_line(
    stage_dir, tmp_path, capsys, stage, name, damage, line
):
    for artifact in ("corpus.jsonl", "labels_rule.jsonl", "train.csv", "test.csv", "model.json"):
        shutil.copyfile(stage_dir / artifact, tmp_path / artifact)
    shutil.copytree("tests/fixtures/cache", tmp_path / "cache")
    damage(tmp_path / name, line)
    capsys.readouterr()
    code = main([stage, "--output-dir", str(tmp_path), "--cache-dir", str(tmp_path / "cache"),
                 "--offline"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {tmp_path / name} line {line}: ")
    assert "Traceback" not in err


def test_bad_config_still_exits_2(tmp_path):
    (tmp_path / "config.json").write_bytes(b'{"seed": "\xff"}')
    assert main(["ingest", "--input", "x.csv", "--config", str(tmp_path / "config.json")]) == 2
    assert main(["ingest", "--input", "x.csv", "--config", str(tmp_path / "missing.json")]) == 2


def _writes(tree: ast.AST):
    """(line, what) for every call in a module that writes a file."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None
            )
            if mode is not None and not (
                isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+")
            ):
                yield node.lineno, "open for writing"
        elif isinstance(func, ast.Attribute):
            owner = func.value.id if isinstance(func.value, ast.Name) else None
            if (owner, func.attr) in {("json", "dump"), ("csv", "writer")} or owner == "shutil":
                yield node.lineno, f"{owner}.{func.attr}"
            elif func.attr in ("write_text", "write_bytes") and owner != "artifacts":
                yield node.lineno, func.attr


def test_only_artifacts_writes_files():
    """Every pipeline file is written through artifacts.py; the one exception is
    the metadata cache's append-only put."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "artifacts.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "JsonLinesCache":
                put = next(n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "put")
                allowed = {line for line, _ in _writes(put)}
        found += [(path.name, line, what) for line, what in _writes(tree) if line not in allowed]
    assert found == []


def test_guard_sees_writes():
    tree = ast.parse(
        "open(p, 'w')\nopen(p, mode='a')\nopen(p, m)\nopen(p)\nopen(p, 'rb')\n"
        "json.dump(d, fh)\ncsv.writer(fh)\nshutil.copyfile(a, b)\np.write_text(s)\n"
    )
    assert sorted(line for line, _ in _writes(tree)) == [1, 2, 3, 6, 7, 8, 9]
