import ast
import csv
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teamroles import artifacts, errors, ingest
from teamroles.cli import STAGES, main
from teamroles.errors import FileUnreadable, FileUnwritable, FormatError, TruncatedLine

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
    assert list(artifacts.read_csv(tmp_path / "a.csv")) == [
        (2, {"x": "1", "y": "a,b"}),
        (3, {"x": "2", "y": ""}),
    ]
    artifacts.write_json(tmp_path / "a.json", {"b": [1.5], "a": 1})
    assert (tmp_path / "a.json").read_text() == '{\n  "a": 1,\n  "b": [\n    1.5\n  ]\n}'
    assert artifacts.read_json(tmp_path / "a.json") == {"a": 1, "b": [1.5]}


def test_jsonl_spans_are_byte_offsets_that_read_back(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_bytes('{"a": "é"}\n\n{"b": 2}\n{"c": 3}'.encode())  # é is two bytes
    spans = list(artifacts.read_jsonl_spans(path))
    assert spans == [(1, 0, 12, {"a": "é"}), (3, 13, 22, {"b": 2}), (4, 22, 30, {"c": 3})]
    for number, start, end, row in spans:
        assert artifacts.read_jsonl_at(path, number, start, end) == row
    for start, end in ((12, 13), (1, 12), (30, 40)):  # blank, cut short, past the end
        with pytest.raises(FormatError) as excinfo:
            artifacts.read_jsonl_at(path, 7, start, end)
        assert excinfo.value.line == 7


json_scalars = (st.text() | st.integers() | st.booleans() | st.none()
                | st.floats(allow_nan=False, allow_infinity=False))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=12)


@given(st.dictionaries(st.text(), json_values, max_size=6))
def test_encode_row_is_json_dumps_with_sorted_keys(row):
    """st.text() covers non-ASCII, lone surrogates and control characters."""
    assert artifacts.encode_row(row) == json.dumps(row, sort_keys=True)


def test_encode_row_still_fails_on_a_circular_row_and_recovers():
    row = {"a": [1]}
    row["a"].append(row)
    for _ in range(2):
        with pytest.raises(ValueError, match="Circular reference"):
            artifacts.encode_row(row)
    with pytest.raises(TypeError):
        artifacts.encode_row({"a": [{"b": object()}]})
    # the failed encodes leave no container marked as being encoded: the same
    # objects, the cycle broken, encode
    row["a"].pop()
    assert artifacts.encode_row(row) == '{"a": [1]}'


def read_jsonl(path):
    return list(artifacts.read_jsonl(path))


def read_jsonl_via_spans(path, decode=None):
    return [(number, row) for number, _, _, row in artifacts.read_jsonl_spans(path, decode)]


@pytest.mark.parametrize(
    "content, decode",
    [
        (b'{"a": 1}\n\n  \n{"a": 2}\n', None),
        ('\ufeff{"a": 1}\n'.encode(), None),
        (b'{"a": 1}  \n{"a": 2} \t\n', None),
        (b'{"a": 1}\n{"a": "\xff"}\n', None),
        (b'{"a": 1}\n{"a": 2', None),
        (b'{"a": 1}\n[1, 2]\n', None),
        (b'{"a": 1}\n{"a": "x"}\n', lambda row: int(row["a"])),
    ],
    ids=["blank line", "BOM", "trailing spaces", "bad UTF-8", "cut short", "not an object",
         "field error"],
)
def test_read_jsonl_and_read_jsonl_spans_agree(tmp_path, content, decode):
    """read_jsonl reads the lines itself; it gives the rows or raises the error
    that read_jsonl_spans does, on the same line with the same message."""
    path = tmp_path / "rows.jsonl"
    path.write_bytes(content)
    outcomes = []
    for read in (lambda: list(artifacts.read_jsonl(path, decode)),
                 lambda: read_jsonl_via_spans(path, decode)):
        try:
            outcomes.append(read())
        except FormatError as exc:
            outcomes.append((type(exc), exc.line, str(exc)))
    assert outcomes[0] == outcomes[1]


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
        (b'{\n  "a":\n  "\xff"\n}\n', artifacts.read_json, FormatError, 3),
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


@pytest.mark.parametrize(
    "read, content, first",
    [
        (artifacts.read_jsonl, b'{"a": 1}\n{"a": 2}\nnot JSON\n', (1, {"a": 1})),
        (artifacts.read_csv, b"a,b\n1,2\n3\n", (2, {"a": "1", "b": "2"})),
        (artifacts.read_csv_rows, b"a,b\n1,2\n3\n", (1, ["a", "b"])),
    ],
    ids=["jsonl", "csv", "csv_rows"],
)
def test_readers_stream_and_fail_only_on_reaching_the_bad_line(tmp_path, read, content, first):
    """A reader holds one line at a time: it returns the first row of a file
    whose third line is garbage, and raises only when it reaches that line."""
    path = tmp_path / "rows"
    path.write_bytes(content)
    rows = read(path)
    assert next(rows) == first
    with pytest.raises(FormatError, match="line 3: "):
        for number, _ in rows:
            assert number < 3


def test_read_csv_rows_keeps_the_text_of_each_row_it_yields(tmp_path):
    """A row's text is its lines as the file holds them, a quoted cell's line
    break included; a blank line is no row's, and a last line without a line
    end gets one."""
    path = tmp_path / "rows.csv"
    path.write_bytes(b'\xef\xbb\xbfa,b\r\n1,"x\ny"\n\n\r\n"2,",3')
    text = []
    rows = artifacts.read_csv_rows(path, text=text)
    assert next(rows) == (1, ["a", "b"]) and text == ["\ufeffa,b\r\n"]
    assert list(rows) == [(3, ["1", "x\ny"]), (6, ["2,", "3"])]
    assert text == ["\ufeffa,b\r\n", '1,"x\ny"\n', '"2,",3\r\n']


def test_header_that_names_a_column_twice_is_a_format_error(tmp_path):
    """A row keyed by such a header would keep only the last of the two cells;
    blank names, as a spreadsheet's trailing empty columns have, may repeat."""
    path = tmp_path / "rows.csv"
    path.write_text("a,b,a\n1,2,3\n")
    with pytest.raises(FormatError, match=r"line 1: column a repeats in the header"):
        next(artifacts.read_csv_rows(path))
    path.write_text("a,,b,\n1,,2,\n")
    assert list(read_csv(path)) == [(2, {"a": "1", "": "", "b": "2"})]


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


def set_field(path: Path, number: int, name: str, value) -> None:
    """Give field `name` of JSON-lines line `number` a new value, or drop it if value is None."""
    lines = path.read_text().split("\n")
    row = json.loads(lines[number - 1])
    if value is None:
        del row[name]
    else:
        row[name] = value
    lines[number - 1] = json.dumps(row)
    path.write_text("\n".join(lines))


def drop_model_param(path: Path, name: str) -> None:
    model = json.loads(path.read_text())
    del model["params"][name]
    path.write_text(json.dumps(model, indent=2))


def set_model_field(path: Path, section: str, name: str, value) -> None:
    model = json.loads(path.read_text())
    model[section][name] = value
    path.write_text(json.dumps(model, indent=2))


def drop_last_feature_range(path: Path) -> None:
    model = json.loads(path.read_text())
    for side in ("mins", "maxs"):
        model["ranges"][side].pop()
    path.write_text(json.dumps(model, indent=2))


def set_feature_range(path: Path, side: str, index: int, value: float) -> None:
    model = json.loads(path.read_text())
    model["ranges"][side][index] = value
    path.write_text(json.dumps(model, indent=2))


def set_csv_field(path: Path, number: int, name: str, value: str) -> None:
    lines = path.read_text().split("\n")
    header = lines[0].split(",")
    values = lines[number - 1].split(",")
    values[header.index(name)] = value
    lines[number - 1] = ",".join(values)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize(
    "stage, name, damage, line, field",
    [
        ("train", "train.csv", lambda p: set_csv_field(p, 3, "career_age", "abc"), 3,
         "career_age"),
        ("label-rule", "corpus.jsonl", lambda p: set_field(p, 4, "year", [2013]), 4, "year"),
        ("lratio", "labels_rule.jsonl", lambda p: set_field(p, 6, "record_id", None), 6,
         "record_id"),
        ("lratio", "labels_rule.jsonl", lambda p: set_field(p, 2, "label", "Boss"), 2, "label"),
        ("label-rule", "corpus.jsonl", lambda p: set_field(p, 3, "journal", "Cell"), 3,
         "journal"),
        ("evaluate", "model.json", lambda p: drop_model_param(p, "W2"), 1, "params.W2"),
        ("featurize", "cache/works.jsonl", lambda p: set_field(p, 2, "body", None), 2, "body"),
        ("lratio", "labels_rule.jsonl", lambda p: set_field(p, 2, "label", 5), 2, "label"),
        ("label-rule", "corpus.jsonl", lambda p: set_field(p, 3, "statement", 7), 3,
         "statement"),
        ("featurize", "corpus.jsonl", lambda p: set_field(p, 3, "statement", 7), 3,
         "statement"),
        ("label-rule", "corpus.jsonl", lambda p: set_field(p, 5, "is_corresponding", "no"), 5,
         "is_corresponding"),
        ("evaluate", "model.json", lambda p: set_model_field(p, "params", "W2", [[1.0]]), 1,
         "params.W2"),
        ("evaluate", "model.json",
         lambda p: set_model_field(p, "config", "feature_indices", [*range(9), 99]), 1, "config"),
        ("evaluate", "model.json", drop_last_feature_range, 1, "ranges.mins"),
        ("explain", "model.json", drop_last_feature_range, 1, "ranges.mins"),
        ("evaluate", "model.json", lambda p: set_model_field(p, "config", "epochs", 0), 1,
         "config"),
        ("split", "features.csv",
         lambda p: set_csv_field(p, 4, "contribution_to_references", "nan"), 4,
         "contribution_to_references"),
        ("split", "features.csv", lambda p: set_csv_field(p, 5, "probability_of_leading", "1.5"),
         5, "probability_of_leading"),
        ("train", "train.csv", lambda p: set_csv_field(p, 3, "citation_count", "-2.0"), 3,
         "citation_count"),
        ("evaluate", "test.csv", lambda p: set_csv_field(p, 2, "label", "Boss"), 2, "label"),
        ("evaluate", "model.json", lambda p: set_feature_range(p, "maxs", 2, float("nan")), 1,
         "ranges.maxs"),
    ],
    ids=["read_examples", "read_corpus", "read_outcomes-missing", "read_outcomes-bad",
         "read_corpus-journal", "load_model", "cache_load", "read_outcomes-label-type",
         "read_corpus-statement-type", "featurize-statement-type", "read_corpus-flag-type",
         "load_model-shape", "load_model-feature-index", "load_model-ranges",
         "explain-load_model-ranges", "load_model-epochs", "read_examples-ratio-nan",
         "read_examples-ratio-over-1", "read_examples-negative-count", "read_examples-label",
         "load_model-ranges-nan"],
)
def test_bad_field_exits_1_naming_path_line_and_field(
    stage_dir, tmp_path, capsys, stage, name, damage, line, field
):
    for artifact in ("corpus.jsonl", "labels_rule.jsonl", "features.csv", "train.csv", "test.csv",
                     "model.json"):
        shutil.copyfile(stage_dir / artifact, tmp_path / artifact)
    shutil.copytree("tests/fixtures/cache", tmp_path / "cache")
    damage(tmp_path / name)
    capsys.readouterr()
    code = main([stage, "--output-dir", str(tmp_path), "--cache-dir", str(tmp_path / "cache"),
                 "--offline"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name} line {line}: field {field}: ")
    assert "Traceback" not in err


def spoil_model_weights(path: Path, b3: bool, W2: bool) -> None:
    """Set b3 to NaN and, or, one W2 weight to infinity (JSON's NaN and Infinity)."""
    model = json.loads(path.read_text())
    if b3:
        model["params"]["b3"] = float("nan")
    if W2:
        model["params"]["W2"][3][5] = float("inf")
    path.write_text(json.dumps(model, indent=2))


@pytest.mark.parametrize("stage", ["evaluate", "explain"])
@pytest.mark.parametrize(
    "b3, W2, field", [(True, False, "params.b3"), (False, True, "params.W2"), (True, True, "params.W2")]
)
def test_non_finite_model_weight_exits_1(stage_dir, tmp_path, capsys, stage, b3, W2, field):
    for artifact in ("train.csv", "test.csv", "model.json"):
        shutil.copyfile(stage_dir / artifact, tmp_path / artifact)
    spoil_model_weights(tmp_path / "model.json", b3, W2)
    capsys.readouterr()
    assert main([stage, "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'model.json'} line 1: field {field}: not finite\n"
    assert not (tmp_path / "metrics.json").exists() and not (tmp_path / "attributions.csv").exists()


def test_decode_errors_become_format_errors(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"n": "1"}\n{"n": "x"}\n')
    assert next(artifacts.read_jsonl(path, decode=lambda row: int(row["n"]))) == (1, 1)
    with pytest.raises(FormatError, match=r"line 2: field n: invalid literal"):
        list(artifacts.read_jsonl(path, decode=lambda row: int(row["n"])))
    with pytest.raises(FormatError, match=r"line 1: field m: missing"):
        list(artifacts.read_jsonl(path, decode=lambda row: row.get("n") and row["m"]))
    (tmp_path / "rows.csv").write_text("n\n1\n\n-\n")
    with pytest.raises(FormatError, match=r"line 4: field n: could not convert"):
        list(artifacts.read_csv(tmp_path / "rows.csv", decode=lambda row: float(row["n"])))


def test_failed_write_is_file_unwritable(tmp_path):
    (tmp_path / "out.csv.tmp").mkdir()  # something else's, in the way of the temp file
    with pytest.raises(FileUnwritable, match="cannot write"):
        artifacts.write_csv(tmp_path / "out.csv", ["n"], [[1]])
    assert (tmp_path / "out.csv.tmp").is_dir()
    (tmp_path / "dir.json").mkdir()  # in the way of the target: os.replace fails
    with pytest.raises(FileUnwritable):
        artifacts.write_json(tmp_path / "dir.json", {})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir.json", "out.csv.tmp"]
    (tmp_path / "file").write_text("")
    with pytest.raises(FileUnwritable, match="cannot create directory"):
        artifacts.make_dir(tmp_path / "file")
    with pytest.raises(FileUnwritable):
        artifacts.make_dir(tmp_path / "file" / "sub")


def test_unwritable_output_exits_1(stage_dir, tmp_path, capsys):
    in_the_way = tmp_path / "a-file"
    in_the_way.write_text("")
    capsys.readouterr()
    assert main(["ingest", "--input", "tests/fixtures/corpus.csv",
                 "--output-dir", str(in_the_way)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create directory {in_the_way}: ")
    assert "Traceback" not in err

    out = tmp_path / "out"
    out.mkdir()
    (out / "corpus.jsonl.tmp").mkdir()
    assert main(["ingest", "--input", "tests/fixtures/corpus.csv", "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out / 'corpus.jsonl'}: ")


def test_config_that_is_not_an_object_exits_2(tmp_path, capsys):
    for text in ("[1]", "3", '"out"', "null"):
        (tmp_path / "config.json").write_text(text)
        capsys.readouterr()
        code = main(["ingest", "--input", "x.csv", "--config", str(tmp_path / "config.json")])
        assert code == 2, text
        assert capsys.readouterr().err.startswith("config error: ")


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


DECLARED = {name for _, _, reads, writes, _ in STAGES.values() for name in reads + writes}


def _worked_out_paths(tree: ast.AST):
    """(line, what) for each place a cmd_* handler works out a path itself: it
    reads the output_dir setting, or joins a name that STAGES declares onto a
    directory."""
    for handler in ast.walk(tree):
        if not (isinstance(handler, ast.FunctionDef) and handler.name.startswith("cmd_")):
            continue
        for node in ast.walk(handler):
            if isinstance(node, ast.Constant) and node.value == "output_dir":
                yield node.lineno, "output_dir"
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                  and isinstance(node.right, ast.Constant) and node.right.value in DECLARED):
                yield node.lineno, f"/ {node.right.value}"


def test_handlers_take_their_paths_from_main():
    """main resolves every path that STAGES declares, and passes them to the handler."""
    tree = ast.parse((SRC / "cli.py").read_text())
    assert list(_worked_out_paths(tree)) == []


def test_path_guard_sees_a_handler_that_works_out_a_path():
    tree = ast.parse(
        "def cmd_report(args, config, labels):\n"
        "    report_dir = Path(config['output_dir']) / 'report'\n"
        "    features = labels.parent / 'features.csv'\n"
        "    other = config.get('output_dir')\n"
        "    inside = report_dir / 'distribution.csv'\n"
        "def helper(config):\n"
        "    return Path(config['output_dir']) / 'report'\n"
    )
    assert sorted(_worked_out_paths(tree)) == [
        (2, "output_dir"), (3, "/ features.csv"), (4, "output_dir"), (5, "/ distribution.csv")]


def _sibling_imports(tree: ast.AST):
    """Names a module imports from its own package (`from . import x`, `from .x import y`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)


def test_every_module_is_reached_from_the_cli():
    """A module no stage imports, directly or through another module, is dead code."""
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    reached, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            tree = ast.parse((SRC / f"{name}.py").read_text(), filename=name)
            todo += [m for m in _sibling_imports(tree) if m in modules]
    assert sorted(modules - reached) == []
