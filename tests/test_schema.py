"""The schemas --schema prints are the validators of the JSON inputs.

jsonschema (a test-only dependency) is the reference: every input the
tests and the benchmark write passes both it and logcy's validator, the two
agree on mutated inputs, and run() turns every mutated input into exit 0, 2
or 3 with a report.
"""

import argparse
import importlib.util
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcy import cli
from logcy.errors import InputError
from logcy.schema import validate

from test_cli import fixtures  # noqa: F401  (the fixture the CLI tests write their files with)

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
INPUT_FLAGS = ("--faces", "--config", "--sr-config", "--pres", "--tree", "--params", "--input",
               "--manifest")
KEYWORDS = {"title", "type", "required", "properties", "additionalProperties", "items",
            "minimum"}

# a cheap job per test_cli fixture file, the file standing as its fixture name
FIXTURE_JOBS = [
    ["complex", "homology", "--faces", "cycle.json"],
    ["complex", "gorenstein", "--faces", "cone.json"],
    ["sr", "hilbert", "--config", "appc.json", "--bound", "2"],
    ["sr", "present", "--config", "p2.json"],
    ["ring", "gr", "--pres", "pres.json"],
    ["ring", "smooth", "--pres", "circle_pres.json", "--codim", "1"],
    ["tree", "vdim", "--tree", "tree.json"],
    ["energy", "winding", "--params", "params.json", "--input", "winding.json"],
    ["energy", "chord-weight", "--params", "params.json", "--input", "chord.json"],
]


def _workloads_module():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _printed_schema(argv, flag):
    """The schema `--schema` prints for the file that argv passes with flag."""
    prefix = argv[:1] if argv[0] == "batch" else argv[:2]
    code, report = cli.run(prefix + ["--schema"])
    assert code == cli.EXIT_OK
    return report["schema"].get(flag[2:], report["schema"])


def _documents(jobs):
    """(argv, index of the input path in argv, parsed file, printed schema) per input file."""
    out = []
    for argv in jobs:
        for idx, arg in enumerate(argv[:-1]):
            if arg in INPUT_FLAGS:
                data = json.loads(Path(argv[idx + 1]).read_text())
                out.append((argv, idx + 1, data, _printed_schema(argv, arg)))
    return out


def _fixture_documents(fixtures):  # noqa: F811
    return _documents([[fixtures.get(arg, arg) for arg in argv] for argv in FIXTURE_JOBS])


def _workload_documents(workload, directory):
    jobs = _workloads_module().build(workload, 7, str(directory))
    argvs = [job["args"] for job in jobs if job["exit"] == cli.EXIT_OK]
    return _documents(argvs + [["batch", "--manifest", str(directory / "manifest.json")]])


def _schemas_printed():
    """Every schema --schema prints, one per subcommand and input flag."""
    out = []

    def walk(parser, prefix):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            report = cli.run(prefix + ["--schema"])[1]["schema"]
            if "note" not in report:
                out.extend([report] if "title" in report else report.values())
        for sub in subs:
            for name, child in sub.choices.items():
                walk(child, prefix + [name])

    walk(cli.build_parser(), [])
    return out


def _accepted_by_logcy(data, schema) -> bool:
    try:
        validate(data, schema)
    except InputError:
        return False
    return True


def test_schemas_use_only_the_keywords_the_validator_implements():
    def walk(schema):
        assert set(schema) <= KEYWORDS, set(schema) - KEYWORDS
        types = schema.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= {
            "object", "array", "string", "integer", "boolean", "null"}
        for sub in schema.get("properties", {}).values():
            walk(sub)
        for key in ("additionalProperties", "items"):
            if key in schema:
                assert isinstance(schema[key], dict)
                walk(schema[key])

    schemas = _schemas_printed()
    assert len(schemas) >= 8
    for schema in schemas:
        assert "title" in schema
        jsonschema.Draft202012Validator.check_schema(schema)
        walk(schema)


def test_fixture_files_pass_both_validators(fixtures):  # noqa: F811
    documents = _fixture_documents(fixtures)
    assert len(documents) == 11
    for _, _, data, schema in documents:
        jsonschema.validate(data, schema)
        validate(data, schema)


@pytest.mark.parametrize("workload", ["ideals", "complexes", "theta_trees", "cli_small"])
def test_benchmark_files_pass_both_validators(tmp_path, workload):
    documents = _workload_documents(workload, tmp_path)
    assert len(documents) > 1
    for _, _, data, schema in documents:
        jsonschema.validate(data, schema)
        validate(data, schema)


@pytest.mark.parametrize("data, schema, message", [
    (True, {"title": "t", "type": "integer"}, "t must be an integer"),
    (1.0, {"title": "t", "type": "integer"}, "t must be an integer"),
    (-1, {"title": "t", "type": "integer", "minimum": 0}, "t must be at least 0"),
    ({"a": {"b->c": ["x"]}}, {"title": "t", "properties": {"a": {"additionalProperties": {
        "items": {"type": "integer"}}}}}, "t a['b->c'][0] must be an integer"),
    ({"a": [{}]}, {"title": "t", "properties": {"a": {"items": {"required": ["b"]}}}},
     "t a[0] missing key 'b'"),
    ({"c": 5}, {"title": "t", "properties": {"c": {"title": "u", "type": "object"}}},
     "u must be an object"),
    ("x", {"title": "t", "type": ["integer", "null"]}, "t must be an integer or null"),
])
def test_validator_errors_name_the_json_path(data, schema, message):
    with pytest.raises(InputError) as info:
        validate(data, schema)
    assert str(info.value) == message
    # draft 4, like logcy, reads 1.0 as a number that is not an integer
    assert not jsonschema.Draft4Validator(schema).is_valid(data)


_REPLACEMENTS = [5, 0, -1, "a", "0", [], {}, True, None, 1.5]
_DROP = object()


def _paths(node, path=()):
    """Every node's path as a tuple of keys and indices, the root included."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            yield from _paths(value, path + (idx,))


def _mutated(data, path, value):
    """A copy of data with the node at path replaced by value, or dropped from its object."""
    if not path:
        return value
    data = json.loads(json.dumps(data))
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


@st.composite
def _mutation(draw, documents):
    argv, at, data, schema = draw(st.sampled_from(documents))
    path = draw(st.sampled_from(list(_paths(data))))
    choices = _REPLACEMENTS + ([_DROP] if path and isinstance(path[-1], str) else [])
    return argv, at, _mutated(data, path, draw(st.sampled_from(choices))), schema


def test_validators_agree_on_mutated_benchmark_files(tmp_path):
    documents = [doc for workload in ("ideals", "complexes", "theta_trees")
                 for doc in _workload_documents(workload, tmp_path / workload)]

    @settings(max_examples=300, deadline=None)
    @given(_mutation(documents))
    def agree(mutation):
        _, _, data, schema = mutation
        reference = jsonschema.Draft202012Validator(schema).is_valid(data)
        assert _accepted_by_logcy(data, schema) == reference

    agree()


def test_run_fails_closed_on_mutated_inputs(fixtures, tmp_path):  # noqa: F811
    documents = _fixture_documents(fixtures) + _workload_documents("cli_small",
                                                                    tmp_path / "cli_small")

    @settings(max_examples=300, deadline=None)
    @given(_mutation(documents))
    def fails_closed(mutation):
        argv, at, data, schema = mutation
        reference = jsonschema.Draft202012Validator(schema).is_valid(data)
        assert _accepted_by_logcy(data, schema) == reference
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(data))
        code, report = cli.run(argv[:at] + [str(path)] + argv[at + 1:])
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_UNSUPPORTED)
        json.loads(cli.render_report(report))
        if not reference:
            assert code == cli.EXIT_INPUT and "JSON" in report["error"]["message"]

    fails_closed()
