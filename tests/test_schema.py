"""The JSON boundary: the schemas --schema prints validate the JSON inputs,
and render_report writes the reports.

jsonschema (a test-only dependency) is the reference for what is accepted:
every input the tests and the benchmark write passes both it and logcy's
validator, the two agree on mutated inputs, and run() turns every mutated
input into exit 0, 2 or 3 with a report.  helpers.validate_oracle, a walk
that carries its JSON path into every call, is the reference for the
message: on every mutated input logcy names the same first fault in the
same words.  json.dumps is the reference for every rendered byte.
"""

import argparse
import importlib.util
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcy import cli, complexes, stratum, trees
from logcy.errors import InputError
from logcy.schema import render_report, validate

from helpers import criterion_11_jobs, validate_oracle
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


def _criterion_11_documents(directory):
    """Criterion 11's input files under each of its jobs, and its manifest under batch."""
    directory.mkdir()
    jobs = criterion_11_jobs(directory)
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"jobs": jobs}))
    return _documents([job["args"] for job in jobs] + [["batch", "--manifest", str(manifest)]])


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


def _message(check, data, schema):
    """The message of the InputError check(data, schema) raises, or None."""
    try:
        check(data, schema)
    except InputError as exc:
        return str(exc)
    return None


def _checked_like_the_oracle(data, schema):
    """logcy's message on data, after asserting that the path-carrying walk
    gives the same one and that jsonschema accepts exactly when logcy does."""
    message = _message(validate, data, schema)
    assert message == _message(validate_oracle, data, schema)
    assert (message is None) == jsonschema.Draft202012Validator(schema).is_valid(data)
    return message


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
    documents += _criterion_11_documents(tmp_path / "criterion_11")

    @settings(max_examples=300, deadline=None)
    @given(_mutation(documents))
    def agree(mutation):
        _, _, data, schema = mutation
        _checked_like_the_oracle(data, schema)

    agree()


def test_run_fails_closed_on_mutated_inputs(fixtures, tmp_path):  # noqa: F811
    documents = (_fixture_documents(fixtures)
                 + _workload_documents("cli_small", tmp_path / "cli_small")
                 + _criterion_11_documents(tmp_path / "criterion_11"))
    assert {argv[0] for argv, _, _, _ in documents} == {
        "complex", "sr", "ring", "tree", "energy", "batch"}

    @settings(max_examples=300, deadline=None)
    @given(_mutation(documents))
    def fails_closed(mutation):
        argv, at, data, schema = mutation
        message = _checked_like_the_oracle(data, schema)
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(data))
        code, report = cli.run(argv[:at] + [str(path)] + argv[at + 1:])
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_UNSUPPORTED)
        assert render_report(report) == json.dumps(report, sort_keys=True, indent=2) + "\n"
        if message is not None:
            assert code == cli.EXIT_INPUT and report["error"]["message"] == message

    fails_closed()


def _configuration(strata=(), maps=()):
    return {"k": 3, "kappa": ["1", "1", "1"], "a": ["1", "1", "1"],
            "strata": [{"I": index, "components": comps} for index, comps in strata],
            "maps": [{"from": src, "to": dst, "assign": assign} for src, dst, assign in maps]}


def _tree(vertices, edges):
    return {"k": 2, "root": 0, "deg_x0": 0, "edges": edges,
            "vertices": [{"id": vertex, "depth": depth} for vertex, depth in vertices]}


# documents with several faults, and the one their parser names: the first in
# a fixed order (the schema walk in document order, then repeated list entries,
# then the constructor's checks)
_SEVERAL_FAULTS = {
    "config-schema": (stratum.configuration_from_json, {
        "k": 3, "kappa": ["1"], "a": ["1"], "maps": [{"from": [1], "to": []}],
        "strata": [{"I": [1, "2"], "components": [0]}]},
        "configuration JSON maps[0] missing key 'assign'"),
    "config-repeats": (stratum.configuration_from_json, _configuration(
        strata=[([1], [0]), ([2, 1, 2], [0]), ([1], [0])], maps=[([1, 1], [], {"0": 0})]),
        "configuration JSON strata[1].I[2] repeats the index of strata[1].I[0]"),
    "config-map-target-then-stratum": (stratum.configuration_from_json, _configuration(
        strata=[([1, 2], [0]), ([2, 1], [0])], maps=[([1, 2], [1, 1], {"0": 0})]),
        "configuration JSON maps[0].to[1] repeats the index of maps[0].to[0]"),
    "config-stratum-then-pair": (stratum.configuration_from_json, _configuration(
        strata=[([1, 2], [0]), ([2, 1], [0])], maps=[([1], [], {"0": 0}), ([1], [], {"0": 0})]),
        "configuration JSON strata[1] repeats the I of strata[0]"),
    "config-pair-then-key": (stratum.configuration_from_json, _configuration(
        strata=[([1], [0])], maps=[([1], [], {"x": 0}), ([1], [], {"0": 0})]),
        "configuration JSON maps[1] repeats the from and to of maps[0]"),
    "config-key-then-empty-face": (stratum.configuration_from_json, _configuration(
        strata=[([1, 2], [0])], maps=[([1, 2], [1], {"zero": 0})]),
        "configuration JSON maps[0].assign has a non-integer key"),
    "config-empty-faces-then-map": (stratum.configuration_from_json, _configuration(
        strata=[([1], [0, 1]), ([2, 3], [0]), ([1, 2], [0])]),
        "stratum [2, 3] nonempty but [3] empty"),
    "config-range-then-empty-face": (stratum.configuration_from_json, _configuration(
        strata=[([1, 2], [0]), ([4], [0])]),
        "stratum index [4] out of range 1..3"),
    "config-missing-map-then-cover": (stratum.configuration_from_json, _configuration(
        strata=[([1], [0]), ([2], [0, 1]), ([1, 2], [0, 1])], maps=[([1, 2], [1], {"0": 0})]),
        "missing component map [1, 2] -> [2] (target has 2 components)"),
    "tree-id-then-depths": (trees.tree_from_json, _tree(
        [(0, []), (1, [1, 1]), (1, [])],
        [{"a": 1, "b": 0, "depthE": [2, 2], "contact": {}}]),
        "tree JSON vertices[2] repeats the id of vertices[1]"),
    "tree-depth-then-contact": (trees.tree_from_json, _tree(
        [(0, []), (1, [2, 1, 2])], [{"a": 1, "b": 0, "depthE": [1], "contact": {}}]),
        "tree JSON vertices[1].depth[2] repeats the index of vertices[1].depth[0]"),
    "tree-antisymmetry-then-depth": (trees.tree_from_json, _tree(
        [(0, []), (1, []), (2, [])],
        [{"a": 1, "b": 0, "depthE": [1], "contact": {"1->0": [1, 0], "0->1": [1, 0]}},
         {"a": 2, "b": 1, "depthE": [1, 1], "contact": {"2->1": [0, 0]}}]),
        "edge 1-0 contact vectors are not antisymmetric"),
    "tree-schema": (trees.tree_from_json,
                    {"k": -1, "root": 0, "deg_x0": 0, "vertices": [{"depth": []}], "edges": []},
                    "tree JSON k must be at least 0"),
    "complex-facets": (complexes.complex_from_json, {"facets": [[1, 2], [2, 1, 1], [3, 3]]},
                       "complex JSON facets[1][2] repeats the vertex of facets[1][1]"),
}


@pytest.mark.parametrize("kind", sorted(_SEVERAL_FAULTS))
def test_a_document_with_several_faults_names_the_first(kind):
    parse, data, message = _SEVERAL_FAULTS[kind]
    with pytest.raises(InputError) as info:
        parse(data)
    assert str(info.value) == message


_TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\x00\x1f\x7f é€𝄞'))
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
            | st.floats() | _TEXT)
_KEYS = [_TEXT, st.integers(), st.booleans(), st.floats(allow_nan=False), st.none()]
_JSON_LIKE = st.recursive(_SCALARS, lambda inner: (
    st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.one_of([st.dictionaries(keys, inner, max_size=4) for keys in _KEYS])),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_JSON_LIKE)
def test_render_report_writes_the_bytes_of_json_dumps(value):
    assert render_report(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_render_report_nests_deeply_and_refuses_what_json_dumps_refuses():
    deep = [[[[[[[[[[{"a": [[[[[[{}]]]]]], "": ()}]]]]]]]]]]
    assert render_report(deep) == json.dumps(deep, sort_keys=True, indent=2) + "\n"
    specials = {"nan": math.nan, "inf": -math.inf, "big": 2 ** 200, "bool": [True, 1, False, 0]}
    assert render_report(specials) == json.dumps(specials, sort_keys=True, indent=2) + "\n"
    for value in ({"a": object()}, [{1, 2}], {(1, 2): 0}, {"a": 1, 2: "b"}):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            render_report(value)
