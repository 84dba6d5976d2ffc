"""The JSON boundary: the one shape check of JSON input, and the rendering of
every report.

Each input format is described once, by the JSON Schema dict that `--schema`
prints.  validate() implements the keywords those dicts use, with JSON Schema
semantics: type, required, properties, additionalProperties and items (schema
forms) and minimum.  An "integer" is a JSON number written without a fraction or
exponent, so neither true nor 1.0 reaches exact arithmetic.  A title names the
document in error messages; a titled subschema (a chord in an energy input)
names its own.  The walk carries no path: a mismatch raises a private
exception, each object or array on the way up adds its key or index to it until
a titled subschema has been passed, and validate() writes the path once, so a
document that matches builds no path at all.  require_distinct() rejects a list
whose entries repeat a key that the parsers turn into a dict key, where the
later entry would silently replace the earlier one.

render_report() writes a report as json.dumps(report, sort_keys=True,
indent=2) plus a newline, byte for byte, without the pure-Python encoder that
json.dumps takes whenever it indents.
"""

import json
from json.encoder import encode_basestring_ascii

from .errors import InputError

# the JSON type of each value json.loads returns; true is a boolean, never an integer
_KINDS = {dict: "object", list: "array", str: "string", int: "integer", bool: "boolean",
          type(None): "null", float: "number"}
_NAMES = {"object": "an object", "array": "a list", "string": "a string",
          "integer": "an integer", "boolean": "a boolean", "null": "null"}


class _Mismatch(Exception):
    """What _check found wrong (tail), the keys from the node up to the nearest
    titled schema (innermost first), and that schema's title once passed."""

    def __init__(self, tail, title):
        self.tail = tail
        self.title = title
        self.keys = []


def validate(data, schema):
    """Raise InputError unless data matches schema, naming the JSON path of the
    first mismatch, e.g. "tree JSON vertices[0].depth must be a list"."""
    try:
        _check(data, schema)
    except _Mismatch as exc:
        raise InputError(f"{_where(exc.title, reversed(exc.keys))} {exc.tail}") from None


def require_distinct(keys, title, path, what):
    """Raise InputError when two entries of the list at path share a key, naming
    both, e.g. "tree JSON vertices[2] repeats the id of vertices[1]"."""
    first = {}
    for idx, key in enumerate(keys):
        if first.setdefault(key, idx) != idx:
            raise InputError(f"{title} {path}[{idx}] repeats the {what} of {path}[{first[key]}]")


def _where(title, path) -> str:
    text = ""
    for key in path:
        if isinstance(key, int) or not key.isidentifier():
            text += f"[{key!r}]"
        else:
            text += f".{key}" if text else key
    return f"{title} {text}" if text else title


def _check(value, schema):
    kind = _KINDS.get(type(value))
    types = schema.get("type")
    if types is not None and kind != types and (isinstance(types, str) or kind not in types):
        names = [types] if isinstance(types, str) else types
        raise _Mismatch("must be " + " or ".join(_NAMES[t] for t in names), schema.get("title"))
    if kind == "object":
        for key in schema.get("required", ()):
            if key not in value:
                raise _Mismatch(f"missing key {key!r}", schema.get("title"))
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, item in value.items():
            sub = properties.get(key, extra)
            if sub is not None:
                try:
                    _check(item, sub)
                except _Mismatch as exc:
                    if exc.title is None:
                        exc.keys.append(key)
                        exc.title = schema.get("title")
                    raise
    elif kind == "array":
        items = schema.get("items")
        if items is not None:
            for idx, item in enumerate(value):
                try:
                    _check(item, items)
                except _Mismatch as exc:
                    if exc.title is None:
                        exc.keys.append(idx)
                        exc.title = schema.get("title")
                    raise
    elif kind in ("integer", "number") and "minimum" in schema and value < schema["minimum"]:
        raise _Mismatch(f"must be at least {schema['minimum']}", schema.get("title"))


def render_report(report) -> str:
    """json.dumps(report, sort_keys=True, indent=2) + "\\n", byte for byte."""
    return _render(report, "\n") + "\n"


def _render(value, newline):
    """value as the indenting encoder writes it at the indentation that newline
    ends with.  Each container is joined once; a scalar that is not a str, an
    int or a literal (a float, an unserializable object) goes to json.dumps,
    which writes or refuses it as the encoder would."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is not a str is written, or refused, by the encoder itself
        return "{" + inner + ("," + inner).join([
            (encode_basestring_ascii(key) if type(key) is str else json.dumps({key: 0})[1:-4])
            + ": " + _render(item, inner) for key, item in sorted(value.items())]) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_render(item, inner) for item in value]) \
            + newline + "]"
    return json.dumps(value)

