"""The one shape check of JSON input.

Each input format is described once, by the JSON Schema dict that `--schema`
prints.  validate() implements the keywords those dicts use, with JSON Schema
semantics: type, required, properties, additionalProperties and items (schema
forms) and minimum.  An "integer" is a JSON number written without a fraction or
exponent, so neither true nor 1.0 reaches exact arithmetic.  A title names the
document in error messages; a titled subschema (a chord in an energy input)
names its own.  require_distinct() rejects a list whose entries repeat a key
that the parsers turn into a dict key, where the later entry would silently
replace the earlier one.
"""

from .errors import InputError

# the JSON type of each value json.loads returns; true is a boolean, never an integer
_KINDS = {dict: "object", list: "array", str: "string", int: "integer", bool: "boolean",
          type(None): "null", float: "number"}
_NAMES = {"object": "an object", "array": "a list", "string": "a string",
          "integer": "an integer", "boolean": "a boolean", "null": "null"}


def validate(data, schema):
    """Raise InputError unless data matches schema, naming the JSON path of the
    first mismatch, e.g. "tree JSON vertices[0].depth must be a list"."""
    _check(data, schema, schema["title"], ())


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


def _check(value, schema, title, path):
    if "title" in schema:
        title, path = schema["title"], ()
    kind = _KINDS.get(type(value))
    types = schema.get("type")
    if types is not None and kind != types and (isinstance(types, str) or kind not in types):
        names = [types] if isinstance(types, str) else types
        raise InputError(f"{_where(title, path)} must be " + " or ".join(_NAMES[t] for t in names))
    if kind == "object":
        for key in schema.get("required", ()):
            if key not in value:
                raise InputError(f"{_where(title, path)} missing key {key!r}")
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, item in value.items():
            sub = properties.get(key, extra)
            if sub is not None:
                _check(item, sub, title, path + (key,))
    elif kind == "array":
        items = schema.get("items")
        if items is not None:
            for idx, item in enumerate(value):
                _check(item, items, title, path + (idx,))
    elif kind in ("integer", "number") and "minimum" in schema and value < schema["minimum"]:
        raise InputError(f"{_where(title, path)} must be at least {schema['minimum']}")
