"""Published JSON schemas for run configs and diagnostics files, and the
validator that checks instances against them.

``validate`` interprets exactly the draft 2020-12 keywords these schemas
use and reports the error ``jsonschema.validate`` would (its ``best_match``
over every error, with its wording), without importing jsonschema.  Any
other keyword raises NotImplementedError, so a schema edit that outgrows
the validator fails instead of being ignored.  This module imports only
the standard library, so it also loads on its own from its file.
"""

import operator
from numbers import Number

COMMANDS = ["indices", "hypotheses", "tstar", "biortho", "synthesize",
            "verify", "grushin", "gramian2x2"]


def _cases(key: str, cases: dict) -> list:
    """One if/then clause per value of ``key``, applying that value's subschema."""
    return [{"if": {"properties": {key: {"const": value}}, "required": [key]}, "then": then}
            for value, then in cases.items()]


SEQUENCE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["rule"],
    "properties": {
        "rule": {"enum": ["power", "appendixB", "two_diffusion", "academic_lf", "explicit"]},
        "c": {"type": "number"},
        "p": {"type": "number"},
        "tau": {"type": "number"},
        "d": {"type": "number"},
        "scale": {"type": "number"},
        "values": {"type": "array", "items": {"type": "number"}},
    },
    # the keys each rule takes, and those it cannot do without
    "allOf": _cases("rule", {
        "power": {"propertyNames": {"enum": ["rule", "c", "p"]}},
        "appendixB": {"propertyNames": {"enum": ["rule", "tau"]}},
        "two_diffusion": {"propertyNames": {"enum": ["rule", "d", "scale"]}, "required": ["d"]},
        "academic_lf": {"propertyNames": {"enum": ["rule", "tau"]}, "required": ["tau"]},
        "explicit": {"propertyNames": {"enum": ["rule", "values"]}, "required": ["values"]},
    }),
}

MODEL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name"],
    "properties": {
        "name": {"enum": ["pointwise_heat", "cascade_internal_q", "cascade_boundary_q",
                          "two_diffusion_boundary", "two_diffusion_pointwise",
                          "academic_lf", "harmonic_oscillator"]},
        "x0": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "d": {"type": "number"},
        "tau": {"type": "number"},
        "omega": {"type": "array", "items": {"type": "number", "minimum": 0, "maximum": 1},
                  "minItems": 2, "maxItems": 2},
        "q_breakpoints": {"type": "array", "items": {"type": "number"}},
        "q_values": {"type": "array", "items": {"type": "number"}},
        "truncation": {"type": "integer", "minimum": 8},
        "y0": {"enum": ["one", "reciprocal", "reciprocal_sq"]},
    },
    # the keys each model cannot do without
    "allOf": _cases("name", {
        "pointwise_heat": {"required": ["x0"]},
        "cascade_internal_q": {"required": ["q_breakpoints", "q_values", "omega"]},
        "cascade_boundary_q": {"required": ["q_breakpoints", "q_values"]},
        "two_diffusion_boundary": {"required": ["d"]},
        "two_diffusion_pointwise": {"required": ["d", "x0"]},
        "academic_lf": {"required": ["tau"]},
    }),
}

PARAMS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "K": {"type": "integer", "minimum": 1},
        "N": {"type": "integer", "minimum": 1},
        "N_check": {"type": "integer", "minimum": 1},
        "T": {"type": "number", "exclusiveMinimum": 0},
        "window": {"type": "integer", "minimum": 1},
        "rel_tail_tol": {"type": "number", "exclusiveMinimum": 0},
        "cap": {"type": "number"},
        "a": {"type": "number", "minimum": 0, "maximum": 1},
        "b": {"type": "number", "minimum": 0, "maximum": 1},
        "n_max": {"type": "integer", "minimum": 1},
        "h": {"type": "number", "exclusiveMinimum": 0},
        "lam1": {"type": "number"},
        "lam2": {"type": "number"},
        "bvec": {"type": "array", "items": {"type": "number"},
                 "minItems": 2, "maxItems": 2},
        "y0vec": {"type": "array", "items": {"type": "number"},
                  "minItems": 2, "maxItems": 2},
        "samples": {"type": "integer", "minimum": 2},
        "rk4_h": {"type": "number", "exclusiveMinimum": 0},
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "nullcontrol run config",
    "type": "object",
    "additionalProperties": False,
    "required": ["command"],
    "properties": {
        "command": {"enum": COMMANDS},
        "sequence": SEQUENCE_SCHEMA,
        "model": MODEL_SCHEMA,
        "params": PARAMS_SCHEMA,
    },
    # the sections each command reads
    "allOf": _cases("command", {
        "indices": {"required": ["sequence"]},
        "biortho": {"required": ["sequence"]},
        "hypotheses": {"if": {"not": {"required": ["sequence"]}}, "then": {"required": ["model"]}},
        "tstar": {"required": ["model"]},
        "synthesize": {"required": ["model"]},
        "verify": {"required": ["model"]},
        "gramian2x2": {"required": ["params"],
                       "properties": {"params": {"required": ["lam1", "lam2"]}}},
    }),
}

DIAGNOSTICS_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "nullcontrol diagnostics",
    "type": "object",
    "additionalProperties": False,
    "required": ["command", "data"],
    "properties": {
        "command": {"enum": COMMANDS},
        "seed": {"type": ["integer", "null"]},
        "model": {"type": ["object", "null"]},
        "sequence": {"type": ["object", "null"]},
        "data": {"type": "object"},
    },
}

ERROR_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["error", "message"],
    "properties": {
        "error": {"type": "string"},
        "message": {"type": "string"},
    },
}


class SchemaViolation(Exception):
    """An instance failed its schema; the message is jsonschema's for that error."""


_TYPES = {
    "null": lambda x: x is None,
    "boolean": lambda x: isinstance(x, bool),
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, Number) and not isinstance(x, bool),
    # an integral float such as 2.0 is an integer, as in draft 2020-12
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}


def _is_type(x, types) -> bool:
    return any(_TYPES[t](x) for t in ([types] if isinstance(types, str) else types))


def _equal(a, b) -> bool:
    """JSON equality: True is not 1, and lists and objects compare by members."""
    if a is b:
        return True
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    if isinstance(a, bool) or isinstance(b, bool):
        return False  # distinct bools, or a bool against a number
    return a == b


# Each keyword check takes (keyword value, instance, schema, path) and yields
# a message for an error of the instance itself, or the (path, subschema,
# instance, message) of an error found below it, in jsonschema's order.

def _no_check(value, x, schema, path):
    return ()  # annotations; "then" is read by "if"


def _type(types, x, schema, path):
    if not _is_type(x, types):
        names = [types] if isinstance(types, str) else types
        yield f"{x!r} is not of type {', '.join(map(repr, names))}"


def _enum(values, x, schema, path):
    if not any(_equal(v, x) for v in values):
        yield f"{x!r} is not one of {values!r}"


def _const(value, x, schema, path):
    if not _equal(x, value):
        yield f"{value!r} was expected"


def _required(names, x, schema, path):
    if isinstance(x, dict):
        yield from (f"{name!r} is a required property" for name in names if name not in x)


def _properties(subschemas, x, schema, path):
    if isinstance(x, dict):
        for name, sub in subschemas.items():
            if name in x:
                yield from _errors(x[name], sub, path + (name,))


def _additional_properties(allowed, x, schema, path):
    if allowed is not False:
        raise NotImplementedError("only additionalProperties: false is supported")
    if isinstance(x, dict):
        extras = sorted((k for k in x if k not in schema.get("properties", {})), key=str)
        if extras:
            verb = "was" if len(extras) == 1 else "were"
            yield (f"Additional properties are not allowed "
                   f"({', '.join(map(repr, extras))} {verb} unexpected)")


def _property_names(sub, x, schema, path):
    if isinstance(x, dict):
        for name in x:  # a name's errors sit at the object's own path
            yield from _errors(name, sub, path)


def _items(sub, x, schema, path):
    if isinstance(x, list):
        for i, item in enumerate(x):
            yield from _errors(item, sub, path + (i,))


def _min_items(n, x, schema, path):
    if isinstance(x, list) and len(x) < n:
        yield f"{x!r} {'should be non-empty' if n == 1 else 'is too short'}"


def _max_items(n, x, schema, path):
    if isinstance(x, list) and len(x) > n:
        yield f"{x!r} {'is expected to be empty' if n == 0 else 'is too long'}"


def _bound(fails, words):
    """The check of one numeric bound; a NaN instance fails no comparison,
    so it passes every bound, as in jsonschema."""
    def check(m, x, schema, path):
        if _TYPES["number"](x) and fails(x, m):
            yield f"{x!r} is {words} {m!r}"
    return check


def _all_of(subs, x, schema, path):
    for sub in subs:
        yield from _errors(x, sub, path)


def _if(sub, x, schema, path):
    if _valid(x, sub) and "then" in schema:
        yield from _errors(x, schema["then"], path)


def _not(sub, x, schema, path):
    if _valid(x, sub):
        yield f"{x!r} should not be valid under {sub!r}"


KEYWORDS = {
    "$schema": _no_check, "title": _no_check, "then": _no_check,
    "type": _type, "enum": _enum, "const": _const, "required": _required,
    "properties": _properties, "additionalProperties": _additional_properties,
    "propertyNames": _property_names, "items": _items,
    "minItems": _min_items, "maxItems": _max_items,
    "minimum": _bound(operator.lt, "less than the minimum of"),
    "maximum": _bound(operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": _bound(operator.ge, "greater than or equal to the maximum of"),
    "allOf": _all_of, "if": _if, "not": _not,
}


def _errors(x, schema: dict, path: tuple):
    """Every error of x under schema as (path, subschema, instance, message),
    in jsonschema's order: the schema's keywords in turn."""
    for keyword, value in schema.items():
        check = KEYWORDS.get(keyword)
        if check is None:
            raise NotImplementedError(f"schema keyword {keyword!r} is not supported")
        for error in check(value, x, schema, path):
            yield error if isinstance(error, tuple) else (path, schema, x, error)


def _valid(x, schema: dict) -> bool:
    return next(_errors(x, schema, ()), None) is None


def _relevance(error):
    """jsonschema's ``relevance`` for this dialect: the shallowest error,
    then the largest path, then one whose subschema's ``type`` the
    instance fails or that states none."""
    path, schema, x, _ = error
    return -len(path), path, not ("type" in schema and _is_type(x, schema["type"]))


def validate(instance, schema: dict) -> None:
    """Raise SchemaViolation with the message jsonschema.validate(instance,
    schema) raises, if any; on ties the first error in schema order wins."""
    best = max(_errors(instance, schema, ()), key=_relevance, default=None)
    if best is not None:
        raise SchemaViolation(best[3])
