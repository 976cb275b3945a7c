"""Published JSON schemas for run configs and diagnostics files."""

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
