"""Published JSON schemas for every report the command line emits.

Each document carries a ``schema_version`` field so downstream consumers
can detect format changes.  The dicts follow JSON Schema draft 2020-12
and are deliberately strict about required keys while leaving room for
additive extension (``additionalProperties`` stays open).
"""

SCHEMA_VERSION = "1.0"

_COMPLEX = {"type": "array", "minItems": 2, "maxItems": 2,
            "items": {"type": "number"}}

_INT_LIST = {"type": "array", "items": {"type": "integer"}}

_VERSION_FIELD = {"schema_version": {"const": SCHEMA_VERSION}}

_FAMILY = {
    "type": "object",
    "required": ["width", "window", "max_errors", "basis"],
    "properties": {
        "width": {"type": "integer", "minimum": 1},
        "window": {"type": "integer", "minimum": 1},
        "max_errors": {"type": "integer", "minimum": 0},
        "basis": {"type": "array", "items": {"type": "object"}},
        "registers": _INT_LIST,
    },
}

_WITNESS = {
    "type": "object",
    "required": ["pattern_a", "pattern_b", "logical_i", "logical_j",
                 "observed", "expected", "deviation", "boundary"],
    "properties": {
        "pattern_a": {"type": "integer", "minimum": 0},
        "pattern_b": {"type": "integer", "minimum": 0},
        "logical_i": {"type": "integer", "minimum": 0},
        "logical_j": {"type": "integer", "minimum": 0},
        "observed": _COMPLEX,
        "expected": _COMPLEX,
        "deviation": {"type": "number", "minimum": 0},
        "boundary": {"type": "boolean"},
    },
}

_KET_TERMS = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["logical", "terms"],
        "properties": {
            "logical": _INT_LIST,
            "terms": {"type": "array", "items": {
                "type": "object",
                "required": ["ket", "amp"],
                "properties": {"ket": _INT_LIST, "amp": _COMPLEX},
            }},
        },
    },
}

MANIFEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "code manifest",
    "type": "object",
    "required": ["schema_version", "label", "N", "n", "m", "memory",
                 "flush", "logical_length", "width"],
    "properties": {
        **_VERSION_FIELD,
        "label": {"type": "string"},
        "N": {"type": "integer", "minimum": 2},
        "n": {"type": "integer", "minimum": 1},
        "m": {"type": "integer", "minimum": 1},
        "memory": {"type": "integer", "minimum": 0},
        "flush": {"type": "integer", "minimum": 0},
        "logical_length": {"type": "integer", "minimum": 1},
        "width": {"type": "integer", "minimum": 1},
        "kets": _KET_TERMS,
    },
}

KL_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "recoverability check report",
    "type": "object",
    "required": ["schema_version", "verdict", "code", "tolerance", "exact",
                 "engine", "family", "family_size", "logical_dim",
                 "max_deviation", "interior_max_deviation",
                 "interior_verdict", "boundary_witnesses", "lambda_samples",
                 "lambda_summary", "elapsed_seconds"],
    "properties": {
        **_VERSION_FIELD,
        "verdict": {"enum": ["pass", "fail"]},
        "code": {"type": "string"},
        "tolerance": {"type": "number", "minimum": 0},
        "exact": {"type": "boolean"},
        "engine": {"type": "string"},
        "family": _FAMILY,
        "family_size": {"type": "integer", "minimum": 1},
        "logical_dim": {"type": "integer", "minimum": 1},
        "max_deviation": {"type": "number", "minimum": 0},
        "witness": _WITNESS,
        "interior_max_deviation": {"type": "number", "minimum": 0},
        "interior_verdict": {"enum": ["pass", "fail", "vacuous"]},
        "boundary_witnesses": {"type": "array", "items": _WITNESS},
        "lambda_samples": {"type": "array", "items": {
            "type": "object",
            "required": ["pair", "value"],
            "properties": {"pair": _INT_LIST, "value": _COMPLEX},
        }},
        "lambda_summary": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["kind", "rank"],
                    "properties": {
                        "kind": {"enum": ["identity", "degenerate"]},
                        "rank": {"type": "integer", "minimum": 0},
                        "dim": {"type": "integer", "minimum": 1},
                        "min_eigenvalue": {"type": "number"},
                    },
                },
            ],
        },
        "elapsed_seconds": {"type": "number", "minimum": 0},
    },
}

LAMBDA_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "lambda matrix report",
    "type": "object",
    "required": ["schema_version", "kind", "rank", "dim", "verdict",
                 "tolerance"],
    "properties": {
        **_VERSION_FIELD,
        "kind": {"enum": ["identity", "degenerate"]},
        "rank": {"type": "integer", "minimum": 0},
        "dim": {"type": "integer", "minimum": 1},
        "verdict": {"enum": ["pass", "fail"]},
        "tolerance": {"type": "number", "minimum": 0},
        "matrix": {"type": "array",
                   "items": {"type": "array", "items": _COMPLEX}},
    },
}

CHANNEL_SUMMARY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "channel simulation summary",
    "type": "object",
    "required": ["schema_version", "code", "N", "L", "p", "trials",
                 "in_family", "success", "conditional_success",
                 "mean_fidelity", "seed"],
    "properties": {
        **_VERSION_FIELD,
        "code": {"type": "string"},
        "N": {"type": "integer", "minimum": 2},
        "L": {"type": "integer", "minimum": 1},
        "p": {"type": "number", "minimum": 0, "maximum": 1},
        "trials": {"type": "integer", "minimum": 1},
        "in_family": {"type": "integer", "minimum": 0},
        "success": {"type": "integer", "minimum": 0},
        "conditional_success": {
            "anyOf": [{"type": "null"},
                      {"type": "number", "minimum": 0, "maximum": 1}],
        },
        "mean_fidelity": {"type": "number", "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "decoder": {"enum": ["syndrome", "ket"]},
    },
}

RADIUS_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "classical correction radius report",
    "type": "object",
    "required": ["schema_version", "verdict", "n_levels", "message_len_max",
                 "window", "max_errors", "messages_checked",
                 "corruptions_checked", "counterexample", "elapsed_seconds"],
    "properties": {
        **_VERSION_FIELD,
        "verdict": {"enum": ["pass", "fail"]},
        "n_levels": {"type": "integer", "minimum": 2},
        "message_len_max": {"type": "integer", "minimum": 1},
        "window": {"type": "integer", "minimum": 1},
        "max_errors": {"type": "integer", "minimum": 0},
        "messages_checked": {"type": "integer", "minimum": 0},
        "corruptions_checked": {"type": "integer", "minimum": 0},
        "counterexample": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["message", "corruption", "rival_message",
                                 "rival_corruption", "corrupted_word"],
                    "properties": {
                        "message": _INT_LIST,
                        "corruption": {
                            "type": "object",
                            "required": ["positions", "values"],
                            "properties": {"positions": _INT_LIST,
                                           "values": _INT_LIST},
                        },
                        "rival_message": _INT_LIST,
                        "rival_corruption": {
                            "type": "object",
                            "required": ["positions", "values"],
                            "properties": {"positions": _INT_LIST,
                                           "values": _INT_LIST},
                        },
                        "corrupted_word": _INT_LIST,
                    },
                },
            ],
        },
        "elapsed_seconds": {"type": "number", "minimum": 0},
    },
}

SCHEMAS = {
    "manifest": MANIFEST_SCHEMA,
    "kl_report": KL_REPORT_SCHEMA,
    "lambda_report": LAMBDA_REPORT_SCHEMA,
    "channel_summary": CHANNEL_SUMMARY_SCHEMA,
    "radius_report": RADIUS_REPORT_SCHEMA,
}


def stamp(report: dict) -> dict:
    """Return a copy of the report with the schema version prepended."""
    return {"schema_version": SCHEMA_VERSION, **report}
