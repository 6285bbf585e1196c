"""Helpers that only the tests use, kept out of the package."""

from sstkalman.gf2 import to_string


def code_to_json(code):
    """A code as the JSON object of a code file, which `convcode.code_from_json`
    reads back: its name, g and ginv as polynomial strings."""
    return {
        "name": code.name,
        "g": [to_string(p) for p in code.g],
        "ginv": [to_string(p) for p in code.ginv],
    }
