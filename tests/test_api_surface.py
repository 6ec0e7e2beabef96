"""Pins of the public surface: optional parameters and CLI flags.

Each optional parameter or flag is one more setting that the tests and
the benchmark have to cover.  Adding one means editing a pin below, so
the change shows in the diff.
"""

import argparse
import enum
import inspect

import jnplus
from jnplus import cli

# Optional-parameter count of every callable in jnplus.__all__ and of the
# public methods of its classes; any name not listed here has none.
# Exception and Enum classes take no parameters of their own and are skipped.
OPTIONAL_PARAMS = {
    "CubeFamily.weight": 1,
    "GeneratorSpec": 4,
    "GridFunction": 2,
    "LemmaContext": 1,
    "SeminormResult": 1,
    "VerificationReport": 3,
    "antichain_oracle": 2,
    "bmo_plus_dyadic": 1,
    "bmo_plus_limit_form": 1,
    "forward": 1,
    "jnp_classical_dyadic": 1,
    "jnp_plus_dyadic": 1,
    "lemma_sweep": 1,
    "maximal_function": 2,
    "theorem_check": 1,
}

# Flags of every (sub)command, without -h/--help.
CLI_FLAGS = {
    "": ["--version"],
    "gen": ["--L", "--alpha", "--kind", "--mode", "--n", "--out", "--seed", "--value"],
    "seminorm": ["--input", "--out", "--p"],
    "maximal": ["--input", "--out", "--variant"],
    "decompose": ["--b", "--input", "--lambda", "--out", "--p"],
    "verify": [],
    "verify good-lambda": ["--b", "--input", "--lambda", "--out", "--p"],
    "verify theorem": ["--b", "--csv", "--input", "--lambda", "--out", "--p"],
    "oracle": ["--functional", "--input", "--out", "--p"],
}


def _optional_count(fn) -> int:
    params = inspect.signature(fn).parameters.values()
    return sum(1 for p in params if p.default is not inspect.Parameter.empty)


def test_optional_parameters_are_pinned():
    got = {}
    for name in jnplus.__all__:
        obj = getattr(jnplus, name)
        if not callable(obj):
            continue
        if inspect.isclass(obj) and issubclass(obj, (Exception, enum.Enum)):
            continue
        items = [(name, obj)]
        if inspect.isclass(obj):
            items += [
                (f"{name}.{attr}", fn)
                for attr, fn in vars(obj).items()
                if inspect.isfunction(fn) and not attr.startswith("_")
            ]
        for key, fn in items:
            count = _optional_count(fn)
            if count:
                got[key] = count
    assert got == OPTIONAL_PARAMS


def _flags(parser: argparse.ArgumentParser, prefix: tuple[str, ...] = ()) -> dict:
    out = {}
    own = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for cmd, sub in action.choices.items():
                out.update(_flags(sub, prefix + (cmd,)))
        elif not isinstance(action, argparse._HelpAction):
            own += action.option_strings
    out[" ".join(prefix)] = sorted(own)
    return out


def test_cli_flags_are_pinned():
    assert _flags(cli._PARSER) == CLI_FLAGS
