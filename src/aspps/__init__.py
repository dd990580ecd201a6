"""Typed logic programs with cardinality constructs: grounder and solver.

The pipeline is parse_data_file/parse_rule_file -> build_database ->
check_program -> ground_theory -> write_tdc, and read_tdc -> solve on
the solving side. The psgrnd and aspps console scripts wrap the two
halves.
"""

from importlib import import_module

# Public name -> the module defining it. Names load on first use (PEP 562),
# so each console script imports only the modules its half needs.
_EXPORTS = {
    "CardConstruct": "theory",
    "DataDatabase": "database",
    "GroundAtom": "theory",
    "GroundError": "errors",
    "GroundTheory": "theory",
    "ParseError": "errors",
    "SolveResult": "solver",
    "SolveStats": "solver",
    "Solver": "solver",
    "TdcError": "errors",
    "ToolchainError": "errors",
    "build_database": "database",
    "check_model": "tdc",
    "check_program": "grounder",
    "ground_theory": "grounder",
    "output_name": "grounder",
    "parse_data_file": "parser",
    "parse_rule_file": "parser",
    "print_theory": "tdc",
    "read_tdc": "tdc",
    "solve": "solver",
    "write_tdc": "tdc",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
