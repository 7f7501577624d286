"""Pattern-avoiding Delannoy and k-Schroeder lattice paths.

Exact enumeration, counting formulas with built-in cross-checks, the
peak/diagonal rewriting bijections, algebraic generating functions for the
region-restricted families, and numerical harnesses for two equinumerosity
conjectures.

Exports resolve on first access (PEP 562): ``import delannoy`` loads no
submodule, and ``delannoy.assemble_triple`` or ``delannoy.series`` imports
``delannoy.series`` then.
"""

__version__ = "0.1.0"

# Each home module and the names it exports.
_EXPORTS = {
    "bijections": "BijectionReport delta_map pi_map tau_inverse tau_map verify_bijection",
    "conjectures": "ConjectureReport check_conjecture1 check_conjecture2 count_catalan_no_symmetric_peak "
    "count_inversion_102",
    "counting": "CountTable a_count b_closed b_dp b_table binomial delannoy_count expand_bivariate "
    "h_closed h_dp h_table schroeder_count schroeder_rect_count",
    "errors": "ConsistencyError",
    "paths": "LatticePath PathFamilySpec count_bruteforce enumerate_paths in_region parse_path satisfies",
    "series": "RadicalCheck SeriesTriple assemble_triple closed_k1 closed_k2 radical_check_k1 "
    "solve_fd",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name, name)
    if home not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")  # the import statement's route, so -X importtime lists it
    module = globals()[home]  # a loaded submodule is bound in its package
    return module if name == home else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
