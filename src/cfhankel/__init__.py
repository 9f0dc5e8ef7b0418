"""Exact C-fraction / power-series conversion and Hankel transforms.

Importing the package loads none of its modules: ``cfhankel.cli`` imports
what each subcommand runs.  The exported names below resolve on first use
(PEP 562).
"""

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("cfrac", "CFraction cfraction_from_json cfraction_to_json correspond evaluate"),
        ("closedform", "Convention DEFAULT_CONVENTION DenseTransform dense_to_json"
                       " dense_transform p_sequence"),
        ("catalog", "CATALOG_NAMES VerificationReport catalan_numbers catalog_cfraction"
                    " expand_rational_gf fibonacci_numbers report_to_json select_convention"
                    " verify_claims"),
        ("exact", "GAMMA ParamPoly Series series series_from_json series_reciprocal"
                  " series_to_json"),
        ("hankel_oracle", "hankel_transform matrix_det"),
    )
    for name in names.split()
}

_SUBMODULES = set(_EXPORTS.values())
__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The first exported name binds them all, loading every submodule once,
    # so a library caller then holds the namespace the package always had
    # (perfbench/tracing.py walks every cfhankel.* module of it).
    for export, module in _EXPORTS.items():
        globals()[export] = getattr(import_module(f"{__name__}.{module}"), export)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
