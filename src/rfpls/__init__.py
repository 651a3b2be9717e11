"""Scalar-on-multiple-function regression with classical and robust
partial least squares, a principal-component baseline, trimmed
evaluation metrics, and a Monte Carlo harness."""

from importlib import import_module

__version__ = "0.1.0"

# Public names by defining module, imported the first time one of its names is
# used, so ``rfpls fit``, ``predict`` and ``cv`` never load ``simulation``.  No
# name is cached here: a rebinding in its module is the only binding there is.
_EXPORTS = {
    "basis": ("BasisSystem", "MultiFunctionalDesign", "build_bspline_system", "build_design",
              "evaluate_basis", "gram_matrix", "smooth_curves"),
    "errors": ("ConfigError", "InputError", "NumericalError", "RfplsError",
               "SpatialMedianCapWarning"),
    "evaluation": ("CVReport", "risee", "select_num_components", "trimmed_mspe",
                   "trimmed_r2"),
    "fileio": ("CurveTable", "load_model", "read_curves", "read_response", "save_model",
               "write_curves", "write_predictions", "write_response"),
    "regression": ("FittedSofr", "RobustReport", "coefficient_functions", "fit_fpc",
                   "fit_fpls", "fit_rfpls", "predict", "predict_from_design"),
    "robust": ("MEstimate", "efficiency_factor", "hampel_f", "hampel_weight", "l1_median",
               "m_estimate", "mad_scale", "select_tuning", "tukey_kappa", "tukey_rho"),
    "robust_pls": ("RobustPLSFit", "initial_weights", "prm_fit"),
    "simpls": ("PLSFit", "simpls_fit", "weighted_simpls_fit"),
    "simulation": ("ExperimentConfig", "ExperimentResult", "SimDataset", "contaminate",
                   "generate_clean", "run_experiment"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
