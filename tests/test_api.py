"""The package root's exported names and the signatures of its callables.

A change to the public API shows up here as a failing test; update the
records below only when the API is meant to change."""
import inspect

import siegelbm

_ALL = [
    "ChamberExit", "ConfigInvalid", "ConvergenceFailure", "DegenerateSpectrum", "DiskPoint",
    "DomainExit", "EmptySample", "FrameBasis", "KSResult", "MatrixFlowState",
    "NotAntiHermitian", "NotHermitian", "NotSymmetric", "OriginHit", "OutOfChamber",
    "PathEnsemble", "ShapeMismatch", "SiegelError", "SiegelPoint", "SimConfig",
    "SingularShift", "SpectralCoord", "TakagiFactors", "__version__", "bump", "cayley_to_disk",
    "cayley_to_half", "check_identities", "compare_ensembles", "config_from_dict",
    "cross_ratio", "cutoff_eta", "disk_metric", "disk_point", "dyson_drift", "ensembles_equal",
    "entropy", "entropy_gradient", "entropy_laplacian", "extract_sigma", "frame_at",
    "frame_gram", "hermitian_eigenvalues", "init_matrix_state", "integrate_mean_curvature",
    "is_positive_definite", "ks_two_sample", "lambda_to_sigma", "log_cosh_norm", "main",
    "matrix_from_json", "matrix_to_json", "moment_report", "normal_drift", "read_jsonl",
    "run_ensemble", "siegel_drift", "sigma_to_lambda", "simulate_matrix_paths",
    "simulate_particle_paths", "spectral_coordinates", "step_matrix_flow", "step_particles",
    "step_sphere_point", "step_takagi_chart", "takagi_decompose", "takagi_of_disk",
    "unitary_algebra_basis", "unitary_exp", "write_jsonl",
]

# exception classes are recorded by their base class, which is what callers
# catch; every other callable by its full signature
_SIGNATURES = {
    "ChamberExit": "raises SiegelError",
    "ConfigInvalid": "raises SiegelError",
    "ConvergenceFailure": "raises SiegelError",
    "DegenerateSpectrum": "raises SiegelError",
    "DiskPoint": "(r: 'np.ndarray') -> None",
    "DomainExit": "raises SiegelError",
    "EmptySample": "raises SiegelError",
    "FrameBasis": (
        "(l_vectors: 'np.ndarray', u_vectors: 'np.ndarray', sigma: 'np.ndarray', "
        "base: 'TakagiFactors') -> None"
    ),
    "KSResult": (
        "(statistic: 'float', threshold: 'float', reject: 'bool', alpha: 'float', "
        "n_x: 'int', n_y: 'int') -> None"
    ),
    "MatrixFlowState": (
        "(r: 'np.ndarray', sigma_cache: 'np.ndarray', q_cache: 'np.ndarray', "
        "t: 'float' = 0.0) -> None"
    ),
    "NotAntiHermitian": "raises SiegelError",
    "NotHermitian": "raises SiegelError",
    "NotSymmetric": "raises SiegelError",
    "OriginHit": "raises SiegelError",
    "OutOfChamber": "raises SiegelError",
    "PathEnsemble": (
        "(meta: 'dict', times: 'np.ndarray', samples: 'np.ndarray', "
        "stopped_at: 'np.ndarray', stop_reason: 'list', rejections: 'np.ndarray') -> None"
    ),
    "ShapeMismatch": "raises SiegelError",
    "SiegelError": "raises Exception",
    "SiegelPoint": "(z: 'np.ndarray') -> None",
    "SimConfig": (
        "(n: 'int', beta: 'float', sigma0: 'np.ndarray', t_final: 'float', dt: 'float', "
        "n_paths: 'int', seed: 'int', scheme: 'str', sample_times: 'tuple' = (), "
        "cutoff: 'tuple | None' = None, gap_floor: 'float' = 1e-06) -> None"
    ),
    "SingularShift": "raises SiegelError",
    "SpectralCoord": "(sigma: 'np.ndarray') -> None",
    "TakagiFactors": "(q: 'np.ndarray', mu: 'np.ndarray') -> None",
    "bump": "(x) -> 'float | np.ndarray'",
    "cayley_to_disk": "(z: 'SiegelPoint') -> 'DiskPoint'",
    "cayley_to_half": "(r: 'DiskPoint') -> 'SiegelPoint'",
    "check_identities": "(n_max: 'int', seed: 'int' = 2024) -> 'dict'",
    "compare_ensembles": (
        "(a: 'PathEnsemble', b: 'PathEnsemble', alpha: 'float' = 0.01, "
        "t: 'float | None' = None) -> 'dict'"
    ),
    "config_from_dict": "(raw: 'dict') -> 'SimConfig'",
    "cross_ratio": "(z: 'np.ndarray', z1: 'np.ndarray') -> 'np.ndarray'",
    "cutoff_eta": "(sigma, k: 'float', big_k: 'float') -> 'float | np.ndarray'",
    "disk_metric": "(r, a: 'np.ndarray', b: 'np.ndarray') -> 'float | np.ndarray'",
    "disk_point": "(r: 'np.ndarray') -> 'DiskPoint'",
    "dyson_drift": "(lam) -> 'np.ndarray'",
    "ensembles_equal": "(a: 'PathEnsemble', b: 'PathEnsemble') -> 'bool'",
    "entropy": "(sigma) -> 'float | np.ndarray'",
    "entropy_gradient": "(sigma) -> 'np.ndarray'",
    "entropy_laplacian": "(sigma) -> 'float | np.ndarray'",
    "extract_sigma": "(state) -> 'SpectralCoord'",
    "frame_at": "(tf: 'TakagiFactors', sigma) -> 'FrameBasis'",
    "frame_gram": "(r, fb: 'FrameBasis') -> 'np.ndarray'",
    "hermitian_eigenvalues": "(h: 'np.ndarray', tol: 'float' = 1e-10) -> 'np.ndarray'",
    "init_matrix_state": "(sigma0, q0=None, t: 'float' = 0.0) -> 'MatrixFlowState'",
    "integrate_mean_curvature": "(sigma0, t_final: 'float', h: 'float')",
    "is_positive_definite": "(h: 'np.ndarray', tol: 'float' = 0.0) -> 'bool'",
    "ks_two_sample": "(x, y, alpha: 'float' = 0.01) -> 'KSResult'",
    "lambda_to_sigma": "(lam: 'np.ndarray') -> 'np.ndarray'",
    "log_cosh_norm": "(sigma) -> 'float | np.ndarray'",
    "main": "(argv=None) -> 'int'",
    "matrix_from_json": "(obj) -> 'np.ndarray'",
    "matrix_to_json": "(m: 'np.ndarray') -> 'list'",
    "moment_report": "(ensemble: 'PathEnsemble') -> 'dict'",
    "normal_drift": "(sigma) -> 'np.ndarray'",
    "read_jsonl": "(path: 'str') -> 'PathEnsemble'",
    "run_ensemble": "(cfg, kernel, threads: 'int' = 1) -> 'PathEnsemble'",
    "siegel_drift": "(sigma) -> 'np.ndarray'",
    "sigma_to_lambda": "(sigma: 'np.ndarray') -> 'np.ndarray'",
    "simulate_matrix_paths": "(cfg: 'SimConfig', threads: 'int' = 1) -> 'ens.PathEnsemble'",
    "simulate_particle_paths": "(cfg: 'SimConfig', threads: 'int' = 1) -> 'ens.PathEnsemble'",
    "spectral_coordinates": "(z: 'SiegelPoint') -> 'SpectralCoord'",
    "step_matrix_flow": (
        "(state: 'MatrixFlowState', beta: 'float', h: 'float', gaussians, "
        "gap_floor: 'float' = 1e-06) -> 'MatrixFlowState'"
    ),
    "step_particles": (
        "(sigma, beta: 'float', h: 'float', gaussians, cutoff=None, "
        "gap_floor: 'float' = 1e-06)"
    ),
    "step_sphere_point": (
        "(z, beta: 'float', h: 'float', gaussians, floor: 'float' = 1e-06) -> 'np.ndarray'"
    ),
    "step_takagi_chart": "(sigma, q, beta: 'float', h: 'float', gaussians)",
    "takagi_decompose": "(a: 'np.ndarray', tol: 'float' = 1e-10) -> 'TakagiFactors'",
    "takagi_of_disk": "(r) -> 'TakagiFactors'",
    "unitary_algebra_basis": "(n: 'int') -> 'list[np.ndarray]'",
    "unitary_exp": "(x: 'np.ndarray', tol: 'float' = 1e-10) -> 'np.ndarray'",
    "write_jsonl": "(ens: 'PathEnsemble', path: 'str')",
}


def _record(obj) -> str:
    if isinstance(obj, type) and issubclass(obj, Exception):
        return "raises " + obj.__mro__[1].__name__
    return str(inspect.signature(obj))


def test_exported_names_are_pinned():
    assert sorted(siegelbm.__all__) == _ALL


def test_exported_signatures_are_pinned():
    found = {name: _record(getattr(siegelbm, name)) for name in _ALL if name != "__version__"}
    assert found == _SIGNATURES
