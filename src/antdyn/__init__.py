"""Continuous-time ant path-selection dynamics: simulation and analysis.

The state x holds per-path pheromone concentrations evolving under

    dx_i/dt = gamma * g(-alpha + beta * phi(x) * d_i) * x_i

where d_i is the reciprocal path length, phi is a saturation read off the
whole state (reciprocal sum or reciprocal max) and g shapes the response
(identity, tanh, or signum).  The package integrates these dynamics,
evaluates the identity/sum case in closed form, classifies equilibria,
fits convergence rates, and reproduces the canonical experiments.
"""

from .analysis import (
    FitError,
    VerificationStatus,
    compare_variants,
    default_fit_window,
    fit_decay_rate,
    fit_decay_rates,
    rate_report,
    verify_convergence,
)
from .closedform import (
    FFunction,
    OracleRangeError,
    asymptotic_state,
    exact_state,
    f_eval,
    f_inverse,
    f_prime,
    sample_asymptotic,
    sample_exact,
    sigma_coefficients,
)
from .config import ConfigError, RunConfig, load_config, parse_config
from .models import (
    DomainError,
    GKind,
    ModelSpec,
    NondifferentiablePointError,
    PathSystem,
    PhiKind,
    UnsupportedDerivativeError,
    g_eval,
    g_prime,
    phi_eval,
    phi_grad,
    vector_field,
)
from .presets import (
    get_preset,
    phase_grid,
    preset_names,
    run_preset,
    spurious_equilibria_scan,
)
from .simulate import (
    IntegrationError,
    PositivityError,
    PositivityPolicy,
    Scheme,
    Trajectory,
    check_sum_bounds,
    integrate,
    integrate_rows,
    iter_trajectory_csv,
    sum_envelope,
    trajectory_to_csv,
    write_trajectory_csv,
)
from .stability import (
    StabilityLabel,
    classify,
    equilibrium_report,
    find_equilibria,
    jacobian,
    spectrum_at_equilibrium,
)

__version__ = "0.1.0"

# The public names are the ones imported above, stated there once; the
# submodules that the imports bind (module objects, as ``models`` is) are left out.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, type(models))
)
