"""One-factor quasi-Gaussian HJM short-rate model with regularized CEV
volatility: Monte Carlo simulation with explosion detection, the
deterministic small-noise limit, explosion certificates with Lyapunov
verification, parameter-region scans, and bond/futures pricing."""

from .errors import (ConfigError, DomainError, GammaOutOfRange,
                     InfeasibleWedge, QGHJMError, UnsupportedGamma)
from .explosion_criteria import (A5Report, ConditionReport, DeltaPair,
                                 LyapunovSpec, R0Threshold, RegionCurve,
                                 VerificationReport, VerifyGrid, WedgeSlopes,
                                 as_explosion_r0_threshold, beta_max,
                                 build_lyapunov, check_condition, condition_F,
                                 condition_G, delta2_star, k0, kappa_delta,
                                 kappas, level_constants, min_F_hat,
                                 region_curve, scale_c3, verify_a5_function,
                                 verify_generator_inequality,
                                 wedge_feasible_slopes)
from .model_core import (ForwardCurve, ModelParams, SmoothField, coefficients,
                         generator_apply, sigma_r)
from .ode_limit import OdeResult, beta_critical, fixed_point_r, ode_integrate
from .pricing import (discount_consistency_check, discount_estimate,
                      eurodollar_futures, futures_config, futures_estimate,
                      g_factor, zcb_price)
from .sde_engine import (BatchPaths, McEstimate, SimConfig,
                         expectation_functional, explosion_probability,
                         pathwise_discount_factors, simulate_batch)

__version__ = "0.1.0"
