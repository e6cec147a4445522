"""Deterministic chaos game on contractive affine IFSs.

Measure attractor recovery times under concrete symbol drivers
(Champernowne, de Bruijn, slow-block schedules, the two-map separating
driver), estimate covering numbers and box dimension, and run reproducible
experiments from the CLI.
"""

from .construct import (BaseMapChoice, RateFunction, Schedule, ScheduleEntry,
                        build_schedule, build_sigma, iterexp_rate, power_rate,
                        slow_driver)
from .drivers import (DriverStream, Run, Word, alpha, champernowne,
                      champernowne_coverage_bound, de_bruijn_word,
                      example4_block_start, example4_driver, example4_k0,
                      infinite_de_bruijn, is_de_bruijn, literal_driver,
                      random_driver, word_coverage)
from .errors import (CapExceededError, ChaosGameError, InternalInvariantError,
                     ValidationError)
from .harness import (PRESETS, ExperimentConfig, RunReport, emit_config,
                      load_preset, make_driver, parse_config, run_experiment)
from .ifs import (AffineMap, AttractorCloud, IfsSystem, build_cloud, cantor_ifs,
                  directed_hausdorff, fixed_point, halving_ifs, read_cloud,
                  run_orbit, scalar_map, segment_ifs, sierpinski_ifs, write_cloud)
from .metrics import (CoverEstimate, DimensionEstimate, RecoveryRecord,
                      box_dimension, coverage_holds, covering_estimate,
                      key_inequality_check, log_rate, rate_ratio, recovery_time)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
