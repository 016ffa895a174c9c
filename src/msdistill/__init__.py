"""Engineering toolkit for high-rate magic state distillation protocols.

Submodules:

- :mod:`msdistill.gf2` — bit-packed GF(2) linear algebra
- :mod:`msdistill.logdomain` — nonnegative log-domain scalars for extreme underflow
- :mod:`msdistill.inner_codes` — weakly self-dual CSS codes and GV families
- :mod:`msdistill.outer_codes` — biregular check schedules, girth, sensitivity
- :mod:`msdistill.analytics` — closed-form rate / error / cost formulas
- :mod:`msdistill.pipeline` — protocol evaluation and search
- :mod:`msdistill.comparison` — constant-overhead baseline and the comparison dataset
- :mod:`msdistill.fault_sim` — Monte Carlo fault injection and weight enumeration
- :mod:`msdistill.cli` — the ``msdistill`` command-line front end
"""

__version__ = "0.1.0"

from .analytics import (
    StageReport,
    overhead_exponent,
    predistill_chain,
    t_exponent,
)
from .comparison import figure2_dataset, qag_baseline_rate, qag_params
from .fault_sim import (
    ProtocolInstance,
    SimReport,
    min_undetected_weight,
    monte_carlo,
)
from .gf2 import BinMatrix, is_self_orthogonal, mul2, rank2
from .inner_codes import (
    CssCodeParams,
    WeaklySelfDualCode,
    distance_family,
    gv_params,
    load_named_code,
    validate_code,
)
from .logdomain import LogScalar
from .outer_codes import OuterCode, build_biregular, check_sensitivity, girth
from .pipeline import (
    PipelineReport,
    ProtocolSpec,
    evaluate,
    search_best,
)

__all__ = [
    "__version__",
    "BinMatrix",
    "CssCodeParams",
    "LogScalar",
    "OuterCode",
    "PipelineReport",
    "ProtocolInstance",
    "ProtocolSpec",
    "SimReport",
    "StageReport",
    "WeaklySelfDualCode",
    "build_biregular",
    "check_sensitivity",
    "distance_family",
    "evaluate",
    "figure2_dataset",
    "girth",
    "gv_params",
    "is_self_orthogonal",
    "load_named_code",
    "min_undetected_weight",
    "monte_carlo",
    "mul2",
    "overhead_exponent",
    "predistill_chain",
    "qag_baseline_rate",
    "qag_params",
    "rank2",
    "search_best",
    "t_exponent",
    "validate_code",
]
