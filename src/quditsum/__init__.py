"""Executable model of a Fourier-transform based multi-party summation
protocol over d-level systems, the forged-state attack that breaks its
privacy, and the randomized checking step that restores it."""

from .adversary import (
    eve_intercept_resend,
    fabricate_rounds,
    fake_particle,
    recover_secret_digit,
)
from .harness import (
    TOOL_VERSION,
    ScenarioConfig,
    derive_trial_stream,
    run_protocol,
    run_scenario,
    wilson_interval,
    write_report,
)
from .protocol import (
    ProtocolConfig,
    check_decoys,
    compute_sum,
    insert_decoys,
    prepare_rounds,
    validate_secrets,
)
from .qudit import (
    BasisKind,
    QuditRegister,
    apply_iqft,
    measure,
    omega_state,
)
from .verification import execute_check, select_checks, v1_pass, v2_pass

__version__ = TOOL_VERSION
