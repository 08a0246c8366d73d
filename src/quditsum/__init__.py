"""Executable model of a Fourier-transform based multi-party summation
protocol over d-level systems, the forged-state attack that breaks its
privacy, and the randomized checking step that restores it."""

from .adversary import (
    IqftAttackPlan,
    eve_intercept_resend,
    fabricate_rounds,
    fake_particle,
    recover_secret_digit,
)
from .harness import (
    TOOL_VERSION,
    RunResult,
    ScenarioConfig,
    derive_trial_stream,
    run_protocol,
    run_scenario,
    wilson_interval,
    write_report,
)
from .protocol import (
    ProtocolConfig,
    SecretString,
    check_decoys,
    compute_sum,
    encode_and_measure,
    insert_decoys,
    prepare_rounds,
    validate_secrets,
)
from .qudit import (
    BasisKind,
    QuditRegister,
    apply_iqft,
    apply_qft,
    apply_shift,
    approx_equal,
    basis_state,
    measure,
    omega_state,
    outcome_distribution,
)
from .verification import execute_check, select_checks, v1_pass, v2_pass

__version__ = TOOL_VERSION
