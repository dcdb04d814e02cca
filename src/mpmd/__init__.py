"""Simulation lab for online minimum-cost perfect matching with delays.

Requests arrive over time in a metric space and must be paired, paying the
distance between the paired locations plus both waiting times.  The package
simulates deterministic hemisphere-growth policies, computes exact offline
optima in the time-augmented metric, generates adversarial instance
families, and checks the structural identities the policies are known to
satisfy.
"""

from mpmd.metric import (
    MetricSpace,
    MetricViolation,
    TimedPoint,
    augmented_distance,
    distance,
    validate_metric,
)
from mpmd.engine import (
    HEMISPHERE,
    HEMISPHERE_BIPARTITE,
    NOTIME_EARLY,
    NOTIME_LATE,
    NOTIME_MIN,
    POLICY_KINDS,
    Instance,
    MatchRecord,
    Policy,
    Request,
    RunReport,
    offline_weight,
    online_cost,
    simulate,
)
from mpmd.oracle import (
    Matching,
    brute_force_opt,
    cycle_decompose,
    matching_from_records,
    opt_bipartite,
    opt_general,
    realize_online,
    restriction_check,
)
from mpmd.instances import (
    LowerBoundParams,
    TwoPointRowsParams,
    gen_lower_bound,
    gen_random,
    gen_two_point_rows,
    expected_lower_bound_result,
    instance_digest,
    load_instance,
    recurrence_ab,
    save_instance,
)
from mpmd.harness import (
    FTable,
    RatioReport,
    SweepResult,
    compute_ratio,
    eval_f,
    fit_log2_slope,
    sweep,
    theoretical_bound,
)

__version__ = "0.1.0"
