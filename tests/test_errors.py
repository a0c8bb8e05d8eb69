"""Every rejected argument raises the typed ValidationError, itself a ValueError."""

import math

import pytest

from chronolog.calculus import ScaleFunction, ToleranceConfig
from chronolog.cylinder import eta_psi, xi
from chronolog.errors import ChronologError, ValidationError
from chronolog.logexp import LegacyKind, LogVariant, identity_suite, legacy_log, log_table, log_ts
from chronolog.multivalue import TWO_PI_I, MultiLog, mod2pi_equal
from chronolog.timescale import parse_timescale

HZ = parse_timescale("hz:1")
P = ScaleFunction.from_text("t+10")

REJECTED = {
    "tolerance": lambda: ToleranceConfig(quad_tol=0.0),
    "graininess": lambda: xi(-1.0, 1.0),
    "eta-psi-range": lambda: eta_psi(1.5, 1.0, 0.1),
    "eta-missing": lambda: log_ts(LogVariant.ETA, P, HZ, 0.0, 4.0),
    "eta-range": lambda: log_ts(LogVariant.ETA, P, HZ, 0.0, 4.0, eta=2.0),
    "table-order": lambda: log_table("delta-principal", P, HZ, 0.0, [2.0, 1.0]),
    "legacy-needs-p": lambda: legacy_log("jackson", None, HZ, 0.0, 2.0),
    "legacy-huff-needs-t0": lambda: legacy_log("huff", None, HZ, None, 3.0),
    "legacy-euler-cauchy-needs-t0": lambda: legacy_log("euler-cauchy", None, HZ, None, 3.0),
    "legacy-integral-quotient-needs-t0": lambda: legacy_log("integral-quotient", P, HZ, None, 3.0),
    "infinite-power": lambda: P.pow(math.inf),
    "fractional-power-rule": lambda: identity_suite(
        ScaleFunction.from_text("t+3*i"), P, HZ, 0.0, 5.0, 0.5
    ),
    "mod2pi-tol": lambda: mod2pi_equal(1.0, 1.0, 0.0),
    "real-period": lambda: MultiLog(0.0, 1.0),
    "mixed-periods": lambda: MultiLog(0.0) + MultiLog(0.0, 2 * TWO_PI_I),
    "mod-equal-tol": lambda: MultiLog(0.0).mod_equal(0.0, 0.0),
    "complex-scalar": lambda: MultiLog(0.0) * 1j,
    "reversed-window": lambda: list(HZ._clipped_pieces(4.0, 0.0)),
}


@pytest.mark.parametrize("call", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_argument_raises_validation_error(call):
    with pytest.raises(ValidationError) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert info.value.category == "validation"


def test_validation_error_is_a_value_error_and_a_chronolog_error():
    assert issubclass(ValidationError, ValueError)
    assert issubclass(ValidationError, ChronologError)


@pytest.mark.parametrize(
    "enum, name, listed",
    [
        (LogVariant, "sideways", "delta-multi, delta-principal, nabla-multi, nabla-principal, "
         "cayley-multi, cayley-principal, or eta:<value>"),
        (LegacyKind, "proto", "huff, euler-cauchy, integral-quotient, jackson, mozyrska"),
    ],
    ids=["variant", "legacy-kind"],
)
def test_unknown_enum_name_lists_the_choices(enum, name, listed):
    with pytest.raises(ValidationError) as info:
        enum(name)
    assert f"{name!r} (expected one of {listed})" in str(info.value)
    assert enum(list(enum)[0].value) is list(enum)[0]
