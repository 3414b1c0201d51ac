"""Property tests: a run config with a field dropped or swapped for a value
of another type or size either builds or fails with a NimbusError subclass,
never a bare builtin; `nimbus params --config` over such a file exits 0,
or 1 or 2 with one error line, without building the model it counts; and
a synthetic-data config mutated the same way builds or raises ConfigError."""

import copy
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from _corrupt import mutate_document  # noqa: E402
from nimbus.cli import main  # noqa: E402
from nimbus.config import RunConfig  # noqa: E402
from nimbus.data import SynthConfig  # noqa: E402
from nimbus.errors import ConfigError, NimbusError  # noqa: E402

BASE = RunConfig().to_dict()
SYNTH = SynthConfig().to_dict()

# Values of every JSON type, and numbers at the edges of what the fields take.
VALUES = st.sampled_from([None, True, False, "abc", "", 0, -3, 2.5, 1e300, 2 ** 40, -2 ** 40,
                          [], {}, [1, 2], {"a": 1}, [2 ** 40] * 5])

MUTATION = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 1 << 20)),
    st.tuples(st.just("swap"), st.integers(0, 1 << 20), VALUES),
)
MUTATIONS = st.lists(MUTATION, min_size=1, max_size=3)


def _mutated(mutations, base=BASE):
    doc = copy.deepcopy(base)
    for mutation in mutations:
        doc = mutate_document(doc, mutation)
    return doc


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mutations=MUTATIONS)
def test_mutated_config_fails_only_with_nimbus_errors(mutations):
    try:
        RunConfig.from_dict(_mutated(mutations))
    except NimbusError:
        pass


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mutations=MUTATIONS)
def test_mutated_synth_config_builds_or_is_config_error(mutations):
    try:
        SynthConfig.from_dict(_mutated(mutations, SYNTH))
    except ConfigError:
        pass


@settings(derandomize=True, max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=MUTATIONS)
def test_params_over_a_mutated_config_exits_cleanly(tmp_path_factory, capsys, mutations):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(_mutated(mutations)), encoding="utf-8")
    capsys.readouterr()
    rc = main(["params", "--config", str(path)])
    err = [line for line in capsys.readouterr().err.splitlines()
           if not line.startswith(("INFO ", "DEBUG "))]
    if rc == 0:
        assert err == []
    else:
        assert rc in (1, 2)
        assert len(err) == 1 and err[0].startswith("nimbus: error: "), err
