"""Property test of the scenario parser: any mutation of a small valid
scenario file either parses into a Scenario or is refused with a
ScenarioError, never another exception.

The mutations replace values (from a pool of edge values, from any float
and from the valid values of other keys), misspell keys, move keys between
sections, drop or repeat sections and insert a byte that is not UTF-8.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dedonder_hj.scenario import Scenario, ScenarioError, parse_scenario

BASE = [
    ("model", [("name", "klein_gordon"), ("mass", "1.0"), ("n", "1")]),
    ("grid", [("n_nodes", "8"), ("length", "1.0")]),
    ("time", [("dt", "0.01"), ("t_final", "0.1")]),
    ("initial", [("family", "sine"), ("amplitude", "0.5"), ("mode", "1"),
                 ("phase", "0.3"), ("velocity", "0.0"),
                 ("perturb_px", "0.0")]),
    ("gamma", [("family", "oscillator"), ("omega", "1.0"),
               ("box_u", "-1,1"), ("samples_per_axis", "2"),
               ("verify_tol", "1e-10")]),
    ("output", [("directory", "out"), ("precision", "17"),
                ("store_every", "1"), ("pairing_steps", "4"),
                ("pairing_pairs", "1")]),
]

EDGE_VALUES = ["5e-324", "1e300", "-0.0", "nan", "inf", "", "9" * 5000]
VALID_VALUES = sorted({value for _, keys in BASE for _, value in keys}
                      | {"scalar_potential", "mechanics_oscillator",
                         "free_wave", "constant", "custom_table", "linear",
                         "0, 0.2, 0.3"})

values = st.one_of(st.sampled_from(EDGE_VALUES),
                   st.floats().map(repr),
                   st.sampled_from(VALID_VALUES))


@st.composite
def scenario_bytes(draw):
    sections = [(name, list(keys)) for name, keys in BASE]
    non_utf8 = False
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["value"] * 4 + ["misspell", "move",
                                                   "drop", "repeat", "byte"]))
        non_utf8 |= op == "byte"
        s = draw(st.integers(0, len(sections) - 1)) if sections else None
        if s is None:
            break
        name, keys = sections[s]
        if op == "drop":
            del sections[s]
        elif op == "repeat":  # its keys split between the two headers
            j = draw(st.integers(0, len(keys)))
            sections[s:s + 1] = [(name, keys[:j]), (name, keys[j:])]
        elif keys:
            k = draw(st.integers(0, len(keys) - 1))
            key, value = keys[k]
            if op == "value":
                keys[k] = (key, draw(values))
            elif op == "misspell":
                i = draw(st.integers(0, len(key) - 1))
                keys[k] = (key[:i] + key[i + 1:] + key[i], value)
            else:  # move
                del keys[k]
                to = draw(st.integers(0, len(sections) - 1))
                sections[to][1].append((key, value))
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys)
                   for name, keys in sections)
    data = text.encode()
    if non_utf8:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=scenario_bytes())
def test_a_mutated_scenario_parses_or_is_refused(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("scenario") / "scenario.cfg"
    path.write_bytes(data)
    try:
        scenario = parse_scenario(str(path))
    except ScenarioError:
        return
    assert isinstance(scenario, Scenario)
    assert scenario.n_steps >= 1
