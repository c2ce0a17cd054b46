"""The README's verification section states what `selfcheck.PROPERTIES` runs:
the number of checks, and for each property the rule that sets its case count."""

import re
from pathlib import Path

import pytest

from cosserat2d.selfcheck import PROPERTIES

README = Path(__file__).resolve().parent.parent / "README.md"
SAMPLES = (1, 7, 1000, 5000)


def _cases_rule(cell: str):
    # the case count a rule cell of the table states, as a function of N
    if cell == "`N`":
        return lambda n: n
    if m := re.fullmatch(r"`N/(\d+)`", cell):
        return lambda n, k=int(m[1]): max(1, n // k)
    if m := re.fullmatch(r"`N`, at most (\d+)", cell):
        return lambda n, k=int(m[1]): min(n, k)
    if cell.startswith("one"):
        return lambda n: 1
    raise ValueError(f"unknown case rule {cell!r}")


def verification_mismatches(readme: str) -> list[str]:
    """Each way the README's verification section disagrees with PROPERTIES."""
    section = readme.split("### Verification suite", 1)[1].split("\n## ", 1)[0]
    problems = []
    stated = re.search(r"runs (\d+) seeded property checks", section)
    if not stated or int(stated[1]) != len(PROPERTIES):
        problems.append(f"stated count {stated and stated[1]}, registered {len(PROPERTIES)}")
    named, unnamed = [], None
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("| ") or len(cells) != 2 or cells[0] == "cases":
            continue
        rule = _cases_rule(cells[0])
        for name in re.findall(r"`(\w+)`", cells[1]):
            named.append(name)
            prop = PROPERTIES.get(name)
            if prop is None:
                problems.append(f"{name} is not a registered property")
            elif any(prop.cases(n) != rule(n) for n in SAMPLES):
                problems.append(f"{name} runs {[prop.cases(n) for n in SAMPLES]} cases "
                                f"at N = {list(SAMPLES)}, not {cells[0]}")
        if m := re.search(r"the (\d+) [\w\s,-]*properties", cells[1]):
            unnamed = (int(m[1]), rule)
    problems += [f"{name} is named {named.count(name)} times"
                 for name in sorted(set(named)) if named.count(name) > 1]
    rest = [p for name, p in PROPERTIES.items() if name not in named]
    if unnamed is None:
        problems.append("no row counts the unnamed properties")
    else:
        count, rule = unnamed
        if count != len(rest):
            problems.append(f"{count} unnamed properties stated, {len(rest)} registered")
        problems += [f"{p.name} is unnamed but does not run {rule(n)} cases at N = {n}"
                     for p in rest for n in SAMPLES if p.cases(n) != rule(n)]
    return problems


def test_readme_states_the_registered_properties():
    assert verification_mismatches(README.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("old, new", [
    ("runs 21 seeded", "runs 22 seeded"),
    ("`N/5` | `skew_defect_two_roots`", "`N/10` | `skew_defect_two_roots`"),
    ("`N`, at most 20 |", "`N`, at most 25 |"),
    ("`argmin_transport_to_limit_case`", "`argmin_transport_to_limit_case`, `closed_form_vs_oracle`"),
    ("`argmin_transport_to_limit_case`", "`cofactor_energy_transport`"),
    ("the 9 decomposition", "the 8 decomposition"),
])
def test_a_mutated_readme_is_caught(old, new):
    readme = README.read_text(encoding="utf-8")
    assert readme.count(old) == 1
    assert verification_mismatches(readme.replace(old, new)) != []
