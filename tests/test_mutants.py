"""The mutation audit of `tests/mutants.py`, run end to end on two mutants:
one that `verify` kills and one that no check can kill."""

import ast
import json

import mutants


def mutant(module: str, before: str, after: str) -> mutants.Mutant:
    """The one mutant of `module` that turns the line `before` into `after`."""
    source = (mutants.PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    found = [m for m in mutants.mutants_of(module, source)
             if lines[m.line - 1].strip() == before
             and m.apply(source).splitlines()[m.line - 1].strip() == after]
    assert len(found) == 1, found
    return found[0]


def test_every_mutant_is_one_operator_of_valid_source():
    listed = mutants.all_mutants()
    assert listed == mutants.all_mutants() and len({m.id for m in listed}) == len(listed)
    for name in mutants.MODULES:
        source = (mutants.PACKAGE / f"{name}.py").read_text(encoding="utf-8")
        for m in (m for m in listed if m.module == name):
            ast.parse(m.apply(source))  # apply checks that the old operator is in place


def test_audit_kills_a_sign_swap_and_keeps_an_equivalent_mutant(tmp_path):
    killed = mutant("energy", "w1 = base + 2.0 * tr_u + ring_const",
                    "w1 = base - 2.0 * tr_u + ring_const")
    # rotation()'s NaN branch: Mat2 rejects e11 = nan before the sign of e12 matters
    equivalent = mutant("planar", "return Mat2(c, -s, s, c)", "return Mat2(c, s, s, c)")
    out = tmp_path / "audit.json"
    assert mutants.main([str(out), "--only", killed.id, equivalent.id]) == 0
    audit = json.loads(out.read_text(encoding="utf-8"))
    summary = audit["summary"]
    assert (summary["mutants"], summary["verify_killed"]) == (2, 1)
    assert summary["survivors"] == [equivalent.id]
    assert summary["sole_killer_of"] == {"shear_level_consistency": [killed.id]}
    record = next(r for r in audit["mutants"] if r["id"] == killed.id)
    assert record["verify"]["how"] == "killed"
    assert record["source"] == "w1 = base + 2.0 * tr_u + ring_const"
