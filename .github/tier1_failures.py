"""Fail when any test but the known red acceptance item fails or errors.

    python .github/tier1_failures.py tier1.xml

Tier-1 stays red by design on acceptance criterion 08 (README, "Known red
acceptance item"), so the status of the pytest step cannot show a new
failure.  This reads the JUnit XML that pytest wrote with --junitxml and
exits 1, naming each test, when any other test failed or errored, a
collection error included.  It also exits 1 when criterion 08 did not fail,
so an empty file too: skipped, renamed, deleted, erroring or passing, the
criterion no longer shows what it stands for.
"""

import sys
import xml.etree.ElementTree as ElementTree

KNOWN = "tests.test_acceptance::test_criterion_08_general_exponents_with_budget_shocks"


def main(path: str) -> int:
    cases = list(ElementTree.parse(path).getroot().iter("testcase"))
    failed = [f"{case.get('classname')}::{case.get('name')}" for case in cases
              if case.find("failure") is not None or case.find("error") is not None]
    bad = [name for name in failed if name != KNOWN]
    for name in bad:
        print(f"failed: {name}")
    print(f"{len(cases)} tests in {path}; {len(bad)} failed or errored besides criterion 08")
    red = any(f"{case.get('classname')}::{case.get('name')}" == KNOWN
              and case.find("failure") is not None for case in cases)
    if not red:
        print(f"missing: no failure of {KNOWN}, which stays red by design")
    return 1 if bad or not red else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
