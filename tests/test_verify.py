from struveradii import StruveParams, run_suite
from struveradii.verify import SUITES


def test_all_is_the_four_suites_in_order():
    grid = (StruveParams(q=2, p=0.5, b=1.0, c=2.0, delta=0.5),)
    parts = [run_suite(name, grid, 3).checks for name in SUITES if name != "all"]
    report = run_suite("all", grid, 3)
    assert report.suite == "all"
    assert report.checks == tuple(check for part in parts for check in part)
    assert report.ok
