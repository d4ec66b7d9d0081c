"""The rows of cli_contracts.CONTRACTS, run in process through cli.main, and its check itself."""

import pytest
from cli_contracts import CONTRACTS, Contract, check

from cohstat.cli import main


@pytest.mark.parametrize("row", CONTRACTS, ids=str)
def test_contract(capsys, row):
    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    check(row, run)


# each row is broken in one part only: the other parts of its fake runs meet it
@pytest.mark.parametrize(
    "row, runs, fault",
    [
        (Contract("family poisson --lambda 1", 2, None, "wrong exit code"), [(0, "{}\n", "")],
         "exit 0, expected 2"),
        (Contract("infer poisson --observed 3", 0, None, "runs that differ", repeat=True),
         [(0, "{}\n", ""), (0, "[]\n", "")], "a second run wrote different stdout"),
        (Contract("verify --check bch --trunc 5000", 2, "error: ...limit", "two stderr lines"),
         [(2, "", "error: past the limit\nand more\n")], "expected one line"),
    ],
    ids=["exit-code", "repeat", "two-line-stderr"],
)
def test_check_fails_a_broken_row_and_names_its_reason(row, runs, fault):
    results = iter(runs)
    with pytest.raises(AssertionError, match=f"{fault}.*\\({row.reason}\\)$"):
        check(row, lambda argv: next(results))
    assert next(results, None) is None
