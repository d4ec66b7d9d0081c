"""The rows of cli_contracts.CONTRACTS, run in process through cli.main, and its check itself."""

from pathlib import Path

import pytest
from cli_contracts import CONTRACTS, Contract, check

from cohstat.cli import _LIMITS, main


@pytest.mark.parametrize("row", CONTRACTS, ids=str)
def test_contract(capsys, row):
    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    check(row, run)


@pytest.mark.parametrize("name", _LIMITS)
def test_every_limit_has_a_past_limit_row(name):
    refusal = "past the limit of {value} {bounds}".format_map(_LIMITS[name])
    assert any(row.code == 2 and refusal in (row.stderr or "") for row in CONTRACTS)


# each row is broken in one part only: the other parts of its fake runs meet it; a fake run given
# --out writes the stdout it has there, as cohstat does
@pytest.mark.parametrize(
    "row, runs, fault",
    [
        (Contract("family poisson --lambda 1", 2, None, "wrong exit code"), [(0, "{}\n", "")],
         "exit 0, expected 2"),
        (Contract("infer poisson --observed 3", 0, None, "runs that differ", repeat=True),
         [(0, "{}\n", ""), (0, "[]\n", "")], "a second run wrote different stdout"),
        (Contract("verify --check bch --trunc 5000", 2, "error: ...limit", "two stderr lines"),
         [(2, "", "error: past the limit\nand more\n")] * 2, "expected one line"),
        (Contract("family binomial --n 3000 --p 0.5", 1, "numerical failure: ", "a failed run that writes --out"),
         [(1, "", "numerical failure: overflow\n"), (1, "{}\n", "numerical failure: overflow\n")],
         "a run with --out wrote the file"),
        (Contract("infer poisson --observed 3", 0, None, "json that is not canonical"), [(0, '{"a": 1.0}\n', "")],
         "stdout is not json.dumps"),
    ],
    ids=["exit-code", "repeat", "two-line-stderr", "writes-out", "non-canonical-json"],
)
def test_check_fails_a_broken_row_and_names_its_reason(row, runs, fault):
    results = iter(runs)

    def run(argv):
        code, stdout, stderr = next(results)
        if "--out" in argv and stdout:
            Path(argv[argv.index("--out") + 1]).write_text(stdout)
            stdout = ""
        return code, stdout, stderr

    with pytest.raises(AssertionError, match=f"{fault}.*\\({row.reason}\\)$"):
        check(row, run)
    assert next(results, None) is None
