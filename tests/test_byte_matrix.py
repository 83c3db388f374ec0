"""The kept byte matrix: every case of ``byte_matrix.py`` gives the stdout,
stderr, exit code, warnings and written files it was recorded with, and every
record keeps the CLI contract."""

import byte_matrix


def test_records_cover_every_subcommand():
    from uniflux import cli

    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert set(commands) <= {argv[0] for _, argv, *_ in byte_matrix.CASES if argv}
    assert len({name for name, *_ in byte_matrix.CASES}) == len(byte_matrix.CASES)
    assert len({argv for _, argv, *_ in byte_matrix.CASES}) == len(byte_matrix.CASES)


def test_cli_outputs_match_the_recorded_byte_matrix():
    assert byte_matrix.moved(byte_matrix.run_all()) == []


def _breaks_contract(record) -> bool:
    """Exit 0, 2, 3 or 4, no warning and no traceback; on exit 0 an empty
    stderr, otherwise an empty stdout and one line of "uniflux: error: "."""
    err = record["stderr"]
    if record["exit"] not in (0, 2, 3, 4) or record["warnings"] or "Traceback" in err:
        return True
    if record["exit"] == 0:
        return err != ""
    lines = err.splitlines()
    return (record["stdout"] != "" or len(lines) != 1
            or not lines[0].startswith("uniflux: error: "))


def test_every_record_keeps_the_cli_contract():
    assert [name for name, record in byte_matrix.recorded().items()
            if _breaks_contract(record)] == []
