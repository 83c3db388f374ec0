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


def test_no_two_inputs_hold_the_same_bytes():
    names = {}
    for name, content in byte_matrix._inputs().items():
        if isinstance(content, str):
            content = content.encode()
        if content is not None:
            names.setdefault(content, []).append(name)
    assert [same for same in names.values() if len(same) > 1] == []


def test_cli_outputs_match_the_recorded_byte_matrix(cli_records):
    assert byte_matrix.moved(cli_records) == []


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
