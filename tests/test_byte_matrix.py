"""The kept byte matrix: every command of ``byte_matrix.py`` gives the
stdout, stderr, exit code, warnings and written files it was recorded with."""

import byte_matrix


def test_records_cover_every_subcommand():
    from uniflux import cli

    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert set(commands) <= {argv[0] for _, argv in byte_matrix.COMMANDS if argv}
    assert len({name for name, _ in byte_matrix.COMMANDS}) == len(byte_matrix.COMMANDS)


def test_cli_outputs_match_the_recorded_byte_matrix():
    assert byte_matrix.moved(byte_matrix.run_all()) == []
