"""Run one halfline-bethe CLI command in-process with the tracer installed.

    python3 perfbench/cli_child.py SPANS_FILE <cli arguments...>

Used by the traced cli-readme jobs in place of `python -m halfline_bethe.cli`.
The command's output goes to stdout as the CLI would print it; the spans
(the import of halfline_bethe.cli, cli.main and the library calls it makes)
are written to SPANS_FILE for the parent benchmark process to merge.
"""

import contextlib
import io
import sys
import time
from pathlib import Path


def main(argv) -> int:
    spans_file, cli_argv = argv[0], argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.thread_time()
    import halfline_bethe.cli as cli
    imported = time.thread_time()

    from tracing import CLI_COMMAND_KEYS, Tracer, cli_command_key

    tracer = Tracer()
    tracer.add_span("cli.import", start, imported)
    tracer.install()
    tag = CLI_COMMAND_KEYS.index(cli_command_key(cli_argv))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            idx = tracer.open(tracer.name_id("cli.main"), tag)
            try:
                code = cli.main(cli_argv)
            finally:
                tracer.close(idx)
    finally:
        tracer.uninstall()
        tracer.save(spans_file)
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
