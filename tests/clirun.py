"""Run a nearnormal command in process, as the tests read it.

``Runner().invoke(main, args)`` calls ``main.main(args)`` with stdout and
stderr captured into one text, and returns the exit code, that text and the
exception the call ended with: the SystemExit of a nonzero exit, any other
exception (exit code 1), or None.
"""

import contextlib
import io


class Result:
    def __init__(self, exit_code: int, output: str, exception):
        self.exit_code, self.output, self.exception = exit_code, output, exception


class Runner:
    def invoke(self, command, args) -> Result:
        out = io.StringIO()
        exception = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                command.main(list(args), prog_name="nearnormal")
                code = 0
            except SystemExit as exc:
                code = exc.code or 0
                if code:
                    exception = exc
            except Exception as exc:
                code, exception = 1, exc
        return Result(code, out.getvalue(), exception)
