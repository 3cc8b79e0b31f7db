"""The exception type a caller tells apart from bad input.

Bad input raises ValueError; past a size cap raises TooLargeError, exit 3
in the CLI.  The CLI's `--max-seconds` budget raises nothing: it ends the
process, also with exit 3.
"""


class TooLargeError(Exception):
    """Past a size cap: the CLI's spec, row, partition or byte cap, or a brute-force or inductive oracle's."""
