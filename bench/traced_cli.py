"""Run one qghjm subcommand with spans installed, then dump the spans.

    python bench/traced_cli.py SPANS_JSON COMMAND [qghjm cli arguments...]

The whole subcommand, parsing and output included, is the span
cli.<COMMAND>; the library calls it makes are its children.
"""

import sys

from inputs import use_checkout_src

use_checkout_src()

import spans  # noqa: E402
from qghjm import cli  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    with tracer.span(f"cli.{argv[0]}"):
        rc = cli.main(argv)
    tracer.dump(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
