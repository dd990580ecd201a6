"""python -m aspps <psgrnd|aspps> [args...] dispatches to the two tools."""

import sys

from .cli import aspps_main, exit_process, psgrnd_main


def main() -> int:
    if len(sys.argv) < 2 or sys.argv[1] not in ("psgrnd", "aspps"):
        print("usage: python -m aspps {psgrnd|aspps} [options]", file=sys.stderr)
        return 1
    tool = psgrnd_main if sys.argv[1] == "psgrnd" else aspps_main
    return tool(sys.argv[2:])


if __name__ == "__main__":
    exit_process(main())
