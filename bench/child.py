"""One cli-file op: what the ``denoise1d`` console script does.

    python3 bench/child.py denoise ARGS...
    python3 bench/child.py --trace OUT.json OP_ID denoise ARGS...

With ``--trace`` the span wrappers are installed before ``main`` runs
and the spans are written to OUT.json when it returns.
"""

import sys


def main(argv):
    if argv[:1] != ["--trace"]:
        from denoise1d.cli import main as cli_main

        return cli_main(argv)

    import json

    import tracing

    out_path, op_id, argv = argv[1], int(argv[2]), argv[3:]
    tracer = tracing.Tracer()
    tracer.op = op_id
    tracing.install(tracer, (
        "denoise1d.cli", "denoise1d.diffusion", "denoise1d.stability", "denoise1d.variational"))
    import denoise1d.cli

    code = denoise1d.cli.main(argv)
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump(tracer.take(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
