"""One measurement in a fresh interpreter; started by ``run.py``.

usage: child.py MODE SRC CONFIG [OUT [SPANS]]

  setup  import ``weylrep`` from SRC and build every root system CONFIG names
  sweep  setup, then ``cli.main(["sweep", "--config", CONFIG, "--out", OUT])``
  trace  as sweep, with ``tracer.Tracer`` wrapped around every traced layer;
         the spans are written to SPANS.json and SPANS.bin

Prints one JSON object on stdout.  Exits 3 when ``weylrep`` cannot be
imported from SRC, so that a checkout without the program never yields
a measurement.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback

SETUP_FAILED = 3


def _setup(src: str, cfg: dict):
    """Import the program and build its root systems; returns (cli, seconds)."""
    t0 = time.perf_counter()
    import weylrep
    from weylrep import cli, rootsys
    if not os.path.abspath(weylrep.__file__).startswith(src + os.sep):
        raise ImportError(f"weylrep resolved to {weylrep.__file__}, not under {src}")
    for sysdef in cfg["systems"] + cfg.get("tables", []):
        rootsys.root_system(sysdef["type"], sysdef["rank"])
    return cli, time.perf_counter() - t0


def _sweep(cli, config: str, out: str) -> dict:
    t0 = time.perf_counter()
    try:
        rc, error = cli.main(["sweep", "--config", config, "--out", out]), None
    except (Exception, SystemExit):
        rc, error = None, traceback.format_exc(limit=4)
    return {"sweep_s": time.perf_counter() - t0, "rc": rc, "error": error}


def _read_report(cli, out: str) -> dict:
    """The gate's view of a written report; problems are returned, not raised."""
    try:
        with open(out, "rb") as fh:
            raw = fh.read()
        report = json.loads(raw)
        cli.validate_report(report)
    except (OSError, ValueError) as exc:
        return {"report_error": f"{type(exc).__name__}: {exc}"}
    return {"sha256": hashlib.sha256(raw).hexdigest(),
            "status": report["status"],
            "checks": [[c["system"], c["name"], c["mode"], c["count"]]
                       for c in report["checks"]]}


def main(argv: list[str]) -> int:
    mode, src, config = argv[1], os.path.abspath(argv[2]), argv[3]
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    with open(config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    try:
        cli, setup_s = _setup(src, cfg)
    except ImportError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return SETUP_FAILED
    result = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    out = argv[4]
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    result.update(_sweep(cli, config, out))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.stats()
        tracer.write(argv[5])
    result.update(_read_report(cli, out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
