"""The functions the benchmark's tracer wraps must exist under the names it uses.

A traced benchmark run (`bench/run.py --trace 1`) replaces module
attributes such as `splitter.build_ast` with timing wrappers; renaming or
removing one of them would break that run without failing any other test.
"""

import sys
from pathlib import Path

from basts import autodiff, checkpoint, cli, metrics, splitter, summarizer, syntax_encoder

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import spans  # noqa: E402
import workloads  # noqa: E402

OWNERS = (cli, splitter, syntax_encoder, summarizer, autodiff, autodiff.Adam, checkpoint,
          metrics)


def test_every_wrapped_name_resolves_and_is_restored():
    before = [dict(vars(owner)) for owner in OWNERS]
    with spans.Tracer("t") as tracer:
        workloads.install_wrappers(tracer)  # raises if a wrapped name is gone
        wrapped = {(owner.__name__, name)
                   for owner, old in zip(OWNERS, before)
                   for name, value in vars(owner).items() if old.get(name) is not value}
        assert {("basts.splitter", "build_ast"), ("basts.splitter", "parse_method"),
                ("basts.splitter", "build_split_asts")} <= wrapped
    for owner, old in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == old.keys()
        assert all(now[name] is value for name, value in old.items()), owner.__name__
