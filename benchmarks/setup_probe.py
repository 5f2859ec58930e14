"""Times the program's own set-up in a fresh interpreter; prints one JSON line.

Set-up is what a ``detect`` run does before its first pair: import halodet,
load the input, build the gateway, the tool set and the cache, and render a
first prompt (which loads the templates and checks their digests).

    python3 benchmarks/setup_probe.py SRC_DIR CACHE_DIR|- INPUT_FILE...

Building the fakes is preparation and is not timed.
"""

import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import halodet  # noqa: E402

imported = time.perf_counter()

from halodet import bench  # noqa: E402

pairs = [pair for path in sys.argv[3:] for pair in bench.load_detection_input(path)]
loaded = time.perf_counter()

import fakes  # noqa: E402

backends = fakes.Backends([], latency=False)
build_started = time.perf_counter()
gateway = halodet.ModelGateway(backends.model)
tools = halodet.ToolBackendSet(
    object_detector=backends.object,
    attribute_answerer=backends.attribute,
    scene_text_reader=backends.scene,
    fact_searcher=backends.fact,
)
cache = halodet.DiskCache(sys.argv[2]) if sys.argv[2] != "-" else None
built = time.perf_counter()

first = pairs[0]
if first.claims:
    halodet.render(halodet.TemplateId.OBJECT_QUERY,
                   {"claims": halodet.render_claim_list([c.text for c in first.claims])})
else:
    halodet.render(halodet.SupplementalId.EXTRACT_CLAIMS, {"text": first.text})
rendered = time.perf_counter()

print('{"import_s": %r, "load_s": %r, "build_s": %r, "render_s": %r, "setup_s": %r}' % (
    imported - started, loaded - imported, built - build_started, rendered - built,
    (imported - started) + (loaded - imported) + (built - build_started) + (rendered - built),
))
