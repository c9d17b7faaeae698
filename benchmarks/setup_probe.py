"""One fresh start of cloudpass, timed from inside a new interpreter.

Usage: python3 setup_probe.py <src dir> <scenario|import|wire> < input

Reads its input first, then times importing cloudpass plus whatever the
workload needs before its first op: parsing the scenario text
(``scenario``), nothing more (``import``), or building the empty
embassy and airport clouds (``wire``). Then times the set-up reference in
the same interpreter: importing a fixed set of standard-library modules
that cloudpass does not use, the same kind of work (finding, reading and
running bytecode) as most of the set-up, so the caller can count the
set-up against the machine's speed at that moment. Prints both, in
seconds.
"""

import sys
import time

REFERENCE_MODULES = ("email.parser", "pydoc", "tarfile", "unittest",
                     "xml.dom.minidom")

src, kind = sys.argv[1], sys.argv[2]
text = sys.stdin.read()
start = time.perf_counter()
sys.path.insert(0, src)
import cloudpass  # noqa: E402

if kind == "scenario":
    cloudpass.load_scenario(text, 0)
elif kind == "wire":
    cloudpass.clouds.EmbassyCloud("IN", bytes(16))
    cloudpass.clouds.AirportCloud("BLR")
setup = time.perf_counter() - start

loaded = [name for name in REFERENCE_MODULES if name in sys.modules]
if loaded:
    sys.exit(f"setup_probe: cloudpass now imports {loaded}; the set-up "
             f"reference must be modules it does not use")
start = time.perf_counter()
for name in REFERENCE_MODULES:
    __import__(name)
reference = time.perf_counter() - start
print(repr(setup), repr(reference))
