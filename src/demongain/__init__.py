"""Two-qubit measurement-feedback energy-extraction toolkit.

The modules are the API: import each name from the module that defines it.
"""

# perfbench/test_perfbench.py's tracer test checks that patching
# tomography.bootstrap also patches this alias
from .tomography import bootstrap
