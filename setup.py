"""Setup shim.

Kept minimal so legacy (non-PEP 517) editable installs — ``pip install -e .
--no-use-pep517`` — work in offline environments where the ``wheel``
package is unavailable. Runtime dependencies are declared here, and both
are hard requirements: NumPy for every vectorized path, SciPy for the
sparse CSR products of the ranking kernels (``repro.ranking.sparse``
imports it unconditionally). CI installs the package from this file, so
these are the dependencies its tests run with.
"""

from setuptools import find_packages, setup

setup(
    name="repro-incremental-crawler",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy",
        "scipy",
    ],
)
