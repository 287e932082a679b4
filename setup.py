"""Setup shim.

The offline environment ships setuptools without the ``wheel`` package, so
PEP 660 editable installs (which require ``bdist_wheel``) fail.  Keeping a
``setup.py`` lets ``pip install -e .`` fall back to the legacy
``setup.py develop`` path, which works without wheel.  The package
metadata is the ``setup()`` call below; there is no ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
