"""Build script: the package is pure Python; metadata is in pyproject.toml."""

from setuptools import setup

setup()
