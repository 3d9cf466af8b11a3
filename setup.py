"""Packaging entry point.

Everything lives in ``pyproject.toml``; this file only lets the offline
``python setup.py develop`` fallback work where pip cannot build an
editable install.
"""

from setuptools import setup

setup()
