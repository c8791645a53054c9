"""Fault-campaign benchmark (see README.md); run ``perfbench/run.py``."""
