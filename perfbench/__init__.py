"""Seeded benchmark of the ealc toolkit; run it with perfbench/run.py."""
