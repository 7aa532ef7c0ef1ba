"""Whole-workflow benchmark for the staging runtime (see README.md)."""
